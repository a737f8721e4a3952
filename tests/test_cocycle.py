import math
import tracemalloc

import numpy as np
import pytest

import qplab.sl2 as sl2
from conftest import random_real_series, ud_potential
from qplab import spectra
from qplab.cocycle import (
    RESCALE_EVERY,
    LiftResolutionError,
    QpCocycle,
    WindingError,
    _frac,
    _grid_chunks,
    _orbit_fibers,
    _transfer_grid,
    amo,
    cocycle_property_residual,
    commutation_residual,
    finite_lyapunov,
    lyapunov_det_drift,
    renorm_iterates,
    rho_dist,
    rotation_cocycle,
    rotation_number,
    schrodinger,
)
from qplab.udspace import FourierSeries, MatSeries, rotation_series

GOLDEN = (math.sqrt(5) - 1) / 2


def const_cocycle(alpha, m):
    return QpCocycle(alpha, FourierSeries.constant(m))


def _rot_theta_series():
    """R_theta, the rotation by 2 pi theta: cos and sin of 2 pi theta as K = 1 series."""
    cos = FourierSeries.cosine(1.0)
    sin = FourierSeries.from_dict({1: -0.5j, -1: 0.5j}, real_flag=True)
    return MatSeries.from_entries(cos, sin * (-1.0), sin, cos)


def _rotation_number_loop(c, n, theta0=0.0, y0=0.3):
    """Reference: the per-step loop that unwraps against a running reference smoothed by 0.995."""
    alpha = c.alpha
    phi = float(y0) % 1.0
    vec = np.array([math.cos(math.pi * phi), math.sin(math.pi * phi)])
    th = theta0
    total = 0.0
    ref = None
    checkpoints = []
    j = 0
    while j < n:
        m = min(4096, n - j)
        mats = c.series(np.mod(th + alpha * np.arange(m), 1.0))
        for i in range(m):
            new = mats[i] @ vec
            new /= math.hypot(new[0], new[1])
            raw = (math.atan2(new[1], new[0]) / math.pi - math.atan2(vec[1], vec[0]) / math.pi) % 1.0
            if ref is None:
                d = ref = raw if raw <= 0.5 else raw - 1.0
            else:
                d = raw + math.floor(ref - raw + 0.5)
                ref = 0.995 * ref + 0.005 * d
            total += d
            vec = new
            j += 1
            if j >= n // 10 and (j & (j - 1)) == 0 or j == n:
                checkpoints.append((j, total / j))
        th = (th + alpha * m) % 1.0
    avg = total / n
    err = max([abs(v - avg) for (jj, v) in checkpoints if jj >= n // 10], default=0.0)
    return {"rho": (avg / 2.0) % 0.5, "error_bar": err / 2.0}


def _near_rotation_series(rng):
    """The near-rotation fiber of test_rotation_number_perturbation_bound."""
    x = random_real_series(rng, 3, amp=0.004)
    y = random_real_series(rng, 3, amp=0.004)
    F = MatSeries.from_entries(x, y, y, x * (-1.0))
    return rotation_series(FourierSeries.constant(0.25), out_K=2).mat_mul(
        F.exp_map(out_K=12), out_K=14
    )


def _kernel_fibers(c, thetas, n):
    """The fibers of `_grid_chunks`, one (G, 2, 2) array per step."""
    for chunk in _grid_chunks(c, thetas, n):
        yield from np.moveaxis(chunk, (0, 1), (-2, -1))


def _transfer_grid_steps(c, thetas, n):
    """Reference: the sequential product of the kernel's fibers, rescaled as _transfer_grid rescales."""
    acc = np.broadcast_to(np.eye(2), (thetas.size, 2, 2)).copy()
    log_scale = np.zeros(thetas.size)
    for j, fiber in enumerate(_kernel_fibers(c, thetas, n)):
        acc = fiber @ acc
        if (j + 1) % RESCALE_EVERY == 0:
            s = np.max(np.abs(acc), axis=(1, 2))
            acc /= s[:, None, None]
            log_scale += np.log(s)
    return acc, log_scale


def _transfer_steps(c, theta, n):
    """Reference: the per-step product at one phase, n < 0 by the inverse-product convention.

    Returns (m, log_scale) with A_n(theta) = exp(log_scale) m.
    """
    if n == 0:
        return np.eye(2), 0.0
    acc = np.eye(2)
    log_scale = 0.0
    if n > 0:
        steps = theta + _frac(c.alpha * np.arange(n))
    else:
        steps = theta + _frac(c.alpha * np.arange(-1, n - 1, -1))
    vals = c.series(_frac(steps))
    if n < 0:
        vals = sl2.inv_det1(vals)
    for j in range(abs(n)):
        acc = vals[j] @ acc
        if (j + 1) % RESCALE_EVERY == 0:
            s = float(np.max(np.abs(acc)))
            if s > 1e100 or s < 1e-100:
                acc /= s
                log_scale += math.log(s)
    s = float(np.max(np.abs(acc)))
    if log_scale != 0.0:
        acc /= s
        log_scale += math.log(s)
    return acc, log_scale


def _det_drift_steps(c, n, grid=64, block=4):
    """Reference: lyapunov_det_drift with one fiber evaluation per step."""
    th = np.arange(grid) / grid
    drift = np.zeros(grid)
    for start in range(0, n, block):
        acc = np.broadcast_to(np.eye(2), (grid, 2, 2)).copy()
        for j in range(start, min(start + block, n)):
            acc = c.series(np.mod(th + j * c.alpha, 1.0)) @ acc
        drift += np.abs(np.log(np.abs(sl2.det2(acc))))
    return float(np.max(drift))


def test_schrodinger_free_fiber():
    c = schrodinger(FourierSeries.zero(1), 0.0, GOLDEN)
    assert np.allclose(c.series(0.37), np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.max(np.abs(sl2.det2(c.series(np.arange(256) / 256)) - 1.0)) <= 1e-10


def test_schrodinger_trace_identity(rng):
    V = random_real_series(rng, 3)
    E = 0.7
    c = schrodinger(V, E, GOLDEN)
    for th in rng.uniform(0, 1, 5):
        m = c.series(float(th))
        assert m[0, 0] + m[1, 1] == pytest.approx(E - float(np.real(V(float(th)))))


def test_amo_is_schrodinger_with_cosine():
    """amo is the Schrodinger series of 2 lam cos 2 pi theta, coefficient for coefficient.

    Its potential takes the values 2 lam cos 2 pi theta bit for bit.  The
    2x2 point values sum E, -lam e^{2 pi i theta} and -lam e^{-2 pi i theta}
    rather than E - 2 lam cos 2 pi theta, so they equal
    sl2.schrodinger_fiber(2 lam cos 2 pi theta, E) bit for bit at E = 0 and
    to 4 eps (|E| + 2 lam) otherwise (measured: at most 8.9e-16, at E = 2.8).
    """
    th = np.random.default_rng(5).random(1000)
    for lam, E in ((0.8, 0.3), (3.0, 0.0), (1.5, 2.8), (0.2, -2.8)):
        a = amo(lam, E, GOLDEN)
        s = schrodinger(FourierSeries.cosine(2 * lam), E, GOLDEN)
        assert a.alpha == s.alpha == GOLDEN and a.series.real_flag and s.series.real_flag
        assert np.array_equal(a.series.coeffs, s.series.coeffs)
        V = 2 * lam * np.cos(2 * np.pi * th)
        assert np.array_equal(FourierSeries.cosine(2 * lam)(th), V)
        gap = np.max(np.abs(a.series(th) - sl2.schrodinger_fiber(V, E)))
        bound = 0.0 if E == 0.0 else 4 * np.finfo(float).eps * (abs(E) + 2 * lam)
        assert gap <= bound, (lam, E, gap)


def test_transfer_trivial_steps():
    c = amo(0.5, 0.0, GOLDEN)
    th = np.array([0.2])
    assert np.allclose(_transfer_grid(c, th, 0)[0][0], np.eye(2))
    assert np.allclose(_transfer_grid(c, th, 1)[0][0], c.series(0.2))
    back = _transfer_grid(c, th, -1)[0][0]
    assert np.allclose(back, np.linalg.inv(c.series(0.2 - GOLDEN)), atol=1e-12)


@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_grid_products_of_any_n_match_per_step_product(lam):
    """_transfer_grid at n <= 0 and n > 0 against the per-step product, to the
    tolerances of test_grid_products_match_per_step_evaluation; n = 0 exactly.

    At n = 1 and n = -1 the product is one fiber from the chunk kernel, which
    sums the modes in another order than point evaluation: they agree to
    1e-14 (measured: 0 at n = 1, 1.8e-15 at n = -1).
    """
    c = amo(lam, 0.4, GOLDEN)
    th = np.array([0.0, 0.123, 0.5, 0.871])
    for n in (-40, -7, -1, 0, 1, 2, 33, 500):
        mats, ls = _transfer_grid(c, th, n)
        assert mats.shape == (th.size, 2, 2) and ls.shape == (th.size,)
        if n == 0:
            assert np.array_equal(mats, np.broadcast_to(np.eye(2), mats.shape)) and not np.any(ls)
        if n == 1:
            assert np.max(np.abs(mats - c.series(th))) <= 1e-14 and not np.any(ls)
        if n == -1:
            inv = sl2.inv_det1(c.series(np.mod(th - GOLDEN, 1.0)))
            assert np.max(np.abs(mats - inv)) <= 1e-14 and not np.any(ls)
        for i, t in enumerate(th):
            ref, ref_ls = _transfer_steps(c, float(t), n)
            gap = abs(_ln_norms(mats[i], ls[i]) - _ln_norms(ref, ref_ls))
            assert gap <= 1e-11, (n, t, gap)
            unit = mats[i] / np.max(np.abs(mats[i]))
            assert np.max(np.abs(unit - ref / np.max(np.abs(ref)))) <= 1e-11, (n, t)


@pytest.mark.parametrize("E", [0.5, 2.5])
def test_grid_products_of_a_high_degree_potential_match_per_point_product(E):
    """_transfer_grid on the K = 40 Schrodinger cocycle against the per-point product of
    _transfer_steps, with the same thetas: 1e-12 in ln||A_n|| and 1e-13 in the normalized
    matrices (measured: at most 1.1e-13 at ln||A_n|| ~ 400, and 2.4e-15)."""
    c = schrodinger(ud_potential(), E, GOLDEN)
    th = np.arange(16) / 16 + 0.01
    for n in (-7, 1, 500):
        mats, ls = _transfer_grid(c, th, n)
        for i, t in enumerate(th):
            ref, ref_ls = _transfer_steps(c, float(t), n)
            gap = abs(_ln_norms(mats[i], ls[i]) - _ln_norms(ref, ref_ls))
            assert gap <= 1e-12, (n, t, gap)
            unit = mats[i] / np.max(np.abs(mats[i]))
            assert np.max(np.abs(unit - ref / np.max(np.abs(ref)))) <= 1e-13, (n, t)


def test_cocycle_property():
    c = amo(3.0, 0.0, GOLDEN)
    assert cocycle_property_residual(c, 0.123, 500, 500) <= 1e-9
    assert cocycle_property_residual(c, 0.321, 700, 300) <= 1e-9


def test_lyapunov_constant_diag():
    c = const_cocycle(GOLDEN, np.diag([2.0, 0.5]))
    assert abs(finite_lyapunov(c, 37) - math.log(2)) <= 1e-12


def test_lyapunov_rotation_zero():
    c = rotation_cocycle(GOLDEN, 0.37)
    assert abs(finite_lyapunov(c, 100)) <= 1e-12


def test_lyapunov_subadditive_nonnegative():
    c = amo(1.5, 0.4, GOLDEN)
    l1 = finite_lyapunov(c, 64)
    l2 = finite_lyapunov(c, 128)
    assert l2 <= l1 + 1e-10
    assert l2 >= 0.0


def test_transfer_scaled_det_drift():
    c = amo(3.0, 0.0, GOLDEN)
    assert lyapunov_det_drift(c, 10_000) <= 1e-8


def test_rotation_number_of_rotations():
    for rho in (0.0, 0.1, 0.25, 0.35, 0.49):
        out = rotation_number(rotation_cocycle(GOLDEN, rho), n=4000)
        assert rho_dist(out["rho"], rho) <= 1e-10, rho


def test_rotation_number_identity():
    out = rotation_number(const_cocycle(GOLDEN, np.eye(2)), n=2000)
    assert out["rho"] == 0.0


def test_rotation_number_below_spectrum():
    V = FourierSeries.cosine(1.0)
    c = schrodinger(V, -3.0 - 1.0, GOLDEN)
    out = rotation_number(c, n=60_000)
    assert rho_dist(out["rho"], 0.0) <= 1e-3


def test_rotation_number_perturbation_bound(rng):
    A = _near_rotation_series(rng)
    c = QpCocycle.from_series(GOLDEN, A)
    out = rotation_number(c, n=150_000)
    diff = A - rotation_series(FourierSeries.constant(0.25), out_K=14)
    dist = float(np.max(sl2.op_norm(diff.values())))
    assert rho_dist(out["rho"], 0.25) <= dist + out["error_bar"]


def test_winding_check_rejects_nontrivial_fiber():
    c = QpCocycle(GOLDEN, _rot_theta_series())
    with pytest.raises(WindingError):
        rotation_number(c, n=100)


def _rotation_number_cases(rng):
    cases = [(f"rotation rho={rho}", rotation_cocycle(GOLDEN, rho), 4000)
             for rho in (0.0, 0.1, 0.25, 0.35, 0.49)]
    # the angle of A(theta) e_1 crosses the branch cut of atan2 at pi
    wobble = FourierSeries.constant(0.49) + FourierSeries.cosine(0.02)
    cases.append(("rotation by 0.49 + 0.02 cos", QpCocycle(
        GOLDEN, rotation_series(wobble, out_K=10)), 20_000))
    cases += [(f"schrodinger E={E}", schrodinger(FourierSeries.cosine(1.0), E, GOLDEN), 20_000)
              for E in (-2.4, -1.6, -0.8, 0.8, 1.6, 2.4)]
    cases.append(("near rotation", QpCocycle.from_series(GOLDEN, _near_rotation_series(rng)),
                  150_000))
    cases.append(("schrodinger K=40 E=0.5", schrodinger(ud_potential(), 0.5, GOLDEN), 20_000))
    return cases


def test_rotation_number_matches_per_step_loop(rng):
    for label, c, n in _rotation_number_cases(rng):
        out = rotation_number(c, n=n)
        ref = _rotation_number_loop(c, n)
        assert rho_dist(out["rho"], ref["rho"]) <= 1e-12, label
        assert abs(out["error_bar"] - ref["error_bar"]) <= 1e-12, label


def test_rotation_number_against_ids():
    # Johnson-Moser: N = 1 - 2 rho, here at the rational frequency 8/13
    V = FourierSeries.cosine(1.0)
    for E in (-1.9, -1.2, -0.5, 0.3, 0.9, 1.5, 2.1):
        N = spectra.ids(V, 8, 13, E)
        out = rotation_number(schrodinger(V, E, 8 / 13), n=20_000)
        assert abs(N - (1.0 - 2.0 * out["rho"])) <= 2.0 * out["error_bar"] + 1e-6, E


def test_rotation_number_rejects_unresolved_lift():
    # rot(0.4 sin 2 pi 256 theta): winding 0, but between the 256 reference points the
    # angle swings by 0.8 pi; a nonzero winding would raise a WindingError that is not a
    # LiftResolutionError.  Its coefficients at 256 k are Bessel values, below 1e-13 of
    # the total past k = 17.
    swing = FourierSeries.from_dict({256: -0.2j, -256: 0.2j}, real_flag=True)
    c = QpCocycle(GOLDEN, rotation_series(swing, out_K=18 * 256))
    with pytest.raises(LiftResolutionError):
        rotation_number(c, n=1000)
    assert issubclass(LiftResolutionError, WindingError)


def _orbit_series(rng, K, kind="real"):
    """A traceless 2x2 series of bandwidth K with undamped modes.

    kind "real" is a real map, fhat(-k) = conj(fhat(k)); "complex" gives the
    coefficients random phases, and "re" is the real part of that series.
    """
    x, y, z = (random_real_series(rng, K, amp=0.3, decay=0.0) for _ in range(3))
    A = MatSeries.from_entries(x, y + z, y - z, x * (-1.0))
    if kind == "real":
        return A
    return MatSeries(A.coeffs * np.exp(2j * np.pi * rng.random(A.coeffs.shape)), kind == "re")


@pytest.mark.parametrize("K,kind", [pytest.param(K, "real", id=str(K)) for K in (34, 200, 1500)]
                         + [(200, "re"), (200, "complex")])
def test_orbit_fibers_match_point_evaluation(rng, K, kind):
    A = _orbit_series(rng, K, kind)
    c = QpCocycle.from_series(GOLDEN, A)
    blocks = list(_orbit_fibers(c, 0.37, 9000))
    assert [len(th) for th, _ in blocks] == [4096, 4096, 808]
    for th, mats in blocks:
        assert np.iscomplexobj(mats) == (kind == "complex")
        assert np.max(np.abs(mats - A(th))) <= 1e-12 * A.l1()


def test_orbit_fibers_keep_their_theta_bits():
    """An orbit block reports the thetas (th + (j alpha mod 1)) mod 1 of its start th, bit for bit.

    The fibers at those thetas are checked by test_orbit_fibers_match_point_evaluation.
    """
    c = amo(1.5, 0.3, GOLDEN)
    for theta0, n in ((0.0, 9000), (0.37, 5000), (0.0, 100)):
        steps = _frac(GOLDEN * np.arange(min(4096, n)))
        blocks = list(_orbit_fibers(c, theta0, n))
        assert len(blocks) == -(-n // 4096)
        th = theta0
        for j, (thetas, mats) in zip(range(0, n, 4096), blocks):
            want = _frac(th + steps[:min(4096, n - j)])
            assert np.array_equal(thetas, want) and mats.shape == (want.size, 2, 2)
            th = (th + GOLDEN * len(want)) % 1.0


@pytest.mark.parametrize("K,kind,bound_mib", [(200, "real", 4), (200, "complex", 4), (1500, "real", 12)])
def test_orbit_fibers_memory_is_capped(rng, K, kind, bound_mib):
    """Peak allocation while draining a series orbit of three blocks.

    Up to K = 1023 for a real series (511 for a complex one) the shared
    phase block holds at most 2^16 entries, 1 MB; a 4096 x (2K + 1) block
    took 52 MB at K = 200 and 393 MB at K = 1500.  Past that bandwidth the
    block stays at its floor of 64 rows, so it and the right factor of the
    product (modes x 256 entries) grow with K, hence the larger bound.
    """
    c = QpCocycle.from_series(GOLDEN, _orbit_series(rng, K, kind))
    tracemalloc.start()
    try:
        for _ in _orbit_fibers(c, 0.37, 9000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, peak


def _ln_norms(mats, log_scale):
    return np.log(sl2.op_norm(mats)) + log_scale


@pytest.mark.parametrize("E", [0.0, 2.0])
def test_grid_products_match_per_step_evaluation(E):
    """Pairwise chunk products agree with the sequential per-step product to a stated tolerance.

    Both multiply the same fibers, those of `_grid_chunks`, whose agreement
    with point evaluation test_grid_chunks_end_on_rescaling_steps checks.
    The order of the products changed, so only n = 1 is bit-identical; the
    tolerances are about twice the deviations seen at n = 1000 on 1000
    points (5.7e-12 in ln||A_n||, 4.2e-12 in the normalized matrices).
    """
    c = amo(3.0, E, GOLDEN)
    # 128 points take 32 steps per chunk, 600 and 1000 points take 4
    for th in (np.arange(128) / 128, np.arange(600) / 600, np.arange(1000) / 1000):
        for n in (1, 31, 32, 100, 1000):
            mats, ls = _transfer_grid(c, th, n)
            ref_mats, ref_ls = _transfer_grid_steps(c, th, n)
            assert mats.shape == (th.size, 2, 2) and mats.flags.c_contiguous
            if n == 1:
                assert np.array_equal(mats, ref_mats) and np.array_equal(ls, ref_ls)
            gap = np.max(np.abs(_ln_norms(mats, ls) - _ln_norms(ref_mats, ref_ls)))
            assert gap <= 1e-11, (th.size, n, gap)
            unit = mats / np.max(np.abs(mats), axis=(1, 2))[:, None, None]
            ref_unit = ref_mats / np.max(np.abs(ref_mats), axis=(1, 2))[:, None, None]
            assert np.max(np.abs(unit - ref_unit)) <= 1e-11, (th.size, n)
    for n in (1, 7, 1000):
        ref = _det_drift_steps(c, n)
        assert 0.0 <= lyapunov_det_drift(c, n) <= 2.0 * ref + 1e-12, n


@pytest.mark.parametrize("E", [0.0, 2.0])
def test_grid_products_match_exact_product(E):
    """ln||A_n|| of _transfer_grid against a 50-digit product of the same float fibers (`_grid_chunks`)."""
    import mpmath as mp

    c = amo(3.0, E, GOLDEN)
    th = np.arange(8) / 8
    n = 200
    mats, ls = _transfer_grid(c, th, n)
    fibers = list(_kernel_fibers(c, th, n))
    with mp.workdps(50):
        for i in range(th.size):
            acc = mp.eye(2)
            for f in fibers:
                acc = mp.matrix(f[i].tolist()) * acc
            f2 = sum(x * x for x in acc)
            det = acc[0, 0] * acc[1, 1] - acc[0, 1] * acc[1, 0]
            ref = mp.log(mp.sqrt((f2 + mp.sqrt(f2 * f2 - 4 * det * det)) / 2))
            assert abs(_ln_norms(mats[i], ls[i]) - float(ref)) <= 1e-10, (i, float(ref))


def test_frac_matches_np_mod():
    rng = np.random.default_rng(11)
    xs = np.concatenate([
        rng.random(2000) * 10.0, -rng.random(2000) * 10.0, rng.normal(size=2000) * 1e15,
        rng.normal(size=200) * 1e-17, np.arange(-40.0, 41.0), [0.0, -0.0, -1e-20, -5e-324, 2.0**53],
    ])
    # bit patterns, so that +0 and -0 count as different
    assert np.array_equal(_frac(xs).view(np.uint64), np.mod(xs, 1.0).view(np.uint64))


@pytest.mark.parametrize("P", [1, 64, 100, 128, 600, 1000, 1664, 4352])
def test_chunk_steps_rule(P, monkeypatch):
    """m is the largest power of two dividing RESCALE_EVERY with m P <= 4096, or 1;
    the discriminant block takes its chunks by it as `_grid_chunks` does."""
    m = sl2._chunk_steps(P)
    assert RESCALE_EVERY % m == 0 and m & (m - 1) == 0
    assert m * P <= 4096 or m == 1
    assert m == RESCALE_EVERY or 2 * m * P > 4096
    seen, product = [], sl2._chunk_product
    monkeypatch.setattr(sl2, "_chunk_product", lambda v: seen.append(v.shape) or product(v))
    spectra.Discriminant(FourierSeries.cosine(1.0), 43, 70).block(0.3, np.arange(P) / P)
    assert seen == [(2, 2, m, P)] * (70 // m) + ([(2, 2, 70 % m, P)] if 70 % m else [])


@pytest.mark.parametrize("G", [1, 64, 100, 128, 600, 1000, 1664, 4352])
def test_grid_chunks_end_on_rescaling_steps(G):
    """Chunks hold sl2._chunk_steps(G) steps, so each ends on a rescaling step.

    Every step agrees with point evaluation at theta + (j alpha mod 1) to
    1e-13 (measured: at most 1.1e-14, 48 eps).
    """
    c = amo(3.0, 0.5, GOLDEN)
    th = np.arange(G) / G
    n = 70
    chunks = list(_grid_chunks(c, th, n))
    m = sl2._chunk_steps(G)
    assert [v.shape[2] for v in chunks] == [m] * (n // m) + ([n % m] if n % m else [])
    for k, v in enumerate(chunks):
        assert v.shape == (2, 2, v.shape[2], G) and v.flags.c_contiguous
        for i in range(v.shape[2]):
            ref = np.moveaxis(c.series(_frac(th + _frac((k * m + i) * c.alpha))), 0, -1)
            assert np.max(np.abs(v[:, :, i] - ref)) <= 1e-13, (G, k, i)


def test_renorm_level_one_is_single_fiber(golden_cf):
    c = amo(0.5, 0.2, GOLDEN)
    it = renorm_iterates(c, golden_cf, 1)
    # A^(1,0) = A_{q_0} = one fiber evaluation at the rescaled point
    beta0 = golden_cf.beta[0]
    x = 0.73
    expected = c.series(beta0 * x % 1.0)
    assert np.allclose(it["A_n0"](np.array([x]))[0], expected, atol=1e-12)


def test_renorm_commutation_amo(golden_cf):
    c = amo(0.5, 0.0, GOLDEN)
    it = renorm_iterates(c, golden_cf, 3)
    xs = np.linspace(0.0, 2.0, 9)
    assert commutation_residual(it, xs) <= 1e-8


def test_renorm_constant_cocycle_theta_independent(golden_cf):
    c = const_cocycle(GOLDEN, sl2.rot(0.13))
    it = renorm_iterates(c, golden_cf, 2)
    a = it["A_n0"](np.array([0.0, 3.7, 11.1]))
    assert np.max(np.abs(a - a[0])) == 0.0


def test_renorm_level_bounds(golden_cf):
    c = amo(0.5, 0.0, GOLDEN)
    with pytest.raises(IndexError):
        renorm_iterates(c, golden_cf, golden_cf.depth() + 5)
