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
    _grid_fibers,
    _orbit_fibers,
    _orbit_x_vectors,
    _period_products,
    _schrodinger_shaped,
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
    """The fibers `_transfer_grid` multiplies, from its builder `_grid_fibers`, one (G, 2, 2) array per step."""
    schro = _schrodinger_shaped(c.series)
    vals = _grid_fibers(c, thetas, schro)[0](np.arange(n))
    if schro:  # [[x, -1], [1, 0]], the x exactly
        return sl2.schrodinger_fiber(-vals, 0.0)
    return np.moveaxis(vals.reshape(n, 2, 2, thetas.size), -1, 1)


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


_RECURRENCE_NS = (-40, -7, -1, 0, 1, 2, 31, 32, 33, 500, 4000)
_RECURRENCE_GRIDS = (1, 3, 128, 2688)


def _check_against_per_step_product(c, ln_tol, unit_tol, rel_tol=0.0):
    """_transfer_grid at every n of _RECURRENCE_NS on every grid of _RECURRENCE_GRIDS
    against the per-step product `_transfer_steps` at three phases of the grid.

    n = 0 is the identity exactly.  n = 1 is the fiber and n = -1 the
    adjugate at theta - alpha, within 1e-14 on the whole grid.  ln||A_n||
    agrees within max(ln_tol, rel_tol |ln||A_n|||), the normalized matrices
    within unit_tol.
    """
    for G in _RECURRENCE_GRIDS:
        th = _frac(np.arange(G) / G + 0.01)
        for n in _RECURRENCE_NS:
            mats, ls = _transfer_grid(c, th, n)
            assert mats.shape == (G, 2, 2) and ls.shape == (G,) and mats.flags.c_contiguous
            if n == 0:
                assert np.array_equal(mats, np.broadcast_to(np.eye(2), mats.shape)) and not np.any(ls)
            if n in (1, -1):
                fiber = c.series(th) if n == 1 else sl2.inv_det1(c.series(np.mod(th - c.alpha, 1.0)))
                gap = np.max(np.abs(mats - fiber))
                assert gap <= 1e-14 and not np.any(ls), (G, n, gap)
            for i in sorted({0, G // 3, G - 1}):
                ref, ref_ls = _transfer_steps(c, float(th[i]), n)
                ln = _ln_norms(ref, ref_ls)
                gap = abs(_ln_norms(mats[i], ls[i]) - ln)
                assert gap <= max(ln_tol, rel_tol * abs(ln)), (G, n, i, gap)
                unit = np.max(np.abs(mats[i] / np.max(np.abs(mats[i])) - ref / np.max(np.abs(ref))))
                assert unit <= unit_tol, (G, n, i, unit)


@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_grid_products_of_any_n_match_per_step_product(lam):
    """_transfer_grid on almost Mathieu, stepped by the Schrodinger recurrence, against the
    per-step product, to the tolerances of test_grid_products_match_per_step_evaluation:
    1e-11 in ln||A_n|| and in the normalized matrices (measured: at most 7.3e-12 in ln||A_n||,
    at n = 4000 and lam = 3 where ln||A_n|| ~ 4 400, and 4.0e-13), and 1e-14 for the single
    fibers at n = 1 and n = -1 (measured: at most 6.9e-15).
    """
    c = amo(lam, 0.4, GOLDEN)
    assert _schrodinger_shaped(c.series)
    _check_against_per_step_product(c, 1e-11, 1e-11)


@pytest.mark.parametrize("E", [0.5, 2.5])
def test_grid_products_of_a_high_degree_potential_match_per_point_product(E):
    """_transfer_grid on the K = 40 Schrodinger cocycle against the per-point product of
    _transfer_steps: 1e-12 in ln||A_n|| and 1e-13 in the normalized matrices (measured: at
    most 1.1e-13 for |n| <= 500, and 1.8e-14).  At n = 4000 and E = 2.5, ln||A_n|| ~ 3 338
    and the bound is 2e-15 of it: the parent's pairwise kernel read the same 2.3e-12 gap
    there, so it is the reference's rounding.
    """
    c = schrodinger(ud_potential(), E, GOLDEN)
    assert _schrodinger_shaped(c.series)
    _check_against_per_step_product(c, 1e-12, 1e-13, rel_tol=2e-15)


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
    """Every Schrodinger case (almost Mathieu and the K = 40 V) runs on the orbit of x alone."""
    for label, c, n in _rotation_number_cases(rng):
        assert _schrodinger_shaped(c.series) == label.startswith("schrodinger"), label
        out = rotation_number(c, n=n)
        ref = _rotation_number_loop(c, n)
        assert rho_dist(out["rho"], ref["rho"]) <= 1e-12, label
        assert abs(out["error_bar"] - ref["error_bar"]) <= 1e-12, label


@pytest.mark.parametrize("scale", [1.0, 3e4, 1e40, 1e200])
def test_orbit_x_vectors_match_exact_product(scale):
    """Directions of `_orbit_x_vectors` against a 60-digit product of the fibers [[x, -1], [1, 0]].

    Past |x| ~ 3e4 the sub-blocks shorten, so that no prefix leaves float
    range unrescaled.  The angles agree mod pi to 1e-11 (measured: 2.2e-12
    at scale 1, 4.4e-16 above; the matrix chain of `_orbit_vectors` reads
    5.3e-12 at scale 1).
    """
    import mpmath as mp

    x = scale * np.random.default_rng(7).uniform(-3.0, 3.0, 5000)
    vec = np.array([math.cos(0.3 * math.pi), math.sin(0.3 * math.pi)])
    got = _orbit_x_vectors(x, vec)
    assert got.shape == (x.size, 2) and np.all(np.isfinite(got))
    exact = np.empty(x.size)
    with mp.workdps(60):
        u, v = mp.mpf(vec[0]), mp.mpf(vec[1])
        for i, xi in enumerate(x.tolist()):
            u, v = xi * u - v, u
            h = mp.sqrt(u * u + v * v)
            u, v = u / h, v / h
            exact[i] = float(mp.atan2(v, u))
    turn = np.arctan2(got[:, 1], got[:, 0]) - exact
    gap = np.max(np.abs((turn + np.pi / 2) % np.pi - np.pi / 2))
    assert gap <= 1e-11, (scale, gap)


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
        for (thetas, mats), (x_thetas, x) in zip(blocks, _orbit_fibers(c, theta0, n, x_only=True)):
            assert np.array_equal(x_thetas, thetas) and x.shape == (len(thetas),)
            assert np.max(np.abs(x - mats[:, 0, 0])) <= 1e-14


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
    """Grid products agree with the sequential per-step matrix product to a stated tolerance.

    Both multiply the same fibers, those of `_grid_fibers`, whose agreement
    with point evaluation test_grid_chunks_end_on_rescaling_steps checks.
    Runs of RESCALE_EVERY steps other than a block's first fold onto the
    running product as units, so only n = 1 is bit-identical; the tolerances
    are about twice the deviations the pairwise kernel saw at n = 1000 on
    1000 points (5.7e-12 in ln||A_n||, 4.2e-12 in the normalized matrices).
    """
    c = amo(3.0, E, GOLDEN)
    # 128 points take 16 runs of 32 steps per block, 600 and 1000 points 3 and 2
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
    """ln||A_n|| of _transfer_grid against a 50-digit product of the same float fibers (`_grid_fibers`)."""
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
    """m is the largest power of two dividing sl2._CHUNK with m P <= 4096, or 1,
    and the discriminant block takes its chunks by it."""
    m = sl2._chunk_steps(P)
    assert sl2._CHUNK % m == 0 and m & (m - 1) == 0
    assert m * P <= 4096 or m == 1
    assert m == sl2._CHUNK or 2 * m * P > 4096
    seen, product = [], sl2._chunk_product
    monkeypatch.setattr(sl2, "_chunk_product", lambda v: seen.append(v.shape) or product(v))
    spectra.Discriminant(FourierSeries.cosine(1.0), 43, 70).block(0.3, np.arange(P) / P)
    assert seen == [(2, 2, m, P)] * (70 // m) + ([(2, 2, 70 % m, P)] if 70 % m else [])


@pytest.mark.parametrize("G", [1, 64, 100, 128, 600, 1000, 1664, 4352])
def test_grid_chunks_end_on_rescaling_steps(G, rng):
    """A grid product multiplies runs of RESCALE_EVERY steps, each ending on a rescaling step.

    `_period_products` yields the runs in step order: n = 70 gives runs of
    32, 32 and 6 steps, each the sequential product of its own fibers to
    1e-13 relative, for a Schrodinger-shaped series (the recurrence;
    measured: bit for bit) and a general one (`sl2._mul`; measured: at most
    1.8e-15).  _transfer_grid rescales after each full run, so at n = 64
    every product has max entry exactly 1, and not after the last, short
    one, so n = 70 keeps the log scales of n = 64 bit for bit.  Those agree
    with the per-step product rescaled every RESCALE_EVERY steps to 1e-12
    relative (measured: at most 1.3e-14; a run folds onto the running
    product as a unit).  The builder's fibers agree with point evaluation
    at theta + (j alpha mod 1) to 1e-13 (measured: at most 1.1e-14, 48 eps).
    """
    th = np.arange(G) / G
    n = 70
    for c in (amo(3.0, 0.5, GOLDEN), QpCocycle(GOLDEN, _near_rotation_series(rng))):
        fibers = _kernel_fibers(c, th, n)
        for j in range(n):
            ref = c.series(_frac(th + _frac(j * c.alpha)))
            assert np.max(np.abs(fibers[j] - ref)) <= 1e-13, (G, j)
        runs = np.concatenate([np.moveaxis(p, (0, 1), (-2, -1))
                               for p in _period_products(c, th, n, RESCALE_EVERY)])
        assert runs.shape == (3, G, 2, 2)
        for r, (j0, j1) in enumerate(((0, 32), (32, 64), (64, 70))):
            ref = np.broadcast_to(np.eye(2), (G, 2, 2))
            for f in fibers[j0:j1]:
                ref = f @ ref
            scale = np.max(np.abs(ref), axis=(1, 2))[:, None, None]
            assert np.max(np.abs(runs[r] - ref) / scale) <= 1e-13, (G, r)
        mats, ls = _transfer_grid(c, th, 64)
        assert np.all(np.max(np.abs(mats), axis=(1, 2)) == 1.0)
        assert np.array_equal(_transfer_grid(c, th, n)[1], ls)
        ref_ls = _transfer_grid_steps(c, th, 64)[1]
        assert np.max(np.abs(ls - ref_ls) / np.maximum(np.abs(ref_ls), 1.0)) <= 1e-12, G


def test_grid_products_on_large_grids_keep_step_order():
    """On a grid of more than 1 024 points each block of a Schrodinger product holds one run, and
    a block's first run continues the running product, so the product is multiplied in step order.

    That order matters where a product cancels past float64.  On the
    `qplab ldt` grid at q = 21 (alpha = 13/21, lam = 3, E = 0, N = 83,
    2 688 points), ln||A_N|| is within 1.0 of a 120-digit product of the
    same float fibers on every phase whose screen sum_j ln||A(theta_j)|| -
    ln||A_N|| exceeds 52 ln 2 (42 phases; measured: at most 0.0085).  Folding
    each run onto the running product from the identity read up to 11.6
    there, and the per-point product `_transfer_steps` reads 0.025 from its
    own fibers.
    """
    import mpmath as mp

    c = QpCocycle(13 / 21, amo(3.0, 0.0, GOLDEN).series)
    N, th = 83, np.arange(2688) / 2688
    mats, ls = _transfer_grid(c, th, N)
    ln = _ln_norms(mats, ls)
    fibers = _kernel_fibers(c, th, N)
    unresolved = np.flatnonzero(np.sum(np.log(sl2.op_norm(fibers)), axis=0) - ln > 52 * math.log(2))
    assert unresolved.size == 42
    with mp.workdps(120):
        for i in unresolved:
            acc = mp.eye(2)
            for f in fibers[:, i]:
                acc = mp.matrix(f.tolist()) * acc
            f2 = sum(x * x for x in acc)
            det = acc[0, 0] * acc[1, 1] - acc[0, 1] * acc[1, 0]
            exact = float(mp.log(mp.sqrt((f2 + mp.sqrt(f2 * f2 - 4 * det * det)) / 2)))
            assert abs(ln[i] - exact) <= 1.0, (i, ln[i], exact)


@pytest.mark.parametrize("G", [1, 3, 128, 2688, 70_000])
def test_grid_products_hold_bounded_values(G, rng, monkeypatch):
    """Each build of fiber values holds at most max(2^16, entries G) values and 2^16 step phases.

    A Schrodinger series builds its one entry x, any other its four, and a
    grid of more than 2^16 points is built one step at a time.
    """
    import qplab.cocycle as cocycle

    builder, seen = cocycle._grid_fibers, []

    def recording(c, thetas, x_only):
        values, held = builder(c, thetas, x_only)
        modes = c.series.K + 1
        return (lambda js: seen.append((js.size, 1 if x_only else 4, modes)) or values(js)), held

    monkeypatch.setattr(cocycle, "_grid_fibers", recording)
    th = np.arange(G) / G
    n = 100 if G > 4096 else 2000
    for c in (schrodinger(ud_potential(), 0.5, GOLDEN), QpCocycle(GOLDEN, _near_rotation_series(rng))):
        seen.clear()
        _transfer_grid(c, th, n)
        assert sum(steps for steps, _, _ in seen) == n
        for steps, entries, modes in seen:
            assert steps * entries * G <= max(2**16, entries * G), (G, steps, entries)
            assert steps * 2 * modes <= 2**16, (G, steps, modes)


@pytest.mark.parametrize("label,bound_mib", [("finite_lyapunov K=40", 1.5), ("ldt_experiment q=34", 2)])
def test_grid_products_memory_is_capped(label, bound_mib):
    """Peak allocation of a grid product, under tracemalloc, after a first call.

    finite_lyapunov of the K = 40 Schrodinger cocycle at n = 2000 on 128
    points peaked at 0.98 MiB with the pairwise chunk kernel and 1.07 MiB
    with the recurrence (blocks of 512 steps, whose x values take 0.5 MiB);
    ldt_experiment at q = 34 (4 352 points, N = 166) at 1.58 and 1.07 MiB.
    """
    from qplab.ldt import ldt_experiment

    if label.startswith("finite"):
        c = schrodinger(ud_potential(), 0.5, GOLDEN)
        run = lambda: finite_lyapunov(c, 2000, 128)  # noqa: E731
    else:
        run = lambda: ldt_experiment(amo(3.0, 0.0, GOLDEN), 21, 34, N=166, kappa=0.05,  # noqa: E731
                                     grid_mult=128)
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, peak


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
