import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_real_series
from qplab import kam, sl2, udspace
from qplab.udspace import (
    AliasingError,
    C_NORM,
    FourierSeries,
    MatSeries,
    Modulus,
    _grid_values,
    condition_a_check,
    gamma_of,
    lambda_many,
    lambda_of,
    log_norm_mr,
    log_norm_mr_ln,
    norm_lambda,
    norm_mr,
    rotation_series,
    split_truncate,
    t1_of,
    tail_bound_c0,
    tail_bound_mr,
)

LEMMA_C = C_NORM * max((1 + s) ** 2 * 2.0 ** (-s) for s in range(30))


def test_h1_h2_standard_moduli(moduli):
    for M in moduli:
        out = M.check_h1_h2()
        assert out["H1"] and out["H2"], (M.kind, out)


def test_h1_fails_for_flat_custom():
    M = Modulus("analytic")
    M.generator = lambda s: 0.0  # M_s = 1: not log-convex strictly
    out = M.check_h1_h2()
    assert not out["H1"]


def test_lambda_zero_below_one(moduli):
    for M in moduli:
        assert lambda_of(M, 1.0) == (0.0, 0)
        assert lambda_of(M, 0.3) == (0.0, 0)


def test_lambda_analytic_at_e():
    M = Modulus("analytic")
    val, s = lambda_of(M, math.e)
    assert s == 2
    assert val == pytest.approx(2 - math.log(2), abs=1e-12)


def test_lambda_power_cubic_growth():
    M = Modulus("power", 3.0)
    val, _ = lambda_of(M, 1e6)
    assert 0.9 <= val / math.log(1e6) ** 3 <= 1.1


def test_lambda_brute_force_scan(moduli, rng):
    for M in moduli:
        for y in rng.uniform(1.5, 50.0, size=5):
            val, s = lambda_of(M, float(y))
            brute = max(k * math.log(y) - float(M.log_m(float(k))) for k in range(200))
            assert val == pytest.approx(brute, rel=1e-12)


def test_gamma_power_integer_nondecreasing():
    M = Modulus("power", 3.0)
    xs = np.exp(np.linspace(math.log(2), math.log(1e4), 60))
    svals = [gamma_of(M, x) * math.log(x) for x in xs]
    assert all(abs(v - round(v)) < 1e-9 for v in svals)
    assert all(svals[i + 1] >= svals[i] - 1e-9 for i in range(len(svals) - 1))


def test_gamma_analytic_asymptotics():
    M = Modulus("analytic")
    x = 1e3
    assert gamma_of(M, x) == pytest.approx(x / math.log(x), rel=0.15)


def test_condition_a(moduli):
    for M in moduli:
        out = condition_a_check(M)
        assert out["I"] and out["II"] and out["III"], (M.kind, out)


def test_norm_constant():
    M = Modulus("analytic")
    f = FourierSeries.constant(-2.0)
    assert norm_mr(f, M, 0.7) == pytest.approx(C_NORM * 2.0, rel=1e-12)
    assert norm_lambda(f, M, 0.7) == pytest.approx(2.0)


def test_norm_single_harmonic_oracle():
    M = Modulus("analytic")
    f = FourierSeries.from_dict({1: 1.0})
    oracle = max(
        C_NORM * (1 + s) ** 2 * (0.2 * math.pi) ** s / math.factorial(s) for s in range(60)
    )
    assert norm_mr(f, M, 0.1) == pytest.approx(oracle, rel=1e-12)


def test_banach_algebra(moduli, rng):
    for M in moduli:
        for _ in range(30):
            f = random_real_series(rng, int(rng.integers(1, 9)))
            g = random_real_series(rng, int(rng.integers(1, 9)))
            r = 0.08
            assert log_norm_mr(f.mul(g), M, r) <= log_norm_mr(f, M, r) + log_norm_mr(
                g, M, r
            ) + 1e-9


def test_cauchy_estimate(moduli, rng):
    for M in moduli:
        cm = math.log(M.C_M)
        for _ in range(30):
            f = random_real_series(rng, int(rng.integers(1, 12)))
            r = 0.1
            assert log_norm_mr(f.derive(), M, r / 2) <= cm - math.log(r) + log_norm_mr(
                f, M, r
            ) + 1e-9


def test_two_norm_relations(moduli, rng):
    for M in moduli:
        for _ in range(15):
            f = random_real_series(rng, int(rng.integers(1, 10)), decay=1.5)
            r = 0.05
            assert norm_mr(f, M, r) <= LEMMA_C * norm_lambda(f, M, 2 * r) * (1 + 1e-9)
            assert norm_lambda(f, M, r / 2) <= (4 + M._sup_ratio(2)) / (2 * math.pi * r) * norm_mr(
                f, M, r
            ) * (1 + 1e-9)


def test_split_truncate_partition(rng):
    f = FourierSeries(rng.normal(size=17) + 1j * rng.normal(size=17))
    parts = split_truncate(f, 4)
    rec = parts["head"] + parts["tail"]
    assert np.array_equal(rec.coeffs, f.coeffs)
    assert np.all(parts["head"].coeffs[np.abs(f.ks()) >= 4] == 0)
    empty = split_truncate(f, 100)
    assert empty["tail"].l1() == 0.0


def test_exp_decay_tail_partition():
    f = FourierSeries(np.exp(-np.abs(np.arange(-8, 9))) + 0j)
    parts = split_truncate(f, 4)
    assert np.array_equal((parts["head"] + parts["tail"]).coeffs, f.coeffs)


def test_tail_bounds_above_threshold(moduli):
    # both certified truncation inequalities, on series saturating the decay
    for M, r in ((moduli[0], 0.1), (moduli[1], 0.05), (moduli[2], 0.08)):
        T1 = t1_of(M)
        K = int(T1 / r) + 32
        ks = np.arange(-2 * K, 2 * K + 1)
        f = FourierSeries(np.exp(-lambda_many(M, np.abs(2 * np.pi * ks) * r)) + 0j)
        assert tail_bound_c0(f, M, r, K)["ok"]
        assert tail_bound_mr(f, M, r, K)["ok"]


def test_t1_certifies_gamma_threshold(moduli):
    from qplab.udspace import gamma_of

    for M in moduli:
        T1 = t1_of(M)
        for mult in (4.0, 5.0, 8.0):
            assert gamma_of(M, mult * T1) > 18.0


def test_series_algebra_basics(rng):
    f = FourierSeries.constant(3.3)
    assert f.derive().l1() == 0.0
    g = FourierSeries(rng.normal(size=9) + 1j * rng.normal(size=9))
    gg = g.shift(0.3127).shift(-0.3127)
    assert np.max(np.abs(gg.coeffs - g.coeffs)) <= 1e-15


def test_grid_roundtrip(rng):
    g = FourierSeries(rng.normal(size=33) + 1j * rng.normal(size=33))
    back = FourierSeries.from_values(g.values(256), g.K)
    assert np.max(np.abs(back.coeffs - g.coeffs)) <= 1e-12


@pytest.mark.parametrize("shape", [(), (2, 2)])
def test_grid_values_match_point_evaluation(rng, shape):
    K = 300
    c = rng.normal(size=shape + (2 * K + 1,)) + 1j * rng.normal(size=shape + (2 * K + 1,))
    for f in (FourierSeries(c), FourierSeries((c + np.conj(c[..., ::-1])) / 2.0, True)):
        # G > 2K goes through values(G); G <= 2K folds the modes mod G
        for G in (1024, 601, 512, 100, 7):
            ref = f(np.arange(G) / G)
            got = _grid_values(f, G)
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert np.max(np.abs(got - ref)) <= 1e-13 * f.l1(), G
            if G > 2 * K:
                assert np.max(np.abs(f.values(G) - ref)) <= 1e-13 * f.l1(), G
            else:
                with pytest.raises(ValueError):
                    f.values(G)


def test_reciprocal(rng):
    f = FourierSeries.constant(2.0) + random_real_series(rng, 3, amp=0.1)
    inv = f.reciprocal(out_K=24)
    prod = f.mul(inv)
    assert abs(prod.c(0) - 1.0) <= 1e-12
    assert prod.l1() - abs(prod.c(0)) <= 1e-10
    with pytest.raises(ValueError):
        FourierSeries.cosine(1.0).reciprocal()


def test_exp_map_rotation_convention():
    # exp(-2 pi g J) at g = 1/4 is [[0,-1],[1,0]]
    R = rotation_series(FourierSeries.constant(0.25), out_K=2)
    assert np.allclose(R(0.0), np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-14)


def test_exp_map_inverse(rng):
    x = random_real_series(rng, 4, amp=0.3)
    y = random_real_series(rng, 4, amp=0.3)
    z = random_real_series(rng, 4, amp=0.3)
    X = MatSeries.from_entries(x, y + z, y - z, x * (-1.0))
    E = X.exp_map(out_K=40)
    P = E.mat_mul((X * (-1.0)).exp_map(out_K=40), out_K=48)
    dev = P - MatSeries.constant(np.eye(2)).pad_to(P.K)
    assert dev.l1() <= 1e-10
    assert np.max(np.abs(sl2.det2(E.values()) - 1.0)) <= 1e-10


def test_log_map_inverts_exp(rng):
    x = random_real_series(rng, 3, amp=0.2)
    X = MatSeries.from_entries(x, x * 0.5, x * 0.25, x * (-1.0))
    L = X.exp_map(out_K=24).log_map(out_K=10, tail_tol=None)
    assert (L - X.pad_to(L.K)).l1() <= 1e-10


@pytest.mark.parametrize("mu2_abs", [1e-10, 1e-8, 1e-6])
def test_sl2_expm1_complex_small_argument(mu2_abs):
    """exp(X) - I entrywise to 1e-13 relative where |mu^2| = |det X| is small.

    X = [[0, m], [m c, 0]] has mu^2 = m^2 c: hyperbolic (c = 1) and elliptic
    (c = -1); the reference is mpmath at 40 digits.  The kernel takes real
    grids only (complex input raises, see below).
    """
    mpmath = pytest.importorskip("mpmath")
    for c in (1.0, -1.0):
        m = math.sqrt(mu2_abs)
        X = np.array([[0.0, m], [m * c, 0.0]])
        with mpmath.workdps(40):
            ref = mpmath.expm(mpmath.matrix(X.tolist())) - mpmath.eye(2)
            ref = np.array(ref.tolist(), dtype=float)
        err = np.max(np.abs(sl2.sl2_expm1(X) - ref) / np.abs(ref))
        assert err <= 1e-13, (c, err)


@pytest.mark.parametrize("kernel", ["sl2_exp", "sl2_expm1"])
def test_exp_kernels_refuse_complex_grids(kernel):
    X = np.array([[0.0, 1e-3], [1e-3 * (1.0 + 0.3j), 0.0]])
    with pytest.raises(TypeError, match=kernel):
        getattr(sl2, kernel)(X)


def test_log_dev_refuses_complex_grids():
    dev = np.array([[1e-3, 2e-3], [1e-3 * (1.0 + 0.3j), -1e-3]])
    with pytest.raises(TypeError, match="sl2_log_dev"):
        sl2.sl2_log_dev(dev)


# -- the single-branch kernels against their two-branch np.where forms ------


def _sinhc_two_branch(mu2):
    mu2 = np.asarray(mu2)
    small = np.abs(mu2) < 1e-12
    safe = np.where(small, 1.0, mu2)
    pos = mu2 > 0
    root = np.sqrt(np.abs(safe))
    with np.errstate(invalid="ignore"):
        val = np.where(pos, np.sinh(root) / root, np.sin(root) / root)
    return np.where(small, 1.0 + mu2 / 6.0 + mu2 * mu2 / 120.0, val)


def _cosh_two_branch(mu2):
    mu2 = np.asarray(mu2)
    root = np.sqrt(np.abs(mu2))
    return np.where(mu2 >= 0, np.cosh(root), np.cos(root))


def _log_factor_two_branch(w):
    w = np.asarray(w, dtype=float)
    d = w - 1.0
    small = np.abs(d) < 1e-8
    wc = np.clip(w, -1.0 + 1e-300, None)
    ell = w > 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.arccos(np.clip(wc, -1.0, 1.0))
        sphi = np.sin(phi)
        f_ell = np.where(sphi > 0, phi / np.where(sphi > 0, sphi, 1.0), np.inf)
        mu = np.arccosh(np.where(ell, w, 1.0))
        smu = np.sinh(mu)
        f_hyp = np.where(smu > 0, mu / np.where(smu > 0, smu, 1.0), 1.0)
    out = np.where(ell, f_hyp, f_ell)
    return np.where(small, 1.0 - d / 3.0 + 2.0 * d * d / 15.0, out)


def _expm1_two_branch(x):
    mu2 = -sl2.det2(x)
    sc = _sinhc_two_branch(mu2)
    root = np.sqrt(np.abs(mu2))
    chm1 = np.where(mu2 >= 0, 2.0 * np.sinh(root / 2.0) ** 2, -2.0 * np.sin(root / 2.0) ** 2)
    return chm1[..., None, None] * np.eye(2) + sc[..., None, None] * x


def _exp_two_branch(x):
    mu2 = -sl2.det2(x)
    return _cosh_two_branch(mu2)[..., None, None] * np.eye(2) + _sinhc_two_branch(mu2)[..., None, None] * x


def _exp_su_two_branch(t_vals, v_vals):
    m2 = np.abs(v_vals) ** 2 - t_vals**2
    mu = np.sqrt(np.abs(m2))
    sc = _sinhc_two_branch(m2)
    chm1 = np.where(m2 >= 0, 2.0 * np.sinh(mu / 2.0) ** 2, -2.0 * np.sin(mu / 2.0) ** 2)
    chm1 = np.where(np.abs(m2) < 1e-12, m2 / 2.0 * (1.0 + m2 / 12.0), chm1)
    return chm1 + 1j * t_vals * sc, v_vals * sc


def _ulps_around(x, n=3):
    """x and its n float neighbours on each side."""
    out = [x]
    lo = hi = x
    for _ in range(n):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


# mu^2 on both sides of every cut (+-1e-12, 0), far from them, and a grid of small values only
_MU2 = np.array(sorted(set(
    _ulps_around(1e-12) + _ulps_around(-1e-12)
    + [0.0, 5e-13, -5e-13, 1e-300, -1e-300, 1e-9, -1e-9, 0.3, -0.3, 2.0, -2.0, 40.0, -40.0, 600.0])))
_MU2_SMALL = np.array([0.0, 3e-13, -7e-13, 9.99e-13, -9.99e-13])
# w = tr/2 on both sides of |w - 1| = 1e-8 (w - 1 is a multiple of 2^-52 above 1, 2^-53 below)
_W = np.array(sorted(
    [1.0 + k * 2.0**-52 for k in (45035995, 45035996, 45035997, 45035998)]
    + [1.0 - k * 2.0**-53 for k in (90071991, 90071992, 90071993, 90071994)]
    + [1.0, 1.0 + 5e-9, 1.0 - 5e-9, 1.0 + 2e-8, 1.0 - 2e-8, 0.5, 0.0, -0.5, -1.0, -1.5, 1.5, 10.0,
       1e3]))
_W_SMALL = np.array([1.0, 1.0 + 3e-9, 1.0 - 7e-9])


def _same(a, b):
    return np.shape(a) == np.shape(b) and np.array_equal(a, b)


def test_scalar_kernels_match_their_two_branch_forms_bit_for_bit():
    for grid in (_MU2, _MU2_SMALL, _MU2.reshape(1, -1)):
        assert _same(sl2._sinhc(grid), _sinhc_two_branch(grid))
        assert _same(sl2._cosh_branch(grid), _cosh_two_branch(grid))
    for grid in (_W, _W_SMALL, _W.reshape(1, -1)):
        assert _same(sl2._log_factor(grid), _log_factor_two_branch(grid))
    for mu2 in _MU2:
        assert _same(sl2._sinhc(mu2), _sinhc_two_branch(mu2))
        assert _same(sl2._sinhc(float(mu2)), _sinhc_two_branch(float(mu2)))
        assert _same(sl2._cosh_branch(mu2), _cosh_two_branch(mu2))
    for w in _W:
        assert _same(sl2._log_factor(w), _log_factor_two_branch(w))
        assert _same(sl2._log_factor(float(w)), _log_factor_two_branch(float(w)))


def test_matrix_kernels_match_their_two_branch_forms_bit_for_bit(rng):
    # X = [[0, 1], [mu2, 0]] has -det X = mu2 exactly; random traceless X besides
    def stack(mu2):
        X = np.zeros(np.shape(mu2) + (2, 2))
        X[..., 0, 1] = 1.0
        X[..., 1, 0] = mu2
        return X

    a, b, c = rng.normal(size=(3, 64)) * np.array([[1e-7], [1e-3], [1.0]])
    rand = np.stack([np.stack([a, b], -1), np.stack([c, -a], -1)], -2)
    for X in (stack(_MU2), stack(_MU2_SMALL), rand, stack(0.3), stack(-1e-12), stack(0.0)):
        assert _same(sl2.sl2_expm1(X), _expm1_two_branch(X))
        assert _same(sl2.sl2_exp(X), _exp_two_branch(X))


def test_su_exp_matches_its_two_branch_form_bit_for_bit():
    # |v|^2 - t^2 on both sides of +-1e-12 and 0: v or t at 1e-6 and its neighbours
    near = np.array(_ulps_around(1e-6, 6))
    zeros = np.zeros_like(near)
    grids = [
        (zeros, near + 0j),
        (near, zeros + 0j),
        (near, near * np.exp(0.7j)),
        (np.linspace(-2.0, 2.0, 41), np.linspace(0.0, 3.0, 41) * np.exp(0.3j)),
        (np.full(4, 1e-8), np.full(4, 2e-8 + 0j)),
        (np.array(0.2), np.array(0.5 + 0.1j)),
        (np.array(0.0), np.array(0.0j)),
    ]
    for t, v in grids:
        da, b = kam._exp_su_vals(t, v)
        da_ref, b_ref = _exp_su_two_branch(t, v)
        assert _same(da, da_ref) and _same(b, b_ref)


def test_log_map_branch_error():
    bad = MatSeries.constant(np.diag([-3.0, -1.0 / 3.0]))
    with pytest.raises(ValueError):
        bad.log_map()


def test_mul_aliasing_error(rng):
    f = FourierSeries(rng.normal(size=17) + 0j)
    g = FourierSeries(rng.normal(size=17) + 0j)
    with pytest.raises(AliasingError):
        f.mul(g, out_K=3)


def test_matseries_sl2_flag(rng):
    x = random_real_series(rng, 3, amp=0.1)
    X = MatSeries.from_entries(x, x * 0.2, x * (-0.2), x * (-1.0))
    E = X.exp_map(out_K=18)
    assert np.max(np.abs(sl2.det2(E.values()) - 1.0)) <= 1e-12


def _supremand_reference(f, M, ln_r, s_cap):
    """Per row, ln C + 2 ln(1+s) + s ln r + ln N_s - ln M_s for s = 0..s_cap, by plain loops.

    N_s = sum_k |fhat(k)| |2 pi k|^s over every nonzero coefficient, summed in
    log domain; k = 0 contributes at s = 0 only.
    """
    K = f.K
    table = []
    for row in np.abs(f.coeffs).reshape(-1, 2 * K + 1):
        objs = []
        for s in range(s_cap + 1):
            terms = [math.log(a) + (s * math.log(abs(2.0 * math.pi * k)) if k else 0.0)
                     for k, a in zip(range(-K, K + 1), row) if a > 0 and (k != 0 or s == 0)]
            if not terms:
                objs.append(-math.inf)
                continue
            top = max(terms)
            ln_n = top + math.log(math.fsum(math.exp(x - top) for x in terms))
            objs.append(math.log(C_NORM) + 2.0 * math.log1p(s) + s * ln_r + ln_n - M.generator(float(s)))
        table.append(np.array(objs))
    return table


def _norm_cases(rng):
    def decaying(shape, K):
        return rng.normal(size=shape) * np.exp(-0.4 * np.abs(np.arange(-K, K + 1))) + 0j

    zero_entry = FourierSeries(decaying((2, 2, 25), 12))
    zero_entry.coeffs[1, 0] = 0.0
    return {
        "scalar": FourierSeries(decaying(25, 12)),
        "2x2": FourierSeries(decaying((2, 2, 25), 12)),
        "zero coefficients": FourierSeries.from_dict({-5: 0.3, 2: 1.0, 7: 1e-3, 12: -2e-5}),
        # all mass at |k| = K: N_s = ||fhat||_1 (2 pi K)^s for s >= 1, so the stopping bound is tight
        "top modes only": FourierSeries.from_dict({-12: 0.5, 12: 0.5}),
        "2x2 with a zero entry": zero_entry,
        "K = 0": FourierSeries.constant(2.5),
        "2x2 K = 0": FourierSeries.constant(np.diag([3.0, -1.0 / 3.0])),
    }


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("ln_r", [-900.0, -1.0, 0.0, 1.0])
def test_norm_matches_a_full_scan(moduli, rng, monkeypatch, ln_r, block):
    """Value within 1e-13 relative and the same argmax as a plain loop over every s and k.

    The argmax shows through the s_cap warning: a row warns when its argmax
    over s <= s_cap is s_cap - 2 or later, so caps just past each row's
    argmax pin it down.  Blocks of 64 entries walk s a few values at a time,
    so the stopping rule is tried at nearly every s.
    """
    if block is not None:
        monkeypatch.setattr(udspace, "_NORM_BLOCK", block)
    S = 260
    for name, f in _norm_cases(rng).items():
        for M in moduli:
            table = _supremand_reference(f, M, ln_r, S)
            tops = [int(np.argmax(row)) for row in table]
            caps = {S} | {a + d for a in tops for d in (2, 3) if a + d <= S}
            for cap in sorted(caps):
                ref = max(float(np.max(row[: cap + 1])) for row in table)
                warns = any(int(np.argmax(row[: cap + 1])) >= cap - 2 and np.isfinite(np.max(row[: cap + 1]))
                            for row in table)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    got = log_norm_mr_ln(f, M, ln_r, s_cap=cap)
                assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (name, M.kind, cap, got, ref)
                assert bool(caught) == warns, (name, M.kind, cap, tops)


def test_norm_of_a_wide_matrix_series_walks_small_blocks():
    """A level-0 call (ln r = 0) on a 2x2 series at K = 512 allocates under 8 MB at its peak.

    Its default cap is s = 3240; one (s_cap+1) x (2K+1) logsumexp matrix per
    row would take 27 MB per temporary.  Allocations are read with
    tracemalloc, which sees numpy's buffers.
    """
    K = 512
    rng = np.random.default_rng(5)
    c = rng.normal(size=(2, 2, 2 * K + 1)) * np.exp(-np.abs(np.arange(-K, K + 1)) ** 0.5)
    f = FourierSeries(c + 0j)
    tracemalloc.start()
    try:
        val = log_norm_mr_ln(f, Modulus("analytic"), 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(val)
    assert peak < 8 * 2**20, peak


def test_norm_cap_warning():
    M = Modulus("analytic")
    f = FourierSeries.from_dict({40: 1.0})
    with pytest.warns(UserWarning):
        log_norm_mr(f, M, 5.0, s_cap=10)


def test_matrix_series_acts_entrywise(rng):
    # a 2x2 series is the same type as a scalar one: every operation acts on
    # its four entries independently
    ents = [FourierSeries(rng.normal(size=11) + 1j * rng.normal(size=11)) for _ in range(4)]
    A = MatSeries.from_entries(*ents)
    pos = [(0, 0), (0, 1), (1, 0), (1, 1)]

    def assert_entrywise(mat_vals, entry_vals):
        for (i, j), v in zip(pos, entry_vals):
            np.testing.assert_allclose(mat_vals[..., i, j], v, rtol=0, atol=1e-13)

    th = rng.uniform(size=(3, 4))
    assert A(th).shape == (3, 4, 2, 2) and A(0.3).shape == (2, 2)
    assert_entrywise(A(th), [e(th) for e in ents])
    assert_entrywise(A(0.3), [e(0.3) for e in ents])
    assert A.values(32).shape == (32, 2, 2)
    assert_entrywise(A.values(32), [e.values(32) for e in ents])
    back = FourierSeries.from_values(A.values(32), A.K)
    assert_entrywise(np.moveaxis(back.coeffs, -1, 0),
                     [FourierSeries.from_values(e.values(32), A.K).coeffs for e in ents])
    with pytest.raises(AliasingError):
        FourierSeries.from_values(A.values(32), 2)
    for op in (lambda f: f.pad_to(8), lambda f: f.truncate(3), lambda f: f.shift(0.37),
               lambda f: f.derive(), lambda f: f.conj_series()):
        out = op(A)
        for (i, j), e in zip(pos, ents):
            assert np.array_equal(out.coeffs[i, j], op(e).coeffs)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=9).filter(
        lambda v: len(v) % 2 == 1
    )
)
def test_banach_algebra_hypothesis(coeffs):
    M = Modulus("gevrey", 0.7)
    f = FourierSeries(np.asarray(coeffs, dtype=complex))
    prod = f.mul(f)
    assert log_norm_mr(prod, M, 0.07) <= 2 * log_norm_mr(f, M, 0.07) + 1e-9
