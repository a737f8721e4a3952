import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_real_series
from qplab.udspace import (
    AliasingError,
    C_NORM,
    FourierSeries,
    MatSeries,
    Modulus,
    condition_a_check,
    fourier_decay_ok,
    gamma_of,
    lambda_many,
    lambda_of,
    log_norm_mr,
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
    M = Modulus("custom", generator=lambda s: 0.0)  # M_s = 1: not log-convex strictly
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
            assert norm_lambda(f, M, r / 2) <= (4 + M.c_M) / (2 * math.pi * r) * norm_mr(
                f, M, r
            ) * (1 + 1e-9)


def test_fourier_decay(moduli, rng):
    for M in moduli:
        f = random_real_series(rng, 9)
        assert fourier_decay_ok(f, M, 0.2)


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
    assert E.det_drift() <= 1e-10


def test_log_map_inverts_exp(rng):
    x = random_real_series(rng, 3, amp=0.2)
    X = MatSeries.from_entries(x, x * 0.5, x * 0.25, x * (-1.0))
    L = X.exp_map(out_K=24).log_map(out_K=10, tail_tol=None)
    assert (L - X.pad_to(L.K)).l1() <= 1e-10


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
    assert E.det_drift() <= 1e-12


def test_norm_cap_warning():
    M = Modulus("analytic")
    f = FourierSeries.from_dict({40: 1.0})
    with pytest.warns(UserWarning):
        log_norm_mr(f, M, 5.0, s_cap=10)


def test_series_json_roundtrip(rng):
    f = FourierSeries(rng.normal(size=9) + 1j * rng.normal(size=9))
    g = FourierSeries.from_json(f.to_json())
    assert np.allclose(g.coeffs, f.coeffs)


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
    for M in (A, rotation_series(FourierSeries.constant(0.25), out_K=2)):
        again = FourierSeries.from_json(M.to_json(), real_flag=M.real_flag)
        assert np.array_equal(again.coeffs, M.coeffs) and again.real_flag == M.real_flag


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
