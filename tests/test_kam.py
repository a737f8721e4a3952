import math

import numpy as np
import pytest

from conftest import random_real_series
from qplab import contfrac
from qplab.kam import (
    ExactResonance,
    HypothesisViolated,
    KamState,
    Su11Series,
    almost_reducibility_driver,
    coefficient_bound_ok,
    conjugation_residual,
    homotopy_conjugate,
    initial_state,
    kam_step,
    schedule,
    sl2_to_su,
    small_divisor_floor,
    solve_cohomological,
    split_resonant,
    su_to_sl2,
)
from qplab.udspace import FourierSeries, MatSeries, Modulus, rotation_series

GOLDEN = (math.sqrt(5) - 1) / 2
MA = Modulus("analytic")
LN_R = math.log(0.05)


def random_su(rng, K, target_lognorm):
    t = rng.normal(size=2 * K + 1) + 0j
    t = (t + np.conj(t[::-1])) / 2.0
    v = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
    g = Su11Series(FourierSeries(t, True), FourierSeries(v, False))
    return g.scale(math.exp(target_lognorm - g.log_norm(MA, LN_R)))


def test_cohomological_cosine_closed_form():
    g = FourierSeries.cosine(1.0)
    out = solve_cohomological(g, GOLDEN, Q=13)
    d1 = np.exp(2j * np.pi * GOLDEN) - 1.0
    assert out["v"].c(1) == pytest.approx(-0.5 / d1)
    assert out["v"].c(-1) == pytest.approx(-0.5 / np.conj(d1))
    assert out["residual"] <= 1e-14


def test_cohomological_constant_gives_zero():
    out = solve_cohomological(FourierSeries.constant(2.5), GOLDEN, Q=8)
    assert out["v"].l1() == 0.0


def test_cohomological_random(rng):
    g = random_real_series(rng, 12, decay=0.4)
    out = solve_cohomological(g, GOLDEN, Q=13)
    assert out["residual"] <= 1e-12
    assert coefficient_bound_ok(g, out["v"], 13)


def test_cohomological_exact_resonance():
    g = random_real_series(np.random.default_rng(0), 4)
    with pytest.raises(ExactResonance):
        solve_cohomological(g, 0.5, Q=4)


def test_small_divisor_floor_golden():
    lqn = math.log(34.0)
    out = small_divisor_floor(GOLDEN, 0.25, gamma=0.1, tau=1.5, log_Q_next=lqn, K=50)
    assert out["holds"] and out["min_abs"] > 0.0


def test_small_divisor_includes_k0():
    out = small_divisor_floor(GOLDEN, 0.2, gamma=0.1, tau=1.5, log_Q_next=0.0, K=0)
    assert out["min_abs"] == pytest.approx(abs(np.exp(4j * np.pi * 0.2) - 1.0))


def test_small_divisor_constructed_violation():
    # rho = <k0 alpha / 2> makes the k = -k0 divisor vanish
    k0 = 5
    rho = (k0 * GOLDEN / 2.0) % 0.5
    out = small_divisor_floor(GOLDEN, rho, gamma=0.5, tau=1.1, log_Q_next=math.log(34.0), K=8)
    assert not out["holds"]
    assert out["arg_k"] == k0


def test_split_resonant_cases(rng):
    w = random_su(rng, 5, -3.0)
    low = split_resonant(Su11Series(FourierSeries.zero(5), w.v), 10.0)
    assert low["re"].t.l1() == 0.0 and low["re"].v.l1() == 0.0
    pure_t = Su11Series(w.t, FourierSeries.zero(5, real_flag=False))
    sp = split_resonant(pure_t, 3.0)
    assert sp["nre"].v.l1() == 0.0 and sp["nre"].t.l1() == 0.0
    sp2 = split_resonant(w, 3.0)
    rec = sp2["nre"] + sp2["re"]
    assert np.array_equal(rec.v.coeffs, w.v.pad_to(rec.v.K).coeffs)


def test_su_roundtrip(rng):
    x = random_real_series(rng, 4)
    y = random_real_series(rng, 4)
    z = random_real_series(rng, 4)
    X = MatSeries.from_entries(x, y + z, y - z, x * (-1.0))
    back = su_to_sl2(sl2_to_su(X))
    assert (back - X.pad_to(back.K)).l1() <= 1e-13 * max(X.l1(), 1.0)


def test_homotopy_zero_input():
    out = homotopy_conjugate(0.25, Su11Series.zero(4), GOLDEN, 1e6, MA, LN_R)
    assert out["Y"].v.l1() == 0.0 and out["residual"] == 0.0


def test_homotopy_purely_resonant():
    g = Su11Series(FourierSeries.cosine(1e-7), FourierSeries.zero(1, real_flag=False))
    out = homotopy_conjugate(0.25, g, GOLDEN, 1e6, MA, LN_R)
    assert out["Y"].v.l1() == 0.0
    assert (out["g_re"].t - g.t.pad_to(out["g_re"].t.K)).l1() <= 1e-18


def test_homotopy_contracts(rng):
    for _ in range(10):
        g = random_su(rng, 8, math.log(1e-5))
        out = homotopy_conjugate(0.25, g, GOLDEN, 1e6, MA, LN_R)
        lng = g.log_norm(MA, LN_R)
        assert out["iterations"] <= 20
        assert out["Y"].log_norm(MA, LN_R) <= lng / 2.0
        assert out["g_re"].log_norm(MA, LN_R) <= math.log(2.0) + lng
        assert out["nre_leak"] <= 1e-10
        assert out["residual"] <= 1e-9


def test_homotopy_hypothesis_enforced(rng):
    g = random_su(rng, 6, math.log(0.05))
    with pytest.raises(HypothesisViolated):
        homotopy_conjugate(0.25, g, GOLDEN, 1e6, MA, LN_R)


@pytest.fixture(scope="module")
def deep_selection():
    cf = contfrac.expand("golden", 25000)
    return cf, contfrac.select_bridges(cf, 25.0)


def test_kam_step_identity_state(deep_selection):
    cf, sel = deep_selection
    st = initial_state(GOLDEN, 0.25, MatSeries.constant(np.zeros((2, 2))), MA, sel)
    nxt = kam_step(st, sel, MA, gamma=0.1, tau=1.5)
    assert nxt.F.l1() == 0.0
    assert nxt.g.l1() == 0.0
    assert (nxt.conj - MatSeries.constant(np.eye(2)).pad_to(nxt.conj.K)).l1() <= 1e-14


def test_schedule_formula_arithmetic(golden_cf):
    # engineered selection with Qbar_1 = 13: level-1 width is 2/169
    sel = contfrac.BridgeSelection(golden_cf, 2.0, [1, 5], exhausted=True)
    assert sel.Qbar == [2, 13]
    sch = schedule(sel, MA, gamma=0.5, tau=1.1, r0=1.0)
    lvl1 = sch["levels"][0]
    assert lvl1["log_rbar"] == pytest.approx(math.log(2.0 / 169.0))
    assert lvl1["log_r"] == pytest.approx(math.log(1.0 / 4.0))
    from qplab.udspace import gamma_of_log

    g_half = math.sqrt(gamma_of_log(MA, math.log(13.0) / 3.0))
    assert lvl1["log_eps"] == pytest.approx(sch["log_eps0"] - g_half * math.log(13.0))


def test_schedule_eps_decreasing_power(deep_selection):
    cf, sel = deep_selection
    Mp = Modulus("power", 3.0)
    sch = schedule(sel, Mp, gamma=0.1, tau=1.5, r0=0.5)
    # eps_0 is so small its log saturates double precision; the ratio chain
    # log(eps_n/eps_0) carries the strict decrease exactly
    rel = [0.0] + [lvl["log_eps_rel"] for lvl in sch["levels"]]
    assert all(rel[i + 1] < rel[i] for i in range(len(rel) - 1))
    assert sch["log_eps0"] < 0


def _small_cocycle(rng, rho, scale=1e-3, K0=8):
    x = random_real_series(rng, K0, amp=scale)
    y = random_real_series(rng, K0, amp=scale)
    z = random_real_series(rng, K0, amp=scale)
    F = MatSeries.from_entries(x, y + z, y - z, x * (-1.0))
    R = rotation_series(FourierSeries.constant(rho), out_K=2)
    return R.mat_mul(F.exp_map(out_K=3 * K0), out_K=3 * K0 + 4, tail_tol=None)


def test_driver_idles_on_exact_rotation(deep_selection):
    cf, sel = deep_selection
    A0 = rotation_series(FourierSeries.constant(0.25), out_K=4)
    out = almost_reducibility_driver(GOLDEN, A0, 0.25, MA, sel, steps=2)
    for entry in out["ledger"]:
        assert entry["log_eps_measured"] < -600.0


def test_driver_three_steps_decrease(deep_selection, rng):
    cf, sel = deep_selection
    A0 = _small_cocycle(rng, 0.25)
    out = almost_reducibility_driver(GOLDEN, A0, 0.25, MA, sel, steps=3)
    assert len(out["ledger"]) == 3
    eps = [e["log_eps_measured"] for e in out["ledger"]]
    assert eps[0] > eps[1] > eps[2]
    assert all(e["residual"] <= 1e-8 for e in out["ledger"])


def test_driver_strict_mode_refuses(deep_selection, rng):
    cf, sel = deep_selection
    A0 = _small_cocycle(rng, 0.25)
    out = almost_reducibility_driver(GOLDEN, A0, 0.25, MA, sel, steps=2, mode="strict")
    assert out["ledger"] == []
    assert "stopped" in out["stop_reason"]


def test_driver_resonant_rho_reported(deep_selection, rng):
    cf, sel = deep_selection
    rho_bad = (5 * GOLDEN / 2.0) % 0.5
    A0 = _small_cocycle(rng, rho_bad)
    out = almost_reducibility_driver(GOLDEN, A0, rho_bad, MA, sel, steps=2)
    assert "stopped" in out["stop_reason"]


def test_product_norm_lemma(rng):
    # R_rho e^{F_j} ... R_rho e^{F_1} = R_{j rho} e^{F-tilde} with
    # ||F-tilde|| <= sum ||F_j|| in the C0 surrogate
    import qplab.sl2 as sl2

    rho = 0.21
    G = 64
    th = np.arange(G) / G
    for _ in range(5):
        j = int(rng.integers(2, 9))
        total = np.broadcast_to(np.eye(2), (G, 2, 2)).copy()
        sum_norm = 0.0
        for _i in range(j):
            x = random_real_series(rng, 3, amp=2e-3)
            y = random_real_series(rng, 3, amp=2e-3)
            F = MatSeries.from_entries(x, y, y, x * (-1.0))
            sum_norm += float(np.max(sl2.frob(F.values(G))))
            total = sl2.rot(rho)[None] @ sl2.sl2_exp(F.values(G)) @ total
        dev = sl2.rot(-j * rho)[None] @ total
        Ftilde = sl2.sl2_log_dev(dev - np.eye(2)[None])
        assert float(np.max(sl2.frob(Ftilde))) <= sum_norm * (1 + 1e-6)


def test_rotation_number_invariant_under_step(deep_selection, rng):
    from qplab.cocycle import QpCocycle, rho_dist, rotation_number

    cf, sel = deep_selection
    A0 = _small_cocycle(rng, 0.25, scale=5e-4)
    out = almost_reducibility_driver(GOLDEN, A0, 0.25, MA, sel, steps=2)
    r0 = rotation_number(QpCocycle.from_series(GOLDEN, A0), n=120_000)
    final = out["state"].cocycle_series()
    r1 = rotation_number(QpCocycle.from_series(GOLDEN, final), n=120_000)
    assert rho_dist(r0["rho"], r1["rho"]) <= r0["error_bar"] + r1["error_bar"] + 1e-9
