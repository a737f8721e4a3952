import dataclasses
import math

import numpy as np
import pytest

from conftest import random_real_series
from qplab import contfrac, sl2
from qplab.kam import (
    ExactResonance,
    KamState,
    SelectionExhausted,
    Su11Series,
    almost_reducibility_driver,
    coefficient_bound_ok,
    conjugation_residual,
    homotopy_conjugate,
    initial_state,
    kam_step,
    sl2_to_su,
    solve_cohomological,
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


def test_su_roundtrip(rng):
    x = random_real_series(rng, 4)
    y = random_real_series(rng, 4)
    z = random_real_series(rng, 4)
    X = MatSeries.from_entries(x, y + z, y - z, x * (-1.0))
    back = su_to_sl2(sl2_to_su(X))
    assert (back - X.pad_to(back.K)).l1() <= 1e-13 * max(X.l1(), 1.0)


def test_homotopy_zero_input():
    zero = Su11Series(FourierSeries.zero(4), FourierSeries.zero(4, real_flag=False))
    out = homotopy_conjugate(0.25, zero, GOLDEN, 1e6, MA, LN_R)
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


def test_homotopy_hypothesis_measured_not_enforced(rng):
    for _ in range(5):
        g = random_su(rng, 6, math.log(0.05))  # far above divisor_floor^2 / 64
        out = homotopy_conjugate(0.25, g, GOLDEN, 1e6, MA, LN_R)
        assert out["hypothesis_ok"] is False
        assert out["iterations"] <= 20 and out["nre_leak"] <= 1e-10  # converged all the same


@pytest.fixture(scope="module")
def deep_selection():
    cf = contfrac.expand("golden", 25000)
    return cf, contfrac.select_bridges(cf, 25.0)


def test_kam_step_identity_state(deep_selection):
    cf, sel = deep_selection
    st = initial_state(GOLDEN, 0.25, MatSeries.constant(np.zeros((2, 2))), MA)
    nxt = kam_step(st, sel, MA)
    assert nxt.F.l1() == 0.0
    assert nxt.g.l1() == 0.0
    assert (nxt.conj - MatSeries.constant(np.eye(2)).pad_to(nxt.conj.K)).l1() <= 1e-14


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


def _c08_cocycle():
    """The c08 cocycle and its bridge selection at A = 5, which allows 4 levels."""
    rng = np.random.default_rng(41)
    sel = contfrac.select_bridges(contfrac.expand("golden", 3000), 5.0)
    x, y, z = (random_real_series(rng, 10, amp=1e-3, decay=0.5) for _ in range(3))
    F = MatSeries.from_entries(x, y + z, y - z, x * (-1.0))
    A0 = rotation_series(FourierSeries.constant(0.25), out_K=2).mat_mul(
        F.exp_map(out_K=30), out_K=34, tail_tol=None
    )
    return sel, A0


def test_driver_phi_dist_not_floored_by_rounding():
    # the c08 cocycle at A = 5: levels 3-4 have ||Phi_n - I|| far below eps
    sel, A0 = _c08_cocycle()
    out = almost_reducibility_driver(GOLDEN, A0, 0.25, MA, sel, steps=4)
    dist = [e["phi_dist"] for e in out["ledger"]]
    assert len(dist) == 4
    assert all(a > b for a, b in zip(dist, dist[1:]))
    assert dist[3] < 1e-18


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


@pytest.mark.parametrize("K_work", [48, 96])
def test_conjugation_held_at_the_working_band(deep_selection, rng, K_work):
    """B stays at K_work and R e^F at max(K_g, K_F) + 8, and both agree with the untrimmed ones.

    Untrimmed, B is the exact product Phi_3 Phi_2 Phi_1 of band 3 K_work, each Phi_n taken
    from a step of the same state without its accumulated conjugation, and R e^F is built
    at 4 max(K_g, K_F) + 8 without a tail guard.
    """
    cf, sel = deep_selection
    A0 = _small_cocycle(rng, 0.25)
    runs = [almost_reducibility_driver(GOLDEN, A0, 0.25, MA, sel, steps=n, K_work=K_work)
            for n in range(4)]
    st = runs[-1]["state"]
    assert st.level == 3 and st.conj.K == K_work
    target = st.cocycle_series()
    assert target.K == max(st.g.K, st.F.K) + 8
    assert all(e["residual"] <= 1e-14 for e in runs[-1]["ledger"])

    B = None
    for run in runs[:-1]:
        Phi = kam_step(dataclasses.replace(run["state"], conj=None), sel, MA, K_work=K_work).conj
        B = Phi if B is None else Phi.mat_mul(B, tail_tol=None)
    assert B.K == 3 * K_work
    K = 4 * max(st.g.K, st.F.K) + 8
    rot_arg = FourierSeries(st.g.coeffs / (2.0 * math.pi), True) + FourierSeries.constant(0.25)
    wide = rotation_series(rot_arg, out_K=K).mat_mul(st.F.exp_map(out_K=K), out_K=K,
                                                     tail_tol=None)
    for held, untrimmed in ((st.conj, B), (target, wide)):
        assert np.max(sl2.frob(held.values(997) - untrimmed.values(997))) <= 1e-14


def test_conjugation_band_bounded_at_every_level():
    sel, A0 = _c08_cocycle()
    st = almost_reducibility_driver(GOLDEN, A0, 0.25, MA, sel, steps=0)["state"]
    bands = []
    while st.level + 1 < sel.levels():
        st = kam_step(st, sel, MA, K_work=48)
        bands.append(st.conj.K)
    assert bands == [48] * 4
    with pytest.raises(SelectionExhausted):
        kam_step(st, sel, MA, K_work=48)


def test_driver_reports_a_series_that_outgrows_its_band(deep_selection):
    # R_{1/4} [[1, s], [0, 1]], s = 0.01 cos(2 pi 12 theta), is an exact SL(2,R) trigonometric
    # polynomial of degree 14, but its level-1 step conjugation has 6.8e-13 of its mass past
    # K_work = 48; truncated there without the guard, the level's residual reads 4.2e-12
    cf, sel = deep_selection
    s = FourierSeries(np.array([0.005] + [0.0] * 23 + [0.005], dtype=complex), True)
    one = FourierSeries.constant(1.0).pad_to(12)
    shear = MatSeries.from_entries(one, s, FourierSeries.zero(12), one)
    A0 = rotation_series(FourierSeries.constant(0.25), out_K=2).mat_mul(shear, out_K=14)
    out = almost_reducibility_driver(GOLDEN, A0, 0.25, MA, sel, steps=3)
    assert out["ledger"] == [] and out["state"].level == 0
    assert out["stop_reason"].startswith("stopped at level 0: tail mass")
