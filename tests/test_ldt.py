import math

import numpy as np
import pytest

import qplab.sl2 as sl2
from qplab import contfrac
from qplab.cocycle import QpCocycle, _transfer_grid, amo, rotation_cocycle
from qplab.ldt import (
    CfExhausted,
    FejerKernel,
    LdtScales,
    ScalesInvalid,
    avalanche_check,
    gevrey_truncate,
    induction_sequences,
    ldt_experiment,
    lyapunov_truncation_gap,
    periodic_ln_bound,
    strip_log_norm_bound,
)
from qplab.udspace import FourierSeries, MatSeries

GOLDEN = (math.sqrt(5) - 1) / 2


def test_fejer_identities_exact():
    for R, p in ((2, 1), (10, 1), (64, 2), (333, 3), (1000, 4)):
        ker = FejerKernel(R, p)
        assert ker.identity_exact()
    assert np.all(FejerKernel(9, 1).c == 1)


def test_fejer_point_values():
    ker = FejerKernel(2, 1)
    assert abs(ker.eval(0.5)) <= 1e-15
    assert ker.eval(0.0) == pytest.approx(1.0)


def test_fejer_envelope(rng):
    ts = rng.uniform(0, 1, 3000)
    for R, p in ((10, 1), (100, 2), (1000, 4)):
        assert FejerKernel(R, p).envelope_ok(ts)


def test_scales_validation():
    LdtScales()  # defaults are consistent
    with pytest.raises(ScalesInvalid):
        LdtScales(nu=0.4)
    with pytest.raises(ScalesInvalid):
        LdtScales(delta=0.1)
    with pytest.raises(ScalesInvalid):
        LdtScales(p=5)


def test_ldt_experiment_trivial():
    diag = QpCocycle(GOLDEN, FourierSeries.constant(np.diag([3.0, 1 / 3.0])))
    out = ldt_experiment(diag, 8, 13, N=40, kappa=0.01)
    assert out["measure"] == 0.0
    rot = rotation_cocycle(GOLDEN, 0.3)
    out = ldt_experiment(rot, 8, 13, N=200, kappa=0.05)
    assert out["measure"] == 0.0


def test_ldt_experiment_decay():
    ms = []
    for q, a in ((13, 8), (21, 13), (34, 21)):
        N = int(round(q**1.45))
        r = ldt_experiment(amo(3.0, 0.0, GOLDEN), a, q, N=N, kappa=0.05, grid_mult=128)
        ms.append(r["measure"])
    assert ms[0] > ms[1] > ms[2]


def test_ldt_measure_moves_only_through_unresolved_phases():
    """ldt_experiment at q = 21 (the `qplab ldt` row) against the per-step product of every phase.

    A phase is unresolved in float64 when sum_j ln||A(theta_j)|| - ln||A_N(theta)||
    > 52 ln 2: its product cancels past the precision of its factors, so
    fibers that differ in the last bit, or two product orders, may read it
    differently.  42 of the 2 688 phases are (screens 88.6 to 108).  Every
    phase whose ln||A_N|| differs from the per-step product's by more than
    1e-9 is one of them (measured: at most 2.5e-12 on the others, 0.70 on
    them).  They alone move the grid mean L_N, and every deviation flag
    that differs from the per-step product's sits on one of them or within
    that move of kappa (measured: none differs).  Folding whole runs of 32
    steps onto the running product at these 2 688 phases moved ln||A_N|| on
    them by up to 11.6 and flipped 8 resolved phases next to kappa; each
    stack's first run now continues the running product, which keeps this
    grid in step order.
    """
    from test_cocycle import _ln_norms, _transfer_steps

    a, q, kappa = 13, 21, 0.05
    N = int(round(q**1.45))
    G = 128 * q
    c = amo(3.0, 0.0, GOLDEN)
    rat = QpCocycle(a / q, c.series)
    th = np.arange(G) / G
    mats, ls = _transfer_grid(rat, th, N)
    ln = np.log(sl2.op_norm(mats)) + ls
    ref = np.array([_ln_norms(*_transfer_steps(rat, float(t), N)) for t in th])
    steps = rat.series(np.mod(th[:, None] + np.mod(rat.alpha * np.arange(N), 1.0), 1.0))
    unresolved = np.sum(np.log(sl2.op_norm(steps)), axis=1) - ref > 52 * math.log(2)
    assert np.all(unresolved[np.abs(ln - ref) > 1e-9])
    L, L_ref = float(np.mean(ln / N)), float(np.mean(ref / N))
    assert abs((L - L_ref) - np.mean(np.where(unresolved, ln - ref, 0.0)) / N) <= 1e-12
    flipped = (np.abs(ln / N - L) > kappa) != (np.abs(ref / N - L_ref) > kappa)
    dev = np.abs(ref[flipped & ~unresolved] / N - L_ref)
    assert np.all(np.abs(dev - kappa) <= abs(L - L_ref) + 1e-12)
    out = ldt_experiment(c, a, q, N=N, kappa=kappa, grid_mult=128)
    assert out["L_N"] == L and out["measure"] == np.mean(np.abs(ln / N - L) > kappa)


def test_avalanche_constant_diag():
    mu = 50.0
    out = avalanche_check([np.diag([mu, 1 / mu])] * 10, mu)
    assert out["lhs"] <= 1e-9
    assert out["hypothesis_ok"]


def test_avalanche_flags_violation():
    mu = 50.0
    mats = [np.diag([mu, 1 / mu])] * 5 + [np.eye(2)]
    out = avalanche_check(mats, mu)
    assert not out["hypothesis_ok"]
    assert out["lhs"] >= 0.0


def test_avalanche_transfer_blocks():
    # aligned AMO transfer blocks on the good set keep lhs/(n/mu) bounded
    c = amo(3.0, 0.0, GOLDEN)
    N = 20
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        th = float(rng.uniform(0, 1))
        mats, ls = _transfer_grid(c, (th + np.arange(6) * N * GOLDEN) % 1.0, N)
        blocks = list(mats * np.exp(ls)[:, None, None])
        norms = [float(sl2.op_norm(b)) for b in blocks]
        mu = min(norms)
        out = avalanche_check(blocks, mu)
        if out["hypothesis_ok"]:
            worst = max(worst, out["lhs"] / out["rhs_unit"])
    assert worst <= 1e2


def _gevrey_mat(rng, K, nu, rho, amp=1.0):
    ks = np.arange(-K, K + 1)
    dec = np.exp(-rho * np.abs(2 * np.pi * ks) ** nu)
    def mk():
        c = (rng.normal(size=2 * K + 1) + 0j) * dec
        return FourierSeries(amp * (c + np.conj(c[::-1])) / 2.0, True)
    x, y = mk(), mk()
    return MatSeries.from_entries(x, y, y, x * (-1.0))


def test_gevrey_truncate_identity_cases(rng):
    A = _gevrey_mat(rng, 2, 0.7, 1.0, amp=0.1)
    out = gevrey_truncate(A, 8, nu=0.7, rho=1.0, delta=0.6)
    assert out["N_tilde"] >= A.K
    assert out["A_trunc"].K == A.K
    assert out["measured_error"] == 0.0


def test_gevrey_truncate_bound(rng):
    X = _gevrey_mat(rng, 48, 0.7, 0.15, amp=0.2)
    A = X.exp_map(out_K=96, tail_tol=None)
    for N in (4, 8, 16):
        out = gevrey_truncate(A, N, nu=0.7, rho=0.1, delta=0.6)
        assert out["ok"], (N, out)


def test_gevrey_certificate_failure(rng):
    bad = MatSeries.from_entries(
        FourierSeries.from_dict({30: 1.0, -30: 1.0}, real_flag=True),
        FourierSeries.zero(30),
        FourierSeries.zero(30),
        FourierSeries.from_dict({30: -1.0, -30: -1.0}, real_flag=True),
    )
    with pytest.raises(ValueError):
        gevrey_truncate(bad, 4, nu=0.7, rho=2.0, delta=0.6, norm_bound=1.0)


def _strip_input(rng):
    """A Gevrey cocycle and its truncation at N = 6."""
    X = _gevrey_mat(rng, 32, 0.7, 0.2, amp=0.1)
    A = X.exp_map(out_K=64, tail_tol=None)
    return A, gevrey_truncate(A, 6, nu=0.7, rho=0.15, delta=0.6)


def _strip_sup_steps(A_tr, rho_N, N, alpha):
    """Reference: sup_u of strip_log_norm_bound by a per-step product of complex fiber values."""
    ks = A_tr.ks()
    th = np.arange(64) / 64
    worst = 0.0
    for sgn in (1.0, -1.0):
        z = th + 1j * sgn * rho_N
        acc = np.broadcast_to(np.eye(2, dtype=complex), (64, 2, 2)).copy()
        log_scale = np.zeros(64)
        for j in range(N):
            ph = np.exp(2j * np.pi * np.multiply.outer(z + j * alpha, ks))
            vals = np.tensordot(ph, np.moveaxis(A_tr.coeffs, 2, 0), axes=([-1], [0]))
            acc = vals @ acc
            s = np.max(np.abs(acc), axis=(1, 2))
            acc /= s[:, None, None]
            log_scale += np.log(s)
        u = (log_scale + np.log(sl2.frob(acc))) / N
        worst = max(worst, float(np.max(np.abs(u))))
    return worst


@pytest.mark.parametrize("N", [24, 200])
def test_strip_bound_matches_per_step_product(rng, N):
    _, out = _strip_input(rng)
    sb = strip_log_norm_bound(out["A_trunc"], out["rho_N"], N=N, alpha=GOLDEN)
    ref = _strip_sup_steps(out["A_trunc"], out["rho_N"], N, GOLDEN)
    assert abs(sb["sup_u"] - ref) <= 1e-12, (sb["sup_u"], ref)


def test_strip_bound_and_lyapunov_gap(rng):
    A, out = _strip_input(rng)
    assert out["N_tilde"] < A.K  # truncation is nontrivial at this scale
    sb = strip_log_norm_bound(out["A_trunc"], out["rho_N"], N=24, alpha=GOLDEN)
    assert sb["ok"]
    gap = lyapunov_truncation_gap(
        QpCocycle.from_series(GOLDEN, A), out["A_trunc"], GOLDEN, N=6,
        log_c=out["log_c"], b=0.6 / (1 / 0.7 - 1),
    )
    assert gap["ok"]


def test_gevrey_truncate_bandwidth_one_identity():
    # a single-harmonic fiber is untouched for every N >= 2
    V1 = MatSeries.from_entries(
        FourierSeries.cosine(0.4),
        FourierSeries.zero(1),
        FourierSeries.zero(1),
        FourierSeries.cosine(-0.4),
    )
    for N in (2, 4, 9):
        out = gevrey_truncate(V1, N, nu=0.7, rho=0.05, delta=0.6)
        assert out["measured_error"] == 0.0
        assert out["A_trunc"].K == V1.K


def test_periodic_ln_bound_cases():
    # free case: both sides near zero inside the spectrum
    out = periodic_ln_bound(FourierSeries.zero(1), 1, 2, 0.7, 40)
    assert abs(out["L_periodic"]) <= 1e-12
    assert out["ok"]
    lam = 3.0
    for n in (10, 50, 250):
        out = periodic_ln_bound(FourierSeries.cosine(2 * lam), 1, 2, 0.0, n)
        assert out["slack"] >= 0.0
    # n = q reduces the correction to 2 C1
    out = periodic_ln_bound(FourierSeries.cosine(2 * lam), 1, 2, 0.0, 2)
    th = np.arange(128) / 128
    from qplab.cocycle import schrodinger

    C1 = float(np.max(np.log(sl2.op_norm(schrodinger(FourierSeries.cosine(2 * lam), 0.0, 0.5).series(th)))))
    assert out["bound"] == pytest.approx(out["L_periodic"] + 2 * C1, rel=1e-9)


def test_induction_sequences_literal_small_scale():
    cf = contfrac.expand("golden", 30)
    sc = LdtScales()  # gamma = 0.5
    out = induction_sequences(cf, sc, s_max=1, q0_min=34)
    assert out["terms"][0]["q_tilde"] == 34
    assert out["terms"][1]["q_tilde"] == 13  # smallest q above e^(34^0.25) ~ 11.2


def test_induction_sequences_monotone_regime():
    cf = contfrac.expand("golden", 250)
    sc = LdtScales()
    out = induction_sequences(cf, sc, s_max=4, q0_min=10**5)
    terms = out["terms"]
    assert len(terms) >= 3
    for t in terms[1:]:
        assert t["regime_ok"] and t["sandwich_ok"] and t["divides"]
    for t in terms:
        assert t["window_ok"]
    assert out["exhausted_at"] is not None  # golden at depth 250 cannot reach s=3


def test_induction_sequences_exhaustion():
    cf = contfrac.expand("golden", 40)
    sc = LdtScales()
    with pytest.raises(CfExhausted):
        induction_sequences(cf, sc, s_max=2, q0_min=10**12)
