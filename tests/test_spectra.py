import math
import warnings

import numpy as np
import pytest

from conftest import fresh_modules, ud_potential
from qplab.spectra import (
    BandIndexAmbiguous,
    BandSet,
    Discriminant,
    ResolutionWarning,
    _RESOLUTION_FACTOR,
    _floquet_edges,
    _moving_bands,
    _phases,
    amo_s_minus_closed_form,
    band_edges,
    band_set,
    chambers_deviation,
    discriminant_fourier,
    ids,
    s_sets,
    set_distance,
)
from qplab.sl2 import frob, schrodinger_fiber
from qplab.udspace import FourierSeries

V0 = FourierSeries.zero(1)
VAM = lambda lam: FourierSeries.cosine(2.0 * lam)


def test_discriminant_free_small_q():
    assert Discriminant(V0, 0, 1).value(1.7, 0.3) == pytest.approx(1.7)
    E = 1.3
    assert Discriminant(V0, 1, 2).value(E, 0.1) == pytest.approx(E * E - 2.0)


def test_discriminant_periodicity_in_theta():
    d = Discriminant(VAM(0.5), 2, 5)
    th = np.linspace(0, 1, 23)
    v1 = d.value(np.asarray(0.3), th)
    v2 = d.value(np.asarray(0.3), th + 1.0 / 5.0)
    assert np.max(np.abs(v1 - v2)) <= 1e-12


def test_discriminant_monic_degree_q():
    # q-th finite difference over unit steps of a monic degree-q polynomial is q!
    for q, p in ((2, 1), (3, 1), (4, 1), (5, 2)):
        d = Discriminant(VAM(0.4), p, q)
        vals = d.value(np.arange(q + 1, dtype=float), np.asarray(0.17))
        diff = vals.copy()
        for _ in range(q):
            diff = np.diff(diff)
        assert diff[0] == pytest.approx(math.factorial(q), rel=1e-6)


def test_chambers_amplitude():
    lam = 0.5
    for q, p in ((3, 1), (5, 2), (8, 3), (13, 5)):
        dev = chambers_deviation(VAM(lam), p, q, 0.0)
        assert dev == pytest.approx(2.0 * lam**q, abs=1e-8)


@pytest.mark.parametrize("E,q,p", [(0.0, 55, 34), (1.0, 34, 21)])
def test_chambers_below_rounding_floor_warns(E, q, p):
    # 2 lam^q = 5.6e-17 at q = 55; at E = 1, q = 34 the result is 17% off
    with pytest.warns(ResolutionWarning):
        chambers_deviation(VAM(0.5), p, q, E)


def test_chambers_resolved_ladders_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResolutionWarning)
        for lam, q_max in ((0.5, 21), (0.9, 144)):
            p, q = 2, 3
            while q <= q_max:
                chambers_deviation(VAM(lam), p, q, 0.0)
                p, q = q, p + q


def test_chambers_fourier_support():
    out = discriminant_fourier(VAM(0.5), 2, 5, 0.3)
    c = out["coeffs"]
    assert abs(c[1]) == pytest.approx(0.5**5, abs=1e-10)
    assert abs(c[-1]) == pytest.approx(0.5**5, abs=1e-10)
    assert all(abs(v) <= 1e-10 for k, v in c.items() if abs(k) >= 2)


def test_fourier_free_potential_flat():
    out = discriminant_fourier(V0, 1, 4, 0.7)
    assert all(abs(v) <= 1e-12 for k, v in out["coeffs"].items() if k != 0)


def test_chambers_deviation_free_zero():
    with pytest.warns(ResolutionWarning):
        assert chambers_deviation(V0, 1, 5, 0.3) <= 1e-12


def test_band_set_free_case():
    for q, p in ((1, 0), (2, 1), (3, 1), (4, 1), (5, 2)):
        bs = band_set(V0, p, q, theta=0.37)
        assert bs.count() == 1
        (a, b) = bs.intervals[0]
        assert a == pytest.approx(-2.0, abs=1e-9) and b == pytest.approx(2.0, abs=1e-9)


def test_band_count_and_containment():
    lam = 0.5
    for q, p in ((2, 1), (3, 1), (5, 2)):
        be = band_edges(VAM(lam), p, q, theta=0.11)
        assert len(be["bands"]) == q
        ss = s_sets(VAM(lam), p, q)
        sigma = band_set(VAM(lam), p, q, theta=0.11)
        # S_- inside sigma(theta) inside S_+
        for a, b in ss["S_minus"].intervals:
            mid = (a + b) / 2
            assert sigma.contains(mid, tol=1e-7)
        for a, b in sigma.intervals:
            mid = (a + b) / 2
            assert ss["S_plus"].contains(mid, tol=1e-7)


def test_band_edges_tangency_on_crossing_level():
    # at lam=0.5, p/q=5/8, theta=0 two bands touch where t = 2 to rounding; the
    # monotone pieces meeting there hold no further crossing of that level
    q = 8
    be = band_edges(VAM(0.5), 5, q, theta=0.0)
    assert len(be["edges"]) == 2 * q and len(be["touchings"]) == 1
    tv = Discriminant(VAM(0.5), 5, q).value(np.asarray(be["edges"]), np.asarray(0.0))
    assert np.max(np.abs(np.abs(tv) - 2.0)) <= 1e-8


def test_band_total_measure_bounded():
    lam = 0.7
    bs = band_set(VAM(lam), 1, 3, theta=0.2)
    assert bs.measure() <= 4.0 + 2.0 * 2.0 * lam


def test_s_sets_free_case():
    ss = s_sets(V0, 1, 3)
    for name in ("S_minus", "S_plus"):
        s = ss[name]
        assert s.count() == 1
        a, b = s.intervals[0]
        assert a == pytest.approx(-2.0, abs=1e-9) and b == pytest.approx(2.0, abs=1e-9)


def test_s_minus_matches_closed_form():
    lam = 0.5
    for q, p in ((3, 1), (5, 2), (8, 3)):
        sm = s_sets(VAM(lam), p, q)["S_minus"]
        cf = amo_s_minus_closed_form(lam, q, p)
        assert set_distance(sm, cf)["hausdorff"] <= 1e-6


def test_ids_boundary_and_center():
    assert ids(V0, 0, 1, -3.0) == 0.0
    assert ids(V0, 0, 1, 3.0) == 1.0
    assert ids(V0, 0, 1, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert ids(V0, 1, 3, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_ids_gap_values_and_monotone():
    lam = 0.5
    bands = _moving_bands(VAM(lam), 2, 5)
    for j in range(4):
        if bands[j][1] < bands[j + 1][0]:
            mid = (bands[j][1] + bands[j + 1][0]) / 2
            assert ids(VAM(lam), 2, 5, mid, bands=bands) == pytest.approx((j + 1) / 5, abs=1e-12)
    Es = np.linspace(bands[0][0] - 0.2, bands[-1][1] + 0.2, 40)
    vals = []
    for E in Es:
        try:
            vals.append(ids(VAM(lam), 2, 5, float(E), bands=bands))
        except BandIndexAmbiguous:
            continue
    assert all(np.diff(vals) >= -1e-9)


def test_ids_edge_ambiguity():
    bands = _moving_bands(V0, 1, 2)
    with pytest.raises(BandIndexAmbiguous):
        ids(V0, 1, 2, bands[0][0], bands=bands)


def test_set_distance_examples():
    assert set_distance(BandSet([(0, 1)]), BandSet([(0, 1)])) == {
        "hausdorff": 0.0,
        "symdiff_measure": 0.0,
    }
    out = set_distance(BandSet([(0, 1)]), BandSet([(0, 2)]))
    assert out["hausdorff"] == pytest.approx(1.0)
    assert out["symdiff_measure"] == pytest.approx(1.0)
    out = set_distance(BandSet([(0, 1), (3, 4)]), BandSet([(0, 1)]))
    assert out["hausdorff"] == pytest.approx(3.0)
    assert out["symdiff_measure"] == pytest.approx(1.0)


def test_set_distance_gap_midpoint():
    # the one-sided sup can be attained inside a gap of the other set
    out = set_distance(BandSet([(0, 10)]), BandSet([(0, 1), (9, 10)]))
    assert out["hausdorff"] == pytest.approx(4.0)
    assert out["symdiff_measure"] == pytest.approx(8.0)


def test_set_distance_empty_error():
    with pytest.raises(ValueError):
        set_distance(BandSet([]), BandSet([(0, 1)]))


def test_bandset_csv():
    txt = BandSet([(0.0, 1.0), (2.0, 3.0)]).to_csv()
    assert txt.splitlines()[0] == "a,b"
    assert len(txt.splitlines()) == 3


# ---------------------------------------------------------------------------
# reference: the scan-and-bisect root-finder the eigenvalue solve replaced
# ---------------------------------------------------------------------------


def e_window(V, margin=0.5):
    s = float(np.max(np.abs(np.real(V.values(max(64, 8 * (V.K + 1)))))))
    return (-2.0 - s - margin, 2.0 + s + margin)


def _ref_bisect(f, lo, hi, tol=1e-10):
    flo = f(lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        fm = f(mid)
        if (fm <= 0) == (flo <= 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2.0


def _ref_band_edges(V, p, q, theta, grid_per_band=64, refine=2, touch_tol=1e-8):
    d = Discriminant(V, p, q)
    th = np.asarray(theta)
    lo, hi = e_window(V)
    npts = grid_per_band * q
    for _ in range(refine + 1):
        Es = np.linspace(lo, hi, npts + 1)
        dv = d.dvalue_dE(Es, th)
        crit = []
        for i in range(npts):
            if dv[i] == 0.0:
                crit.append(Es[i])
            elif dv[i] * dv[i + 1] < 0:
                crit.append(_ref_bisect(lambda e: float(d.dvalue_dE(np.asarray(e), th)),
                                        Es[i], Es[i + 1]))
        if len(crit) == q - 1:
            break
        npts *= 2
    assert len(crit) == q - 1
    pieces = [lo] + crit + [hi]
    edges, skip = [], set()
    for j, c in enumerate(crit):
        tc = float(d.value(np.asarray(c), th))
        if abs(abs(tc) - 2.0) <= touch_tol:
            edges.extend([c, c])
            skip |= {(j, math.copysign(2.0, tc)), (j + 1, math.copysign(2.0, tc))}
    for i in range(len(pieces) - 1):
        a, b = pieces[i], pieces[i + 1]
        ta, tb = float(d.value(np.asarray(a), th)), float(d.value(np.asarray(b), th))
        for lvl in (2.0, -2.0):
            if (i, lvl) not in skip and (ta - lvl < 0) != (tb - lvl < 0):
                edges.append(_ref_bisect(lambda e: float(d.value(np.asarray(e), th)) - lvl, a, b))
    return sorted(edges)


def _ref_fibers(d, E, theta):
    """A(theta + s p/q) for s = 0..q-1, each from its own evaluation of V."""
    E, th = np.asarray(E, dtype=float), np.asarray(theta, dtype=float)
    for s in range(d.q):
        yield schrodinger_fiber(np.real(d.V(np.mod(th + s * d.p / d.q, 1.0))), E)


def _ref_block(d, E, theta):
    """The step-by-step product of the fibers, s = 0 first."""
    acc = np.eye(2)
    for a in _ref_fibers(d, E, theta):
        acc = a @ acc
    return acc


def _ref_value(d, E, theta):
    b = _ref_block(d, E, theta)
    return b[..., 0, 0] + b[..., 1, 1]


def _ref_s_sets(V, p, q, theta_grid_size=64, scan_per_band=64):
    # the step-by-step trace: at lam = 0.5 and 0.9, p/q = 3/8, E = 0 is an exact
    # S_+ tangency, where min_theta |t| reads 2 in this order and 2 + 4.4e-16 in
    # the pairwise one of `Discriminant.block`, and the scan splits an interval
    d = Discriminant(V, p, q)
    lo, hi = e_window(V)
    ths = np.arange(theta_grid_size) / (theta_grid_size * q)
    npts = scan_per_band * q
    out = {}
    for name, red in (("S_minus", np.max), ("S_plus", np.min)):
        def crit(e):
            return float(red(np.abs(_ref_value(d, np.asarray(e), ths)))) - 2.0

        Es = np.linspace(lo, hi, npts + 1)
        vals = np.array([crit(e) for e in Es])
        intervals, start = [], None
        for i in range(npts + 1):
            inside = vals[i] <= 0
            if inside and start is None:
                start = Es[i] if i == 0 else _ref_bisect(crit, Es[i - 1], Es[i])
            if not inside and start is not None:
                intervals.append((start, _ref_bisect(crit, Es[i - 1], Es[i])))
                start = None
        if start is not None:
            intervals.append((start, Es[-1]))
        out[name] = BandSet(intervals)
    return out


def _open_gap_edges(edges, min_gap=1e-5):
    """Mask of the edges whose adjacent gaps are at least min_gap wide."""
    e = np.asarray(edges)
    gap = np.full(e.size, np.inf)
    gap[1:-1] = np.repeat(e[2::2] - e[1:-1:2], 2)
    return gap >= min_gap


def test_batched_band_edges_match_reference():
    # the reference bisects to 1e-10 and can close a gap narrower than its scan
    # step, so the edges beside gaps under 1e-5 are not compared
    for lam in (0.5, 0.9, 1.5):
        for p, q in ((1, 2), (2, 5), (5, 8)):
            for theta in (0.0, 0.11, 0.3):
                new = np.array(band_edges(VAM(lam), p, q, theta)["edges"])
                ref = np.array(_ref_band_edges(VAM(lam), p, q, theta))
                keep = _open_gap_edges(ref)
                assert new.size == 2 * q
                assert np.max(np.abs(new - ref)[keep]) <= 1e-9


@pytest.mark.parametrize("V,p,q", [(V0, 1, 3)] + [
    (VAM(lam), p, q) for lam in (0.5, 0.9, 1.5) for p, q in ((1, 3), (3, 5), (3, 8))])
def test_batched_s_sets_match_reference(V, p, q):
    # a grid of phases leaves holes in S_+ once the bands move by more than
    # their width (lam = 1.5, 3/8), so there the reference has more than q intervals
    new, ref = s_sets(V, p, q), _ref_s_sets(V, p, q)
    for name in ("S_minus", "S_plus"):
        if ref[name].count() > q:
            continue
        a, b = np.array(new[name].endpoints()), np.array(ref[name].endpoints())
        assert a.size == b.size
        if a.size:
            keep = _open_gap_edges(b)
            assert np.max(np.abs(a - b)[keep]) <= 1e-9


def _golden(q_min, q_max):
    out, p, q = [], 1, 2
    while q <= q_max:
        if q >= q_min:
            out.append((p, q))
        p, q = q, p + q
    return out


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_s_minus_measure_is_four_one_minus_lambda(lam):
    for p, q in _golden(5, 89):
        assert abs(s_sets(VAM(lam), p, q)["S_minus"].measure() - 4.0 * (1.0 - lam)) <= 1e-9
        assert abs(amo_s_minus_closed_form(lam, q, p).measure() - 4.0 * (1.0 - lam)) <= 1e-9


def test_supercritical_s_minus_empty_and_s_plus_moving_bands():
    # max_theta |t| = |a_{q,0}| + 2 lam^q > 2 everywhere, and S_+ is q moving bands
    for p, q in _golden(3, 34) + [(3, 8)]:
        ss = s_sets(VAM(1.5), p, q)
        assert ss["S_minus"].is_empty()
        assert 1 <= ss["S_plus"].count() <= q


def test_grid_s_minus_lies_in_sigma_for_a_high_degree_potential():
    # a grid maximum never exceeds the true one, so grid S_- contains the true
    # S_-; with too few phases for the degree-40 t(E, .) it pokes out of some
    # sigma(theta), by up to 2.4e-4 at 64 phases (q = 5) and 8.2e-7 at 704
    V = ud_potential()
    thetas = np.random.default_rng(1).uniform(size=400)
    for p, q in ((3, 5), (5, 8), (8, 13)):
        sm = s_sets(V, p, q)["S_minus"]
        assert not sm.is_empty()
        for theta in thetas:
            assert sm.measure() - sm.intersect(band_set(V, p, q, float(theta))).measure() <= 1e-5


def test_band_edges_are_level_crossings():
    # at lam = 1.5, |dt/dE| grows like lam^q, so a rounding-level error in E
    # moves t by more than 1e-9 beyond q = 13
    cases = [(lam, p, q) for lam in (0.1, 0.5, 0.9) for p, q in _golden(3, 89)]
    cases += [(1.5, p, q) for p, q in _golden(3, 13)]
    for lam, p, q in cases:
        d = Discriminant(VAM(lam), p, q)
        for theta in (0.0, 0.11, 0.3):
            edges = np.array(band_edges(VAM(lam), p, q, theta)["edges"])
            assert edges.size == 2 * q
            assert np.max(np.abs(np.abs(d.value(edges, np.asarray(theta))) - 2.0)) <= 1e-9


def test_narrow_open_gaps_stay_open():
    # the narrowest gap of sigma(theta=0) at lam = 0.1, 5/13 is 3.9e-7 wide
    be = band_edges(VAM(0.1), 5, 13, 0.0)
    edges = np.array(be["edges"])
    assert be["touchings"] == []
    assert np.all(edges[2:-1:2] - edges[1:-1:2] > 1e-7)
    assert band_set(VAM(0.1), 5, 13, 0.0).count() == 13


def test_s_plus_keeps_narrow_gaps():
    for p, q in ((8, 13), (13, 21)):
        assert s_sets(VAM(0.5), p, q)["S_plus"].count() == q


def test_s_minus_resolves_gaps_narrower_than_the_scan_step():
    lam = 0.5
    sm = s_sets(VAM(lam), 8, 13)["S_minus"]
    cf = amo_s_minus_closed_form(lam, 13, 8)
    assert sm.count() == 13
    assert set_distance(sm, cf)["hausdorff"] <= 1e-6
    # at q = 21 eight open gaps of sigma(0) are narrower than a 64-per-band scan step
    cf = amo_s_minus_closed_form(lam, 21, 13)
    sigma = band_set(VAM(lam), 13, 21, theta=0.0)
    assert cf.count() == 21
    assert all(any(a <= x and y <= b for a, b in sigma.intervals) for x, y in cf.intervals)


def test_band_set_intersect():
    a = BandSet([(0.0, 2.0), (3.0, 5.0)])
    b = BandSet([(1.0, 4.0), (4.5, 6.0)])
    assert a.intersect(b).intervals == [(1.0, 2.0), (3.0, 4.0), (4.5, 5.0)]
    assert a.intersect(BandSet([(2.5, 2.9)])).is_empty()


@pytest.mark.parametrize("p,q", [(34, 55), (55, 89), (89, 144)])
def test_chambers_amplitude_large_q(p, q):
    lam = 0.9
    dev = chambers_deviation(VAM(lam), p, q, 0.0)
    assert abs(dev / (2.0 * lam**q) - 1.0) <= 1e-6


@pytest.mark.parametrize("V", [VAM(0.5), VAM(0.9), VAM(1.5), ud_potential()],
                         ids=["amo0.5", "amo0.9", "amo1.5", "ud40"])
def test_block_matches_sequential_product(V):
    # each point is bounded by the rounding of a product of q fibers,
    # 10 q eps prod_s ||A(theta + s p/q)||_F (measured: at most 3.5 q eps times
    # the product); ||T_q|| gives no bound, since partial products can outgrow
    # T_q by far: at lam = 1.5, q = 233 the two orders differ by up to
    # 510 q eps max_theta ||T_q||_F on the phase grid of `chambers_deviation`
    ths = 0.37 * np.arange(64) / 64
    Es = np.linspace(-3.0, 3.0, 9)
    # scalar E, scalar theta, 2-D broadcast, and 65 x 64 > 4096 points (one step per chunk)
    grids = [(0.3, ths), (Es, 0.11), (Es[:, None], ths), (np.linspace(-3.0, 3.0, 65)[:, None], ths)]
    for p, q in ((0, 1), (1, 2), (2, 3), (19, 31), (13, 32), (20, 33), (89, 144), (144, 233)):
        d = Discriminant(V, p, q)
        for E, th in grids:
            new, ref = d.block(E, th), _ref_block(d, E, th)
            assert new.shape == ref.shape == np.broadcast_shapes(np.shape(E), np.shape(th)) + (2, 2)
            log_prod = sum(np.log(frob(a)) for a in _ref_fibers(d, E, th))
            bound = 10.0 * q * np.finfo(float).eps * np.exp(log_prod)
            assert np.all(frob(new - ref) <= bound), (p, q)


def _ref_floquet_edges(V, p, q, thetas):
    """The band edges from one eigenvalue solve per corner sign."""
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    v = np.real(V(np.mod(th[:, None] + np.arange(q) * p / q, 1.0)))
    H = np.broadcast_to(np.eye(q, k=1) + np.eye(q, k=-1), v.shape + (q,)).copy()
    H[:, np.arange(q), np.arange(q)] = v
    eigs = []
    for corner in (1.0, -1.0):
        Hk = H.copy()
        Hk[:, 0, q - 1] += corner
        Hk[:, q - 1, 0] += corner
        eigs.append(np.linalg.eigvalsh(Hk))
    edges = np.sort(np.concatenate(eigs, axis=1), axis=1)
    tol = _RESOLUTION_FACTOR * q * np.finfo(float).eps * (2.0 + float(np.max(np.abs(v))))
    lo, hi = edges[:, 1:-1:2], edges[:, 2::2]
    shut = hi - lo <= tol
    lo[shut] = hi[shut] = (lo[shut] + hi[shut]) / 2.0
    return edges


@pytest.mark.parametrize("V", [VAM(0.5), VAM(1.5), ud_potential()],
                         ids=["amo0.5", "amo1.5", "ud40"])
def test_floquet_edges_in_one_solve_match_two(V):
    for p, q in ((0, 1), (1, 2), (5, 8), (13, 21)):
        th = _phases(V, q)
        assert np.array_equal(_floquet_edges(V, p, q, th), _ref_floquet_edges(V, p, q, th))


@pytest.mark.parametrize("lam", [0.5, 0.9])
def test_closed_form_is_the_intersection_of_two_spectra(lam):
    for p, q in _golden(3, 34):
        two = band_set(VAM(lam), p, q, 0.0).intersect(band_set(VAM(lam), p, q, 0.5 / q))
        assert amo_s_minus_closed_form(lam, q, p).intervals == two.intervals


def test_spectra_imports_neither_cocycle_nor_mpmath():
    assert fresh_modules("import qplab.spectra", {"mpmath", "qplab.cocycle"}) == []
