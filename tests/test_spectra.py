import math

import numpy as np
import pytest

from qplab.spectra import (
    BandIndexAmbiguous,
    BandSet,
    Discriminant,
    _moving_bands,
    amo_s_minus_closed_form,
    band_edges,
    band_set,
    chambers_deviation,
    discriminant,
    discriminant_fourier,
    e_window,
    ids,
    s_sets,
    set_distance,
)
from qplab.udspace import FourierSeries

V0 = FourierSeries.zero(1)
VAM = lambda lam: FourierSeries.cosine(2.0 * lam)


def test_discriminant_free_small_q():
    assert discriminant(V0, 0, 1, 1.7, 0.3) == pytest.approx(1.7)
    E = 1.3
    assert discriminant(V0, 1, 2, E, 0.1) == pytest.approx(E * E - 2.0)


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
