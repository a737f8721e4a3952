import bisect
import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fresh_modules
from test_acceptance import _random_alpha
from qplab import cli, ldt
from qplab.contfrac import (
    BridgeSelection,
    ExactPrefixExceeded,
    PrecisionExhausted,
    SelectionFailed,
    _convergents,
    check_diophantine,
    expand,
    is_cd_bridge,
    select_bridges,
)
from qplab.sl2 import EXACT_BITS, pow_geq, pow_geq_chain, pow_leq, safe_log_int, safe_log_ints


def test_golden_fibonacci():
    e = expand("golden", 7)
    assert e.a[1:] == [1] * 7
    assert e.q[:7] == [1, 1, 2, 3, 5, 8, 13]


def test_sqrt2m1_quotients():
    e = expand("sqrt2m1", 5)
    assert e.a[1:] == [2] * 5
    assert e.q[:5] == [1, 2, 5, 12, 29]


def test_rational_reproduces_itself():
    e = expand("5/7")
    assert e.a[1:] == [1, 2, 2]
    assert e.p[-1] == 5 and e.q[-1] == 7
    assert e.rational
    assert e.beta[-1] == 0.0


@pytest.mark.parametrize("label", ["golden", "sqrt2m1"])
@pytest.mark.parametrize("depth", [1, 2, 25000])
def test_symbolic_p_shares_the_q_list(label, depth):
    e = expand(label, depth)
    p, q = _convergents(e.a)
    held = sum(v.bit_length() <= EXACT_BITS for v in q)
    assert (e.p, e.q) == (p[:held], q[:held])
    assert all(e.p[k] is e.q[k - 1] for k in range(1, len(e.q)))  # shared, not a copy
    assert e.log_q() == [safe_log_int(v) for v in q]


def _deep_rational():
    """A rational whose 400 partial quotients below 10^6 take q past EXACT_BITS (7 375 bits)."""
    a = [0] + [int(v) for v in np.random.default_rng(26).integers(2, 10**6, 400)]
    p, q = _convergents(a)
    return Fraction(p[-1], q[-1])


def test_log_q_is_the_log_of_every_convergent():
    """The streamed logs are safe_log_ints of the full exact list; p and q hold its prefix.

    The symbolic expansions at depth 25 000 are covered by
    test_symbolic_p_shares_the_q_list.
    """
    rng = np.random.default_rng(26)
    cfs = [expand(_random_alpha(rng), 100, prec=400) for _ in range(12)]
    cfs.append(expand(_deep_rational(), 1000))
    for cf in cfs:
        p, q = _convergents(cf.a)
        held = sum(v.bit_length() <= EXACT_BITS for v in q)
        assert cf.log_q() == safe_log_ints(q)
        assert (cf.p, cf.q) == (p[:held], q[:held])
    assert held < len(q)  # the rational runs past the prefix


def test_deep_expansion_and_selection_stay_small():
    """Golden to depth 25 000 and its bridge selection peak under 8 MB traced.

    With every exact q_k held (29.6 MB, which p shares) the same calls
    peaked at 32 MB.
    """
    expand("golden", 2)
    tracemalloc.start()
    try:
        select_bridges(expand("golden", 25000), 25.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_exact_convergents_past_the_prefix_raise():
    cf = expand("golden", 25000)
    held = len(cf.q)
    assert cf.q[-1].bit_length() <= EXACT_BITS < _convergents(cf.a[:held + 1])[1][-1].bit_length()
    assert cf.convergent(held - 1) == (cf.p[-1], cf.q[-1])
    with pytest.raises(ExactPrefixExceeded):
        cf.convergent(held)
    with pytest.raises(IndexError) as exc:
        cf.convergent(cf.depth() + 1)
    assert not isinstance(exc.value, ExactPrefixExceeded)
    sel = select_bridges(cf, 25.0)
    assert sel.idx[-1] >= held
    with pytest.raises(ExactPrefixExceeded):
        ldt.induction_sequences(cf, ldt.LdtScales(), s_max=1, q0_min=1 << 5000)
    with pytest.raises(ExactPrefixExceeded):
        cli._fib_convergents(cf, 1, q_min=1 << 5000)


def test_to_json_regenerates_every_convergent():
    for cf in (expand("golden", 10), expand("golden", 6500), expand(_deep_rational(), 1000)):
        p, q = _convergents(cf.a)
        want = json.dumps({"a": cf.a, "p": p, "q": q, "log_beta": cf.log_beta})
        assert cf.to_json() == want


def test_invariants_past_the_prefix():
    """Past the exact prefix the recurrence is checked on the logs, and a moved log fails it.

    The sandwich and the beta identity hold over golden's whole prefix, to q of 4096 bits.
    """
    inv = expand("golden", 25000).check_invariants()
    assert all(inv.values()), inv
    cf = expand(_deep_rational(), 1000)
    assert cf.check_invariants()["recurrence"]
    k = len(cf.q) + 3
    moved = cf.log_q()[:k] + [cf.log_q()[k] * (1 + 1e-13)] + cf.log_q()[k + 1:]
    assert not dataclasses.replace(cf, _log_q=moved).check_invariants()["recurrence"]


def test_rational_alpha_mp_is_exact():
    """A rational expansion's alpha_mp is p/q at the asked precision, not the 53-bit float.

    The float passes the sandwich and the beta identity only while q_n stays near 2^26.
    """
    inv = expand(_deep_rational(), 1000).check_invariants(n_limit=3, exhaustive_q_cap=0)
    assert all(inv.values()), inv
    assert fresh_modules('from qplab.contfrac import expand; expand("1/7919", 40)',
                         {"mpmath"}) == []


def test_safe_log_ints_is_safe_log_int_per_entry():
    # both sides of the 512-bit cut, and q lists that are not symbolic
    ns = [1, 2, 3] + [(1 << b) + d for b in (52, 53, 511, 512, 513, 4000) for d in (-1, 0, 1)]
    ns += expand("1/7919", 40).q + expand(_random_alpha(np.random.default_rng(3)), 100, prec=400).q
    got = safe_log_ints(ns)
    assert got == [safe_log_int(n) for n in ns]
    assert all(abs(g - math.log(n)) <= 1e-15 * max(1.0, math.log(n)) for g, n in zip(got, ns))
    with pytest.raises(ValueError):
        safe_log_ints([3, 0])


def test_float_expansion_and_dioph_load_mpmath(tmp_path):
    assert fresh_modules("from qplab.contfrac import expand; expand(0.37281911, 20)",
                         {"mpmath"}) == ["mpmath"]
    argv = ["dioph", "--alpha", "golden", "--K", "50", "--out-dir", str(tmp_path)]
    assert fresh_modules(f"from qplab.cli import main; main({argv!r})", {"mpmath"}) == ["mpmath"]


def test_decimal_alpha_is_read_exactly():
    # at 53 bits "0.3" was the double below 3/10, whose expansion runs [0, 3, 2, 1, ...]
    assert expand("0.3", 3).a == [0, 3, 3]
    assert expand("0.37281911", 20).to_json() == expand("37281911/100000000", 20).to_json()
    assert fresh_modules('from qplab.contfrac import expand; expand("0.37281911", 20)',
                         {"mpmath"}) == []


def test_expand_deterministic():
    a = expand(0.37281911, 20)
    b = expand(0.37281911, 20)
    assert a.a == b.a and a.q == b.q
    assert a.log_beta == b.log_beta


def test_expand_requires_unit_interval():
    with pytest.raises(ValueError):
        expand(1.5, 5)


def test_mp_expansion_matches_exact_euclid():
    # a float input is a dyadic rational; exact Euclid on that rational is an
    # independent oracle for the Gauss-map quotients
    for alpha in (0.721, 0.123456789):
        e = expand(alpha, 12)
        exact = expand(Fraction(alpha), 12)
        n = min(len(e.a), len(exact.a))
        assert e.a[:n] == exact.a[:n]


def test_golden_invariants(golden_cf):
    inv = golden_cf.check_invariants(n_limit=20)
    assert all(inv.values()), inv


def test_cd_bridge_golden_examples(golden_cf):
    # chain 3<=8, 5<=27, 8<=125 and 8 in [2^3, 2^3]
    assert is_cd_bridge(golden_cf, 2, 5, 3, 3, 3)
    assert not is_cd_bridge(golden_cf, 2, 5, 3, 4, 4)
    assert is_cd_bridge(golden_cf, 0, 0, 2, 3, 5)  # q=1, empty chain


def test_cd_bridge_index_errors(golden_cf):
    with pytest.raises(IndexError):
        is_cd_bridge(golden_cf, 0, 10**6, 2, 2, 2)
    with pytest.raises(ValueError):
        is_cd_bridge(golden_cf, 0, 3, 3, 2, 2)


def test_select_bridges_golden(golden_cf):
    sel = select_bridges(golden_cf, 25.0)
    assert golden_cf.q[sel.idx[0]] == 1
    assert sel.all_ok()


def test_select_bridges_sqrt2m1():
    sel = select_bridges(expand("sqrt2m1", 60), 25.0)
    assert sel.all_ok()


def test_select_bridges_degenerate():
    e = expand("golden", 1)
    sel = select_bridges(e, 25.0)
    assert [e.q[i] for i in sel.idx] == [1] and sel.exhausted


@pytest.mark.parametrize("label,idx", [
    ("golden", [1, 37, 934, 23359]),
    ("sqrt2m1", [0, 20, 521, 13046]),
])
def test_select_bridges_deep_pinned(label, idx):
    sel = select_bridges(expand(label, 25000), 25.0)
    assert sel.idx == idx and sel.exhausted


def _select_bridges_linear(cf, A):
    """Reference: the greedy search with a linear scan for each next index."""
    q = _convergents(cf.a)[1]
    last = len(q) - 2
    if last < 0:
        raise SelectionFailed("expansion too shallow for any selection")
    lq = cf.log_q()
    tol = 1e-9

    def route1(i):
        return lq[i + 1] >= A * lq[i] - tol

    def chain_ok(i):
        return lq[i + 1] <= A * lq[i] + tol * max(1.0, A * lq[i])

    nxt_break = [last + 1] * (last + 2)
    for i in range(last, -1, -1):
        nxt_break[i] = i if not chain_ok(i) else nxt_break[i + 1]

    def bridge(m, n):
        if m > n:
            return False
        if nxt_break[m] < n:
            return False
        return (A * lq[m] - tol <= lq[n] + tol) and (lq[n] <= A**3 * lq[m] + tol * max(1.0, A**3 * lq[m]))

    n0 = max(i for i in range(last + 1) if q[i] == 1)
    idx = [n0]
    owes = [False]
    tried = [set()]
    best = list(idx)
    pops = 0
    while pops < 200:
        k = len(idx) - 1
        cur = idx[k]
        found = None
        for m in range(cur + 1, last + 1):
            if lq[m] > (A**4) * lq[cur + 1] + tol * max(1.0, (A**4) * lq[cur + 1]):
                break
            if m in tried[k]:
                continue
            if owes[k] and not bridge(cur, m):
                continue
            if route1(m) or bridge(cur + 1, m):
                found = m
                break
        if found is None:
            if len(idx) > len(best):
                best = list(idx)
            if owes[k] and len(idx) > 1:
                bad = idx.pop()
                owes.pop()
                tried.pop()
                tried[-1].add(bad)
                pops += 1
                continue
            break
        idx.append(found)
        owes.append(not route1(found))
        tried.append(set())

    sel = BridgeSelection(cf, A, best, exhausted=True)
    if not sel.all_ok():
        raise SelectionFailed(f"greedy selection {idx} fails invariant check")
    return sel


@pytest.mark.parametrize("A", [25.0, 5.0, 2.0])
def test_select_bridges_matches_linear_scan(A):
    rng = np.random.default_rng(7)
    for _ in range(60):
        cf = expand(_random_alpha(rng), 25, prec=400)
        try:
            want = _select_bridges_linear(cf, A).idx
        except SelectionFailed:
            with pytest.raises(SelectionFailed):
                select_bridges(cf, A)
            continue
        assert select_bridges(cf, A).idx == want


def _select_bridges_skip_loop(cf, A):
    """Reference: the bisecting search that keeps a set of rejected indices per level.

    Each retry walks the candidates of its level from the start and skips
    the rejected ones one by one.  Returns (idx, pops).
    """
    q = _convergents(cf.a)[1]
    last = len(q) - 2
    lq = cf.log_q()
    tol = 1e-9
    logs = np.array(lq)
    Alq, lq_next = A * logs[:-1], logs[1:]
    route1 = lq_next >= Alq - tol
    route1_at = np.flatnonzero(route1).tolist() + [last + 1]
    breaks = np.flatnonzero(~(lq_next <= Alq + tol * np.maximum(1.0, Alq))).tolist() + [last + 1]

    def first(lo, hi, pred):
        return bisect.bisect_left(range(lo, hi), True, key=pred) + lo

    def window(m):
        end = breaks[bisect.bisect_left(breaks, m)] + 1
        cap = A**3 * lq[m] + tol * max(1.0, A**3 * lq[m])
        lo = first(m, end, lambda n: A * lq[m] - tol <= lq[n] + tol)
        return lo, max(lo, first(m, end, lambda n: not lq[n] <= cap))

    def over_cap(cur, m):
        return lq[m] > (A**4) * lq[cur + 1] + tol * max(1.0, (A**4) * lq[cur + 1])

    idx = [bisect.bisect_right(q, 1, 0, last + 1) - 1]
    owes, tried, best, pops = [False], [set()], list(idx), 0
    while pops < 200:
        k = len(idx) - 1
        cur = idx[k]
        lo, hi = cur + 1, first(cur + 1, last + 1, lambda m: over_cap(cur, m))
        if owes[k]:
            b_lo, b_hi = window(cur)
            lo, hi = max(lo, b_lo), min(hi, b_hi)
        found = None
        if lo < hi:
            w_lo, w_hi = window(cur + 1)
            m = lo
            while m < hi:
                nxt = route1_at[bisect.bisect_left(route1_at, m)]
                if max(m, w_lo) < w_hi:
                    nxt = min(nxt, max(m, w_lo))
                if nxt >= hi:
                    break
                if nxt not in tried[k]:
                    found = nxt
                    break
                m = nxt + 1
        if found is None:
            if len(idx) > len(best):
                best = list(idx)
            if owes[k] and len(idx) > 1:
                bad = idx.pop()
                owes.pop()
                tried.pop()
                tried[-1].add(bad)
                pops += 1
                continue
            break
        idx.append(found)
        owes.append(not route1[found])
        tried.append(set())
    return best, pops


@pytest.mark.parametrize("A", [25.0, 5.0, 2.0])
def test_select_bridges_matches_skip_loop(A):
    """The per-level pointer past the rejected prefix picks what the skip loop picks.

    The random alpha at depth 100 pop between 22 and 200 times at A = 25
    and hit the 200-pop limit at A = 5 and 2.
    """
    rng = np.random.default_rng(22)
    cfs = [expand("golden", 25000), expand("sqrt2m1", 25000)]
    cfs += [expand(_random_alpha(rng), 100, prec=400) for _ in range(12)]
    pops = []
    for cf in cfs:
        want, n = _select_bridges_skip_loop(cf, A)
        assert select_bridges(cf, A).idx == want
        pops.append(n)
    assert min(pops[2:]) > 0 and max(pops) == 200, pops


def _chain_cases(A):
    """q lists for the chain check: both symbolic ones deep, 30 random alpha, and near ties.

    A near tie is q = [1, x, y'] with x = 2^j, so that y = x^A is an integer,
    and y' within a relative 3e-14 of y: exact powers and the log rule's
    1e-12 tie can decide it differently.  For integer A, x = 2^b and 2^(b-1)
    sit on both sides of the end of the exact-power prefix, b = 4096 // A.
    Each x is also followed by 2^4096, the first bound past the exact prefix.
    """
    cfs = [expand("golden", 25000), expand("sqrt2m1", 25000)]
    rng = np.random.default_rng(19)
    cfs += [expand(_random_alpha(rng), 100, prec=400) for _ in range(30)]
    qs = [_convergents(cf.a)[1] for cf in cfs]
    edge = [4096 // A - 1, 4096 // A] if float(A).is_integer() else []
    for j in [2, 40, 200, 2000, 3000] + edge:
        x, y = 2**j, 2 ** int(j * A)
        qs += [[1, x, near] for near in (y, y + 1, y - 1, y + (y >> 45), y - (y >> 45))]
        qs.append([1, x, 1 << EXACT_BITS])
    return qs


@pytest.mark.parametrize("A", [25, 5, 2, 2.5])
def test_chain_check_matches_pow_geq_loop(A):
    """The chain check decides alike from every exact q and from the prefix an expansion holds."""
    for q in _chain_cases(A):
        logs = [safe_log_int(v) for v in q]
        held = q[:sum(v.bit_length() <= EXACT_BITS for v in q)]
        ref = [pow_geq(q[i], A, q[i + 1]) for i in range(len(q) - 1)]
        # first index past sl2._pow_cmp's exact-power prefix
        exact = next((i for i in range(len(q)) if not (
            q[i] == 1 or (float(A).is_integer() and q[i].bit_length() * A <= 4096))), len(q))
        breaks = [i for i, ok in enumerate(ref) if not ok]
        points = {0, 1, 2, exact - 1, exact, exact + 1, len(q) // 2, len(q) - 2, len(q) - 1}
        points |= {j for i in breaks[:6] + breaks[-6:] for j in (i, i + 1)}
        points = sorted(i for i in points if 0 <= i < len(q))
        for m in points:
            for n in points[points.index(m):]:
                assert pow_geq_chain(q, A, logs, m, n) == all(ref[m:n]), (m, n)
                assert pow_geq_chain(held, A, logs, m, n) == all(ref[m:n]), (m, n)


def _check_invariants_plain(sel):
    """Reference: the certificate with every comparison recomputing its logs."""
    cf, A, idx = sel.cf, sel.A, sel.idx
    q = _convergents(cf.a)[1]
    K = len(idx) - 1

    def bridge(m, n):
        return (all(pow_geq(q[i], A, q[i + 1]) for i in range(m, n))
                and pow_leq(q[m], A, q[n]) and pow_geq(q[m], A**3, q[n]))

    ok_dis, pending = True, False
    for k in range(K + 1):
        if pow_leq(q[idx[k]], A, q[idx[k] + 1]):
            continue
        if not (k >= 1 and bridge(idx[k - 1] + 1, idx[k])):
            ok_dis = False
        elif k < K:
            ok_dis = ok_dis and bridge(idx[k], idx[k + 1])
        else:
            pending = True
    return {
        "Q0_is_1": q[idx[0]] == 1,
        "growth_cap": all(pow_geq(q[idx[k] + 1], A**4, q[idx[k + 1]]) for k in range(K)),
        "disjunction": ok_dis and not (pending and not sel.exhausted),
        "qbar_growth": all(pow_leq(q[idx[k] + 1], A, q[idx[k + 1] + 1]) for k in range(K)),
        "pending_tail": pending,
    }


@pytest.mark.parametrize("label", ["golden", "sqrt2m1"])
def test_certificate_from_cached_logs_deep(label):
    sel = select_bridges(expand(label, 25000), 25.0)
    assert sel.check_invariants() == _check_invariants_plain(sel)


def test_certificate_from_cached_logs_random_alpha(golden_cf):
    rng = np.random.default_rng(7)
    sels = [BridgeSelection(golden_cf, 25.0, [1, 4], exhausted=True)]
    for A in (25.0, 5.0, 2.0):
        for _ in range(30):
            try:
                sels.append(select_bridges(expand(_random_alpha(rng), 25, prec=400), A))
            except SelectionFailed:
                continue
    for sel in sels:
        assert sel.check_invariants() == _check_invariants_plain(sel)


def test_bridge_reverification_catches_bad_selection(golden_cf):
    sel = BridgeSelection(golden_cf, 25.0, [1, 4], exhausted=True)
    checks = sel.check_invariants()
    assert not checks["disjunction"]


def test_diophantine_frequency_golden(golden_cf):
    out = check_diophantine(golden_cf, "frequency", 1000, v=0.2, tau=1.5)
    assert out["holds"]


def test_diophantine_rational_fails():
    e = expand("5/7")
    out = check_diophantine(e, "frequency", 10, v=0.05, tau=2.0)
    assert not out["holds"]
    assert out["worst"][0] == 7


def test_diophantine_rotation_rho_zero(golden_cf):
    out = check_diophantine(golden_cf, "rotation", 10, rho=0.0, gamma=0.3, tau=1.5)
    assert not out["holds"]
    assert out["worst"][0] == 0
    assert out["worst"][1] == pytest.approx(-0.3)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 400), st.integers(1, 399))
def test_rational_roundtrip(q, p):
    p = p % q
    if p == 0 or math.gcd(p, q) != 1:
        return
    e = expand(Fraction(p, q), 50)
    assert e.p[-1] == p and e.q[-1] == q
    inv = e.check_invariants()
    assert inv["recurrence"]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 2**60 - 1))
def test_random_mid_precision_invariants(mant):
    import mpmath as mp

    alpha = mp.mpf(mant) / 2**60
    if not 0 < alpha < 1:
        return
    try:
        e = expand(alpha, 12, prec=300)
    except PrecisionExhausted:
        # a 60-bit dyadic can terminate inside 12 steps; that must be flagged,
        # not silently mangled
        return
    inv = e.check_invariants(n_limit=10, exhaustive_q_cap=200)
    assert inv["recurrence"] and inv["sandwich"]
