"""Continued fractions, best rational approximations, CD bridges.

The expansion is computed either exactly (rational input, a "p/q" or
decimal string included, or a symbolic quadratic irrational whose partial
quotients are known in closed form) or, for a float or mpf, with mpmath at
a configurable working precision.  The convergents p_k, q_k are streamed
from the integer recurrence, two live ints at a time.  An expansion holds
them as exact python ints only while q_k has at most `sl2.EXACT_BITS`
bits, the largest exact power the bridge certificate forms, and log q_k
for the whole depth; q_k has about 0.69 k bits at golden, so a full list
to depth n would cost about 0.35 n^2 bits.  The products beta_n are kept
both as floats and in log domain because they underflow quickly.

mpmath is imported on first use, by the float/mpf branch of `expand`,
`CfExpansion.alpha_mp`, `norm_dist`, the best-approximation check and
`check_diophantine`; symbolic, rational and decimal-string expansions and
the bridge selection never load it.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .sl2 import EXACT_BITS, pow_geq, pow_geq_chain, pow_leq, safe_log_int, safe_log_ints

SYMBOLIC = ("golden", "sqrt2m1")


class PrecisionExhausted(Exception):
    """Gauss-map iteration ran out of significant digits."""


class SelectionFailed(Exception):
    """No CD-bridge subsequence satisfying the invariants was found."""


class ExactPrefixExceeded(IndexError):
    """An exact convergent was asked for past the held prefix: its q_k has more than EXACT_BITS bits."""


# the ratio recurrence log q_k - log q_{k-1} = log(a_k + q_{k-2}/q_{k-1}) holds on the logs
# past the exact prefix to this many units of 2^-52 of max(1, log q_k)
_LOG_RECURRENCE_ULPS = 16


@dataclass
class CfExpansion:
    """Partial quotients a_k, convergents p_k/q_k, tails alpha_k, products beta_n.

    Index conventions: a[0] = 0 is a placeholder so that a[k] is the k-th
    partial quotient, k = 0 .. depth().  p = [0, 1, ...] and q = [1, a_1, ...]
    hold the exact convergents while q_k has at most EXACT_BITS bits, a
    prefix of the indices; `log_q()` covers every k, and `convergent(k)`
    raises ExactPrefixExceeded past the prefix.  beta[n] stores
    beta_n = prod_{l<=n} alpha_l = |q_n alpha - p_n| (float, may underflow)
    and log_beta[n] its natural log.
    """

    alpha: float
    a: list
    p: list
    q: list
    _log_q: list = field(repr=False)
    alpha_tail: list
    beta: list
    log_beta: list
    rational: bool = False
    label: Optional[str] = None
    _exact: object = field(default=None, repr=False)  # the Fraction or mpf that was expanded

    def depth(self) -> int:
        return len(self.a) - 1

    def convergent(self, k: int) -> tuple:
        """(p_k, q_k) as exact ints; ExactPrefixExceeded past the held prefix."""
        if not 0 <= k <= self.depth():
            raise IndexError(f"convergent {k} outside the computed range 0 .. {self.depth()}")
        if k >= len(self.q):
            raise ExactPrefixExceeded(
                f"q_{k} has more than {EXACT_BITS} bits; exact convergents are held to "
                f"index {len(self.q) - 1}, logs to {self.depth()}")
        return self.p[k], self.q[k]

    def alpha_mp(self, prec: int = 256):
        """alpha as an mpf: at `prec` bits for a rational or symbolic input, else as expanded."""
        import mpmath as mp

        with mp.workprec(prec):
            if self.label == "golden":
                return (mp.sqrt(5) - 1) / 2
            if self.label == "sqrt2m1":
                return mp.sqrt(2) - 1
            if self.rational:
                return mp.mpf(self._exact.numerator) / self._exact.denominator
            return self._exact

    def norm_dist(self, k: int):
        """||k*alpha||_Z as an mpf, from alpha_mp at 256 + 2 bits(k) bits.

        The distance is at least about 1/k for a convergent denominator k, so
        it keeps about 256 bits; float(...) of it underflows past k = 2^1074.
        """
        import mpmath as mp

        prec = 256 + 2 * k.bit_length()
        with mp.workprec(prec):
            x = mp.frac(k * self.alpha_mp(prec))
            return min(x, 1 - x)

    def log_q(self) -> list:
        """[safe_log_int(q_k)] for k = 0 .. depth(): the bridge search, its certificate and kam share it."""
        return self._log_q

    def to_json(self) -> str:
        """a, every p_k and q_k, and log_beta as one JSON object.

        The convergents are regenerated from `a` as the text is written, so
        they need not be held.
        """
        def ints(xs) -> str:
            return "[" + ", ".join(map(str, xs)) + "]"

        return (f'{{"a": {ints(self.a)}, "p": {ints(_recurrence(self.a, 0, 1))}, '
                f'"q": {ints(_recurrence(self.a, 1, 0))}, '
                f'"log_beta": {json.dumps(list(self.log_beta))}}}')

    def check_invariants(self, n_limit: Optional[int] = None, exhaustive_q_cap: int = 10**4) -> dict:
        """Recurrence, best-approximation sandwich, beta identity.

        The recurrence is checked on the exact ints of the held prefix and,
        past it, as the ratio recurrence on the logs,
        log q_k - log q_{k-1} = log(a_k + e^(log q_{k-2} - log q_{k-1})), to
        _LOG_RECURRENCE_ULPS units of 2^-52 of max(1, log q_k).  The ||q_n
        alpha|| sandwich, the beta identity and the best-approximation check
        read exact q_n, so they cover the held prefix; the sandwich is
        compared in mpmath at the precision of `norm_dist`.  It is checked
        for n >= 1; at n = 0 it can fail legitimately when a_1 = 1, since
        beta_0 = alpha need not be the distance to the nearest integer.
        n = 0 is covered by the exact identity beta_0 = alpha instead.
        """
        import mpmath as mp

        q, p, a = self.q, self.p, self.a
        upto = self.depth() if n_limit is None else min(n_limit, self.depth())
        held = min(upto, len(q) - 1)
        rec_ok = all(
            q[k] == a[k] * q[k - 1] + q[k - 2] and p[k] == a[k] * p[k - 1] + p[k - 2]
            for k in range(2, held + 1)
        )
        k0 = max(held + 1, 2)
        if rec_ok and k0 <= upto:
            lq = np.array(self.log_q()[k0 - 2:upto + 1])
            log_a = np.array(safe_log_ints(a[k0:upto + 1]))
            step = lq[2:] - lq[1:-1]
            # log(a_k + r) = log a_k + log1p(r / a_k), r = q_{k-2}/q_{k-1} <= 1, for a_k of any size
            ratio = log_a + np.log1p(np.exp(lq[:-2] - lq[1:-1] - log_a))
            tol = _LOG_RECURRENCE_ULPS * 2.0**-52 * np.maximum(1.0, lq[2:])
            rec_ok = bool(np.all(np.abs(step - ratio) <= tol))
        sandwich_ok = True
        beta_ok = abs(self.beta[0] - self.alpha) <= 1e-12
        for n in range(1, min(upto, len(q) - 1)):
            dist = self.norm_dist(q[n])
            with mp.workprec(256 + 2 * q[n + 1].bit_length()):
                if not (1 < dist * (q[n] + q[n + 1]) and dist * q[n + 1] <= 1 + mp.mpf(1e-12)):
                    sandwich_ok = False
            dist = float(dist)
            if self.beta[n] > 0 and abs(self.beta[n] - dist) > 1e-9 * max(dist, 1e-300):
                beta_ok = False
        best_ok = self._check_best_approx(held, exhaustive_q_cap)
        return {
            "recurrence": rec_ok,
            "sandwich": sandwich_ok,
            "beta_identity": beta_ok,
            "best_approx": best_ok,
        }

    def _check_best_approx(self, upto: int, q_cap: int) -> bool:
        """||k alpha|| >= ||q_{n-1} alpha|| for 1 <= k < q_n, exhaustively; upto < len(q)."""
        import mpmath as mp

        with mp.workprec(320):
            am = self.alpha_mp(320)
            ok = True
            for n in range(1, upto + 1):
                if self.q[n] > q_cap:
                    break
                floor = mp.frac(self.q[n - 1] * am)
                floor = min(floor, 1 - floor)
                x = mp.mpf(0)
                for _ in range(1, self.q[n]):
                    x = mp.frac(x + am)
                    if min(x, 1 - x) < floor * (1 - mp.mpf(1e-9)):
                        ok = False
                        break
                if not ok:
                    break
        return ok


def _recurrence(a: list, x_m2: int, x_m1: int):
    """x_k = a_k x_{k-1} + x_{k-2} for k = 0 .. len(a) - 1, from x_{-2} and x_{-1}.

    The one convergent generator: p_k from (0, 1), q_k from (1, 0), so a_0 = 0
    gives p_0 = 0 and q_0 = 1.  It holds two ints at a time.
    """
    for ak in a:
        x_m2, x_m1 = x_m1, ak * x_m1 + x_m2
        yield x_m1


def _convergents(a: list) -> tuple[list, list]:
    """Every exact p_k and q_k for k < len(a), as two lists."""
    return list(_recurrence(a, 0, 1)), list(_recurrence(a, 1, 0))


def _held(xs, out: list):
    """Yield each x of xs and append those of at most EXACT_BITS bits to `out`.

    xs is nondecreasing, so `out` receives a prefix of it.
    """
    for x in xs:
        if x.bit_length() <= EXACT_BITS:
            out.append(x)
        yield x


def _exact_pairs(a: list, p: list, q: list, log_q: list):
    """Yield (p_k, q_k) for k < len(a), append log q_k to log_q and the held prefix to p and q."""
    for pk, qk in zip(_recurrence(a, 0, 1), _held(_recurrence(a, 1, 0), q)):
        if len(p) < len(q):
            p.append(pk)
        log_q.append(safe_log_int(qk))
        yield pk, qk


def _expand_rational(frac: Fraction, n_max: int) -> CfExpansion:
    if not 0 < frac < 1:
        raise ValueError("alpha must lie in (0,1)")
    a = [0]
    tails = []
    x = frac
    while x != 0 and len(a) - 1 < n_max:
        inv = 1 / x
        ak = int(inv)
        a.append(ak)
        x = inv - ak
        tails.append(float(x))
    p, q, log_q, beta, log_beta = [], [], [], [], []
    for pk, qk in _exact_pairs(a, p, q, log_q):
        b = abs(qk * frac - pk)
        beta.append(float(b))
        log_beta.append(
            -math.inf if b == 0 else safe_log_int(b.numerator) - safe_log_int(b.denominator)
        )
    return CfExpansion(float(frac), a, p, q, log_q, tails, beta, log_beta, rational=True,
                       _exact=frac)


def _expand_symbolic(label: str, n_max: int) -> CfExpansion:
    if label == "golden":
        quot, tail = 1, (math.sqrt(5) - 1) / 2
    elif label == "sqrt2m1":
        quot, tail = 2, math.sqrt(2) - 1
    else:
        raise ValueError(f"unknown symbolic frequency {label!r}")
    a = [0] + [quot] * n_max
    q = []
    log_q = safe_log_ints(_held(_recurrence(a, 1, 0), q))
    # with every a_k equal, p_k = q_{k-1}: p shares q's ints instead of repeating the recurrence
    p = [0] + q[:-1]
    # all Gauss-map tails equal alpha itself, so beta_n = alpha^(n+1) exactly
    log_tail = math.log1p(-1 + tail) if label != "golden" else math.log((math.sqrt(5) - 1) / 2)
    log_beta = [(n + 1) * log_tail for n in range(len(a))]
    beta = [math.exp(lb) if lb > -700 else 0.0 for lb in log_beta]
    return CfExpansion(tail, a, p, q, log_q, [tail] * n_max, beta, log_beta, label=label)


def expand(alpha, n_max: int = 40, prec: int = 256) -> CfExpansion:
    """Continued-fraction expansion of alpha in (0,1).

    `alpha` may be a float/mpf, a Fraction, a string "p/q" or a decimal
    string (read exactly, as a Fraction: "0.3" is 3/10), or one of the
    symbolic tokens "golden", "sqrt2m1" (whose quotient streams are
    generated exactly to any depth).  Raises PrecisionExhausted if the
    Gauss-map tail of a float or mpf drops below the working epsilon before
    n_max steps without terminating exactly.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if isinstance(alpha, str):
        tok = alpha.strip().lower()
        if tok in SYMBOLIC:
            return _expand_symbolic(tok, n_max)
        return _expand_rational(Fraction(tok), n_max)  # "p/q" or a decimal, read exactly
    if isinstance(alpha, Fraction):
        return _expand_rational(alpha, n_max)
    import mpmath as mp

    with mp.workprec(max(prec, 256)):
        x = mp.mpf(alpha)
        if not 0 < x < 1:
            raise ValueError("alpha must lie in (0,1)")
        eps = mp.mpf(2) ** (-mp.mp.prec + 16)
        a = [0]
        tails = []
        cur = x
        for _ in range(n_max):
            if cur == 0:
                break
            if cur < eps:
                raise PrecisionExhausted(
                    f"Gauss-map tail below working epsilon at step {len(a)}; "
                    f"raise prec above {mp.mp.prec} bits"
                )
            inv = 1 / cur
            ak = int(mp.floor(inv))
            cur = inv - ak
            a.append(ak)
            tails.append(float(cur))
        p, q, log_q, beta, log_beta = [], [], [], [], []
        for n, (pk, qk) in enumerate(_exact_pairs(a, p, q, log_q)):
            b = abs(qk * x - pk)
            if b < eps and n < len(a) - 1:
                raise PrecisionExhausted(
                    f"beta_{n} below working epsilon before n_max; the input is "
                    f"rational at {mp.mp.prec} bits (use a 'p/q' string) or needs more prec"
                )
            beta.append(float(b))
            log_beta.append(float(mp.log(b)) if b > 0 else -math.inf)
        return CfExpansion(float(x), a, p, q, log_q, tails, beta, log_beta, _exact=x)


def is_cd_bridge(cf: CfExpansion, m: int, n: int, A: float, B: float, C: float) -> bool:
    """(q_m, q_n) forms a CD(A,B,C) bridge.

    Chain condition q_{i+1} <= q_i^A for m <= i <= n-1 plus the growth
    window q_m^B <= q_n <= q_m^C.  Requires 0 < A <= B <= C.  The
    comparisons read the logs of cf.log_q().
    """
    if not (0 < A <= B <= C):
        raise ValueError("need 0 < A <= B <= C")
    if not (0 <= m <= n <= cf.depth()):
        raise IndexError(f"bridge indices ({m},{n}) outside computed range")
    q, lq = cf.q, cf.log_q()
    qm, qn, logs = _q_or_none(q, m), _q_or_none(q, n), (lq[m], lq[n])
    return pow_geq_chain(q, A, lq, m, n) and pow_leq(qm, B, qn, logs) and pow_geq(qm, C, qn, logs)


def _q_or_none(q: list, i: int) -> Optional[int]:
    """q_i from the held prefix, or None for an int of more than EXACT_BITS bits, as `sl2._pow_cmp` reads it."""
    return q[i] if i < len(q) else None


@dataclass
class BridgeSelection:
    """Selected subsequence Q_k = q[idx[k]], with companion Qbar_k = q[idx[k]+1]."""

    cf: CfExpansion
    A: float
    idx: list
    exhausted: bool = False

    def levels(self) -> int:
        return len(self.idx)

    def log_Qbar(self) -> list:
        lq = self.cf.log_q()
        return [lq[i + 1] for i in self.idx]

    def check_invariants(self) -> dict:
        """Re-verify every claimed bridge and growth bound after the fact.

        With a finite expansion the forward half of the bridge disjunction at
        the last level may be unresolved; that is allowed only when the
        selection is flagged range-exhausted.
        """
        cf, A = self.cf, self.A
        q, lq = cf.q, cf.log_q()
        idx = self.idx
        K = len(idx) - 1

        def cmp(test, i, expo, j):  # test(q_i, expo, q_j) on the cached logs
            return test(_q_or_none(q, i), expo, _q_or_none(q, j), (lq[i], lq[j]))

        ok_q0 = _q_or_none(q, idx[0]) == 1
        ok_growth = all(cmp(pow_geq, idx[k] + 1, A**4, idx[k + 1]) for k in range(K))
        ok_lemma23 = all(cmp(pow_leq, idx[k] + 1, A, idx[k + 1] + 1) for k in range(K))
        ok_dis = True
        pending = False
        for k in range(K + 1):
            if cmp(pow_leq, idx[k], A, idx[k] + 1):
                continue  # Qbar_k >= Q_k^A
            back = k >= 1 and is_cd_bridge(cf, idx[k - 1] + 1, idx[k], A, A, A**3)
            if not back:
                ok_dis = False
                continue
            if k < K:
                if not is_cd_bridge(cf, idx[k], idx[k + 1], A, A, A**3):
                    ok_dis = False
            else:
                pending = True  # forward bridge needs a deeper expansion
        if pending and not self.exhausted:
            ok_dis = False
        return {
            "Q0_is_1": ok_q0,
            "growth_cap": ok_growth,
            "disjunction": ok_dis,
            "qbar_growth": ok_lemma23,
            "pending_tail": pending,
        }

    def all_ok(self) -> bool:
        c = self.check_invariants()
        return c["Q0_is_1"] and c["growth_cap"] and c["disjunction"] and c["qbar_growth"]


def select_bridges(cf: CfExpansion, A: float = 25.0) -> BridgeSelection:
    """Greedy left-to-right CD-bridge selection with one-step backtracking.

    Starts at the last index with q = 1.  Level k, at index cur, extends
    with the smallest index m > cur that
      - stays under the growth cap q_m <= q_{cur+1}^(A^4),
      - was not rejected at this level before,
      - forms a CD(A, A, A^3) bridge (q_cur, q_m) if level k owes its
        forward bridge, and
      - is a route-1 index (q_{m+1} >= q_m^A) or forms a bridge
        (q_{cur+1}, q_m); in the second case the new level owes its
        forward bridge.
    A level that owes its forward bridge and finds no successor is popped
    and its index rejected one level up, at most 200 times; the longest
    chain seen is returned, flagged range-exhausted.

    Admissibility is decided in log domain so that multi-thousand-digit
    convergents stay cheap.  log q_k is nondecreasing in k, so the growth
    cap is a prefix of the indices and the bridges (q_m, q_n) from a fixed
    m are one contiguous window of n, cut off at the first chain break
    after m.  A level finds these ranges by bisection once, when it is
    pushed, and keeps them on its stack entry.  A level always extends with
    its smallest candidate not yet rejected there, so the indices it
    rejects are a prefix of its candidates, and the start of its range,
    moved past the last index it rejected, stands for them all.  So a step,
    however often its level was retried, is one bisection into the sorted
    route-1 indices.  The O(n) set-up (the chain breaks and the route-1
    indices) and the certificate's chain walks (`pow_geq_chain`) are numpy
    passes over the cached logs.
    Correctness is certified by `BridgeSelection.check_invariants`, not by
    construction.
    """
    if A < 1:
        raise ValueError("A must be >= 1")
    last = cf.depth() - 1  # need q[i+1] for Qbar
    if last < 0:
        raise SelectionFailed("expansion too shallow for any selection")
    lq = cf.log_q()
    tol = 1e-9

    logs = np.array(lq)
    Alq, lq_next = A * logs[:-1], logs[1:]  # at i = 0 .. last
    route1 = lq_next >= Alq - tol  # q_{i+1} >= q_i^A
    route1_at = np.flatnonzero(route1).tolist() + [last + 1]
    # chain breaks, not q_{i+1} <= q_i^A, and the first one at or after i
    breaks = np.flatnonzero(~(lq_next <= Alq + tol * np.maximum(1.0, Alq))).tolist() + [last + 1]

    def nxt_break(i):
        return breaks[bisect.bisect_left(breaks, i)]

    # CD(A, A, A^3) in log domain: bridge(m, n) holds iff m <= n <= nxt_break(m),
    # reaches(m, n) and within(m, n), both monotone in n because lq is nondecreasing
    def reaches(m, n):
        return A * lq[m] - tol <= lq[n] + tol

    def within(m, n):
        return lq[n] <= A**3 * lq[m] + tol * max(1.0, A**3 * lq[m])

    def first(lo, hi, pred):  # smallest n in [lo, hi) with pred(n), pred false-then-true
        return bisect.bisect_left(range(lo, hi), True, key=pred) + lo

    def window(m):  # [lo, hi) with bridge(m, n) iff lo <= n < hi
        end = nxt_break(m) + 1
        lo = first(m, end, lambda n: reaches(m, n))
        return lo, max(lo, first(m, end, lambda n: not within(m, n)))

    def over_cap(cur, m):  # growth cap, monotone in m
        return lq[m] > (A**4) * lq[cur + 1] + tol * max(1.0, (A**4) * lq[cur + 1])

    # one entry per level: [index, owes its forward bridge (route 2), lo, hi, w_lo, w_hi];
    # the level's candidates are [lo, hi) and its route-2 window [w_lo, w_hi)
    stack: list = []

    def push(cur, owes):
        lo, hi = cur + 1, first(cur + 1, last + 1, lambda m: over_cap(cur, m))
        if owes:
            b_lo, b_hi = window(cur)
            lo, hi = max(lo, b_lo), min(hi, b_hi)
        stack.append([cur, owes, lo, hi, *(window(cur + 1) if lo < hi else (hi, hi))])

    push(bisect.bisect_right(cf.q, 1, 0, min(last + 1, len(cf.q))) - 1, False)  # the last q = 1
    best = [stack[0][0]]
    pops = 0
    while pops < 200:
        _, owes, lo, hi, w_lo, w_hi = stack[-1]
        found = None
        if lo < hi:
            nxt = route1_at[bisect.bisect_left(route1_at, lo)]
            if max(lo, w_lo) < w_hi:
                nxt = min(nxt, max(lo, w_lo))
            if nxt < hi:
                found = nxt
        if found is None:
            if len(stack) > len(best):
                best = [entry[0] for entry in stack]  # longest selection so far; tail may stay pending
            if owes and len(stack) > 1:
                # a shorter Q_k might leave room for its forward bridge in range
                bad = stack.pop()[0]
                stack[-1][2] = bad + 1  # its level rejected every candidate up to bad
                pops += 1
                continue
            break
        push(found, not route1[found])

    sel = BridgeSelection(cf, A, best, exhausted=True)
    if not sel.all_ok():
        raise SelectionFailed(
            f"greedy selection {[entry[0] for entry in stack]} fails invariant check: "
            f"{sel.check_invariants()}"
        )
    return sel


def check_diophantine(
    cf: CfExpansion,
    mode: str,
    K: int,
    v: float = 0.0,
    tau: float = 0.0,
    rho: float = 0.0,
    gamma: float = 0.0,
) -> dict:
    """Exhaustive Diophantine scan up to cutoff K.

    mode "frequency": ||k alpha|| > v |k|^-tau for 0 < |k| <= K.
    mode "rotation":  ||k alpha +- 2 rho|| >= gamma <k>^-tau for |k| <= K,
    <k> = max(1, |k|).  Returns the minimizing k and its margin.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    worst_k, worst_margin = None, math.inf
    holds = True
    import mpmath as mp

    with mp.workprec(256):
        am = cf.alpha_mp(256)
        if mode == "frequency":
            x = mp.mpf(0)
            for k in range(1, K + 1):
                x = mp.frac(x + am)
                dist = float(min(x, 1 - x))
                margin = dist - v / k**tau
                if margin < worst_margin:
                    worst_k, worst_margin = k, margin
                if margin <= 0:
                    holds = False
        elif mode == "rotation":
            if not 0 <= rho < 0.5:
                raise ValueError("rotation mode needs rho in [0, 1/2)")
            for k in range(0, K + 1):
                kk = max(1, k)
                for sgn in (1, -1):
                    x = mp.frac(k * am + sgn * 2 * rho)
                    dist = float(min(x, 1 - x))
                    margin = dist - gamma / kk**tau
                    if margin < worst_margin:
                        worst_k, worst_margin = k, margin
                    if margin < 0:
                        holds = False
                    if k == 0:
                        break  # both signs coincide at k = 0
        else:
            raise ValueError(f"unknown mode {mode!r}")
    return {"holds": holds, "worst": (worst_k, worst_margin)}
