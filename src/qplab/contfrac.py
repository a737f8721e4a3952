"""Continued fractions, best rational approximations, CD bridges.

The expansion is computed either exactly (rational input, or a symbolic
quadratic irrational whose partial quotients are known in closed form) or
with mpmath at a configurable working precision.  Convergent denominators
are exact python ints throughout, so they can grow to thousands of digits;
the products beta_n are kept both as floats and in log domain because they
underflow quickly.

mpmath is imported on first use, by the float/decimal branch of `expand`,
`CfExpansion.alpha_mp`, `norm_dist`, the best-approximation check and
`check_diophantine`; symbolic and rational expansions and the bridge
selection never load it.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .sl2 import pow_geq, pow_geq_chain, pow_leq, safe_log_int, safe_log_ints

SYMBOLIC = ("golden", "sqrt2m1")


class PrecisionExhausted(Exception):
    """Gauss-map iteration ran out of significant digits."""


class SelectionFailed(Exception):
    """No CD-bridge subsequence satisfying the invariants was found."""


@dataclass
class CfExpansion:
    """Partial quotients a_k, convergents p_k/q_k, tails alpha_k, products beta_n.

    Index conventions: a[0] = 0 is a placeholder so that a[k] is the k-th
    partial quotient; p = [0, 1, ...], q = [1, a_1, ...].  beta[n] stores
    beta_n = prod_{l<=n} alpha_l = |q_n alpha - p_n| (float, may underflow)
    and log_beta[n] its natural log.
    """

    alpha: float
    a: list
    p: list
    q: list
    alpha_tail: list
    beta: list
    log_beta: list
    rational: bool = False
    label: Optional[str] = None
    _alpha_mp: object = field(default=None, repr=False)
    _log_q: Optional[list] = field(default=None, repr=False, compare=False)

    def depth(self) -> int:
        return len(self.q) - 1

    def alpha_mp(self, prec: int = 256):
        if self._alpha_mp is not None:
            return self._alpha_mp
        import mpmath as mp

        with mp.workprec(prec):
            if self.label == "golden":
                return (mp.sqrt(5) - 1) / 2
            if self.label == "sqrt2m1":
                return mp.sqrt(2) - 1
            return mp.mpf(self.alpha)

    def norm_dist(self, k: int) -> float:
        """||k*alpha||_Z at 256-bit precision."""
        import mpmath as mp

        with mp.workprec(256):
            x = mp.frac(k * self.alpha_mp(256))
            return float(min(x, 1 - x))

    def log_q(self) -> list:
        """[log q_k], computed once: the bridge search, its certificate and kam share it."""
        if self._log_q is None:
            self._log_q = safe_log_ints(self.q)
        return self._log_q

    def to_json(self) -> str:
        rec = {
            "a": [int(x) for x in self.a],
            "p": [int(x) for x in self.p],
            "q": [int(x) for x in self.q],
            "log_beta": list(self.log_beta),
        }
        return json.dumps(rec)

    def check_invariants(self, n_limit: Optional[int] = None, exhaustive_q_cap: int = 10**4) -> dict:
        """Recurrence, best-approximation sandwich, beta identity.

        The ||q_n alpha|| sandwich is checked for n >= 1; at n = 0 it can
        fail legitimately when a_1 = 1, since beta_0 = alpha need not be the
        distance to the nearest integer.  n = 0 is covered by the exact
        identity beta_0 = alpha instead.
        """
        q, p, a = self.q, self.p, self.a
        upto = len(q) - 1 if n_limit is None else min(n_limit, len(q) - 1)
        rec_ok = all(
            q[k] == a[k] * q[k - 1] + q[k - 2] and p[k] == a[k] * p[k - 1] + p[k - 2]
            for k in range(2, upto + 1)
        )
        sandwich_ok = True
        beta_ok = abs(self.beta[0] - self.alpha) <= 1e-12
        for n in range(1, upto):
            dist = self.norm_dist(q[n])
            if not (1.0 / (q[n] + q[n + 1]) < dist <= (1 + 1e-12) / q[n + 1]):
                sandwich_ok = False
            if self.beta[n] > 0 and abs(self.beta[n] - dist) > 1e-9 * max(dist, 1e-300):
                beta_ok = False
        best_ok = self._check_best_approx(upto, exhaustive_q_cap)
        return {
            "recurrence": rec_ok,
            "sandwich": sandwich_ok,
            "beta_identity": beta_ok,
            "best_approx": best_ok,
        }

    def _check_best_approx(self, upto: int, q_cap: int) -> bool:
        """||k alpha|| >= ||q_{n-1} alpha|| for 1 <= k < q_n, exhaustively."""
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


def _convergents(a: list) -> tuple[list, list]:
    p = [0, 1]
    q = [1]
    if len(a) > 1:
        q.append(a[1])
    for k in range(2, len(a)):
        p.append(a[k] * p[k - 1] + p[k - 2])
        q.append(a[k] * q[k - 1] + q[k - 2])
    return p[: len(q)], q


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
    p, q = _convergents(a)
    beta, log_beta = [], []
    for n in range(len(q)):
        b = abs(q[n] * frac - p[n])
        beta.append(float(b))
        log_beta.append(
            -math.inf if b == 0 else safe_log_int(b.numerator) - safe_log_int(b.denominator)
        )
    return CfExpansion(float(frac), a, p, q, tails, beta, log_beta, rational=True)


def _expand_symbolic(label: str, n_max: int) -> CfExpansion:
    if label == "golden":
        quot, tail = 1, (math.sqrt(5) - 1) / 2
    elif label == "sqrt2m1":
        quot, tail = 2, math.sqrt(2) - 1
    else:
        raise ValueError(f"unknown symbolic frequency {label!r}")
    a = [0] + [quot] * n_max
    # with every a_k equal, p_k = q_{k-1}: p shares q's ints instead of repeating the recurrence
    q = [1, quot]
    for _ in range(n_max - 1):
        q.append(quot * q[-1] + q[-2])
    p = [0] + q[:-1]
    # all Gauss-map tails equal alpha itself, so beta_n = alpha^(n+1) exactly
    log_tail = math.log1p(-1 + tail) if label != "golden" else math.log((math.sqrt(5) - 1) / 2)
    log_beta = [(n + 1) * log_tail for n in range(len(q))]
    beta = [math.exp(lb) if lb > -700 else 0.0 for lb in log_beta]
    return CfExpansion(tail, a, p, q, [tail] * n_max, beta, log_beta, label=label)


def expand(alpha, n_max: int = 40, prec: int = 256) -> CfExpansion:
    """Continued-fraction expansion of alpha in (0,1).

    `alpha` may be a float/mpf, a Fraction, a string "p/q" or a decimal
    string, or one of the symbolic tokens "golden", "sqrt2m1" (whose
    quotient streams are generated exactly to any depth).  Raises
    PrecisionExhausted if the Gauss-map tail drops below the working epsilon
    before n_max steps without terminating exactly.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if isinstance(alpha, str):
        tok = alpha.strip().lower()
        if tok in SYMBOLIC:
            return _expand_symbolic(tok, n_max)
        if "/" in tok:
            return _expand_rational(Fraction(tok), n_max)
    if isinstance(alpha, Fraction):
        return _expand_rational(alpha, n_max)
    import mpmath as mp

    if isinstance(alpha, str):
        alpha = mp.mpf(alpha)  # a decimal string, read at mpmath's default precision
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
        p, q = _convergents(a)
        beta, log_beta = [], []
        for n in range(len(q)):
            b = abs(q[n] * x - p[n])
            if b < eps and n < len(q) - 1:
                raise PrecisionExhausted(
                    f"beta_{n} below working epsilon before n_max; the input is "
                    f"rational at {mp.mp.prec} bits (use a 'p/q' string) or needs more prec"
                )
            beta.append(float(b))
            log_beta.append(float(mp.log(b)) if b > 0 else -math.inf)
        return CfExpansion(float(x), a, p, q, tails, beta, log_beta, _alpha_mp=x)


def is_cd_bridge(cf: CfExpansion, m: int, n: int, A: float, B: float, C: float) -> bool:
    """(q_m, q_n) forms a CD(A,B,C) bridge.

    Chain condition q_{i+1} <= q_i^A for m <= i <= n-1 plus the growth
    window q_m^B <= q_n <= q_m^C.  Requires 0 < A <= B <= C.  The
    comparisons read the logs of cf.log_q().
    """
    if not (0 < A <= B <= C):
        raise ValueError("need 0 < A <= B <= C")
    if not (0 <= m <= n < len(cf.q)):
        raise IndexError(f"bridge indices ({m},{n}) outside computed range")
    q, lq = cf.q, cf.log_q()
    return (pow_geq_chain(q, A, lq, m, n) and pow_leq(q[m], B, q[n], (lq[m], lq[n]))
            and pow_geq(q[m], C, q[n], (lq[m], lq[n])))


@dataclass
class BridgeSelection:
    """Selected subsequence Q_k = q[idx[k]], with companion Qbar_k = q[idx[k]+1]."""

    cf: CfExpansion
    A: float
    idx: list
    exhausted: bool = False

    @property
    def Q(self) -> list:
        return [self.cf.q[i] for i in self.idx]

    @property
    def Qbar(self) -> list:
        return [self.cf.q[i + 1] for i in self.idx]

    @property
    def P(self) -> list:
        return [self.cf.p[i] for i in self.idx]

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
            return test(q[i], expo, q[j], (lq[i], lq[j]))

        ok_q0 = q[idx[0]] == 1
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
    after m.  Each step finds these ranges by bisection and the next
    route-1 index in a sorted list.  A level always extends with its
    smallest candidate not yet rejected there, so the indices it rejects
    are a prefix of its candidates, and one pointer per level, past the
    last index it rejected, stands for them all.  So a step costs O(log n)
    predicate calls instead of a rescan of the expansion, however often
    its level was retried.  The O(n) set-up (log q, the chain breaks and the
    route-1 indices) and the certificate's chain walks (`pow_geq_chain`)
    are numpy passes over the cached logs.
    Correctness is certified by `BridgeSelection.check_invariants`, not by
    construction.
    """
    if A < 1:
        raise ValueError("A must be >= 1")
    q = cf.q
    last = len(q) - 2  # need q[i+1] for Qbar
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

    n0 = bisect.bisect_right(q, 1, 0, last + 1) - 1  # the last q = 1; q is nondecreasing
    idx = [n0]
    owes = [False]  # level k chose route 2 and still owes its forward bridge
    untried = [0]  # level k rejected every candidate below untried[k]
    best: list = list(idx)
    pops = 0
    while pops < 200:
        k = len(idx) - 1
        cur = idx[k]
        lo, hi = max(cur + 1, untried[k]), first(cur + 1, last + 1, lambda m: over_cap(cur, m))
        if owes[k]:
            b_lo, b_hi = window(cur)
            lo, hi = max(lo, b_lo), min(hi, b_hi)
        found = None
        if lo < hi:
            w_lo, w_hi = window(cur + 1)
            nxt = route1_at[bisect.bisect_left(route1_at, lo)]
            if max(lo, w_lo) < w_hi:
                nxt = min(nxt, max(lo, w_lo))
            if nxt < hi:
                found = nxt
        if found is None:
            if len(idx) > len(best):
                best = list(idx)  # longest selection so far; tail may stay pending
            if owes[k] and len(idx) > 1:
                # a shorter Q_k might leave room for its forward bridge in range
                bad = idx.pop()
                owes.pop()
                untried.pop()
                untried[-1] = bad + 1
                pops += 1
                continue
            break
        idx.append(found)
        owes.append(not route1[found])
        untried.append(0)

    sel = BridgeSelection(cf, A, best, exhausted=True)
    if not sel.all_ok():
        raise SelectionFailed(
            f"greedy selection {idx} fails invariant check: {sel.check_invariants()}"
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
