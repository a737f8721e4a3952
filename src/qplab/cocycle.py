"""Quasiperiodic SL(2,R) cocycles over the irrational rotation.

Transfer matrices with overflow-guarded scaling, finite Lyapunov exponents
by grid quadrature, the fibered rotation number estimated from a single
projective orbit, and the renormalization iterates with their commutation
identity.  One kernel, `_transfer_grid`, serves every transfer product: any
integer n (n < 0 by the inverse-product convention) at any set of phases.

Every fiber is a 2x2 FourierSeries, read at many points as one product of
phases e^{2 pi i k x} (points x modes) and coefficients (modes x entries),
a real series over k >= 0 only (`udspace._modes`).  The Schrodinger fiber
is the real series [[E - V, -1], [1, 0]].

The rotation number reads each projective step through a lift of the fiber
that is continuous in theta: the angle of A(theta) e_1, unwrapped on a
reference grid, which `rotation_number` certifies to close up.  Orbits
evaluate the fiber in blocks of at most 4096 points rather than one step at
a time, each block read off one shared phase block of at most 2^16 entries
(up to 1024 modes).

Grid products (`_transfer_grid`, `lyapunov_det_drift`) multiply runs of
consecutive steps (`_period_products`) in step order, vectorized over the
runs of a block and the theta grid; `_transfer_grid` continues its running
product with the first run of each block, folds the others onto it in
order and rescales after each run of RESCALE_EVERY steps, so no partial
product covers more than RESCALE_EVERY consecutive steps, and a grid whose
blocks hold one run each is multiplied in step order.  A Schrodinger-shaped series (real, with the constant entries -1, 1
and 0 beside E - V) is built and stepped on its one varying entry
x = E - V alone, by the recurrence (a, b, c, d) <- (x a - c, x b - d, a, b)
of [[x, -1], [1, 0]] [[a, b], [c, d]]; the orbit of `rotation_number` reads
x alone too.  Any other series steps by `sl2._mul`.  At most max(2^16, 4G)
fiber values are held at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sl2
from .contfrac import CfExpansion
from .udspace import FourierSeries, _modes

RESCALE_EVERY = 32  # steps of a grid product between rescales, the most a partial product covers
_HELD = 1 << 16  # most fiber values and step phases a grid product builds at once (512 KB)
_LIFT_GRID = 256  # reference grid of the e_1 lift, whose winding rotation_number reads
_CHAIN = 64  # sequential steps of one prefix product in the orbit kernel
_PHASE_ENTRIES = 1 << 16  # most entries of the shared phase block of an orbit (1 MB)


class WindingError(Exception):
    """Fiber map is not homotopic to the identity."""


class LiftResolutionError(WindingError):
    """An orbit angle of A(theta) e_1 is a quarter turn or more from the reference lift.

    The fiber turns faster between reference grid points than the grid
    resolves, so the lift continuous in theta cannot be read off the grid.
    """


class RenormOverflow(ArithmeticError):
    """A renormalization iterate, or a side of its commutation identity, is not finite in float64."""


@dataclass
class QpCocycle:
    """(alpha, A): base rotation by alpha, fiber A(theta) in SL(2,R) given as a 2x2 FourierSeries."""

    alpha: float
    series: FourierSeries

    @classmethod
    def from_series(cls, alpha: float, A: FourierSeries) -> "QpCocycle":
        return cls(alpha, A)

    def _e1_lift(self) -> np.ndarray:
        """Angle of A(theta) e_1 in units of pi at theta = j/256, j = 0..256, unwrapped in theta."""
        vals = self.series(np.arange(_LIFT_GRID + 1) / _LIFT_GRID)
        return np.unwrap(np.arctan2(vals[..., 1, 0], vals[..., 0, 0])) / np.pi


def schrodinger(V: FourierSeries, E: float, alpha: float = 0.0) -> QpCocycle:
    """Schrodinger cocycle, fiber the real series [[E - V(theta), -1], [1, 0]]."""
    if not V.check_real(1e-10):
        raise ValueError("potential must be real-valued")
    c = np.zeros((2, 2, 2 * V.K + 1), dtype=complex)
    c[0, 0] = -V.coeffs
    c[0, 0, V.K] += E
    c[0, 1, V.K], c[1, 0, V.K] = -1.0, 1.0
    return QpCocycle(alpha, FourierSeries(c, True))


def amo(lam: float, E: float, alpha: float = 0.0) -> QpCocycle:
    """Almost Mathieu fiber with the 1-periodic convention V = 2 lam cos(2 pi theta)."""
    return schrodinger(FourierSeries.cosine(2.0 * lam), E, alpha)


def rotation_cocycle(alpha: float, rho: float) -> QpCocycle:
    return QpCocycle(alpha, FourierSeries.constant(sl2.rot(rho)))


def _frac(x):
    """x mod 1 in the bits of np.mod(x, 1.0) for every finite x, at the cost of one floor."""
    return x - np.floor(x)


def _schrodinger_shaped(A: FourierSeries) -> bool:
    """A is real and its (0,1), (1,0) and (1,1) rows are exactly the constants -1, 1 and 0."""
    c, K = A.coeffs, A.K
    return (A.real_flag and c[0, 1, K] == -1.0 and c[1, 0, K] == 1.0
            and np.count_nonzero(c[(0, 1, 1), (1, 0, 1)]) == 2)


def _grid_fibers(c: QpCocycle, thetas: np.ndarray, x_only: bool):
    """(values, held): the fibers at thetas + frac(j alpha) for blocks of steps j.

    values(js) is one product: the step phases e^{2 pi i k frac(j alpha)}
    (steps x modes) times the coefficients at the grid phases
    d_k e^{2 pi i k theta_g} (modes x entries G, built once), as cosines and
    sines for a real series.  Its rows follow js and its columns are
    (entry, g), row-major; with x_only the one entry is (0, 0), the
    x = E - V of a Schrodinger-shaped series, the (0, 0) column of
    `udspace._modes`.  held is the most steps one call should take: then it
    holds at most max(2^16, entries G) values and 2^16 step phases.
    """
    A = c.series
    ks, cols = _modes(A)
    if x_only:
        cols = cols[:, :1]
    right = (cols[:, :, None] * np.exp(2j * np.pi * np.outer(ks, thetas))[:, None, :]).reshape(ks.size, -1)
    if A.real_flag:  # Re(z w) = Re z Re w - Im z Im w
        right = np.concatenate([right.real, -right.imag])

    def values(js: np.ndarray) -> np.ndarray:
        ang = np.outer(_frac(js * c.alpha), 2.0 * np.pi * ks)
        if not A.real_flag:
            return np.exp(1j * ang) @ right
        phase = np.empty((js.size, 2 * ks.size))
        np.cos(ang, out=phase[:, :ks.size])
        np.sin(ang, out=phase[:, ks.size:])
        del ang  # not held beside the product
        return phase @ right

    return values, max(1, _HELD // max(right.shape))


def _period_products(c: QpCocycle, thetas: np.ndarray, n: int, period: int):
    """Products of the fibers over the runs of `period` consecutive steps from thetas, in step order.

    Yields entry-major stacks (2, 2, R, G): run r of the product starting at
    step j is A(theta + (j + period - 1) alpha) ... A(theta + j alpha), and
    the last run is shorter when period does not divide n.  Each run is
    multiplied in step order, vectorized over the runs of a stack and the G
    phases, on the values of `_grid_fibers`: a run on a large grid is built
    in sub-blocks of its steps.  send(start) resumes the generator with a
    (2, 2, G) product that the first run of the next stack continues
    instead of starting from the identity, so a product whose stacks hold
    one run each is multiplied in step order throughout: for a Schrodinger
    series, on grids of more than 2^15 / period points.  A Schrodinger-shaped series
    (`_schrodinger_shaped`) builds its one varying entry x only and steps by
    the recurrence (a, b, c, d) <- (x a - c, x b - d, a, b), the rows of
    [[x, -1], [1, 0]] [[a, b], [c, d]]; any other series steps by `sl2._mul`.
    """
    G = thetas.size
    schro = _schrodinger_shaped(c.series)
    values, held = _grid_fibers(c, thetas, schro)
    runs = max(1, held // period)
    full, rest = divmod(n, period)
    groups = [(r, min(runs, full - r), period) for r in range(0, full, runs)]
    start = None
    for r0, R, L in groups + ([(full, 1, rest)] if rest else []):
        P = R * G
        acc = np.zeros((2, 2, P), float if c.series.real_flag else complex)
        acc[0, 0] = acc[1, 1] = 1.0
        if start is not None:
            acc[:, :, :G] = start
        if schro:  # upper (a, b) and lower (c, d) rows of the running products
            up, lo, t = acc[0], acc[1], np.empty((2, P))
        h = max(1, min(L, held // R))
        for i0 in range(0, L, h):
            vals = values((np.arange(i0, min(L, i0 + h))[:, None] + period * np.arange(r0, r0 + R)).ravel())
            if schro:
                for step in vals.reshape(-1, P):
                    np.multiply(step, up, out=t)
                    np.subtract(t, lo, out=lo)
                    up, lo = lo, up
            else:
                vals = np.moveaxis(vals.reshape(-1, R, 2, 2, G), 1, 3).reshape(-1, 2, 2, P)
                for step in vals:
                    acc = sl2._mul(step, acc)
            del vals, step  # not held while the next block builds its own
        start = yield (np.stack([up, lo]) if schro else acc).reshape(2, 2, R, G)


def _transfer_grid(c: QpCocycle, thetas: np.ndarray, n: int):
    """Vectorized n-step products over a theta grid; returns (mats (G, 2, 2), log_scales (G,)).

    The product is A_n(theta) = mats * exp(log_scales).  n = 0 gives the
    identity.  n < 0 gives the inverse product
    A(theta + n alpha)^{-1} ... A(theta - alpha)^{-1}, computed as the -n
    step product over the rotation by -alpha from theta - alpha: for a
    Schrodinger-shaped series, S(x)^{-1} = W S(x) W with W = [[0, 1], [1, 0]],
    so it is W (the -n step product of the series itself) W, by exact entry
    swaps; for any other series, of the adjugate A^{-1}, taken coefficientwise.

    The runs of RESCALE_EVERY steps (`_period_products`) extend the running
    product in order: the first run of each block continues it, the others
    are multiplied onto it, and it is rescaled to max entry 1 after every
    full run, with the logs of the factors kept apart.  So no partial
    product covers more than RESCALE_EVERY consecutive steps, and no more
    than max(2^16, 4G) fiber values are held at once.  Where every block
    holds one run (a Schrodinger series on more than 1 024 points), the
    product is in step order, which keeps products that cancel past float64
    as close to exact as a step-by-step product; elsewhere runs other than
    a block's first fold onto the running product as units, and results
    agree with a step-by-step product to rounding, not bit for bit.
    """
    swap = n < 0 and _schrodinger_shaped(c.series)
    if n < 0:
        A = c.series
        if not swap:
            (a11, a12), (a21, a22) = A.coeffs
            A = FourierSeries(np.array([[a22, -a12], [-a21, a11]]), A.real_flag)
        thetas, n, c = thetas - c.alpha, -n, QpCocycle(-c.alpha, A)
    G = thetas.size
    acc = np.zeros((2, 2, G))
    acc[0, 0] = acc[1, 1] = 1.0
    log_scale = np.zeros(G)
    rescales = n // RESCALE_EVERY  # one after each full run, none after a short last one
    stacks = _period_products(c, thetas, n, RESCALE_EVERY)
    prods = next(stacks, None)
    while prods is not None:
        for r in range(prods.shape[2]):
            acc = sl2._mul(prods[:, :, r], acc) if r else prods[:, :, 0]  # run 0 continues acc
            if rescales:
                rescales -= 1
                s = np.max(np.abs(acc).reshape(4, G), axis=0)
                acc /= s
                log_scale += np.log(s)
        try:
            prods = stacks.send(acc)
        except StopIteration:
            prods = None
    if swap:
        acc = acc[::-1, ::-1]
    return np.ascontiguousarray(acc.transpose(2, 0, 1)), log_scale


def finite_lyapunov(c: QpCocycle, n: int, grid: int = 128) -> float:
    """L_n = (1/n) * integral of ln ||A_n(theta)|| d theta, uniform-grid quadrature."""
    if n < 1 or grid < 64:
        raise ValueError("need n >= 1 and grid >= 64")
    th = np.arange(grid) / grid
    acc, log_scale = _transfer_grid(c, th, n)
    ln_norms = np.log(sl2.op_norm(acc)) + log_scale
    return float(np.mean(ln_norms)) / n


def lyapunov_det_drift(c: QpCocycle, n: int) -> float:
    """Accumulated determinant drift of the length-n product, block-resolved.

    The determinant is exactly multiplicative across blocks, so the total
    arithmetic drift is the sum of per-block |ln det| values; blocks of 4
    steps are short enough that each block product is well-conditioned and
    its determinant is computable at float precision.  The blocks are runs
    of `_period_products`, which steps them as `_transfer_grid` steps its
    runs, so the drift is that of the arithmetic `_transfer_grid` does.  Max
    over a 64-point theta grid.
    """
    drift = np.zeros(64)
    for p in _period_products(c, np.arange(64) / 64, n, 4):
        drift += np.sum(np.abs(np.log(np.abs(sl2.det2(np.moveaxis(p, (0, 1), (-2, -1)))))), axis=0)
    return float(np.max(drift))


def _orbit_fibers(c: QpCocycle, theta0: float, n: int, x_only: bool = False):
    """Fibers along the orbit theta0 + j alpha, j = 0..n-1, in blocks of at most 4096 points.

    Yields (thetas, mats), or with x_only (thetas, x): the (0, 0) entries
    alone, the x of a Schrodinger-shaped series (`_schrodinger_shaped`),
    whose other entries are constants.  A block is cut into sub-blocks of R
    points: point r of sub-block i sits at theta = (t_i + s_r) mod 1, where
    s_r = r alpha mod 1 and t_i = (block start + (i R alpha mod 1)) mod 1,
    so the thetas carry the bits the phases below are built from.  Each
    block is one product phase @ C instead of an exponential per point and
    mode: the shared phase block holds the powers z_r^k of
    z_r = e^{2 pi i s_r}, from one running product whose error grows like
    k eps, and C the coefficients (`udspace._modes`) times the start phases
    e^{2 pi i k t_i}.  R is the largest power of two up to 4096 with R
    times the number of modes at most _PHASE_ENTRIES, but at least 64, so
    up to 1024 modes the phase block takes at most 1 MB whatever K is.
    """
    A = c.series
    ks, cols = _modes(A)
    if x_only:
        cols = cols[:, :1]
    steps = _frac(c.alpha * np.arange(min(sl2._BATCH, n)))
    R = sl2._BATCH
    while R > 64 and R * ks.size > _PHASE_ENTRIES:
        R //= 2
    z = np.exp(2j * np.pi * steps[:R])
    pos = np.cumprod(np.broadcast_to(z[:, None], (z.size, A.K)), axis=1)
    neg = [] if A.real_flag else [np.conj(pos[:, ::-1])]
    phase = np.concatenate(neg + [np.ones((z.size, 1)), pos], axis=1)
    del pos
    starts, sub = steps[::R], steps[:R]
    th = theta0
    for j in range(0, n, sl2._BATCH):
        m = min(sl2._BATCH, n - j)
        t = _frac(th + starts[:-(-m // R)])
        thetas = _frac(t[:, None] + sub[:m]).ravel()[:m]
        # C[k, i, entry]: coefficient times start phase of sub-block i
        C = np.exp(2j * np.pi * np.outer(ks, t))[:, :, None] * cols[:, None, :]
        vals = phase @ C.reshape(ks.size, -1)
        del C  # not held while the next block builds its own
        vals = vals.reshape(len(sub), -1, cols.shape[1]).swapaxes(0, 1).reshape(-1, cols.shape[1])[:m]
        vals = vals[:, 0] if x_only else vals.reshape(-1, 2, 2)
        yield thetas, (np.real(vals) if A.real_flag else vals)
        th = (th + c.alpha * m) % 1.0


def _orbit_vectors(mats: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """A_i ... A_0 vec for i = 0..m-1, each up to a positive factor.

    Runs _CHAIN sequential steps of prefix products, vectorized over the
    sub-blocks and rescaled at every step, then chains the sub-blocks with
    one product each.  A Schrodinger-shaped series takes `_orbit_x_vectors`
    instead, which steps its one varying entry and rescales only as overflow
    requires.
    """
    m = len(mats)
    nb = -(-m // _CHAIN)
    pad = np.broadcast_to(np.eye(2), (nb * _CHAIN - m, 2, 2))
    blocks = np.concatenate([mats, pad]).reshape(nb, _CHAIN, 2, 2)
    pre = np.empty_like(blocks)
    P = np.broadcast_to(np.eye(2), (nb, 2, 2))
    for i in range(_CHAIN):
        P = blocks[:, i] @ P
        P = P / np.max(np.abs(P), axis=(1, 2))[:, None, None]
        pre[:, i] = P
    starts = np.empty((nb, 2))
    for b in range(nb):
        starts[b] = vec
        vec = pre[b, -1] @ vec
        vec = vec / math.hypot(vec[0], vec[1])
    return (pre @ starts[:, None, :, None]).reshape(nb * _CHAIN, 2)[:m]


def _orbit_x_vectors(x: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """S(x_i) ... S(x_0) vec for i = 0..m-1 with S(x) = [[x, -1], [1, 0]], each up to a positive factor.

    The prefix products of sub-blocks of C steps run vectorized over the
    sub-blocks by the recurrence of their upper rows, u_i = x_i u_{i-1} -
    u_{i-2}, since the lower row of S(x) P is the upper row of P.  A step
    grows or shrinks a row by at most a factor 1 + |x| (S(x)^{-1} has the
    same max-norm), so with (2 + max|x|)^C <= 2^960 nothing is rescaled
    within a sub-block: C = _CHAIN up to |x| ~ 3e4.  The sub-blocks are then
    chained with one product each.
    """
    m = x.size
    C = min(_CHAIN, max(1, int(960 / math.log2(2.0 + float(np.max(np.abs(x)))))))
    nb = -(-m // C)
    steps = np.zeros(nb * C)
    steps[:m] = x
    steps = np.ascontiguousarray(steps.reshape(nb, C).T)
    # rows[i + 2] is the upper row after step i; rows[1] and rows[0] are those of the identity
    rows = np.empty((C + 2, 2, nb))
    rows[0, 0] = rows[1, 1] = 0.0
    rows[0, 1] = rows[1, 0] = 1.0
    for i in range(C):
        np.multiply(steps[i], rows[i + 1], out=rows[i + 2])
        rows[i + 2] -= rows[i]
    (a, b), (c, d) = rows[C + 1].tolist(), rows[C].tolist()
    u, v = (float(e) for e in vec)
    starts = []
    for k in range(nb):
        starts.append((u, v))
        u, v = a[k] * u + b[k] * v, c[k] * u + d[k] * v
        h = math.hypot(u, v)
        u, v = u / h, v / h
    su, sv = np.array(starts).T
    y = rows[:, 0] * su + rows[:, 1] * sv
    return np.stack([y[2:], y[1:-1]], axis=-1).swapaxes(0, 1).reshape(nb * C, 2)[:m]


def rotation_number(c: QpCocycle, n: int = 200_000) -> dict:
    """Fibered rotation number from one projective orbit, from theta = 0 and angle 0.3 pi.

    Works on the projective circle (directions mod pi), where the angle
    advance of R_rho is 2*rho per step; the estimate is therefore a
    representative of rho mod 1/2, reported in [0, 1/2).  Each step is read
    through the lift of the fiber that is continuous in theta: F(0) = a, the
    angle of A(theta) e_1 (in units of pi) taken nearest to its reference
    lift, which is unwrapped on a 256-point theta grid and interpolated.
    Since F maps [0, 1) onto [a, a + 1), a step from x in [0, 1) to x'
    advances by a + ((x' - a) mod 1) - x.  Raises WindingError unless the
    fiber has winding 0, and LiftResolutionError where an orbit angle is a
    quarter turn or more from its reference lift.

    A Schrodinger-shaped series (`_schrodinger_shaped`) reads only its
    varying entry x along the orbit: the angle of A(theta) e_1 = (x, 1) is
    arctan2(1, x), and the orbit vectors come from the recurrence of
    `_orbit_x_vectors`.

    Returns {"rho", "error_bar"}; error_bar is the maximal fluctuation of the
    partial averages over the last decade of the orbit.
    """
    lift = c._e1_lift()
    w = int(round((lift[-1] - lift[0]) / 2.0))
    if w != 0:
        raise WindingError(f"fiber has winding {w}, not homotopic to identity")
    # projective coordinate: x in [0,1) represents direction angle pi*x
    vec = np.array([math.cos(math.pi * 0.3), math.sin(math.pi * 0.3)])
    x = math.atan2(vec[1], vec[0]) / math.pi % 1.0
    total = 0.0
    averages = []  # at the powers of two from n // 10 on, and at n
    j = 0
    schro = _schrodinger_shaped(c.series)
    for thetas, vals in _orbit_fibers(c, 0.0, n, schro):
        m = len(vals)
        pos = thetas * _LIFT_GRID
        i0 = np.minimum(pos.astype(int), _LIFT_GRID - 1)
        ref = lift[i0] + (pos - i0) * (lift[i0 + 1] - lift[i0])
        raw = (np.arctan2(1.0, vals) if schro else np.arctan2(vals[:, 1, 0], vals[:, 0, 0])) / np.pi
        a = raw + 2.0 * np.round((ref - raw) / 2.0)
        off = np.abs(a - ref)
        if np.max(off) >= 0.5:
            raise LiftResolutionError(
                f"orbit angle {np.max(off):.3f} pi from the reference lift at theta="
                f"{thetas[np.argmax(off)]:.6f}; the {_LIFT_GRID}-point grid does not resolve the fiber")
        vecs = _orbit_x_vectors(vals, vec) if schro else _orbit_vectors(vals, vec)
        xs = np.concatenate(([x], np.mod(np.arctan2(vecs[:, 1], vecs[:, 0]) / np.pi, 1.0)))
        d = a + np.mod(xs[1:] - a, 1.0) - xs[:-1]
        totals = np.cumsum(np.concatenate(([total], d)))[1:]
        js = np.arange(j + 1, j + m + 1)
        keep = (js >= n // 10) & ((js & (js - 1)) == 0) | (js == n)
        averages += [float(t) / int(k) for k, t in zip(js[keep], totals[keep])]
        total, x, j = float(totals[-1]), float(xs[-1]), j + m
        vec = vecs[-1] / math.hypot(vecs[-1, 0], vecs[-1, 1])
    avg = total / n
    err = max((abs(v - avg) for v in averages), default=0.0)
    rho = (avg / 2.0) % 0.5
    return {"rho": rho, "error_bar": err / 2.0}


def rho_dist(a: float, b: float) -> float:
    """Distance between rotation numbers on the half-circle R/(1/2)Z."""
    d = (a - b) % 0.5
    return min(d, 0.5 - d)


def renorm_iterates(c: QpCocycle, cf: CfExpansion, n: int) -> dict:
    """Rescaled renormalization iterates at level n.

    Both maps live on [0, 1/beta_{n-1}] and satisfy the commutation identity
    A1(x+1) A0(x) = A0(x+alpha_n) A1(x) on the rescaled line.
    """
    if n < 1 or n > cf.depth():
        raise IndexError("level outside the computed expansion")
    beta = cf.beta[n - 1]
    if beta <= 0 or not math.isfinite(cf.log_beta[n - 1]) or beta < 1e-300:
        raise OverflowError("beta_{n-1} underflows; level too deep for float rescaling")
    alpha_n = cf.alpha_tail[n - 1]
    sgn0 = 1 if (n - 1) % 2 == 0 else -1  # (-1)^(n-1)

    def iterate(steps):
        def a(x):
            pts = beta * np.atleast_1d(np.asarray(x, dtype=float))
            mats, log_scale = _transfer_grid(c, pts, steps)
            with np.errstate(over="ignore", invalid="ignore"):
                out = mats * np.exp(log_scale)[:, None, None]
            if not np.all(np.isfinite(out)):
                raise RenormOverflow(f"level {n}: the {steps}-step iterate exceeds float64 "
                                     f"(log scale up to {np.max(log_scale):.1f})")
            return out

        return a

    q_prev, q_n = cf.convergent(n - 1)[1], cf.convergent(n)[1]
    return {"A_n0": iterate(sgn0 * q_prev), "A_n1": iterate(-sgn0 * q_n),
            "alpha_n": alpha_n, "level": n}


def commutation_residual(it: dict, xs: np.ndarray) -> float:
    """Relative residual of A1(x+1) A0(x) - A0(x+alpha_n) A1(x) on sample points."""
    a0, a1, an = it["A_n0"], it["A_n1"], it["alpha_n"]
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = a1(xs + 1.0) @ a0(xs)
        rhs = a0(xs + an) @ a1(xs)
        num = np.max(sl2.frob(lhs - rhs))
        den = max(np.max(sl2.frob(lhs)), 1.0)
        res = float(num / den)
    # finite only if both sides and their Frobenius norms are
    if not math.isfinite(res):
        raise RenormOverflow(f"level {it['level']}: the commutation identity's sides or their "
                             "norms exceed float64")
    return res


def cocycle_property_residual(c: QpCocycle, theta: float, m: int, n: int) -> float:
    """Relative residual of A_{m+n}(theta) = A_m(theta + n alpha) A_n(theta)."""
    calls = ((theta, m + n), ((theta + n * c.alpha) % 1.0, m), (theta, n))
    (left, l0), (am, l1), (an, l2) = (_transfer_grid(c, np.array([t]), k) for t, k in calls)
    # align scales before comparing
    shift = math.exp(min(float(l1[0] + l2[0] - l0[0]), 50.0))
    diff = np.max(np.abs(am[0] @ an[0] * shift - left[0]))
    return float(diff / max(np.max(np.abs(left[0])), 1e-300))
