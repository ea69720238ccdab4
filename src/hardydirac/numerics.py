"""Shared numerical substrate.

Radial grids, quadrature on (0, infinity) that is robust to inverse-power
endpoint singularities and exponential tails, supremum search over r > 0,
and block cyclic reduction, in about log2(nodes) vectorized levels, of
symmetric block-tridiagonal matrices in 3x3 node blocks.  It gives their
inertia counts (numbers of negative eigenvalues) with log|det|, many shifts
at once, on which ``extension.spectrum_in_gap`` runs multisection; and it
factors one equilibrated positive definite matrix and solves with
it, one product per level and direction down to a dense system of at most
16 nodes, then one product with that system's inverse, for
``extension.weak_solve``.

All integrals over (0, infinity) are computed after the substitution
r = e^t, which turns 1/r singularities at the origin and decaying tails
into smooth integrands on the line.  Integrands take a 1-D array of radii
and return an array of values, or m rows for m integrals: the adaptive rule
evaluates them once per sweep on the Gauss-Legendre nodes of every open
panel in log r, over consecutive segments at once, so cumulative integrals
at many radii are the prefix sums of one call.  A piece between panel cuts
wider than 2 in log r starts on 0.25-wide panels where |log r| <= 5, which a
smooth field density passes in one sweep.  A supremum is a log-uniform scan
merged with its jump candidates in one call; its best interior peak, unless
flat to round-off, is refined by Newton-bisection on the stationarity
condition, one radius per call; a best sample at either end that g still
rises out of is growth past the scan and raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialGrid",
    "SupResult",
    "QuadratureError",
    "UnboundedError",
    "NotPositiveDefiniteError",
    "integrate_radial",
    "sup_over_r",
]

# Contributions from r outside [1e-60, 1e60] are below every tolerance used
# here for weights with power-law-or-faster decay, so the log-space window is
# clipped there.  Without the clip the panels reach overflow territory.
_T_LO = math.log(1e-60)
_T_HI = math.log(1e60)

# Panel rule: 16- and 8-point Gauss-Legendre on [-1, 1], evaluated on one
# set of 24 nodes per panel; |G16 - G8| is the panel's error estimate.
_X16, _W16 = np.polynomial.legendre.leggauss(16)
_X8, _W8 = np.polynomial.legendre.leggauss(8)
_NODES = np.concatenate([_X16, _X8])
# node values @ _RULES is (G16, G16 - G8) per unit half width
_RULES = np.stack([np.append(_W16, np.zeros(8)), np.append(_W16, -_W8)], axis=1)
# G16 node values @ _DIFF.T is dv/dx at those nodes, from the degree-15
# interpolant (barycentric differentiation matrix)
_BARY = 1.0 / np.prod(_X16[:, None] - _X16 + np.eye(16), axis=1)
_DIFF = _BARY / _BARY[:, None] / (_X16[:, None] - _X16 + np.eye(16)) - np.eye(16)
np.fill_diagonal(_DIFF, -_DIFF.sum(axis=1))
_REL_TOL = 1e-10
_MAX_START_WIDTH = 2.0      # widest starting panel in log r
# a piece wider than that starts on panels no wider than _BULK_WIDTH where
# |log r| <= _BULK, where fields and weights vary
_BULK, _BULK_WIDTH = 5.0, 0.25
_MAX_PANELS = 1 << 15       # panels that splitting may add to the start panels
# an estimate at this multiple of the panel's round-off level cannot shrink
# by splitting (integrals that cancel to zero)
_ROUNDOFF = 50.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
_ZERO = np.zeros(1)

# supremum scan
_SCAN = np.exp(np.linspace(math.log(1e-6), math.log(1e6), 433))
_GROWTH_TOL = 1e-8         # |dg/dt| / |g| out of an end sample that is growth
# bisection alone takes a 0.064-wide bracket in log r to adjacent floats in < 50
_NEWTON_STEPS, _EPS = 64, float(np.finfo(float).eps)

# spd_factor keeps a system of at most this many nodes dense
_DENSE_TAIL = 16
_NOT_DEFINITE = ("energy form is not positive definite "
                 "(regime hypothesis violated, e.g. c1*c2 too large)")


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not converge.

    Carries the partial result in ``value`` and the estimated absolute
    error in ``estimate``.
    """

    def __init__(self, message: str, value: float, estimate: float):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class UnboundedError(ValueError):
    """Supremum search detected unbounded growth."""


class NotPositiveDefiniteError(ValueError):
    """An energy form that must be positive definite is not: the weak
    solve's factorization met a pivot that is not positive, or a coupling
    condition that guarantees definiteness fails."""


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing positive finite radial nodes."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        # NaN fails every comparison, and an increasing grid can only end in inf
        if not (nodes[0] > 0.0 and np.all(np.diff(nodes) > 0.0) and nodes[-1] < math.inf):
            raise ValueError("grid nodes must be finite, strictly increasing and positive")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def log_uniform(cls, n: int, r_min: float, r_max: float) -> "RadialGrid":
        if not (0.0 < r_min < r_max < math.inf):
            raise ValueError(f"need 0 < r_min < r_max < inf, got {r_min!r}, {r_max!r}")
        return cls(np.exp(np.linspace(math.log(r_min), math.log(r_max), n)))

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def r_min(self) -> float:
        return float(self.nodes[0])

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def t(self) -> np.ndarray:
        """Log-space coordinates of the nodes."""
        return np.log(self.nodes)

    @property
    def log_step(self) -> float:
        """Spacing of the nodes in log r; raises unless it is uniform."""
        dt = np.diff(self.t)
        if np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
            raise ValueError("grid nodes are not uniformly spaced in log r")
        return float(dt[0])


@dataclass(frozen=True)
class SupResult:
    """Result of a supremum search over r > 0: the value and the radius of
    the best sample (``argmax``)."""

    value: float
    argmax: float


def integrate_radial(f, edges=(0.0, math.inf), breakpoints=()) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of ``f(r) dr`` over the segments [edges[i], edges[i+1]].

    ``edges`` do not decrease from ``edges[0] >= 0`` to ``edges[-1] <= inf``
    (a repeated edge makes a segment with integral 0); the default is the
    one segment (0, inf).  Returns the segment integrals and their absolute
    error estimates.  The log substitution neutralizes inverse-power
    singularities at the origin and decaying tails alike.  The start panels
    in log r are cut at every edge, at r = 1 and at ``breakpoints`` (radii
    where the integrand is not smooth: shell edges, table samples), none
    wider than 2, so the rule cannot step over a narrow feature; a piece
    between cuts that is wider than 2 also starts on panels 0.25 wide where
    |log r| <= 5, where fields and weights vary, so an integral over
    (0, inf) of a smooth field density passes in its first sweep.  Each sweep
    evaluates ``f`` once on the nodes of every open panel; a panel is
    accepted when its |G16 - G8| is within its share (width over the width
    of all segments) of ``_REL_TOL`` times its segment's |total| or at its
    round-off level, and otherwise split in four (a panel that fails usually
    needs two halvings).  So a sum of segments from either end is held at
    least as tightly as one integral over it.

    ``f`` may return m integrands, (m, n) for n radii; the results are then
    (m, segments).  The integrands share their panels: each tests every open
    panel against its own segment totals and round-off level, a panel is
    split until all accept it and then counts for all, so each is held at
    least as tightly as in its own call, on panels as fine as the most
    demanding of them needs.
    """
    return _adaptive(f, edges, breakpoints)


def _adaptive(f, edges, breakpoints, rule=None):
    """``integrate_radial``; when ``rule`` is a list, each sweep appends to it
    the segments (p,), 16 Gauss radii (p, 16) and weights in t = log r (p, 16)
    of the p panels that every integrand accepted, so that in the end it holds
    a composite rule of the segments as fine as each integrand needed."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not (
            edges[0] >= 0.0 and (edges[1:] >= edges[:-1]).all()):
        raise ValueError("need 0 <= edges[0] <= edges[1] <= ...")
    t = np.minimum(np.maximum(np.log(np.maximum(edges, 1e-300)), _T_LO), _T_HI)
    done = np.zeros(t.size - 1)
    err = np.zeros(t.size - 1)
    bps = np.asarray(breakpoints, dtype=float)
    cuts = np.concatenate([t, _ZERO, np.log(bps[bps > 0.0])])
    cuts = np.minimum(np.maximum(cuts, t[0]), t[-1])
    cuts.sort()
    # start panels: each piece between cuts in equal parts no wider than 2
    # (a repeated cut makes a piece of no parts), interpolated over the count
    width = _MAX_START_WIDTH
    lo, hi = cuts[:-1], cuts[1:]
    wide = (hi - lo > width) & (lo < _BULK) & (hi > -_BULK)
    if wide.any():
        # a wider piece (lo, hi) that meets the bulk |t| < _BULK is cut into
        # (lo, a), (a, b) = its bulk and (b, hi), and (a, b) in parts no wider
        # than _BULK_WIDTH; any other piece has a = b = lo
        cuts = np.empty(3 * lo.size + 1)
        cuts[:-1:3], cuts[-1] = lo, hi[-1]
        cuts[1::3] = np.where(wide, np.maximum(-_BULK, lo), lo)
        cuts[2::3] = np.where(wide, np.minimum(_BULK, hi), lo)
        width = np.full(cuts.size - 1, width)
        width[1::3] = _BULK_WIDTH
    count = np.concatenate([_ZERO, np.ceil((cuts[1:] - cuts[:-1]) / width).cumsum()])
    ends = np.interp(np.arange(count[-1] + 1.0), count, cuts)
    mid, half = 0.5 * (ends[1:] + ends[:-1]), 0.5 * (ends[1:] - ends[:-1])
    # by the left end: the mid of a panel one float wide may round to an edge
    seg = t.searchsorted(ends[:-1], side="right") - 1
    if not mid.size:
        return done, err    # every segment lies beyond the clipped window

    added = 0   # panels that splitting added; the budget counts only these
    tol = 2.0 * _REL_TOL / (t[-1] - t[0])
    while True:
        r = np.exp(mid[:, None] + half[:, None] * _NODES).ravel()
        vals = f(r) * r
        if not np.isfinite(vals).all():
            r_bad = r[np.argmax(~np.isfinite(vals.reshape(-1, r.size)).all(axis=0))]
            raise ValueError(f"integrand returned a non-finite value at r={r_bad:g}")
        vals = vals.reshape(vals.shape[:-1] + (mid.size, _NODES.size))
        bins = seg
        if vals.ndim > 2:   # m integrands: a row of segment totals each
            bins = (seg + (t.size - 1) * np.arange(len(vals))[:, None]).ravel()
            if not added:
                done, err = np.zeros((2, len(vals), t.size - 1))
        rules = vals @ _RULES
        g16, diff = half * rules[..., 0], half * rules[..., 1]
        # the nodes exp(t) carry a relative error of about eps |t|, so the
        # round-off floor grows with |t|; it is part of the reported error, and
        # values near the subnormal range are only good to about tiny
        scale = _ROUNDOFF * (1.0 + np.abs(mid))
        floor = scale * half * (np.abs(vals) @ _RULES[:, 0]) + _TINY * half
        est = np.maximum(np.abs(diff), floor)
        total = done + np.bincount(bins, g16.ravel(), done.size).reshape(done.shape)
        ok = est <= np.maximum(np.abs(total)[..., seg] * half * tol, floor)
        if added and not ok.all():
            # the node error also moves a value by |dv/dt| eps |t|, which on a
            # steep flank outgrows the floor above, so split panels that fail
            # again add it (failing start panels are split in any case)
            bad = ~ok
            floor[bad] += scale[bad.nonzero()[-1]] * (np.abs(vals[bad, :16] @ _DIFF.T) @ _W16)
            est = np.maximum(np.abs(diff), floor)
            ok |= est <= floor
        # a panel counts, for every integrand, once every integrand accepts it
        kept = ok.all(axis=0) if ok.ndim > 1 else ok
        if rule is not None:
            rule.append((seg[kept], r.reshape(mid.size, -1)[kept, :16], half[kept, None] * _W16))
        done += np.bincount(bins, (g16 * kept).ravel(), done.size).reshape(done.shape)
        err += np.bincount(bins, (est * kept).ravel(), done.size).reshape(done.shape)
        if kept.all():
            return done, err
        split = ~kept
        mid, half, seg = mid[split], 0.25 * half[split], seg[split]
        added += 3 * mid.size
        if added > _MAX_PANELS:
            value, estimate = total.sum(axis=-1), err.sum(axis=-1) + (est * split).sum(axis=-1)
            raise QuadratureError(f"quadrature did not converge in {_MAX_PANELS} split panels (value="
                                  f"{value}, est={estimate})", value, estimate)
        mid = np.concatenate([mid - 3.0 * half, mid - half, mid + half, mid + 3.0 * half])
        half, seg = np.concatenate([half] * 4), np.concatenate([seg] * 4)


def sup_over_r(g, slope, candidates=()) -> SupResult:
    """Supremum of ``g`` over r > 0.

    ``g`` maps a 1-D array of radii to an array of values.  Its first call,
    in increasing order so that a cumulative ``g`` integrates it as
    consecutive segments, is the log-uniform scan over [1e-6, 1e6] and the
    ``candidates`` (radii where g or its slope may jump) with their float
    neighbours, whose values are g's one-sided limits there.  ``slope(r, v)``
    gives p = dg/dt and dp/dt (t = ln r) from the values v = g(r).  Between
    the highest neighbouring samples with no candidate among them where p
    goes from + to -, a safeguarded Newton-bisection on p (Brent 1973)
    starts from the samples and evaluates one radius per call until the
    predicted gain p^2 / 2|dp| is below g's round-off; a bracket flat to
    round-off is not refined.  Nothing is sampled past the first and last
    radius: when the best sample is one of them and g still rises out of it,
    p pointing outward by more than ``_GROWTH_TOL`` times |g|,
    :class:`UnboundedError` names that end, so growth is not clipped there.
    """
    rs = _SCAN
    cand = np.array([r for r in candidates if r > 0.0], dtype=float)
    x = np.sort(np.concatenate([rs, np.nextafter(cand, 0.0), cand, np.nextafter(cand, math.inf)])
                ) if cand.size else rs
    v = _checked_eval(g, x)
    i, n = int(np.argmax(v)), x.size
    best, arg = float(v[i]), float(x[i])

    # g is smooth between neighbours that are not candidates; the nearest such
    # pair on either side of the best sample lies within three places of it
    x, v = x[max(i - 3, 0):i + 4], v[max(i - 3, 0):i + 4]
    p, dp = slope(x, v)
    if i in (0, n - 1) and (p[-1] if i else -p[0]) > _GROWTH_TOL * abs(best):
        raise UnboundedError(f"supremum grows without bound toward {'r->inf' if i else 'r->0'}")
    smooth = (x[:, None] != cand).all(axis=1)
    up = (p[:-1] > 0.0) & (p[1:] < 0.0) & smooth[:-1] & smooth[1:]
    if up.any():
        j = int(np.flatnonzero(up)[np.argmax(np.maximum(v[:-1], v[1:])[up])])
        k = j if v[j] >= v[j + 1] else j + 1
        lo, hi, t, pt, dpt = math.log(x[j]), math.log(x[j + 1]), math.log(x[k]), p[k], dp[k]
        # if p falls monotonically through the bracket, g gains at most this in it
        flat = min(p[j], -p[j + 1]) * (hi - lo) <= _ROUNDOFF * abs(best)
        for _ in range(0 if flat else _NEWTON_STEPS):
            if dpt < 0.0 and pt * pt <= -2.0 * dpt * _EPS * abs(best):
                break   # predicted gain below round-off
            step = t - pt / dpt if dpt < 0.0 else lo    # bisect where g is not concave
            t = step if lo < step < hi else 0.5 * (lo + hi)
            if not lo < t < hi:
                break   # bracket down to adjacent floats
            r = np.array([math.exp(t)])
            val = _checked_eval(g, r)
            pt, dpt = (float(a[0]) for a in slope(r, val))
            if val[0] > best:
                best, arg = float(val[0]), float(r[0])
            lo, hi = (t, hi) if pt > 0.0 else (lo, t)
    return SupResult(best, arg)


def _checked_eval(g, r: np.ndarray) -> np.ndarray:
    v = np.asarray(g(r), dtype=float)
    if v.shape != r.shape:
        raise ValueError(f"sup integrand returned shape {v.shape} for radii of shape {r.shape}")
    if np.isnan(v).any():
        raise ValueError(f"sup integrand returned NaN at r={r[np.argmax(np.isnan(v))]:g}")
    if np.isinf(v).any():
        raise UnboundedError(f"sup integrand is infinite at r={r[np.argmax(np.isinf(v))]:g}")
    return v


# ---------------------------------------------------------------------------
# equilibration and block inertia
# ---------------------------------------------------------------------------

def _equilibrate(D: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Symmetric diagonal equilibration of node blocks D (3, 3, ..., n) and couplings
    B (3, 3, ..., n-1), in place; returns the scales s = |diagonal|^(-1/2) (3, ..., n),
    1 where |diagonal| < 1e-300.  ``spd_factor`` solves A x = b as x = s * y with
    (S A S) y = s * b; the inertia count needs no scaling (``ldl_inertia``)."""
    with np.errstate(all="ignore"):
        d = np.abs(D[[0, 1, 2], [0, 1, 2]])
        s = 1.0 / np.sqrt(np.where(d < 1e-300, 1.0, d))
        B *= s[:, None, ..., :-1] * s[None, :, ..., 1:]
        D *= s[:, None] * s[None, :]
    return s


def _block_ldl(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivots (3, ...) and inverses (3, 3, ...) of 3x3 blocks d (3, 3, ...) by
    unpivoted LDL^T; a zero pivot is nudged to -1e-300 and the inverse is
    L^-T diag(1/p) L^-1 of the nudged pivots, finite wherever they are."""
    p0 = np.where(d[0, 0], d[0, 0], -1e-300)
    l10, l20 = d[1, 0] / p0, d[2, 0] / p0
    s11, s21 = d[1, 1] - l10 * d[1, 0], d[2, 1] - l20 * d[1, 0]
    p1 = np.where(s11, s11, -1e-300)
    l21 = s21 / p1
    s22 = d[2, 2] - l20 * d[2, 0] - l21 * s21
    p2 = np.where(s22, s22, -1e-300)
    q0, q1, q2 = 1.0 / p0, 1.0 / p1, 1.0 / p2
    m10, m20, m21 = -l10, l10 * l21 - l20, -l21        # L^-1 below the diagonal
    i10, i20, i21 = m10 * q1 + m20 * m21 * q2, m20 * q2, m21 * q2
    return np.array([p0, p1, p2]), np.array([[q0 + m10 * m10 * q1 + m20 * m20 * q2, i10, i20],
                                             [i10, q1 + m21 * m21 * q2, i21], [i20, i21, q2]])


def _eliminate_evens(D: np.ndarray, B: np.ndarray):
    """One level of odd-even block cyclic reduction of node blocks D (3, 3, ..., n)
    and couplings B (3, 3, ..., n-1), rows on node i, over any stack axes ``...``.

    Odd node 2j+1 couples to 2j by left_j = B_2j and to 2j+2 by right_j = B_2j+1.
    With the inverses inv_j of the even nodes' blocks (``_block_ldl``) and
    z_j = right_j inv_j+1, the odd nodes' Schur complement A_oo - A_oe A_ee^-1 A_eo
    has node blocks D_2j+1 - left_j^T inv_j left_j - z_j right_j^T (a missing
    neighbour adds nothing) and couplings -z_j left_j+1 from 2j+1 to 2j+3.
    Returns the even nodes' pivots, inv, z and the reduced D and B.
    """
    piv, inv = _block_ldl(D[..., ::2].copy())     # contiguous: einsum is slower on strided
    left, right = B[..., ::2].copy(), B[..., 1::2].copy()
    odd = D[..., 1::2] - np.einsum("ji...,jk...->ik...", left, np.einsum(
        "ij...,jk...->ik...", inv[..., :left.shape[-1]], left))
    z = np.einsum("ij...,jk...->ik...", right, inv[..., 1:])
    odd[..., :z.shape[-1]] -= np.einsum("ij...,kj...->ik...", z, right)
    B = np.einsum("ij...,jk...->ik...", z[..., :odd.shape[-1] - 1], left[..., 1:])
    return piv, inv, z, odd, np.negative(B, out=B)


def ldl_inertia(D: np.ndarray, B: np.ndarray, shifts) -> tuple[np.ndarray, np.ndarray]:
    """Negative-eigenvalue counts and log|det| of S symmetric block-tridiagonal matrices.

    ``D[:, :, j, i]`` is the 3x3 diagonal block of node i in matrix j and ``B[:, :, j, i]``
    its coupling to node i+1 (rows on node i); ``shifts`` name the matrices in errors.
    ``_eliminate_evens`` runs, vectorized over nodes and matrices, until no node is
    left, in about log2(n) levels; the negative pivots of all eliminated blocks give
    the count (Haynsworth additivity, Sylvester's law), and the sum of their
    log|pivot| gives log|det| (the sign of det is (-1)^count).  There is no
    equilibration: unpivoted block LDL^T of S A S, S diagonal and positive, has the
    pivots of A times s_i^2, so scaling moves no pivot's sign.  A zero pivot is
    nudged to -1e-300 (counts as negative); a non-finite one raises.
    """
    pivots = []
    with np.errstate(all="ignore"):
        while D.shape[-1]:
            piv, _, _, D, B = _eliminate_evens(D, B)
            pivots.append(piv)
        piv = np.concatenate(pivots, axis=-1)
        logdet = np.log(np.abs(piv)).sum(axis=(0, 2))
    bad = ~np.isfinite(piv).all(axis=(0, 2))
    if bad.any():
        E = float(shifts[np.argmax(bad)])
        raise ValueError(f"inertia count hit a non-finite pivot at shift E={E!r}")
    return np.count_nonzero(piv < 0.0, axis=(0, 2)), logdet


def spd_factor(D: np.ndarray, B: np.ndarray):
    """Factor of one symmetric positive definite block-tridiagonal matrix, node
    blocks D (3, 3, n) and couplings B (3, 3, n-1) with rows on node i, for
    ``spd_solve``; D and B are equilibrated in place.

    ``_eliminate_evens`` runs while more than ``_DENSE_TAIL`` nodes are left.  Per
    level, in its names, a forward table [left_j^T inv_j | z_j] (3, 6, odd nodes) moves
    the even nodes' load onto the odd ones, and a backward table
    [inv_j | -inv_j left_j | -z_j-1^T] (3, 9, even nodes) gives an even node's solution
    from its load and its odd neighbours' solutions (a missing neighbour has a zero
    block).  The system left (at most 48 unknowns, node-major) is kept as its dense
    inverse, from its Cholesky factor.  A pivot that is not positive, or a tail that is
    not finite or not positive definite, raises :class:`NotPositiveDefiniteError`.
    Returns the scales, those tables and the tail's inverse.
    """
    levels = []
    with np.errstate(all="ignore"):
        s = _equilibrate(D, B)
        while D.shape[-1] > _DENSE_TAIL:
            left = B[..., ::2]
            piv, inv, z, D, B = _eliminate_evens(D, B)
            if not (piv > 0.0).all():     # NaN fails too
                raise NotPositiveDefiniteError(_NOT_DEFINITE)
            # w = inv left is formed here, not in the step, so the count's levels keep no more
            w = np.einsum("ij...,jk...->ik...", inv[..., :left.shape[-1]], left)
            fwd = np.zeros((3, 6, w.shape[-1]))
            fwd[:, :3] = w.transpose(1, 0, 2)
            fwd[:, 3:, :z.shape[-1]] = z
            bwd = np.zeros((3, 9, inv.shape[-1]))
            bwd[:, :3] = inv
            bwd[:, 3:6, :w.shape[-1]] = -w
            bwd[:, 6:, 1:z.shape[-1] + 1] = -z.transpose(1, 0, 2)
            levels.append((fwd, bwd))
    n = D.shape[-1]
    tail = np.zeros((n, 3, n, 3))
    i = np.arange(n)
    tail[i, :, i] = D.transpose(2, 0, 1)
    tail[i[:-1], :, i[1:]] = B.transpose(2, 0, 1)
    tail[i[1:], :, i[:-1]] = B.transpose(2, 1, 0)
    tail = tail.reshape(3 * n, 3 * n)
    if not np.isfinite(tail).all():   # the Cholesky factorization lets NaN through
        raise NotPositiveDefiniteError(_NOT_DEFINITE)
    try:
        inv_l = np.linalg.inv(np.linalg.cholesky(tail))
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(_NOT_DEFINITE) from None
    return s, levels, inv_l.T @ inv_l


def spd_solve(factor, b: np.ndarray) -> np.ndarray:
    """Solution x (3, n) of A x = b, node i's dofs in column i of b (3, n), from
    ``spd_factor`` of A: the forward tables reduce the load level by level, one
    product with the tail's inverse solves what is left, then the backward
    tables recover each level's even nodes in reverse order, one product per
    level and direction."""
    s, levels, tail_inv = factor
    b = b * s
    evens = []
    for fwd, _ in levels:
        even, b = b[:, ::2], b[:, 1::2]
        near = np.zeros((6, b.shape[1]))       # even neighbours j and j+1 of odd node j
        near[:3] = even[:, :b.shape[1]]
        near[3:, :even.shape[1] - 1] = even[:, 1:]
        b = b - np.einsum("ijk,jk->ik", fwd, near)
        evens.append(even)
    x = (tail_inv @ b.T.ravel()).reshape(-1, 3).T
    for (_, bwd), even in zip(reversed(levels), reversed(evens)):
        near = np.zeros((9, even.shape[1]))    # even node j's load, odd neighbours j and j-1
        near[:3] = even
        near[3:6, :x.shape[1]] = x
        near[6:, 1:] = x[:, :even.shape[1] - 1]
        out = np.empty((3, even.shape[1] + x.shape[1]))
        out[:, ::2] = np.einsum("ijk,jk->ik", bwd, near)
        out[:, 1::2] = x
        x = out
    return x * s
