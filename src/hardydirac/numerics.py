"""Shared numerical substrate.

Radial grids, quadrature on (0, infinity) that is robust to inverse-power
endpoint singularities and exponential tails, supremum search over r > 0,
and inertia counts (numbers of negative eigenvalues) of equilibrated
symmetric block-tridiagonal matrices, one LDL sweep for many shifts at once,
on which ``extension.spectrum_in_gap`` runs multisection.

All integrals over (0, infinity) are computed after the substitution
r = e^t, which turns 1/r singularities at the origin and decaying tails
into smooth integrands on the line.  Integrands take a 1-D array of radii
and return an array of values: the adaptive rule evaluates them once per
sweep on the Gauss-Legendre nodes of every unconverged panel in log r, over
a list of consecutive segments at once (``integrate_radial`` takes one), so
cumulative integrals at many radii are the prefix sums of one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialGrid",
    "Quadrant",
    "SupResult",
    "QuadratureError",
    "UnboundedError",
    "NotPositiveDefiniteError",
    "integrate_radial",
    "integrate_segments",
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
_REL_TOL = 1e-10
_MAX_START_WIDTH = 2.0      # widest starting panel in log r
_MAX_PANELS = 1 << 15
# an estimate at this multiple of the panel's round-off level cannot shrink
# by splitting (integrals that cancel to zero)
_ROUNDOFF = 50.0 * np.finfo(float).eps
_ZERO = np.zeros(1)

# supremum scan
_SCAN_LO, _SCAN_HI, _SCAN_POINTS = 1e-6, 1e6, 433
_GROWTH_TOL = 1e-8


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
    """Banded Cholesky factorization broke down."""


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing positive radial nodes."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if nodes[0] <= 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing and positive")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def log_uniform(cls, n: int, r_min: float = 1e-6, r_max: float = 50.0) -> "RadialGrid":
        if not (0.0 < r_min < r_max):
            raise ValueError("need 0 < r_min < r_max")
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

    def refined(self) -> "RadialGrid":
        """Grid with at least twice the nodes, r_min halved and r_max doubled."""
        return RadialGrid.log_uniform(2 * self.n, self.r_min / 2.0, self.r_max * 2.0)


@dataclass(frozen=True)
class Quadrant:
    """A quadrature result: value plus an absolute error estimate."""

    value: float
    abs_error_estimate: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("quadrature value must be finite")
        if self.abs_error_estimate < 0.0:
            raise ValueError("error estimate must be nonnegative")


@dataclass(frozen=True)
class SupResult:
    """Result of a supremum search over r > 0.

    ``argmax`` is the maximizing radius; ``tag`` is set to ``"r->0"`` or
    ``"r->inf"`` when the supremum is only approached at an endpoint.
    """

    value: float
    argmax: float
    tag: str | None = None


def integrate_radial(f, a: float = 0.0, b: float = math.inf,
                     breakpoints=()) -> Quadrant:
    """Integrate ``f(r) dr`` over (a, b) with 0 <= a < b <= inf.

    ``f`` maps a 1-D array of radii to an array of values.  This is the
    one-segment case of :func:`integrate_segments`.
    """
    if not (0.0 <= a < b):
        raise ValueError("need 0 <= a < b")
    value, estimate = integrate_segments(f, np.array([a, b], dtype=float), breakpoints)
    return Quadrant(float(value[0]), float(estimate[0]))


def integrate_segments(f, edges, breakpoints=()) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of ``f(r) dr`` over the segments [edges[i], edges[i+1]].

    ``edges`` do not decrease from ``edges[0] >= 0`` to ``edges[-1] <= inf``
    (a repeated edge makes a segment with integral 0); returns the segment
    integrals and their absolute error estimates.  The log substitution
    neutralizes inverse-power singularities at the origin and decaying
    tails alike.  The start panels in log r are cut at every edge, at r = 1
    and at ``breakpoints`` (radii where the integrand is not smooth: shell
    edges, table samples), none wider than 2, so the rule cannot step over
    a narrow feature.  Each sweep evaluates ``f`` once on the nodes of every
    open panel; a panel is accepted when its |G16 - G8| is within its share
    (width over the width of all segments) of ``_REL_TOL`` times its
    segment's |total| or at its round-off level, and otherwise split in four
    (a panel that fails usually needs two halvings).  So a sum of segments
    from either end is held at least as tightly as one integral over it.
    """
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
    count = np.concatenate([_ZERO, np.ceil((cuts[1:] - cuts[:-1]) / _MAX_START_WIDTH).cumsum()])
    ends = np.interp(np.arange(count[-1] + 1.0), count, cuts)
    mid, half = 0.5 * (ends[1:] + ends[:-1]), 0.5 * (ends[1:] - ends[:-1])
    seg = t.searchsorted(mid) - 1
    if not mid.size:
        return done, err    # every segment lies beyond the clipped window

    n_panels = mid.size
    while True:
        r = np.exp(mid[:, None] + half[:, None] * _NODES).ravel()
        vals = (f(r) * r).reshape(mid.size, _NODES.size)
        if not np.isfinite(vals).all():
            r_bad = r[np.argmax(~np.isfinite(vals.ravel()))]
            raise ValueError(f"integrand returned a non-finite value at r={r_bad:g}")
        g16, diff = half * (vals @ _RULES).T
        # the nodes exp(t) carry a relative error of about eps |t|, so the
        # round-off floor grows with |t|; it is part of the reported error
        floor = _ROUNDOFF * (1.0 + np.abs(mid)) * half * (np.abs(vals) @ _RULES[:, 0])
        est = np.maximum(np.abs(diff), floor)
        total = done + np.bincount(seg, g16, done.size)
        ok = est <= np.maximum(np.abs(total)[seg] * half * (2.0 * _REL_TOL / (t[-1] - t[0])), floor)
        done += np.bincount(seg, g16 * ok, done.size)
        err += np.bincount(seg, est * ok, done.size)
        if ok.all():
            return done, err
        split = ~ok
        mid, half, seg = mid[split], 0.25 * half[split], seg[split]
        n_panels += 3 * mid.size
        if n_panels > _MAX_PANELS:
            value, estimate = float(total.sum()), float(err.sum() + est[split].sum())
            raise QuadratureError(
                f"quadrature did not converge in {_MAX_PANELS} panels "
                f"(value={value:.6g}, est={estimate:.3g})", value, estimate)
        mid = np.concatenate([mid - 3.0 * half, mid - half, mid + half, mid + 3.0 * half])
        half, seg = np.concatenate([half] * 4), np.concatenate([seg] * 4)


def _golden_max(g, t_lo: float, t_hi: float, tol: float = 1e-12, max_iter: int = 200):
    """Golden-section maximization of g(e^t) for t in [t_lo, t_hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = t_lo, t_hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = g(math.exp(c))
    fd = g(math.exp(d))
    for _ in range(max_iter):
        if b - a < tol * max(1.0, abs(a) + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = g(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = g(math.exp(d))
    if fc >= fd:
        return math.exp(c), fc
    return math.exp(d), fd


def sup_over_r(g, candidates=()) -> SupResult:
    """Supremum of ``g`` over r > 0.

    ``g`` maps a 1-D array of radii to an array of values.  Its first call
    is the whole log-uniform scan over [1e-6, 1e6], in increasing order, so
    a cumulative ``g`` can integrate it as consecutive segments; the
    ``candidates`` (radii that must be probed exactly: jump points of the
    integrand) follow in one call.  Golden-section refinement polishes the
    best bracket, and both endpoints are probed over many further decades:
    monotone growth that does not level off raises :class:`UnboundedError`,
    growth that saturates is reported with a limit tag.
    """
    rs = np.exp(np.linspace(math.log(_SCAN_LO), math.log(_SCAN_HI), _SCAN_POINTS))
    vals = _checked_eval(g, rs)

    i_best = int(np.argmax(vals))
    best = float(vals[i_best])
    arg = float(rs[i_best])

    cand = np.array([r for r in candidates if r > 0.0], dtype=float)
    if cand.size:
        cvals = _checked_eval(g, cand)
        j = int(np.argmax(cvals))
        if cvals[j] > best:
            best, arg = float(cvals[j]), float(cand[j])

    def g1(r: float) -> float:
        return float(_checked_eval(g, np.array([r]))[0])

    # refine around the best scanned bracket when it is interior and strict
    if 0 < i_best < _SCAN_POINTS - 1 and vals[i_best] > max(vals[i_best - 1], vals[i_best + 1]):
        r_ref, v_ref = _golden_max(g1, math.log(rs[i_best - 1]), math.log(rs[i_best + 1]))
        if v_ref > best:
            best, arg = v_ref, r_ref

    # when the scan maximum sits on an edge, probe 24 further decades:
    # saturating growth yields a limit tag, persistent growth is unbounded
    tag = None
    for edge, direction, label in ((0, -1.0, "r->0"), (_SCAN_POINTS - 1, 1.0, "r->inf")):
        if i_best != edge:
            continue
        v_prev = vals[edge]
        r = rs[edge]
        grew = False
        still_growing = True
        for _ in range(24):
            r = r * (10.0 ** direction)
            v = g1(r)
            if v > v_prev * (1.0 + _GROWTH_TOL) or (v_prev <= 0.0 and v > 0.0):
                grew = True
                v_prev = v
                if v > best:
                    best, arg = v, r
            else:
                still_growing = False
                break
        if grew and still_growing:
            raise UnboundedError(f"supremum grows without bound toward {label}")
        if grew:
            tag = label
    return SupResult(best, arg, tag)


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

def _equilibration(diagonal: np.ndarray) -> np.ndarray:
    """Scales ``|diagonal|^(-1/2)``; entries below 1e-300 keep scale 1."""
    d = np.abs(diagonal)
    return 1.0 / np.sqrt(np.where(d < 1e-300, 1.0, d))


def _scaled_copy(ab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric diagonal equilibration of a lower-banded matrix.

    Returns ``(S A S, s)`` with ``S = diag(s)`` and ``s`` from
    ``_equilibration`` of the diagonal.  S A S has the inertia of A, and
    A x = b is solved as x = s * y with (S A S) y = s * b.
    """
    s = _equilibration(ab[0])
    out = np.array(ab, dtype=float, copy=True)
    n = ab.shape[1]
    for i in range(ab.shape[0]):
        out[i, :n - i] *= s[:n - i] * s[i:]
    return out, s


def ldl_inertia(em: np.ndarray, shifts) -> np.ndarray:
    """Negative-eigenvalue counts of S symmetric block-tridiagonal matrices.

    ``em[j, e]`` is what element e adds to matrix j on the 3+3 dofs of nodes
    e and e+1; ``shifts`` name the matrices in errors.  After
    ``_equilibration``, one unpivoted block LDL^T sweep over the nodes,
    vectorized over the matrices, counts the negative pivots of the 3x3
    Schur complements (Haynsworth additivity, Sylvester's law).  A zero
    pivot is nudged to -1e-300 (counts as negative); a non-finite one raises.
    """
    n_mat, nel = em.shape[:2]
    # node diagonals, matrix index last; a zero node past the end gets scale 1
    d = np.zeros((nel + 2, 3, n_mat))
    d[:-2] += np.moveaxis(np.diagonal(em[..., :3, :3], axis1=2, axis2=3), 0, -1)
    d[1:-1] += np.moveaxis(np.diagonal(em[..., 3:, 3:], axis1=2, axis2=3), 0, -1)
    piv = np.empty((nel + 1, 3, n_mat))
    with np.errstate(all="ignore"):
        s = _equilibration(d).reshape(-1, n_mat)
        carry = 0.0     # what eliminating the nodes before leaves on node i
        # a zero element past the end yields the last node's pivots
        for i, e in enumerate([*np.moveaxis(em, 0, -1), np.zeros((6, 6, n_mat))]):
            t = e * s[3 * i:3 * i + 6, None] * s[3 * i:3 * i + 6]
            t[:3, :3] += carry
            for j in range(3):
                piv[i, j] = p = np.where(t[j, j], t[j, j], -1e-300)
                t[j + 1:, j + 1:] -= t[j + 1:, j, None] * (t[j, j + 1:] / p)
            carry = t[3:, 3:]
    bad = ~np.isfinite(piv).all(axis=(0, 1))
    if bad.any():
        E = float(shifts[np.argmax(bad)])
        raise ValueError(f"inertia sweep hit a non-finite pivot at shift E={E!r}")
    return np.count_nonzero(piv < 0.0, axis=(0, 1))
