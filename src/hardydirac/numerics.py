"""Shared numerical substrate.

Radial grids, quadrature on (0, infinity) that is robust to inverse-power
endpoint singularities and exponential tails, supremum search over r > 0,
and the inertia count (number of negative eigenvalues) of an equilibrated
symmetric banded matrix.

All integrals over (0, infinity) are computed after the substitution
r = e^t, which turns 1/r singularities at the origin and decaying tails
into smooth integrands on the line.  Integrands take a 1-D array of radii
and return an array of values: the adaptive rule evaluates them once per
sweep on the Gauss-Legendre nodes of every unconverged panel in log r.
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
_REL_TOL = 1e-10
_MAX_START_WIDTH = 2.0      # widest starting panel in log r
_MAX_PANELS = 1 << 15
# an estimate at this multiple of the panel's round-off level cannot shrink
# by halving (integrals that cancel to zero)
_ROUNDOFF = 50.0 * np.finfo(float).eps

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

    ``f`` maps a 1-D array of radii to an array of values.  The log
    substitution neutralizes inverse-power singularities at the origin and
    decaying tails alike.  The window starts as panels in log r cut at
    r = 1 and at ``breakpoints`` (radii where the integrand is not smooth:
    shell edges, table samples), none wider than 2, so the rule cannot
    step over a narrow feature.  Each sweep evaluates ``f`` once on the
    nodes of every open panel; a panel is accepted when its |G16 - G8| is
    within its share (width over window width) of ``_REL_TOL * |total|``
    or at its round-off level, and otherwise halved.
    """
    if not (0.0 <= a < b):
        raise ValueError("need 0 <= a < b")

    t_lo = _T_LO if a == 0.0 else max(math.log(a), _T_LO)
    t_hi = _T_HI if math.isinf(b) else min(math.log(b), _T_HI)
    if t_lo >= t_hi:
        return Quadrant(0.0, 0.0)

    cuts = {t_lo, t_hi}
    if t_lo < 0.0 < t_hi:
        cuts.add(0.0)
    for rb in breakpoints:
        if rb > 0.0:
            tb = math.log(rb)
            if t_lo < tb < t_hi:
                cuts.add(tb)
    edges = sorted(cuts)
    lo = np.concatenate([
        np.linspace(e0, e1, math.ceil((e1 - e0) / _MAX_START_WIDTH) + 1)[:-1]
        for e0, e1 in zip(edges[:-1], edges[1:])])
    hi = np.append(lo[1:], t_hi)
    window = t_hi - t_lo

    done = 0.0
    err = 0.0
    n_panels = lo.size
    while True:
        half = 0.5 * (hi - lo)
        r = np.exp((0.5 * (lo + hi))[:, None] + half[:, None] * _NODES).ravel()
        vals = (f(r) * r).reshape(lo.size, _NODES.size)
        bad = ~np.isfinite(vals)
        if bad.any():
            r_bad = r[np.argmax(bad.ravel())]
            raise ValueError(f"integrand returned a non-finite value at r={r_bad:g}")
        g16 = half * (vals[:, :16] @ _W16)
        est = np.abs(g16 - half * (vals[:, 16:] @ _W8))
        floor = _ROUNDOFF * half * (np.abs(vals[:, :16]) @ _W16)
        total = done + g16.sum()
        ok = est <= np.maximum(_REL_TOL * abs(total) * (hi - lo) / window, floor)
        done += g16[ok].sum()
        err += est[ok].sum()
        if ok.all():
            return Quadrant(float(done), float(err))
        lo, hi = lo[~ok], hi[~ok]
        n_panels += lo.size
        if n_panels > _MAX_PANELS:
            value, estimate = float(total), float(err + est[~ok].sum())
            raise QuadratureError(
                f"quadrature did not converge in {_MAX_PANELS} panels "
                f"(value={value:.6g}, est={estimate:.3g})", value, estimate)
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])


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

    A coarse log-uniform scan over [1e-6, 1e6] brackets the maximum,
    golden-section refinement polishes it, and both endpoints are probed
    over many further decades: monotone growth that does not level off
    raises :class:`UnboundedError`, growth that saturates is reported
    with a limit tag.  ``candidates`` are radii that must be probed
    exactly (jump points of the integrand).
    """
    rs = np.exp(np.linspace(math.log(_SCAN_LO), math.log(_SCAN_HI), _SCAN_POINTS))
    vals = np.empty_like(rs)
    for i, r in enumerate(rs):
        vals[i] = _checked_eval(g, r)

    i_best = int(np.argmax(vals))
    best = float(vals[i_best])
    arg = float(rs[i_best])

    for r in candidates:
        if r <= 0.0:
            continue
        v = _checked_eval(g, r)
        if v > best:
            best, arg = v, float(r)

    # refine around the best scanned bracket when it is interior and strict
    if 0 < i_best < _SCAN_POINTS - 1 and vals[i_best] > max(vals[i_best - 1], vals[i_best + 1]):
        r_ref, v_ref = _golden_max(g, math.log(rs[i_best - 1]), math.log(rs[i_best + 1]))
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
            v = _checked_eval(g, r)
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


def _checked_eval(g, r: float) -> float:
    v = g(r)
    if math.isnan(v):
        raise ValueError(f"sup integrand returned NaN at r={r:g}")
    if math.isinf(v):
        raise UnboundedError(f"sup integrand is infinite at r={r:g}")
    return float(v)


# ---------------------------------------------------------------------------
# banded inertia
# ---------------------------------------------------------------------------

def _scaled_copy(ab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric diagonal equilibration of a lower-banded matrix.

    Returns ``(S A S, s)`` with ``S = diag(s)``, ``s = |diag A|^(-1/2)``
    (diagonal entries below 1e-300 keep scale 1).  S A S has the inertia of A, and
    A x = b is solved as x = s * y with (S A S) y = s * b.
    """
    d = np.abs(ab[0]).copy()
    d[d < 1e-300] = 1.0
    s = 1.0 / np.sqrt(d)
    out = np.array(ab, dtype=float, copy=True)
    n = ab.shape[1]
    for i in range(ab.shape[0]):
        j = np.arange(n - i)
        out[i, j] *= s[j] * s[j + i]
    return out, s


def ldl_inertia(ab: np.ndarray) -> int:
    """Number of negative pivots of a symmetric banded matrix.

    Unpivoted LDL^T; callers should equilibrate first (``_scaled_copy``) so
    that element growth stays harmless.  Zero pivots are nudged negative,
    which at worst moves a bisection probe by one ULP.
    """
    bw = ab.shape[0] - 1
    n = ab.shape[1]
    L = np.zeros((bw + 1, n))
    d = np.zeros(n)
    for j in range(n):
        k0 = max(0, j - bw)
        if j > k0:
            ks = np.arange(k0, j)
            s = ab[0, j] - np.sum(L[j - ks, ks] ** 2 * d[ks])
        else:
            s = ab[0, j]
        if s == 0.0:
            s = -1e-300
        d[j] = s
        top = min(bw, n - 1 - j)
        for i in range(1, top + 1):
            r = j + i
            v = ab[i, j]
            for k in range(max(0, r - bw), j):
                v -= L[r - k, k] * L[j - k, k] * d[k]
            L[i, j] = v / d[j]
    return int(np.sum(d < 0.0))
