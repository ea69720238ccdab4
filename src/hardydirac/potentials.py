"""Diagonal potential data and the two-weight Hardy constants.

A potential pair holds a regular radial weight plus optional delta shells in
the first slot, a regular weight in the second slot, and coupling constants.
The constants ``A_+``, ``A_-`` are suprema over r of cumulative weighted
integrals; per-channel constants ``A_k`` generalize them with powers
``2(k+1)``.  Power-law summands (Coulomb ``nu/r``, ``a r^p``) enter those
integrals in closed form; only tables and mollified shells are integrated
numerically, over the hull of their breakpoints.

Shell convention: a shell of mass ``a`` at radius ``R`` acts on radial test
functions as ``a f(R)``, so it contributes ``a (R/r)^2`` for ``r >= R`` to the
``A_+`` integrand and ``a (r/R)^2`` for ``r <= R`` to the ``A_-`` integrand,
both peaking at the value ``a`` exactly at ``r = R``.  This normalization
makes the shell-plus-Coulomb pair come out at ``A_+ = A_- = 3/2`` for every
shell radius and identifies the shell term of the inequality left-hand side
with the surface integral ``R^2 |f(R)|^2`` of a unit-normalized channel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    SupResult,
    UnboundedError,
    integrate_radial,
    sup_over_r,
)

__all__ = [
    "PotentialComponent",
    "ZeroPotential",
    "CoulombPotential",
    "PowerPotential",
    "TablePotential",
    "MollifiedShell",
    "SumPotential",
    "ShellMeasure",
    "PotentialPair",
    "NotInClassAError",
    "PotentialParseError",
    "parse_component",
    "parse_v1_slot",
    "parse_pair",
    "a_plus",
    "a_minus",
    "a_k",
    "tilde_constants",
    "scale_pair",
    "bump",
]


class NotInClassAError(ValueError):
    """A Hardy constant is infinite: the pair is outside the admissible class."""


class PotentialParseError(ValueError):
    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# int_{-1}^{1} _raw_bump(u) du (integrate_radial of _raw_bump(r - 2) on [1, 3])
_BUMP_NORM = 0.4439938161680794
# exp(-1/(1 - u^2)) is subnormal where 1 - u^2 < 1/708.4; a subnormal value has
# no relative precision, and a tail Hardy integrand's s^e amplifies it past
# every relative test, so the bump is 0 from 1 - u^2 = 1/708 outward
_BUMP_EDGE = math.sqrt(1.0 - 1.0 / 708.0)


def bump(u) -> np.ndarray:
    """Smooth even bump supported on [-1, 1] with unit integral."""
    return _raw_bump(u) / _BUMP_NORM


def _raw_bump(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < _BUMP_EDGE
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


class PotentialComponent:
    """Base class for regular radial weights.  Subclasses are immutable."""

    def __call__(self, r):
        raise NotImplementedError

    def derivative(self, r):
        raise NotImplementedError

    def scaled(self, alpha: float) -> "PotentialComponent":
        """The weight alpha*V(alpha*r)."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Radii where the weight is not smooth.  A weight that has any and is
        not a power law is 0 outside their hull: the Hardy integrand integrates
        it only there."""
        return ()

    def is_zero(self) -> bool:
        return False


@dataclass(frozen=True)
class ZeroPotential(PotentialComponent):
    def __call__(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def derivative(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def scaled(self, alpha):
        return self

    def is_zero(self):
        return True


@dataclass(frozen=True)
class CoulombPotential(PotentialComponent):
    """nu / r."""

    nu: float

    def __call__(self, r):
        return self.nu / np.asarray(r, dtype=float)

    def derivative(self, r):
        return -self.nu / np.asarray(r, dtype=float) ** 2

    def scaled(self, alpha):
        return self  # alpha * nu/(alpha r) = nu/r

    def is_zero(self):
        return self.nu == 0.0


@dataclass(frozen=True)
class PowerPotential(PotentialComponent):
    """a * r**p."""

    a: float
    p: float

    def __call__(self, r):
        return self.a * np.asarray(r, dtype=float) ** self.p

    def derivative(self, r):
        return self.a * self.p * np.asarray(r, dtype=float) ** (self.p - 1.0)

    def scaled(self, alpha):
        return PowerPotential(alpha ** (1.0 + self.p) * self.a, self.p)

    def is_zero(self):
        return self.a == 0.0


@dataclass(frozen=True)
class TablePotential(PotentialComponent):
    """Linear interpolation of sampled (r, value) pairs, zero outside."""

    rs: tuple
    values: tuple

    def __post_init__(self):
        rs = np.asarray(self.rs, dtype=float)
        if rs.ndim != 1 or rs.size < 2 or np.any(np.diff(rs) <= 0) or rs[0] <= 0:
            raise ValueError("table abscissae must be strictly increasing and positive")

    @classmethod
    def from_csv(cls, path: str) -> "TablePotential":
        data = np.loadtxt(path, delimiter=",", dtype=float)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError(f"{path}: expected two CSV columns (r, value)")
        return cls(tuple(data[:, 0]), tuple(data[:, 1]))

    def __call__(self, r):
        return np.interp(np.asarray(r, dtype=float), self.rs, self.values,
                         left=0.0, right=0.0)

    def derivative(self, r):
        """Slope of the interpolant's segment, the right-hand one at a sample; 0 outside."""
        rs = np.asarray(self.rs)
        i = rs.searchsorted(np.asarray(r, dtype=float), side="right") - 1
        slopes = np.append(np.diff(self.values) / np.diff(rs), 0.0)
        return np.where(i >= 0, slopes[i], 0.0)

    def scaled(self, alpha):
        rs = tuple(ri / alpha for ri in self.rs)
        vals = tuple(alpha * v for v in self.values)
        return TablePotential(rs, vals)

    def breakpoints(self):
        # every sample is a kink of the interpolant
        return tuple(self.rs)


@dataclass(frozen=True)
class MollifiedShell(PotentialComponent):
    """(c/eps) * bump((r - R)/eps): a smooth annular weight of total mass c."""

    c: float
    eps: float
    R: float

    def __post_init__(self):
        if not (self.eps > 0 and self.R > 0):     # NaN fails too
            raise ValueError(f"mollified shell needs eps > 0 and R > 0, got eps={self.eps!r}, "
                             f"R={self.R!r}")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return (self.c / self.eps) * bump((r - self.R) / self.eps)

    def derivative(self, r):
        u = (np.asarray(r, dtype=float) - self.R) / self.eps
        w = np.maximum(1.0 - u * u, 1e-3)   # the bump is 0 where w < 1/708: no 0 * inf
        return self(r) * (-2.0 * u / (w * w * self.eps))

    def scaled(self, alpha):
        return MollifiedShell(self.c, self.eps / alpha, self.R / alpha)

    def breakpoints(self):
        return (max(self.R - self.eps, 0.0), self.R, self.R + self.eps)

    def is_zero(self):
        return self.c == 0.0


@dataclass(frozen=True)
class SumPotential(PotentialComponent):
    parts: tuple

    def __call__(self, r):
        out = np.zeros_like(np.asarray(r, dtype=float))
        for part in self.parts:
            out = out + part(r)
        return out

    def derivative(self, r):
        out = np.zeros_like(np.asarray(r, dtype=float))
        for part in self.parts:
            out = out + part.derivative(r)
        return out

    def scaled(self, alpha):
        return SumPotential(tuple(p.scaled(alpha) for p in self.parts))

    def breakpoints(self):
        pts = []
        for part in self.parts:
            pts.extend(part.breakpoints())
        return tuple(sorted(set(pts)))

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)


def _leaves(weight: PotentialComponent) -> list:
    """The nonzero summands of a weight, nested sums flattened."""
    if isinstance(weight, SumPotential):
        return [leaf for part in weight.parts for leaf in _leaves(part)]
    return [] if weight.is_zero() else [weight]


def combine(components) -> PotentialComponent:
    parts = [c for c in components if not c.is_zero()]
    if not parts:
        return ZeroPotential()
    if len(parts) == 1:
        return parts[0]
    return SumPotential(tuple(parts))


@dataclass(frozen=True)
class ShellMeasure:
    """Delta shell of mass a at radius R (acts on radial f as a*f(R))."""

    R: float
    a: float

    def __post_init__(self):
        if not (self.R > 0 and self.a > 0):       # NaN fails too
            raise ValueError(f"shell needs R > 0 and a > 0, got R={self.R!r}, a={self.a!r}")


@dataclass(frozen=True)
class PotentialPair:
    """(V1, V2) weight data with coupling constants.

    ``v1_regular`` and ``v2`` are the density parts; ``v1_shells`` lists
    delta shells allowed in the first slot only.  The Hardy constants are
    properties of (V1, V2) alone; ``c1``/``c2`` enter only through the
    coupled inequalities and the extension operator (``w1 = c1 V1``,
    ``w2 = c2 V2``).  ``c1 < 0`` is admitted programmatically to reach the
    sign-definite regime ``w1 <= 0``.
    """

    v1_regular: PotentialComponent = field(default_factory=ZeroPotential)
    v1_shells: tuple = ()
    v2: PotentialComponent = field(default_factory=ZeroPotential)
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        if not 0 <= self.c2 < math.inf:     # NaN fails too
            raise ValueError(f"c2 must be finite and nonnegative, got {self.c2!r}")
        if not math.isfinite(self.c1):
            raise ValueError(f"c1 must be finite, got {self.c1!r}")
        for shell in self.v1_shells:
            # v2 must stay bounded near every shell radius
            probes = shell.R * (1.0 + 1e-2 * np.linspace(-1.0, 1.0, 11))
            if not np.all(np.isfinite(self.v2(probes))):
                raise ValueError(
                    f"v2 is unbounded near the shell radius R={shell.R:g}")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_float(text: str, pos: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise PotentialParseError(f"not a number: {text!r}", pos) from None


def parse_component(text: str, pos: int = 0) -> PotentialComponent:
    """Parse one component term (see the grammar in the docs)."""
    text = text.strip()
    if text == "zero":
        return ZeroPotential()
    if text.startswith("coulomb:"):
        nu = _parse_float(text[len("coulomb:"):], pos)
        if not nu >= 0:     # NaN fails too
            raise PotentialParseError(
                f"coulomb strength must be nonnegative in a weight slot, got {nu!r}", pos)
        return CoulombPotential(nu)
    if text.startswith("power:"):
        body = text[len("power:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise PotentialParseError("power needs two parameters a,p", pos)
        a = _parse_float(parts[0], pos)
        p = _parse_float(parts[1], pos)
        if not a >= 0:
            raise PotentialParseError(
                f"power amplitude must be nonnegative in a weight slot, got {a!r}", pos)
        if math.isnan(p):
            raise PotentialParseError("power exponent must be a number, got nan", pos)
        return PowerPotential(a, p)
    if text.startswith("table:"):
        return TablePotential.from_csv(text[len("table:"):])
    if text.startswith("mshell:"):
        body = text[len("mshell:"):]
        if "@" not in body:
            raise PotentialParseError("mshell needs the form mshell:c,eps@R", pos)
        params, rtext = body.split("@", 1)
        parts = params.split(",")
        if len(parts) != 2:
            raise PotentialParseError("mshell needs two parameters c,eps", pos)
        c = _parse_float(parts[0], pos)
        eps = _parse_float(parts[1], pos)
        R = _parse_float(rtext, pos)
        if not c >= 0:
            raise PotentialParseError(
                f"mshell mass must be nonnegative in a weight slot, got {c!r}", pos)
        return MollifiedShell(c, eps, R)
    raise PotentialParseError(f"unknown component {text!r}", pos)


def _parse_shell(text: str, pos: int) -> ShellMeasure:
    body = text.strip()[len("shell:"):]
    if "@" not in body:
        raise PotentialParseError("shell needs the form shell:a@R", pos)
    atext, rtext = body.split("@", 1)
    return ShellMeasure(R=_parse_float(rtext, pos), a=_parse_float(atext, pos))


def _slot_terms(text: str):
    """(term, position) of each term of a slot joined by '+', in order."""
    pos = 0
    for chunk in text.split("+"):
        term = chunk.strip()
        if not term:
            raise PotentialParseError("empty term", pos)
        yield term, pos
        pos += len(chunk) + 1


def parse_v1_slot(text: str):
    """Parse a v1 slot: components and shells joined by '+'."""
    components = []
    shells = []
    for term, pos in _slot_terms(text):
        if term.startswith("shell:"):
            shells.append(_parse_shell(term, pos))
        else:
            components.append(parse_component(term, pos))
    return combine(components), tuple(shells)


def parse_v2_slot(text: str) -> PotentialComponent:
    components = []
    for term, pos in _slot_terms(text):
        if term.startswith("shell:"):
            raise PotentialParseError("shells are only allowed in the v1 slot", pos)
        components.append(parse_component(term, pos))
    return combine(components)


def parse_pair(v1_text: str, v2_text: str, c1: float = 1.0, c2: float = 1.0) -> PotentialPair:
    v1, shells = parse_v1_slot(v1_text)
    v2 = parse_v2_slot(v2_text)
    if not (c1 >= 0 and c2 >= 0):     # NaN fails too
        raise PotentialParseError(
            f"coupling constants must be nonnegative, got c1={c1!r}, c2={c2!r}")
    return PotentialPair(v1_regular=v1, v1_shells=shells, v2=v2, c1=c1, c2=c2)


# ---------------------------------------------------------------------------
# Hardy constants
# ---------------------------------------------------------------------------

def _hardy_integrand(regular: PotentialComponent, shells, exponent: int):
    """The cumulative Hardy integrand with a signed power, as a function of r.

    For exponent e > 0 this is r^-e * int_0^r V s^e ds with shell terms
    a (R/r)^e for r >= R; for e < 0 the tail integral from r with the
    complementary indicator (and (R/r)^e then increases toward r = R).
    e = 2 and -2 give the forward/backward constants, e = 2(k+1) the
    channel constants and the channel weights g_k/h_k.

    The weight is split into its summands, nested sums flattened.  A power
    law a s^p with p = -1 (a Coulomb term nu/s) adds a/|e| in closed form;
    any other power makes the integrand grow like r^(p+1), or its moment
    diverge, toward r -> 0 if p < -1 and toward infinity otherwise, and
    raises :class:`UnboundedError` naming that end.  The rest (tables,
    mollified shells) vanishes outside the hull of its breakpoints, so only
    there is it integrated, with radii clipped to the hull, and not at all
    when there is no rest.  It takes an array of radii.  The first call
    integrates them as consecutive segments from the hull's start (to its
    end, for the tail) in one ``integrate_radial`` call and keeps the prefix
    sums as anchors; later calls integrate from the nearest anchor.  So a
    supremum costs one segmented quadrature over its scan and candidates
    (shell radii, breakpoints) inside the hull plus a short segment per
    Newton step; ``_hardy_slope`` gives the steps' derivatives from the values.
    """
    forward = exponent > 0
    leaves = _leaves(regular)
    power_law = (CoulombPotential, PowerPotential)
    for leaf in leaves:
        if isinstance(leaf, PowerPotential) and leaf.p != -1.0:
            raise UnboundedError(f"supremum grows without bound toward {'r->0' if leaf.p < -1.0 else 'r->inf'}")
    strengths = [leaf.nu if isinstance(leaf, CoulombPotential) else leaf.a
                 for leaf in leaves if isinstance(leaf, power_law)]
    rest = combine([leaf for leaf in leaves if not isinstance(leaf, power_law)])
    zero = rest.is_zero()
    bps = rest.breakpoints()
    lo, hi = (min(bps), max(bps)) if bps else (0.0, math.inf)
    anchor_r = np.array([lo if forward else hi])
    anchor_int = np.zeros(1)

    def weighted(s):
        return rest(s) * s ** exponent

    def cumulative(r: np.ndarray) -> np.ndarray:
        nonlocal anchor_r, anchor_int
        r = np.minimum(np.maximum(r, lo), hi)
        q = np.sort(r, axis=None)
        if forward:
            i = anchor_r.searchsorted(q[0], side="right") - 1
            parts, _ = integrate_radial(weighted, np.concatenate([anchor_r[i:i + 1], q]), bps)
            acc = anchor_int[i] + parts.cumsum()
            if anchor_r.size == 1:
                anchor_r, anchor_int = np.append(lo, q), np.append(0.0, acc)
        else:
            i = anchor_r.searchsorted(q[-1])
            parts, _ = integrate_radial(weighted, np.concatenate([q, anchor_r[i:i + 1]]), bps)
            acc = anchor_int[i] + parts[::-1].cumsum()[::-1]
            if anchor_r.size == 1:
                anchor_r, anchor_int = np.append(q, hi), np.append(acc, 0.0)
        return acc[q.searchsorted(r)]

    def integrand(r):
        r = np.asarray(r, dtype=float)
        if not (0.0 < r.min() and r.max() < math.inf):
            raise ValueError("radii must be positive and finite")
        total = np.zeros_like(r) if zero else cumulative(r) / r ** exponent
        for a in strengths:
            total = total + a / abs(exponent)
        for shell in shells:
            side = r >= shell.R if forward else r <= shell.R
            total = total + np.where(side, shell.a * (shell.R / r) ** exponent, 0.0)
        return total

    return integrand


def _hardy_slope(regular: PotentialComponent, exponent: int):
    """p = r g' = +-r V - e g of the Hardy integrand g (+ forward, - tail; shell
    terms are in g) and dp/d(ln r) = +-(r V + r^2 V') - e p, from g's values."""
    sign = 1.0 if exponent > 0 else -1.0

    def slope(r, g):
        rv = sign * r * regular(r)
        p = rv - exponent * g
        return p, rv + sign * r * r * regular.derivative(r) - exponent * p

    return slope


def _sup_of_weight(regular: PotentialComponent, shells, exponent: int) -> SupResult:
    """sup over r of the cumulative Hardy integrand (``_hardy_integrand``)."""
    bps = regular.breakpoints()
    candidates = [s.R for s in shells] + [b for b in bps if b > 0]
    try:
        return sup_over_r(_hardy_integrand(regular, shells, exponent),
                          _hardy_slope(regular, exponent), candidates=tuple(candidates))
    except UnboundedError as exc:
        raise NotInClassAError(f"not in class A: {exc}") from exc


@functools.lru_cache(maxsize=1024)
def _a_exponent_cached(v1_regular, v1_shells, v2, exponent: int) -> float:
    total = combine([v1_regular, v2])
    return _sup_of_weight(total, v1_shells, exponent).value


def a_plus(pair: PotentialPair) -> float:
    """The forward Hardy constant of the pair (shell terms included)."""
    return _a_exponent_cached(pair.v1_regular, pair.v1_shells, pair.v2, 2)


def a_minus(pair: PotentialPair) -> float:
    """The backward (tail) Hardy constant of the pair."""
    return _a_exponent_cached(pair.v1_regular, pair.v1_shells, pair.v2, -2)


def a_k(pair: PotentialPair, k: int) -> float:
    """Per-channel Hardy constant.

    k >= 0 uses the forward integral with power 2(k+1); k <= -2 uses the
    tail integral with the same power, the form consistent with
    ``a_k(pair, 0) == a_plus`` and ``a_k(pair, -2) == a_minus``.
    """
    if not float(k).is_integer():     # int(k) would take 0.7 to channel 0
        raise ValueError(f"k must be an integer, got {k!r}")
    k = int(k)
    if k == -1:
        raise ValueError("k = -1 is not a spin-orbit channel")
    return _a_exponent_cached(pair.v1_regular, pair.v1_shells, pair.v2, 2 * (k + 1))


def tilde_constants(pair: PotentialPair) -> tuple[float, float]:
    """Separately-scaled constants: the sum of the two single-weight suprema.

    Always at least as large as the joint constants.
    """
    v1_plus = _sup_of_weight(pair.v1_regular, pair.v1_shells, 2).value
    v2_plus = _sup_of_weight(pair.v2, (), 2).value
    v1_minus = _sup_of_weight(pair.v1_regular, pair.v1_shells, -2).value
    v2_minus = _sup_of_weight(pair.v2, (), -2).value
    return v1_plus + v2_plus, v1_minus + v2_minus


def scale_pair(pair: PotentialPair, alpha: float) -> PotentialPair:
    """The rescaled pair V^alpha(r) = alpha V(alpha r); A+/A- are invariant."""
    if not 0.0 < alpha < math.inf:     # NaN fails too
        raise ValueError(f"scaling parameter must be positive and finite, got {alpha!r}")
    return PotentialPair(
        v1_regular=pair.v1_regular.scaled(alpha),
        # mass is preserved under the radial a*f(R) convention
        v1_shells=tuple(ShellMeasure(R=s.R / alpha, a=s.a) for s in pair.v1_shells),
        v2=pair.v2.scaled(alpha),
        c1=pair.c1,
        c2=pair.c2,
    )
