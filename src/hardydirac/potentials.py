"""Diagonal potential data and the two-weight Hardy constants.

A potential pair holds a regular radial weight plus optional delta shells in
the first slot, a regular weight in the second slot, and coupling constants.
The constants ``A_+``, ``A_-`` are suprema over r of cumulative weighted
integrals; per-channel constants ``A_k`` generalize them with powers
``2(k+1)``.

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
    QuadratureError,
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
    "HardyConstants",
    "NotInClassAError",
    "PotentialParseError",
    "parse_component",
    "parse_v1_slot",
    "parse_pair",
    "a_plus",
    "a_minus",
    "a_k",
    "tilde_constants",
    "hardy_constants",
    "scale_pair",
    "bump",
]


class NotInClassAError(ValueError):
    """A Hardy constant is infinite: the pair is outside the admissible class."""


class PotentialParseError(ValueError):
    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@functools.cache
def _bump_norm() -> float:
    return integrate_radial(lambda r: _raw_bump(r - 2.0), a=1.0, b=3.0).value


def bump(u) -> np.ndarray:
    """Smooth even bump supported on [-1, 1] with unit integral."""
    norm = _bump_norm()
    u = np.asarray(u, dtype=float)
    return _raw_bump(u) / norm


def _raw_bump(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
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
        """Radii where the weight is not smooth."""
        return ()

    def spec_str(self) -> str:
        raise NotImplementedError

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

    def spec_str(self):
        return "zero"

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

    def spec_str(self):
        return f"coulomb:{self.nu!r}"

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

    def spec_str(self):
        return f"power:{self.a!r},{self.p!r}"

    def is_zero(self):
        return self.a == 0.0


@dataclass(frozen=True)
class TablePotential(PotentialComponent):
    """Linear interpolation of sampled (r, value) pairs, zero outside."""

    rs: tuple
    values: tuple
    path: str | None = None

    def __post_init__(self):
        rs = np.asarray(self.rs, dtype=float)
        if rs.ndim != 1 or rs.size < 2 or np.any(np.diff(rs) <= 0) or rs[0] <= 0:
            raise ValueError("table abscissae must be strictly increasing and positive")

    @classmethod
    def from_csv(cls, path: str) -> "TablePotential":
        data = np.loadtxt(path, delimiter=",", dtype=float)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError(f"{path}: expected two CSV columns (r, value)")
        return cls(tuple(data[:, 0]), tuple(data[:, 1]), path=path)

    def __call__(self, r):
        return np.interp(np.asarray(r, dtype=float), self.rs, self.values,
                         left=0.0, right=0.0)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        eps = 1e-7 * np.maximum(r, 1e-30)
        return (self(r + eps) - self(r - eps)) / (2.0 * eps)

    def scaled(self, alpha):
        rs = tuple(ri / alpha for ri in self.rs)
        vals = tuple(alpha * v for v in self.values)
        return TablePotential(rs, vals, path=None)

    def breakpoints(self):
        # every interior sample is a kink of the interpolant; cap the count
        # so huge tables do not fragment the quadrature
        if len(self.rs) <= 128:
            return tuple(self.rs)
        step = len(self.rs) // 64
        return tuple(self.rs[::step]) + (self.rs[-1],)

    def spec_str(self):
        if self.path is None:
            raise ValueError("scaled or in-memory tables have no spec string")
        return f"table:{self.path}"


@dataclass(frozen=True)
class MollifiedShell(PotentialComponent):
    """(c/eps) * bump((r - R)/eps): a smooth annular weight of total mass c."""

    c: float
    eps: float
    R: float

    def __post_init__(self):
        if self.eps <= 0 or self.R <= 0:
            raise ValueError("mollified shell needs eps > 0 and R > 0")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return (self.c / self.eps) * bump((r - self.R) / self.eps)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        eps = 1e-8 * self.eps
        return (self(r + eps) - self(r - eps)) / (2.0 * eps)

    def scaled(self, alpha):
        return MollifiedShell(self.c, self.eps / alpha, self.R / alpha)

    def breakpoints(self):
        return (max(self.R - self.eps, 0.0), self.R, self.R + self.eps)

    def spec_str(self):
        return f"mshell:{self.c!r},{self.eps!r}@{self.R!r}"

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

    def spec_str(self):
        return " + ".join(p.spec_str() for p in self.parts)

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)


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
        if self.R <= 0 or self.a <= 0:
            raise ValueError("shell needs R > 0 and a > 0")

    def spec_str(self) -> str:
        return f"shell:{self.a!r}@{self.R!r}"


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
        if self.c2 < 0:
            raise ValueError("c2 must be nonnegative")
        for shell in self.v1_shells:
            # v2 must stay bounded near every shell radius
            probes = shell.R * (1.0 + 1e-2 * np.linspace(-1.0, 1.0, 11))
            if not np.all(np.isfinite(self.v2(probes))):
                raise ValueError(
                    f"v2 is unbounded near the shell radius R={shell.R:g}")

    def breakpoints(self) -> tuple[float, ...]:
        pts = set(self.v1_regular.breakpoints()) | set(self.v2.breakpoints())
        pts |= {s.R for s in self.v1_shells}
        return tuple(sorted(pts))

    def spec_str(self) -> str:
        v1 = " + ".join([self.v1_regular.spec_str()]
                        + [s.spec_str() for s in self.v1_shells])
        return f"--v1 {v1} --v2 {self.v2.spec_str()} --c1 {self.c1!r} --c2 {self.c2!r}"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_float(text: str, pos: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise PotentialParseError(f"not a number: {text!r}", pos) from None


def parse_component(text: str, pos: int = 0, weight_slot: bool = True) -> PotentialComponent:
    """Parse one component term (see the grammar in the docs)."""
    text = text.strip()
    if text == "zero":
        return ZeroPotential()
    if text.startswith("coulomb:"):
        nu = _parse_float(text[len("coulomb:"):], pos)
        if weight_slot and nu < 0:
            raise PotentialParseError("coulomb strength must be nonnegative in a weight slot", pos)
        return CoulombPotential(nu)
    if text.startswith("power:"):
        body = text[len("power:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise PotentialParseError("power needs two parameters a,p", pos)
        a = _parse_float(parts[0], pos)
        p = _parse_float(parts[1], pos)
        if weight_slot and a < 0:
            raise PotentialParseError("power amplitude must be nonnegative in a weight slot", pos)
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
        if weight_slot and c < 0:
            raise PotentialParseError("mshell mass must be nonnegative in a weight slot", pos)
        return MollifiedShell(c, eps, R)
    raise PotentialParseError(f"unknown component {text!r}", pos)


def _parse_shell(text: str, pos: int) -> ShellMeasure:
    body = text.strip()[len("shell:"):]
    if "@" not in body:
        raise PotentialParseError("shell needs the form shell:a@R", pos)
    atext, rtext = body.split("@", 1)
    return ShellMeasure(R=_parse_float(rtext, pos), a=_parse_float(atext, pos))


def parse_v1_slot(text: str):
    """Parse a v1 slot: components and shells joined by '+'."""
    components = []
    shells = []
    pos = 0
    for chunk in text.split("+"):
        term = chunk.strip()
        if not term:
            raise PotentialParseError("empty term", pos)
        if term.startswith("shell:"):
            shells.append(_parse_shell(term, pos))
        else:
            components.append(parse_component(term, pos))
        pos += len(chunk) + 1
    return combine(components), tuple(shells)


def parse_v2_slot(text: str) -> PotentialComponent:
    components = []
    pos = 0
    for chunk in text.split("+"):
        term = chunk.strip()
        if not term:
            raise PotentialParseError("empty term", pos)
        if term.startswith("shell:"):
            raise PotentialParseError("shells are only allowed in the v1 slot", pos)
        components.append(parse_component(term, pos))
        pos += len(chunk) + 1
    return combine(components)


def parse_pair(v1_text: str, v2_text: str, c1: float = 1.0, c2: float = 1.0) -> PotentialPair:
    v1, shells = parse_v1_slot(v1_text)
    v2 = parse_v2_slot(v2_text)
    if c1 < 0 or c2 < 0:
        raise PotentialParseError("coupling constants must be nonnegative")
    return PotentialPair(v1_regular=v1, v1_shells=shells, v2=v2, c1=c1, c2=c2)


# ---------------------------------------------------------------------------
# Hardy constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HardyConstants:
    a_plus: float
    a_minus: float
    a_tilde_plus: float
    a_tilde_minus: float
    per_channel: dict = field(default_factory=dict)


def _hardy_integrand(regular: PotentialComponent, shells, exponent: int):
    """The cumulative Hardy integrand with a signed power, as a function of r.

    For exponent e > 0 this is r^-e * int_0^r V s^e ds with shell terms
    a (R/r)^e for r >= R; for e < 0 the tail integral from r with the
    complementary indicator (and (R/r)^e then increases toward r = R).
    e = 2 and -2 give the forward/backward constants, e = 2(k+1) the
    channel constants and the channel weights g_k/h_k.
    """
    bps = regular.breakpoints()
    zero = regular.is_zero()
    forward = exponent > 0

    def integrand(r: float) -> float:
        total = 0.0
        if not zero:
            if forward:
                part = integrate_radial(lambda s: regular(s) * s ** exponent,
                                        a=0.0, b=r, breakpoints=bps).value
            else:
                part = integrate_radial(lambda s: regular(s) * s ** exponent,
                                        a=r, b=math.inf, breakpoints=bps).value
            total += part / r ** exponent
        for shell in shells:
            if (forward and r >= shell.R) or (not forward and r <= shell.R):
                total += shell.a * (shell.R / r) ** exponent
        return total

    return integrand


def _sup_of_weight(regular: PotentialComponent, shells, exponent: int) -> SupResult:
    """sup over r of the cumulative Hardy integrand (``_hardy_integrand``)."""
    bps = regular.breakpoints()
    candidates = [s.R for s in shells] + [b for b in bps if b > 0]
    try:
        return sup_over_r(_hardy_integrand(regular, shells, exponent),
                          candidates=tuple(candidates))
    except (UnboundedError, QuadratureError) as exc:
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


def _a_k_cached(v1_regular, v1_shells, v2, k: int) -> float:
    if k == -1:
        raise ValueError("k = -1 is not a spin-orbit channel")
    return _a_exponent_cached(v1_regular, v1_shells, v2, 2 * (k + 1))


def a_k(pair: PotentialPair, k: int) -> float:
    """Per-channel Hardy constant.

    k >= 0 uses the forward integral with power 2(k+1); k <= -2 uses the
    tail integral with the same power, the form consistent with
    ``a_k(pair, 0) == a_plus`` and ``a_k(pair, -2) == a_minus``.
    """
    return _a_k_cached(pair.v1_regular, pair.v1_shells, pair.v2, int(k))


def tilde_constants(pair: PotentialPair) -> tuple[float, float]:
    """Separately-scaled constants: the sum of the two single-weight suprema.

    Always at least as large as the joint constants.
    """
    v1_plus = _sup_of_weight(pair.v1_regular, pair.v1_shells, 2).value
    v2_plus = _sup_of_weight(pair.v2, (), 2).value
    v1_minus = _sup_of_weight(pair.v1_regular, pair.v1_shells, -2).value
    v2_minus = _sup_of_weight(pair.v2, (), -2).value
    return v1_plus + v2_plus, v1_minus + v2_minus


def hardy_constants(pair: PotentialPair, k_values=()) -> HardyConstants:
    ap = a_plus(pair)
    am = a_minus(pair)
    tp, tm = tilde_constants(pair)
    table = {int(k): a_k(pair, int(k)) for k in k_values}
    return HardyConstants(ap, am, tp, tm, table)


def scale_shell(shell: ShellMeasure, alpha: float) -> ShellMeasure:
    # mass is preserved under the radial a*f(R) convention
    return ShellMeasure(R=shell.R / alpha, a=shell.a)


def scale_pair(pair: PotentialPair, alpha: float) -> PotentialPair:
    """The rescaled pair V^alpha(r) = alpha V(alpha r); A+/A- are invariant."""
    if alpha <= 0:
        raise ValueError("scaling parameter must be positive")
    return PotentialPair(
        v1_regular=pair.v1_regular.scaled(alpha),
        v1_shells=tuple(scale_shell(s, alpha) for s in pair.v1_shells),
        v2=pair.v2.scaled(alpha),
        c1=pair.c1,
        c2=pair.c2,
    )
