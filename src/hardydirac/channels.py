"""Spin-orbit channel algebra for two-spinor fields.

A field is a finite sum of channel terms f_k(r) Omega_k, where Omega_k is a
unit-normalized angular spinor with spin-orbit eigenvalue k (k integer,
k != -1).  On such a term the operator sigma.grad acts radially as

    f  ->  f'(r) - k f(r) / r

carried on the partner angular spinor (sigma.x_hat) Omega_k, whose
spin-orbit eigenvalue is -k-2.  Every channel is handled purely radially:
no angular spinor is ever evaluated.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .numerics import RadialGrid, integrate_radial
from .potentials import PotentialComponent

__all__ = [
    "Channel",
    "ProfileTerm",
    "ClosedFormProfile",
    "GridProfile",
    "SpinorField",
    "exp_profile",
    "gauss_profile",
    "field_norm_weighted",
    "sigma_grad_norm_weighted",
    "parse_profile",
    "parse_field_term",
    "build_field",
]


@dataclass(frozen=True)
class Channel:
    """A spin-orbit channel: eigenvalue k, never -1."""

    k: int

    def __post_init__(self):
        if self.k == -1:
            raise ValueError("k = -1 is not in the spin-orbit spectrum")

    @property
    def l(self) -> int:
        """Orbital index of the channel's angular spinor."""
        return self.k if self.k >= 0 else -self.k - 1


@dataclass(frozen=True)
class ProfileTerm:
    """One closed-form term coef * r**p * exp(-a r) or exp(-a r^2)."""

    coef: complex
    p: float
    a: float
    kind: str  # "exp" or "gauss"

    def __post_init__(self):
        if self.kind not in ("exp", "gauss"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not self.a > 0:      # NaN fails too
            raise ValueError(f"decay rate must be positive, got {self.a!r}")
        if not 2.0 * self.p + 2.0 > -1.0:
            raise ValueError(f"r^{self.p} is not square integrable with weight r^2")


@dataclass(frozen=True)
class ClosedFormProfile:
    """Finite sum of monomial-exponential terms; closed under d/dr and f - k f/r."""

    terms: tuple

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape, dtype=complex)
        lr = np.log(r)
        for t in self.terms:
            decay = r if t.kind == "exp" else r * r
            out += t.coef * np.exp(t.p * lr - t.a * decay)
        return out if out.ndim else out[()]

    def reduced(self, k: int) -> "ClosedFormProfile":
        """The profile of f' - k f / r (k = 0 gives f'), like terms merged."""
        merged = {}
        for t in self.terms:
            new = [(-t.coef * t.a, t.p) if t.kind == "exp" else (-2.0 * t.coef * t.a, t.p + 1.0)]
            if t.p != k:
                new.insert(0, (t.coef * (t.p - k), t.p - 1.0))
            for coef, p in new:
                if coef != 0:
                    key = (p, t.a, t.kind)
                    merged[key] = merged.get(key, 0.0 + 0.0j) + complex(coef)
        return ClosedFormProfile(tuple(ProfileTerm(c, p, a, kind)
                                       for (p, a, kind), c in merged.items() if c != 0))

    def _real_with_slope(self, r: np.ndarray, t: np.ndarray, slope: bool = True):
        """Real parts of f and f' (None unless ``slope``) at radii r > 0 with
        logs t, from one exponential per term: f' is c (p/r - a) r^p e^(-a r),
        or c (p/r - 2 a r) r^p e^(-a r^2).  It builds no profile, so unlike
        ``reduced`` it also takes an f whose f' is not square integrable at
        the origin (a load that is only sampled on a grid)."""
        f, df = np.zeros((2,) + r.shape) if slope else (np.zeros(r.shape), None)
        for term in self.terms:
            gauss = term.kind == "gauss"
            e = np.exp(term.p * t - term.a * (r * r if gauss else r))
            e *= term.coef.real
            f += e
            if slope:
                e *= term.p / r - (2.0 * term.a * r if gauss else term.a)
                df += e
        return f, df

    def scaled(self, coef: complex) -> "ClosedFormProfile":
        return ClosedFormProfile(tuple(
            ProfileTerm(t.coef * coef, t.p, t.a, t.kind) for t in self.terms))


def exp_profile(p: float, a: float, coef: complex = 1.0) -> ClosedFormProfile:
    """coef * r**p * exp(-a r)."""
    return ClosedFormProfile((ProfileTerm(complex(coef), float(p), float(a), "exp"),))


def gauss_profile(p: float, a: float, coef: complex = 1.0) -> ClosedFormProfile:
    """coef * r**p * exp(-a r^2)."""
    return ClosedFormProfile((ProfileTerm(complex(coef), float(p), float(a), "gauss"),))


@dataclass(frozen=True, eq=False)
class GridProfile:
    """Radial samples at the nodes of a grid, as a weak solve returns them."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != (self.grid.n,):
            raise ValueError("values must match the grid")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SpinorField:
    """Finite channel expansion: tuple of (Channel, profile), one term per k."""

    terms: tuple

    def __post_init__(self):
        ks = [ch.k for ch, _ in self.terms]
        if len(set(ks)) != len(ks):
            raise ValueError("duplicate channel in field")

    @classmethod
    def single(cls, k: int, profile) -> "SpinorField":
        return cls(((Channel(k), profile),))

    def sorted_terms(self):
        return sorted(self.terms, key=lambda item: item[0].k)


# The last field integrated: its sorted terms, its profiles by kind (0: f_k,
# 1: f_k' - k f_k/r) and up to _MAX_RADII sets of radii (least recently used
# first), each with the densities |.|^2 of each kind sampled there.
_MAX_RADII = 4
_samples = (None, {}, [])
_samples_lock = threading.Lock()


def _channel_integrals(field: SpinorField, mass_weights=(), grad_weights=(),
                       edges=(0.0, math.inf)) -> np.ndarray:
    """Integrals between ``edges`` of w |f_k|^2 r^2 for each of ``mass_weights``
    and w |f_k' - k f_k/r|^2 r^2 for each of ``grad_weights``, per channel
    term in ascending k, as (weights, channels, segments), from one call that
    evaluates each profile at most once per sweep.  A weight is a callable, a
    potential component (its breakpoints cut every integral) or None (unit);
    one that ``is_zero()`` gives exact zeros unevaluated.  A density depends
    on the field and r alone, so a sweep handed radii that the last field (or
    an equal one) was sampled at, as every first sweep over the same edges
    and breakpoints is, samples only the densities missing there; results are
    bit for bit those of a fresh evaluation."""
    global _samples
    terms = field.sorted_terms()
    sides = [(w, 0) for w in mass_weights] + [(w, 1) for w in grad_weights]
    out = np.zeros((len(sides), len(terms), len(edges) - 1))
    live = [i for i, (w, _) in enumerate(sides) if not getattr(w, "is_zero", bool)()]
    if not (terms and live):
        return out
    sides = [sides[i] for i in live]
    if _samples[0] != terms:
        _samples = (terms, {}, [])
    _, profiles, sampled = _samples
    kinds = {kind for _, kind in sides}
    for kind in kinds - profiles.keys():
        profiles[kind] = [p.reduced(ch.k) if kind else p for ch, p in terms]
    bps = [b for w, _ in sides if isinstance(w, PotentialComponent) for b in w.breakpoints()]

    def integrand(r):
        with _samples_lock:     # find the radii and move them last in one step
            i = next((i for i, (radii, _) in enumerate(sampled)
                      if radii.shape == r.shape and np.array_equal(radii, r)), None)
            sampled.append((r, {}) if i is None else sampled.pop(i))
            del sampled[:-_MAX_RADII]
            dens = sampled[-1][1]
        for kind in kinds - dens.keys():
            dens[kind] = np.array([np.abs(p(r)) ** 2 for p in profiles[kind]])
        return np.concatenate([(dens[kind] if w is None else w(r) * dens[kind]) * r * r
                               for w, kind in sides])

    values, _ = integrate_radial(integrand, edges, bps)
    out[live] = values.reshape(len(live), len(terms), -1)
    return out


def field_norm_weighted(field: SpinorField, weight=None) -> float:
    """sum_k int W |f_k|^2 r^2 dr.

    ``weight`` may be a callable of r, a potential component or None (the
    unit weight).  Additive over channels by construction; terms are summed
    in ascending k.
    """
    (values,) = _channel_integrals(field, [weight])
    return sum(values[:, 0].tolist(), 0.0)


def _with_shells(field: SpinorField, shells, values) -> list:
    """Per channel term f_k (ascending k): ``values`` plus a R^2 |f_k(R)|^2 per shell."""
    out = []
    for (_, prof), value in zip(field.sorted_terms(), values):
        for shell in shells:
            value += shell.a * shell.R ** 2 * abs(prof(shell.R)) ** 2
        out.append(value)
    return out


def sigma_grad_norm_weighted(field: SpinorField, weight=None) -> float:
    """sum_k int W |f_k' - k f_k / r|^2 r^2 dr."""
    (values,) = _channel_integrals(field, grad_weights=[weight])
    return sum(values[:, 0].tolist(), 0.0)


# ---------------------------------------------------------------------------
# profile grammar
# ---------------------------------------------------------------------------

def parse_profile(text: str) -> ClosedFormProfile:
    """Parse "exp:p,a" -> r^p e^{-a r} or "gauss:p,a" -> r^p e^{-a r^2}."""
    text = text.strip()
    for prefix, builder in (("exp:", exp_profile), ("gauss:", gauss_profile)):
        if text.startswith(prefix):
            parts = text[len(prefix):].split(",")
            if len(parts) != 2:
                raise ValueError(f"profile {text!r} needs two parameters p,a")
            return builder(float(parts[0]), float(parts[1]))
    raise ValueError(f"unknown profile {text!r}")


def parse_field_term(text: str):
    """Parse "k=<int>:<profile>" into (k, profile)."""
    text = text.strip()
    if not text.startswith("k="):
        raise ValueError(f"field term {text!r} must start with 'k='")
    head, _, rest = text[2:].partition(":")
    return int(head), parse_profile(rest)


def build_field(term_texts) -> SpinorField:
    terms = []
    for text in term_texts:
        k, prof = parse_field_term(text)
        terms.append((Channel(k), prof))
    return SpinorField(tuple(terms))
