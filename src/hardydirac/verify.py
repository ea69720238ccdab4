"""Numerical verification of the two-weight Hardy-Dirac inequalities.

The master inequality bounds the V1-weighted mass of a spinor field by the
squared worst Hardy constant times a weighted gradient term plus a gamma
mass term; per channel the sharper constant A_k applies.  The coupled
variant trades gamma for a spectral parameter lambda inside the mass gap.
An infinite right-hand side makes the inequality vacuous, and is reported
as satisfied with a flag rather than as a failure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    Channel,
    SpinorField,
    _channel_integrals,
    _with_shells,
    exp_profile,
    field_norm_weighted,
)
from .numerics import QuadratureError
from .potentials import PotentialPair, a_k, a_minus, a_plus

__all__ = [
    "ChannelCheck",
    "InequalityReport",
    "NormEquivalenceCheck",
    "HypothesisViolationError",
    "verify_theorem",
    "select_lambda",
    "verify_corollary",
    "mollified_delta_experiment",
    "MollifiedRow",
    "random_field_gallery",
    "standard_pair_gallery",
]


# relative slack of "satisfied": ratio <= 1 + _TOL
_TOL = 1e-8


class HypothesisViolationError(ValueError):
    """The coupling product exceeds the admissible threshold."""


@dataclass(frozen=True)
class ChannelCheck:
    lhs: float
    rhs: float
    ratio: float
    constant: float  # the squared channel constant entering rhs


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    ratio: float
    satisfied: bool
    vacuous: bool = False
    constant: float = 0.0      # global squared constant
    gamma: float | None = None
    lam: float | None = None
    per_channel: dict = field(default_factory=dict)
    norm_equivalence: "NormEquivalenceCheck | None" = None

    def to_dict(self) -> dict:
        out = {
            "lhs": self.lhs,
            "rhs": self.rhs if math.isfinite(self.rhs) else "inf",
            "ratio": self.ratio,
            "satisfied": self.satisfied,
            "vacuous": self.vacuous,
            "constant": self.constant,
            "per_channel": {
                str(k): {"lhs": c.lhs, "rhs": c.rhs, "ratio": c.ratio,
                         "constant": c.constant}
                for k, c in sorted(self.per_channel.items())
            },
        }
        if self.gamma is not None:
            out["gamma"] = self.gamma
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.norm_equivalence is not None:
            out["norm_equivalence"] = self.norm_equivalence.to_dict()
        return out


@dataclass(frozen=True)
class NormEquivalenceCheck:
    """The epsilon-margin inequality behind the norm equivalence."""

    epsilon: float
    lam: float
    lhs: float
    rhs: float
    satisfied: bool

    def to_dict(self) -> dict:
        return {"epsilon": self.epsilon, "lambda": self.lam,
                "lhs": self.lhs, "rhs": self.rhs, "satisfied": self.satisfied}


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


@functools.lru_cache(maxsize=4096)
def _lhs_cached(pair: PotentialPair, field_: SpinorField) -> tuple:
    """The lhs entry of every channel (ascending k), from one quadrature call."""
    (values,) = _channel_integrals(field_, [pair.v1_regular])
    return tuple(_with_shells(field_, pair.v1_shells, values[:, 0].tolist()))


def _v2_state(pair: PotentialPair) -> str:
    """'positive', 'zero', or 'mixed' on a log probe grid."""
    rs = np.exp(np.linspace(math.log(1e-8), math.log(1e8), 161))
    extra = [b for b in pair.v2.breakpoints() if b > 0]
    if extra:
        rs = np.concatenate([rs, np.asarray(extra, dtype=float)])
    vals = np.asarray(pair.v2(rs), dtype=float)
    if np.all(vals > 0.0):
        return "positive"
    if np.all(vals == 0.0):
        return "zero"
    return "mixed"


def _check_gamma(gamma: float) -> None:
    if not gamma >= 0.0:    # NaN fails too
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")
    if gamma == math.inf:
        raise ValueError(f"gamma must be finite, got {gamma!r}")


def _check_mass(m: float) -> None:
    if not 0.0 < m < math.inf:      # NaN fails too
        raise ValueError(f"mass must be positive and finite, got {m!r}")


def verify_theorem(pair: PotentialPair, field_: SpinorField, gamma: float) -> InequalityReport:
    """Check the master inequality and its per-channel sharpenings.

    The global sides are assembled from the per-channel pieces, so the
    reported lhs equals the sum of the channel lhs entries exactly; the
    global rhs uses max{A+^2, A-^2} where the channel entries use A_k^2.
    ``gamma`` must be >= 0.
    """
    _check_gamma(gamma)
    maxsq = max(a_plus(pair), a_minus(pair)) ** 2
    lhs_k = _lhs_cached(pair, field_)
    lhs = sum(lhs_k, 0.0)

    if gamma == 0.0:
        state = _v2_state(pair)
        if state == "zero":
            raise ValueError("gamma = 0 requires V2 > 0 almost everywhere")
        if state == "mixed":
            return InequalityReport(lhs=lhs, rhs=math.inf, ratio=0.0,
                                    satisfied=True, vacuous=True,
                                    constant=maxsq, gamma=gamma)

    try:
        # every channel's gradient and (gamma > 0) mass integral in one call
        *mass, grad = _channel_integrals(field_, [None] if gamma > 0 else [],
                                         [lambda r: 1.0 / (pair.v2(r) + gamma)])[..., 0].tolist()
    except (QuadratureError, ValueError):
        return InequalityReport(lhs=lhs, rhs=math.inf, ratio=0.0,
                                satisfied=True, vacuous=True,
                                constant=maxsq, gamma=gamma)
    mass = mass[0] if mass else [0.0] * len(grad)
    per_channel = {}
    for (ch, _), lhs_c, grad_c, mass_c in zip(field_.sorted_terms(), lhs_k, grad, mass):
        ak = a_k(pair, ch.k)
        rhs_c = ak ** 2 * grad_c + gamma * mass_c
        per_channel[ch.k] = ChannelCheck(lhs_c, rhs_c, _ratio(lhs_c, rhs_c), ak ** 2)

    rhs = maxsq * sum(grad, 0.0) + gamma * sum(mass, 0.0)
    ratio = _ratio(lhs, rhs)
    return InequalityReport(lhs=lhs, rhs=rhs, ratio=ratio,
                            satisfied=ratio <= 1.0 + _TOL, constant=maxsq,
                            gamma=gamma, per_channel=per_channel)


def select_lambda(c1: float, c2: float, m: float) -> float:
    """Midpoint of the admissible lambda interval for the coupled inequality.

    The coupling condition reads c1/c2 <= (m+lambda)/(m-lambda); the
    smallest admissible lambda is m(c1-c2)/(c1+c2) (clamped at 0), and the
    midpoint between it and m balances the conditioning of both weights.
    """
    _check_mass(m)
    if c1 <= 0 or c2 <= 0:
        raise ValueError("need positive c1, c2")
    lam_min = max(0.0, m * (c1 - c2) / (c1 + c2))
    return 0.5 * (lam_min + m)


def verify_corollary(pair: PotentialPair, field_: SpinorField, m: float,
                     lam: float | None = None) -> InequalityReport:
    """Check the coupled inequality at the selected lambda.

    Requires c1 c2 <= 1/max{A+^2, A-^2}; a violated hypothesis raises
    rather than reporting an unsatisfied inequality.  With strict margin
    the epsilon norm-equivalence inequality is evaluated as well.
    """
    _check_mass(m)
    c1, c2 = pair.c1, pair.c2
    if c1 <= 0 or c2 <= 0:
        raise ValueError("the coupled inequality needs positive c1, c2")
    maxsq = max(a_plus(pair), a_minus(pair)) ** 2
    if maxsq > 0.0 and c1 * c2 > 1.0 / maxsq * (1.0 + 1e-12):
        raise HypothesisViolationError(
            f"c1*c2 = {c1 * c2:g} exceeds 1/max(A+^2, A-^2) = {1.0 / maxsq:g}")
    if lam is None:
        lam = select_lambda(c1, c2, m)
    if not (-m < lam < m):
        raise ValueError("lambda must lie in (-m, m)")

    v2 = pair.v2
    weights = [lambda r: 1.0 / (m + c2 * v2(r) - lam)]
    if maxsq > 0.0 and c1 * c2 * maxsq < 1.0:
        eps = min(1.0 / (c1 * c2 * maxsq) - 1.0, 1e3)
        lam_eps = select_lambda((1.0 + eps) * c1, c2, m)
        weights.append(lambda r: 1.0 / (m + c2 * v2(r) - lam_eps))
    lhs_k = _lhs_cached(pair, field_)
    lhs_base = sum(lhs_k, 0.0)
    lhs = c1 * lhs_base
    # every channel's mass, gradient and epsilon-weighted gradient in one call
    mass, grad, *grad_eps = _channel_integrals(field_, [None], weights)[..., 0].tolist()

    per_channel = {}
    for (ch, _), base_k, grad_k, mass_k in zip(field_.sorted_terms(), lhs_k, grad, mass):
        ak = a_k(pair, ch.k)
        lhs_k = c1 * base_k
        rhs_k = min(c1 * c2 * ak ** 2, 1.0) * grad_k + (c1 / c2) * (m - lam) * mass_k
        per_channel[ch.k] = ChannelCheck(lhs_k, rhs_k, _ratio(lhs_k, rhs_k),
                                         c1 * c2 * ak ** 2)
    rhs = sum(grad, 0.0) + (m + lam) * sum(mass, 0.0)

    norm_eq = None
    if grad_eps:
        lhs_w = eps * c1 * lhs_base
        rhs_w = sum(grad_eps[0], 0.0) + (m + lam_eps) * sum(mass, 0.0) - c1 * lhs_base
        norm_eq = NormEquivalenceCheck(
            epsilon=eps, lam=lam_eps, lhs=lhs_w, rhs=rhs_w,
            satisfied=lhs_w <= rhs_w * (1.0 + _TOL) + 1e-300)

    ratio = _ratio(lhs, rhs)
    return InequalityReport(lhs=lhs, rhs=rhs, ratio=ratio,
                            satisfied=ratio <= 1.0 + _TOL, constant=maxsq,
                            lam=lam, per_channel=per_channel,
                            norm_equivalence=norm_eq)


# ---------------------------------------------------------------------------
# mollified-delta degeneration experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MollifiedRow:
    eps: float
    lhs: float
    bulk_term: float
    annulus_term: float
    mass_term: float
    rhs: float
    ratio: float

    def to_dict(self) -> dict:
        return {"eps": self.eps, "lhs": self.lhs, "bulk_term": self.bulk_term,
                "annulus_term": self.annulus_term, "mass_term": self.mass_term,
                "rhs": self.rhs, "ratio": self.ratio}


def mollified_delta_experiment(c1: float, c2: float, R: float, eps_list,
                               field_: SpinorField, m: float = 1.0,
                               lam: float | None = None):
    """Right-hand side decomposition for a mollified second weight.

    The mollifier sits on the annulus [1-eps, 1+eps].  For each eps the
    gradient term splits into a bulk part weighted by 1/(m-lambda) and an
    annulus part weighted by 1/(m + 1/eps - lambda); the shell left-hand
    side c1 R^2 |f(R)|^2 is independent of eps, while the annulus term
    vanishes with eps, which is why the limit does not produce a delta in
    the second slot.
    """
    if not R > 0.0:     # NaN fails too
        raise ValueError(f"shell radius R must be positive, got {R!r}")
    if R == math.inf:
        raise ValueError(f"shell radius R must be finite, got {R!r}")
    if not (c1 >= 0.0 and c2 >= 0.0):
        raise ValueError(f"coupling constants must be nonnegative, got c1={c1!r}, c2={c2!r}")
    _check_mass(m)
    if lam is None:
        lam = select_lambda(c1, c2, m) if c1 > 0 and c2 > 0 else 0.0
    if not (-m < lam < m):
        raise ValueError("lambda must lie in (-m, m)")
    lhs = 0.0
    try:
        for ch, prof in field_.sorted_terms():
            lhs += c1 * R ** 2 * abs(prof(R)) ** 2
    except OverflowError:   # R ** 2 beyond the float range
        lhs = math.inf
    if not math.isfinite(lhs):
        raise ValueError(f"shell term c1 R^2 |f(R)|^2 is not finite at R={R!r}, c1={c1!r}")
    mass_term = (m + lam) * field_norm_weighted(field_)

    rows = []
    for eps in eps_list:
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps!r}")
        if eps == math.inf:
            raise ValueError(f"eps must be finite, got {eps!r}")
        edges = (0.0, max(1.0 - eps, 0.0), 1.0 + eps, math.inf)    # eps >= 1: no inner bulk
        (grad,) = _channel_integrals(field_, (), [None], edges)     # every channel at once
        bulk, annulus = float(grad[:, [0, 2]].sum()), float(grad[:, 1].sum())
        bulk_term = bulk / (m - lam)
        annulus_term = annulus / (m + 1.0 / eps - lam)
        rhs = bulk_term + annulus_term + mass_term
        rows.append(MollifiedRow(eps=float(eps), lhs=lhs, bulk_term=bulk_term,
                                 annulus_term=annulus_term, mass_term=mass_term,
                                 rhs=rhs, ratio=_ratio(lhs, rhs)))
    return rows


# ---------------------------------------------------------------------------
# galleries
# ---------------------------------------------------------------------------

def random_field_gallery(count: int, seed: int = 0,
                         k_choices=(-4, -3, -2, 0, 1, 2, 3)):
    """Deterministic gallery of admissible random fields.

    Each field has one or two channels from ``k_choices``.  Per channel the
    profile is c r^p e^{-a r} with p in {l, l+1} (keeping the 3D regularity
    of higher channels), a in [0.3, 3], and a random complex amplitude.
    """
    rng = np.random.default_rng(seed)
    k_choices = np.asarray(k_choices, dtype=int)
    fields = []
    for _ in range(count):
        n_ch = int(rng.integers(1, 3))
        ks = rng.choice(k_choices, size=n_ch, replace=False)
        terms = []
        for k in sorted(int(k) for k in ks):
            ch = Channel(k)
            p = ch.l + int(rng.integers(0, 2))
            a = float(rng.uniform(0.3, 3.0))
            amp = float(rng.uniform(0.5, 2.0))
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            coef = amp * complex(math.cos(phase), math.sin(phase))
            terms.append((ch, exp_profile(p, a, coef=coef)))
        fields.append(SpinorField(tuple(terms)))
    return fields


def standard_pair_gallery():
    """Five admissible pairs spanning Coulomb, shell, sum, and mollified data."""
    from .potentials import (
        CoulombPotential,
        MollifiedShell,
        ShellMeasure,
        SumPotential,
        ZeroPotential,
    )

    return (
        PotentialPair(v1_regular=CoulombPotential(1.0), v2=CoulombPotential(1.0)),
        PotentialPair(v1_regular=CoulombPotential(0.5), v2=CoulombPotential(2.0)),
        PotentialPair(v1_regular=ZeroPotential(), v1_shells=(ShellMeasure(R=1.0, a=1.0),),
                      v2=CoulombPotential(1.0)),
        PotentialPair(v1_regular=MollifiedShell(c=0.5, eps=0.5, R=2.0),
                      v2=CoulombPotential(0.5)),
        PotentialPair(v1_regular=SumPotential((CoulombPotential(0.3),
                                               MollifiedShell(1.0, 0.3, 1.0))),
                      v2=CoulombPotential(1.0)),
    )
