"""Closed-form oracles for the benchmark's timed ops.

Every timed op is checked here.  A check returns the op's relative error
against its oracle, or ``None`` for a pass/fail check with no exact value,
and raises :class:`WrongResult` when the result is outside tolerance.
"""

from __future__ import annotations

import math

# Tolerances, fixed before any measurement from the acceptance criteria of
# the library (criteria 1-4, 7, 8) with a margin for the seeded parameter
# ranges used here.
CONSTANT_RTOL = 1e-9        # closed-form Hardy constants
INVARIANCE_RTOL = 1e-8      # rescaled twin pairs (criterion 4)
INEQUALITY_RTOL = 1e-8      # Gamma-function sides of the Coulomb inequality
RATIO_TOL = 1e-8            # "satisfied" slack, as in verify_theorem
LEVEL_RTOL = 1e-5           # Dirac-Coulomb gap eigenvalues
RECOVERY_RTOL = 1e-6        # manufactured weak solution (criterion 7)
DEFECT_RTOL = 1e-8          # symmetry defect of the discrete pairing


class WrongResult(AssertionError):
    """A library result disagrees with its oracle."""


def close(value: float, exact: float, rtol: float, what: str) -> float:
    """Relative error of ``value`` against ``exact``; raises above ``rtol``."""
    err = abs(value - exact) / abs(exact)
    if not err <= rtol:  # also rejects NaN
        raise WrongResult(f"{what}: {value!r} vs oracle {exact!r} "
                          f"(relative error {err:.2e} > {rtol:g})")
    return err


def small(value: float, rtol: float, what: str) -> float:
    """A quantity whose exact value is 0, already relative; raises above ``rtol``."""
    if not abs(value) <= rtol:
        raise WrongResult(f"{what}: {value!r} exceeds {rtol:g}")
    return abs(value)


def correct_digits(rel_err: float) -> float:
    return -math.log10(max(rel_err, 1e-16))


# -- Hardy constants ---------------------------------------------------------

def coulomb_constant(nu_sum: float, k: int) -> float:
    """A_k of V1 + V2 = nu_sum / r: the supremand is constant in r."""
    return nu_sum / (2.0 * abs(k + 1))


def shell_coulomb_constant(a: float, nu: float, k: int) -> float:
    """A_k of a shell of mass a plus nu / r: the shell term peaks at r = R."""
    return a + nu / (2.0 * abs(k + 1))


# -- inequality sides for V1 = nu1/r, V2 = nu2/r, gamma = 0 ----------------------

def _moment(n: int, a: float) -> float:
    """int_0^inf r^n exp(-2 a r) dr."""
    return math.gamma(n + 1) / (2.0 * a) ** (n + 1)


def coulomb_lhs_term(nu1: float, coef: complex, p: float, a: float) -> float:
    """int (nu1/r) |c r^p e^{-a r}|^2 r^2 dr."""
    return nu1 * abs(coef) ** 2 * _moment(int(2 * p + 1), a)


def coulomb_grad_term(nu2: float, k: int, coef: complex, p: float, a: float) -> float:
    """int (r/nu2) |f' - k f/r|^2 r^2 dr for f = c r^p e^{-a r}."""
    n = int(2 * p + 1)
    d = p - k
    return abs(coef) ** 2 / nu2 * (d * d * _moment(n, a)
                                   - 2.0 * a * d * _moment(n + 1, a)
                                   + a * a * _moment(n + 2, a))


# -- gap spectrum ----------------------------------------------------------------

def dirac_coulomb_level(index: int, nu: float, k: int, m: float = 1.0) -> float:
    """index-th gap eigenvalue of channel k (kappa = k + 1) for Coulomb nu/r.

    For k <= -2 the radial quantum number starts at 1.
    """
    kappa = k + 1
    n_r = index + (1 if kappa < 0 else 0)
    g = math.sqrt(kappa * kappa - nu * nu)
    return m / math.sqrt(1.0 + nu * nu / (n_r + g) ** 2)
