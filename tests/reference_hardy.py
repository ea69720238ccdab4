"""Reference Hardy constants, all by quadrature.

``quadrature_integrand`` is the cumulative Hardy integrand as the library
computed it before power-law weights got closed forms: the whole weight,
Coulomb and power terms included, is integrated numerically over every
radius of the scan, from 0 (or to infinity, for the tail) and then from
the nearest anchor.  ``reference_sup`` runs the library's supremum search
on it, so a difference from ``potentials._sup_of_weight`` is a difference of
the integrands alone.
"""

import math

import numpy as np

from hardydirac.numerics import UnboundedError, integrate_radial, sup_over_r
from hardydirac.potentials import NotInClassAError, _hardy_slope, combine


def quadrature_integrand(regular, shells, exponent: int):
    """r^-e int_0^r V s^e ds (e > 0) or r^-e int_r^inf V s^e ds (e < 0), plus
    each shell's a (R/r)^e on its side of R, with V integrated numerically."""
    bps = regular.breakpoints()
    zero = regular.is_zero()
    forward = exponent > 0
    anchor_r = np.array([0.0 if forward else math.inf])
    anchor_int = np.zeros(1)

    def weighted(s):
        return regular(s) * s ** exponent

    def cumulative(r):
        nonlocal anchor_r, anchor_int
        q = np.sort(r, axis=None)
        if forward:
            i = anchor_r.searchsorted(q[0]) - 1
            parts, _ = integrate_radial(weighted, np.concatenate([anchor_r[i:i + 1], q]), bps)
            acc = anchor_int[i] + parts.cumsum()
            if anchor_r.size == 1:
                anchor_r, anchor_int = np.append(0.0, q), np.append(0.0, acc)
        else:
            i = anchor_r.searchsorted(q[-1], side="right")
            parts, _ = integrate_radial(weighted, np.concatenate([q, anchor_r[i:i + 1]]), bps)
            acc = anchor_int[i] + parts[::-1].cumsum()[::-1]
            if anchor_r.size == 1:
                anchor_r, anchor_int = np.append(q, math.inf), np.append(acc, 0.0)
        return acc[q.searchsorted(r)]

    def integrand(r):
        r = np.asarray(r, dtype=float)
        total = np.zeros_like(r) if zero else cumulative(r) / r ** exponent
        for shell in shells:
            side = r >= shell.R if forward else r <= shell.R
            total = total + np.where(side, shell.a * (shell.R / r) ** exponent, 0.0)
        return total

    return integrand


def reference_sup(regular, shells, exponent: int) -> float:
    """sup over r of ``quadrature_integrand``, searched as the library does."""
    candidates = [s.R for s in shells] + [b for b in regular.breakpoints() if b > 0]
    try:
        return sup_over_r(quadrature_integrand(regular, shells, exponent),
                          _hardy_slope(regular, exponent), candidates=tuple(candidates)).value
    except UnboundedError as exc:
        raise NotInClassAError(f"not in class A: {exc}") from exc


def reference_a_k(pair, k: int) -> float:
    """The channel constant of the pair (k = 0 is A_+, k = -2 is A_-)."""
    return reference_sup(combine([pair.v1_regular, pair.v2]), pair.v1_shells, 2 * (k + 1))


def reference_tilde(pair) -> tuple[float, float]:
    """The separately scaled constants: sums of the single-weight suprema."""
    return tuple(reference_sup(pair.v1_regular, pair.v1_shells, e) + reference_sup(pair.v2, (), e)
                 for e in (2, -2))
