"""Distinguished self-adjoint realization of the radial Dirac operator.

Per spin-orbit channel k the operator acts on pairs (f, g) of radial
components (upper carried by Omega_k, lower by i (sigma.x_hat) Omega_k,
which makes the radial system real) as

    upper = (m - w1 + lam) f + g' + (k+2) g / r
    lower = -(f' - k f / r) + (-m - w2 + lam) g.

The energy space for the upper component carries the inner product

    (f, u) = int (m - w1 + lam) f u r^2 dr
           + int (f' - k f/r)(u' - k u/r) / (m + w2 - lam) r^2 dr

with delta shells in w1 entering as point terms -w a R^2 f(R) u(R); the
weak solve is a Riesz representation in this space, after which the lower
component is recovered pointwise as g = -(F2 + f' - k f/r) / (m + w2 - lam).
This form is the E-dependent gap form below at E = -lam, so one routine
(``_gap_form``) makes it for the solve and for the inertia counts, and
block cyclic reduction (``numerics``) factors it for the solve and counts
its inertia for the spectrum.  The form depends on the problem alone: the
first solve on a problem object factors it and keeps the factor, with the
problem's coefficients at the quadrature points, on that object, so each
later solve there only samples its data, loads, back-substitutes and
evaluates the strong form.

Discretization: quintic Hermite elements (value, first and second
log-derivative per node) on a log-uniform radial grid, so profiles that are
power-like at the origin and exponential at infinity are smooth in the
element variable.  Homogeneous Dirichlet values are imposed at both ends;
the default inner truncation radius 1e-7 keeps the induced boundary dip
below 1e-6 in the weighted norm for order-one fields.

Gap eigenvalues come from eliminating g, which yields a symmetric problem
whose weight depends on E; since that dependence is monotone, inertia
counts of the shifted block-tridiagonal matrix (3x3 node blocks, reduced
for all shifts of a call by ``numerics.ldl_inertia``) locate every nonlinear
eigenvalue by multisection, with no spectral pollution by construction.
The same reduction gives log|det| of each shift, through which a
three-point model places the multisection's shifts near each level; the
counts alone certify the brackets.  The levels are counted again on the
doubled grid, whose space contains the coarse one; every level it brackets
is reported, with the drift between the grids as its error estimate, and a
level lost on the doubled grid is a wrong count, which raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import Channel, ClosedFormProfile, GridProfile
from .numerics import RadialGrid, _adaptive, ldl_inertia, spd_factor, spd_solve
from .potentials import PotentialPair, a_k, a_minus, a_plus
from .verify import _check_gamma, _resolve_lambda, _v2_state

__all__ = [
    "DiracChannelProblem",
    "WeakSolveResult",
    "GapEigenvalue",
    "weak_solve",
    "pairing_defect",
    "spectrum_in_gap",
    "extremize_ratio",
    "ExtremizeResult",
]


# ---------------------------------------------------------------------------
# quintic Hermite elements on a log-uniform grid
# ---------------------------------------------------------------------------

_GQ_X, _GQ_W = np.polynomial.legendre.leggauss(7)
_GQ_X = 0.5 * (_GQ_X + 1.0)
_GQ_W = 0.5 * _GQ_W


def _hermite_tables(xi: np.ndarray):
    """Quintic Hermite shape functions and their first two xi-derivatives."""
    H = np.empty((6,) + xi.shape)
    H[0] = 1 - 10 * xi**3 + 15 * xi**4 - 6 * xi**5
    H[1] = xi - 6 * xi**3 + 8 * xi**4 - 3 * xi**5
    H[2] = 0.5 * (xi**2 - 3 * xi**3 + 3 * xi**4 - xi**5)
    H[3] = 10 * xi**3 - 15 * xi**4 + 6 * xi**5
    H[4] = -4 * xi**3 + 7 * xi**4 - 3 * xi**5
    H[5] = 0.5 * (xi**3 - 2 * xi**4 + xi**5)
    D = np.empty_like(H)
    D[0] = -30 * xi**2 + 60 * xi**3 - 30 * xi**4
    D[1] = 1 - 18 * xi**2 + 32 * xi**3 - 15 * xi**4
    D[2] = 0.5 * (2 * xi - 9 * xi**2 + 12 * xi**3 - 5 * xi**4)
    D[3] = 30 * xi**2 - 60 * xi**3 + 30 * xi**4
    D[4] = -12 * xi**2 + 28 * xi**3 - 15 * xi**4
    D[5] = 0.5 * (3 * xi**2 - 8 * xi**3 + 5 * xi**4)
    D2 = np.empty_like(H)
    D2[0] = -60 * xi + 180 * xi**2 - 120 * xi**3
    D2[1] = -36 * xi + 96 * xi**2 - 60 * xi**3
    D2[2] = 0.5 * (2 - 18 * xi + 36 * xi**2 - 20 * xi**3)
    D2[3] = 60 * xi - 180 * xi**2 + 120 * xi**3
    D2[4] = -24 * xi + 84 * xi**2 - 60 * xi**3
    D2[5] = 0.5 * (6 * xi - 24 * xi**2 + 20 * xi**3)
    return H, D, D2


_GQ_H, _GQ_D, _GQ_D2 = _hermite_tables(_GQ_X)    # grid-free; each grid scales them by h


class _HermiteFem:
    """Shape tables and quadrature points on one log-uniform grid; dofs are
    node-major (value and two log-derivatives per node), so forms are block
    tridiagonal in 3x3 node blocks, which ``_gap_form`` assembles."""

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        self.t = grid.t
        self.h = grid.log_step
        self.n_nodes = grid.n
        h = self.h
        scale = np.array([1.0, h, h * h, 1.0, h, h * h])
        self.N = _GQ_H * scale[:, None]
        self.Nd = _GQ_D * scale[:, None] / h
        self.Ndd = _GQ_D2 * scale[:, None] / (h * h)
        self.wq = _GQ_W * h
        self.tq = self.t[:-1, None] + h * _GQ_X[None, :]      # (nel, nq)
        self.rq = np.exp(self.tq)

    def _element_shapes(self, radius: float):
        """(element, its six value shapes at ``radius``)."""
        if not (self.grid.r_min <= radius <= self.grid.r_max):
            raise ValueError(
                f"radius R={radius:g} lies outside the element grid "
                f"[{self.grid.r_min:g}, {self.grid.r_max:g}]")
        tr = math.log(radius)
        el = int(np.clip((tr - self.t[0]) // self.h, 0, self.n_nodes - 2))
        H = _hermite_tables(np.array([(tr - self.t[el]) / self.h]))[0]
        return el, H[:, 0] * np.array([1.0, self.h, self.h**2, 1.0, self.h, self.h**2])


# ---------------------------------------------------------------------------
# channel problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiracChannelProblem:
    """One radial channel of the diagonal-potential Dirac operator.

    ``pair`` supplies the weights: w1 = c1 V1 (shells included), w2 = c2 V2.
    The sign regime is tagged from the data: 'nonpositive' for c1 <= 0,
    'measure' when shells are present, else 'nonnegative' (which needs
    c1 c2 <= 1/max(A+^2, A-^2)).  The coupling condition is not checked
    here: ``weak_solve`` raises :class:`NotPositiveDefiniteError` when the
    assembled form is not positive definite.

    The first ``weak_solve`` factors the energy form and keeps the factor,
    with the coefficients at the quadrature points, on this object (about
    1.6 MB at 2000 nodes), so later solves on it only sample their data,
    load and back-substitute; the factor is freed with the object.
    The fields are frozen: a different lam or grid is a new problem
    (``dataclasses.replace``), with its own factor.
    """

    pair: PotentialPair
    channel: Channel
    m: float = 1.0
    lam: float | None = None
    grid: RadialGrid = field(default_factory=lambda: RadialGrid.log_uniform(1500, 1e-7, 50.0))

    def __post_init__(self):
        object.__setattr__(self, "lam", _resolve_lambda(self.pair.c1, self.pair.c2, self.m, self.lam))

    @property
    def regime(self) -> str:
        if self.pair.c1 <= 0:
            return "nonpositive"
        if self.pair.v1_shells:
            return "measure"
        return "nonnegative"

    def w1(self, r):
        return self.pair.c1 * self.pair.v1_regular(r)

    def w2(self, r):
        return self.pair.c2 * self.pair.v2(r)

    def w2_derivative(self, r):
        return self.pair.c2 * self.pair.v2.derivative(r)

    def shell_terms(self):
        """(radius, coupled mass) pairs for w1's singular part."""
        return tuple((s.R, self.pair.c1 * s.a) for s in self.pair.v1_shells)

    @cached_property
    def _factored(self) -> _FactoredForm:
        return _FactoredForm(self)


@dataclass(frozen=True)
class WeakSolveResult:
    """Weak solution (phi, chi) of ``problem`` with its strong-form residuals.

    ``residual_upper`` is the weighted L2 norm of the upper equation's
    defect, the discretization error.  ``residual_lower`` only measures
    rounding: chi is recovered from the lower equation itself, so that
    defect vanishes in exact arithmetic (about 1e-16 of F2's norm or less).
    ``coefs`` are the Hermite dofs of phi.  ``_pairing`` keeps the solve's
    strong form for :func:`pairing_defect`: the upper and lower output
    components pre-weighted by the quadrature weights times r^3, f and g at
    the quadrature points, and phi at the problem's shell radii.
    """

    phi: GridProfile
    chi: GridProfile
    residual_upper: float
    residual_lower: float
    h_norm_phi: float
    problem: DiracChannelProblem
    coefs: np.ndarray = field(repr=False, default=None)
    _pairing: tuple = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {"residual_upper": self.residual_upper,
                "residual_lower": self.residual_lower,
                "h_norm_phi": self.h_norm_phi,
                "n_nodes": self.problem.grid.n}


@dataclass(frozen=True)
class GapEigenvalue:
    value: float
    index: int
    error_estimate: float


# ---------------------------------------------------------------------------
# weak solve
# ---------------------------------------------------------------------------

def _strong_form(form: _FactoredForm, k: int, x: np.ndarray,
                 F2q: np.ndarray, F2dq: np.ndarray):
    """Strong form of (H_V + lam) on the discrete upper component of dofs
    x (3, n), node i's in column i.

    ``F2q``, ``F2dq`` are F2 and F2' at the quadrature points.  The lower
    component is recovered pointwise, g = -(F2 + f' - k f/r)/(m + w2 - lam);
    returns f, g and the upper and lower output components, all sampled at the
    quadrature points.
    """
    rq, den = form.rq, form.den
    # f, f., f.. (t = log r) from each element's six dofs, in one block that
    # ends up holding f, lower and upper, so a kept result holds no dead samples
    f, fd, fdd = (form.shapes @ np.concatenate((x[:, :-1], x[:, 1:]))).reshape((3,) + rq.shape)
    fdd -= k * fd                     # fd, fdd become Df = (f. - k f)/r and Df.
    fdd /= rq
    fd -= k * f
    fd /= rq
    fdd -= fd
    s = F2q + fd                      # F2 + Df = -(m + w2 - lam) g
    g = s / den
    np.negative(g, out=g)
    fdd += F2dq * rq                  # g. = -(F2' r + Df.)/den + (F2 + Df) w2' r/den^2
    fdd /= den
    s *= form.w2_rate
    s -= fdd
    s += (k + 2) * g
    s /= rq                           # (g. + (k + 2) g)/r
    upper = np.multiply(form.mass, f, out=fdd)
    upper += s
    lower = fd                        # -(Df + (m + w2 - lam) g)
    lower += den * g
    np.negative(lower, out=lower)
    return f, g, upper, lower


class _FactoredForm:
    """The part of a weak solve that depends on the problem alone, for a
    load, a back-substitution and a strong form per solve.

    At the quadrature points, stored point-major (7, elements) so that the
    load and the strong form are one product each: r and log r,
    m + w2 - lam, m - w1 + lam, ``w2_rate`` = w2' r/(m + w2 - lam)^2 and
    the load weights r^3 w_q and r^2 w_q/(m + w2 - lam).  The shape tables
    [N | N' | N''] (21, 6) of the strong form and [N | -(N' - k N)] (6, 14)
    of the load; log r and m + w2 - lam at the nodes; the shells' element
    rows; and the factor of the form by block cyclic reduction.  It keeps
    no reference to the problem, which holds it."""

    def __init__(self, problem: DiracChannelProblem):
        fem = _HermiteFem(problem.grid)
        m, lam, k = problem.m, problem.lam, problem.channel.k
        self.rq, self.tq = np.ascontiguousarray(fem.rq.T), np.ascontiguousarray(fem.tq.T)
        rq, wq = self.rq, fem.wq[:, None]
        self.den = m + problem.w2(rq) - lam
        self.mass = m - problem.w1(rq) + lam
        self.w2_rate = problem.w2_derivative(rq) * rq / self.den**2
        self.r3wq = rq**3 * wq
        self.f2_weight = rq**2 * wq / self.den
        self.shapes = np.concatenate([fem.N.T, fem.Nd.T, fem.Ndd.T])
        self.load_shapes = np.concatenate([fem.N, k * fem.N - fem.Nd], axis=1)
        self.t_nodes = fem.t
        self.den_nodes = m + problem.w2(problem.grid.nodes) - lam
        self.shells = tuple(fem._element_shapes(radius) for radius, _ in problem.shell_terms())
        # the gap form at E = -lam, equilibrated by the factorization, which
        # then stays healthy across 20 decades
        D, B = _problem_form(fem, problem)(np.array([-problem.lam]))
        self.factor = spd_factor(D[:, :, 0], B[:, :, 0])

    def load(self, F1q: np.ndarray, F2q: np.ndarray) -> np.ndarray:
        """Loads (3, n) of int F1 u r^2 dr - int F2 (u' - k u/r) r^2/(m + w2 - lam) dr
        on each node's dofs, from samples at the quadrature points, with the
        value dofs at both ends fixed."""
        nq = F1q.shape[0]
        data = np.empty((2 * nq, F1q.shape[1]))
        np.multiply(F1q, self.r3wq, out=data[:nq])
        np.multiply(F2q, self.f2_weight, out=data[nq:])
        elt = self.load_shapes @ data                # (6, elements)
        b = np.empty((3, elt.shape[1] + 1))
        b[:, :-1] = elt[:3]
        b[:, -1] = 0.0
        b[:, 1:] += elt[3:]
        b[0, [0, -1]] = 0.0
        return b


def weak_solve(problem: DiracChannelProblem, F1=None, F2=None) -> WeakSolveResult:
    """Riesz solve of (H_V + lam)(phi, chi) = (F1, F2) on one channel.

    F1 and F2 are real closed-form profiles (None is zero); a complex
    coefficient raises ``ValueError``, as only real parts would be solved
    for.  F2 is understood in the same lower-spinor convention as chi.  Only
    F2 is differentiated (g' in the strong form), and only at the quadrature
    points, so neither F1 nor F2' need be square integrable at the origin:
    r^-0.5 e^-r is a valid F1 and a valid F2.  Returns the two radial
    components with strong-form residuals measured in the weighted L2 norm;
    as g is recovered from the lower equation itself, ``residual_lower``
    vanishes in exact arithmetic and only measures rounding.

    The first solve on ``problem`` factors its equilibrated energy form by
    block cyclic reduction (``numerics.spd_factor``) and keeps the factor,
    with the problem's coefficients at the quadrature points, on the
    problem object, so it is freed with the problem (about 1.6 MB at 2000
    nodes); each solve then samples its data in one real pass per profile,
    builds the load in one product, back-substitutes (``numerics.spd_solve``)
    and evaluates the strong form in one product.  Another lam or grid is
    another problem (``dataclasses.replace``).  A form that is not positive
    definite raises :class:`NotPositiveDefiniteError` on every call.

    The form counts a weight narrower than an element in full
    (``_problem_form``); the load's F2 term and the strong-form residuals
    still sample w1 and w2 at 7 points per element, and the strong form has no
    delta shell's jump, so a shell problem's ``residual_upper`` is of order one.
    """
    F1, F2 = (ClosedFormProfile(()) if F is None else F for F in (F1, F2))
    for name, F in (("F1", F1), ("F2", F2)):
        if any(term.coef.imag for term in F.terms):
            raise ValueError(f"{name} has a complex coefficient; weak_solve takes real data only")
    form = problem._factored
    k = problem.channel.k
    F1q, _ = F1._real_with_slope(form.rq, form.tq, slope=False)
    F2q, F2dq = F2._real_with_slope(form.rq, form.tq)
    b = form.load(F1q, F2q)
    x = spd_solve(form.factor, b)
    coefs = x.T.ravel()

    f, g, upper, lower = _strong_form(form, k, x, F2q, F2dq)
    # einsum, not np.vdot: a BLAS dot this long wakes its threads, about 8 ms
    # per call where the thread count is not pinned (the CLI)
    residual_upper, residual_lower = (
        math.sqrt(float(np.einsum("qe,qe->", np.square(d, out=d), form.r3wq)))
        for d in (upper - F1q, lower - F2q))
    upper *= form.r3wq
    lower *= form.r3wq
    phi_at = tuple(float(shapes @ coefs[3 * el: 3 * el + 6]) for el, shapes in form.shells)

    h_norm = math.sqrt(max(float(np.vdot(x, b)), 0.0))     # x . A x, as A x = b
    grid = problem.grid
    nodes = grid.nodes
    F2n, _ = F2._real_with_slope(nodes, form.t_nodes, slope=False)
    g_nodes = -(F2n + x[1] / nodes - k * x[0] / nodes) / form.den_nodes
    return WeakSolveResult(phi=GridProfile(grid, x[0].copy()),
                           chi=GridProfile(grid, g_nodes),
                           residual_upper=residual_upper,
                           residual_lower=residual_lower,
                           h_norm_phi=h_norm, problem=problem, coefs=coefs,
                           _pairing=(upper, lower, f, g, phi_at))


def pairing_defect(problem: DiracChannelProblem, u: WeakSolveResult,
                   v: WeakSolveResult) -> float:
    """|<(H+lam)u, v> - <u, (H+lam)v>| over the discrete pairing.

    u and v are weak-solve results on ``problem`` itself (else ValueError):
    pairs in the discrete operator domain.  The pairing integrates both
    components with the r^2 dr measure and adds the shell point terms; it
    sums the strong form that each solve kept, so nothing is re-evaluated.
    """
    if u.problem != problem or v.problem != problem:
        raise ValueError("pairing_defect needs two weak solutions of the problem it is given")
    shells = [a * radius**2 for radius, a in problem.shell_terms()]

    def pair(a, b):
        up_a, lo_a, _, _, at_a = a._pairing
        _, _, f_b, g_b, at_b = b._pairing
        # einsum, not np.vdot, as in weak_solve's residuals
        val = float(np.einsum("qe,qe->", up_a, f_b) + np.einsum("qe,qe->", lo_a, g_b))
        for c, phi_a, phi_b in zip(shells, at_a, at_b):
            val -= c * phi_a * phi_b
        return val

    return abs(pair(u, v) - pair(v, u))


# ---------------------------------------------------------------------------
# gap spectrum
# ---------------------------------------------------------------------------

# brackets close at _TOL * m; the doubled grid's warm ladders reach _WARM_REACH * m
# down from the coarse brackets
_TOL, _WARM_REACH = 1e-10, 2e-3
_FIRST_SWEEP = 16               # Chebyshev-Lobatto shifts of a cold first call
_SHIFTS_PER_SWEEP = 32
_SHIFTS_PER_BRACKET = 4
_RUNG_SPREADS = (0.25, 1.0)     # c1, c2 of the model-placed ladders


def _kink_rules(fem: _HermiteFem, pair: PotentialPair, w1, den):
    """(element, radii, t-weights) of a composite rule for each element that
    needs more than one panel when the adaptive rule of ``integrate_radial``
    integrates w1 r^3 and r/den in t = log r over the elements, its panels
    starting at the nodes and at the breakpoints of V1 and V2 in the grid:
    the panels it accepted there.  So a weight narrower than an element, or
    flat at a breakpoint (a bump's edge), is integrated on its own scale.
    With no breakpoint in the grid there is no rule."""
    nodes = fem.grid.nodes
    inside = [r for r in pair.v1_regular.breakpoints() + pair.v2.breakpoints()
              if nodes[0] < r < nodes[-1]]
    if not inside:
        return []
    panels = []     # integrate_radial integrates in r, so f = weight / r
    _adaptive(lambda r: np.stack([w1(r) * r * r, 1.0 / den(r)]), nodes, inside, panels)
    el, r, w = (np.concatenate(part) for part in zip(*panels))
    return [(e, r[el == e].ravel(), w[el == e].ravel())
            for e in np.flatnonzero(np.bincount(el, minlength=fem.n_nodes - 1) > 1)]


def _gap_form(fem: _HermiteFem, k: int, mass, den, shells=(), rules=()):
    """The E-dependent form of channel k on one grid, as node blocks: mass part
    (mass(r) - E) r^3, gradient part r/(den(r) + E), and -c R^2 f(R) u(R) for
    each shell (R, c).  A table made once per grid maps an element's 7 mass and
    7 gradient samples to the 27 entries of its matrix that node blocks read,
    em[:3, :3], em[3:, 3:] and em[:3, 3:] (local dofs 0-2 on node e, 3-5 on
    e+1); ``blocks(E)`` makes them for all S shifts E, less the shells' point
    terms at their element, and scatters them into D (3, 3, S, n) and
    B (3, 3, S, n-1), with the value dofs at both ends fixed.  The elements
    of ``rules`` (``_kink_rules``) take their entries from those instead."""
    a, b = np.divmod(np.arange(9), 3)
    rows, cols = np.r_[a, a + 3, a], np.r_[b, b + 3, b + 3]
    scale = np.array([1.0, fem.h, fem.h**2, 1.0, fem.h, fem.h**2])[:, None]
    kinked = []
    for el, r, w in rules:
        H, Ht, _ = _hermite_tables((np.log(r) - fem.t[el]) / fem.h)
        N, Nt = H * scale, Ht * scale / fem.h
        kinked.append((el, np.hstack([(sh * w)[rows] * sh[cols] for sh in (N, Nt - k * N)]),
                       r, mass(r), den(r)))
    rq = np.ascontiguousarray(fem.rq.T)[:, None]        # point-major (7, 1, nel)
    mass, den, r3 = mass(rq), den(rq), rq**3
    table = np.hstack([(N * fem.wq)[rows] * N[cols] for N in (fem.N, fem.Nd - k * fem.N)])
    points = []
    for radius, c in shells:
        el, shapes = fem._element_shapes(radius)
        points.append((el, (c * radius**2 * shapes[rows] * shapes[cols]).reshape(3, 3, 3, 1)))

    def blocks(E: np.ndarray):
        nq, _, nel = rq.shape
        vals = np.empty((2 * nq, E.size, nel))
        np.multiply(np.subtract(mass, E[:, None], out=vals[:nq]), r3, out=vals[:nq])
        np.divide(rq, np.add(den, E[:, None], out=vals[nq:]), out=vals[nq:])
        # one product per 9 rows, so that B owns its memory and the rest is freed
        at_left, at_right, B = ((t @ vals.reshape(2 * nq, -1)).reshape(3, 3, E.size, nel)
                                for t in table.reshape(3, 9, 2 * nq))     # element's nodes e, e+1
        for el, table_el, r, mass_el, den_el in kinked:
            vals_el = np.concatenate(((mass_el - E[:, None]) * r**3, r / (den_el + E[:, None])),
                                     axis=1)
            at_left[..., el], at_right[..., el], B[..., el] = (
                (table_el @ vals_el.T).reshape(3, 3, 3, E.size))
        for el, p in points:
            for X, P in zip((at_left, at_right, B), p):
                X[..., el] -= P
        D = np.empty((3, 3, E.size, nel + 1))
        D[..., 0], D[..., -1] = at_left[..., 0], at_right[..., -1]
        np.add(at_left[..., 1:], at_right[..., :-1], out=D[..., 1:-1])
        D[0, :, :, [0, -1]] = D[:, 0, :, [0, -1]] = 0.0    # value dofs at both ends
        D[0, 0, :, [0, -1]] = 1.0
        B[0, :, :, 0] = B[:, 0, :, -1] = 0.0
        return D, B

    return blocks


def _problem_form(fem: _HermiteFem, problem: DiracChannelProblem):
    """``_gap_form`` of a channel problem: mass m - w1, den m + w2, w1's
    shells and the ``_kink_rules`` of w1 and den; at E = -lam it is the
    weak-solve form."""
    m = problem.m

    def den(r):
        return m + problem.w2(r)

    return _gap_form(fem, problem.channel.k, lambda r: m - problem.w1(r), den,
                     problem.shell_terms(), _kink_rules(fem, problem.pair, problem.w1, den))


def _gap_counts(fem: _HermiteFem, problem: DiracChannelProblem):
    """Batched inertia count and log|det| of the E-dependent form on one grid."""
    blocks = _problem_form(fem, problem)

    def counts(shifts):
        E = np.asarray(shifts, dtype=float)
        return ldl_inertia(*blocks(E), E)

    return counts


def _model_roots(a, b, o, La, Lb, Lo):
    """Roots E* in (a, b) of the model ln|det A(E)| = ln|E - E*| + alpha + beta E
    through (a, La), (b, Lb) and an outer point (o, Lo), o < a or o > b.

    With E = a + (b - a) p, q = (o - a)/(b - a) and t = logit p, alpha and beta
    drop out of H(t) = q (Lb - La) - (Lo - La) + ln(1 + e^-t) + q t + ln|q - p|,
    which vanishes at the root; dH/dt = q (q - 1)/(q - p), so H is monotone and
    convex in t with slopes q - 1 and q in its tails, and Newton's method
    converges from t = 0 for every row at once.  Non-finite data give NaN."""
    q = (o - a) / (b - a)
    c, slope = q * (Lb - La) - (Lo - La), q * (q - 1.0)
    t = np.zeros_like(c)
    with np.errstate(all="ignore"):
        for _ in range(50):
            e = np.exp(-t)
            q_p = (q - 1.0) + e / (1.0 + e)              # q - p, exact near p = 1
            step = (c + np.log1p(e) + q * t + np.log(np.abs(q_p))) * q_p / slope
            t, last = np.clip(t - step, -50.0, 50.0), t
            if not (np.abs(t - last) > 1e-9).any():
                break
    return a + (b - a) / (1.0 + np.exp(-t))


def _model_ladders(E, C, L, j, tol):
    """``_SHIFTS_PER_BRACKET`` shifts (rows) for each open bracket (E[j-1], E[j]]
    (columns) of the sorted record of shifts E, counts C and log|det| L.

    For a bracket that holds one level and has an evaluated shift beyond each
    end, ``_model_roots`` of the neighbours on either side give two estimates;
    the shifts go to their mean +- r1 and +- r2, with r1 = max(0.4 tol, c1 w),
    r2 = max(3 r1, c2 w) and w the spread of the two, unless that ladder
    leaves (a, b).  An estimate within r1 closes the bracket in one call (so
    does one within r2 when w is below tol).  Any other bracket is split
    uniformly."""
    a, b = E[j - 1], E[j]
    one_level = (C[j] - C[j - 1] == 1) & (j >= 2) & (j + 1 < E.size)
    outer = np.array([np.maximum(j - 2, 0), np.minimum(j + 1, E.size - 1)])
    roots = _model_roots(a, b, E[outer], L[j - 1], L[j], np.where(one_level, L[outer], np.nan))
    centre, w = roots.mean(axis=0), np.abs(roots[0] - roots[1])
    r1 = np.maximum(0.4 * tol, _RUNG_SPREADS[0] * w)
    r2 = np.maximum(3.0 * r1, _RUNG_SPREADS[1] * w)
    ladder = centre + np.array([-r2, -r1, r1, r2])
    fit = (a < ladder[0]) & (ladder[-1] < b)
    return np.where(fit, ladder, np.linspace(a, b, _SHIFTS_PER_BRACKET + 2)[1:-1])


def _multisect_gap(counts, lo: float, hi: float, how_many: int, tol: float, warm=None):
    """(value, bracket width) of the levels in (lo, hi) of a count function,
    from shifts of a parameter E (the energy for ``spectrum_in_gap``, log c
    for ``extremize_ratio``) to counts that do not fall as E grows and
    log|det|.  Its first call puts
    ``_FIRST_SWEEP`` shifts at the Chebyshev-Lobatto points of [lo, hi], which
    cluster at the ends, where levels accumulate; each later one puts
    ``_SHIFTS_PER_BRACKET`` into each of the lowest
    ``_SHIFTS_PER_SWEEP // _SHIFTS_PER_BRACKET`` level brackets wider than
    ``tol``; values are bracket midpoints.  At 200 nodes a call of S <= 16
    shifts costs about a + b S with a ~ 0.6 ms and b ~ 0.07 ms, a ~ 9 b
    (0.85-1.14 ms at 4 shifts and 1.6-2.0 ms at 16, in process with one BLAS
    thread on a shared two-core x86-64 host; 3.6-4.3 ms at 32), so closing L
    brackets, about (a + b S) / ln(S/L + 1) per e-fold of their width, is
    cheapest near S = 4 L for L = 2 levels.

    The shifts E, counts C and log|det| L are kept as one record sorted by E,
    merged after every call, so level i's bracket is (E[j-1], E[j]] with j
    the first index where C > i.  Where a bracket holds one level, its shifts
    go to a ladder around where a three-point model of log|det| puts the
    level (``_model_ladders``); log|det| falls by about e^10 across a 0.065
    bracket, which the model's linear background absorbs.  Only the counts
    certify a bracket, so a poor model costs calls, never a level.  Elsewhere
    the bracket is split uniformly.

    ``warm = (levels, reach)``, with the (value, width) pairs of at most 7
    levels of a coarser nested space, replaces the first spread by lo, hi
    and, per level, the two ends a, b of its bracket and two rungs below a,
    at a - sqrt(w reach) and a - reach with w = 0.4 tol; none goes above b,
    since by min-max no level of the finer space lies above its coarse
    partner, and a level within its coarse bracket closes in one call.
    Later sweeps bracket from the counts as before, so a level the ladder
    misses is still found.  After every call, a count that falls as E
    grows raises ValueError."""
    E = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, _FIRST_SWEEP)))
    E[0], E[-1] = lo, hi
    if warm and 0 < len(warm[0]) <= (_SHIFTS_PER_SWEEP - 2) // 4:
        (levels, reach), w = warm, 0.4 * tol
        value, width = np.array(levels, dtype=float).T
        a = value - 0.5 * width
        E = np.concatenate((a - reach, a - math.sqrt(w * reach), a, value + 0.5 * width))
        E = np.concatenate(([lo], E[(lo < E) & (E < hi)], [hi]))
    C, L = counts(E)
    while True:
        order = np.argsort(E, kind="stable")
        E, C, L = E[order], C[order], L[order]
        fell = np.flatnonzero(np.diff(C) < 0)
        if fell.size:
            i = fell[0]
            raise ValueError(f"inertia count fell from {int(C[i])} at shift E={float(E[i])!r} "
                             f"to {int(C[i + 1])} at E={float(E[i + 1])!r}")
        j = C.searchsorted(np.arange(C[0], C[0] + min(C[-1] - C[0], how_many)), "right")
        a, b = E[j - 1], E[j]
        # levels that share a bracket share j (np.unique would import numpy.ma)
        open_ = j[(b - a > tol) & (np.diff(j, prepend=0) > 0)]
        open_ = open_[:_SHIFTS_PER_SWEEP // _SHIFTS_PER_BRACKET]
        if not open_.size:
            return [(float(0.5 * (x + y)), float(y - x)) for x, y in zip(a, b)]
        new = _model_ladders(E, C, L, open_, tol).T.ravel()
        new_counts, new_logdet = counts(new)
        E, C, L = np.append(E, new), np.append(C, new_counts), np.append(L, new_logdet)


def spectrum_in_gap(problem: DiracChannelProblem, count: int):
    """Lowest nonlinear eigenvalues of the channel operator inside (-m, m).

    The E-dependent reduced form is monotone in E, so inertia counts of its
    block-tridiagonal matrix bracket each eigenvalue; multisection from 16
    shifts clustered at the gap's ends, then 4 into each of the 8 lowest open
    brackets per count (placed from log|det| where a bracket holds one
    level), shrinks the brackets to 1e-10 m.  A solve on a doubled grid
    (2n - 1 nodes on the same log range) gives the reported value and its
    error estimate, the larger of the drift between grids and the final
    bracket width.

    The doubled grid's space contains the coarse one, so by min-max its
    count is never lower at any E and no level of it lies above its coarse
    partner.  Its first count call therefore takes lo, hi and, per coarse
    level, the ends of the coarse bracket and two rungs below it, 2.8e-7 m
    and 2e-3 m down: a level that did not leave its coarse bracket reports
    that bracket's width (8e-11 m on the README problem); one that moved
    further is bracketed by the later sweeps and reported with its drift.

    Every level the doubled grid brackets is reported.  One that only the
    doubled grid finds gets an infinite estimate; more levels on the coarse
    grid than on the doubled one mean a wrong count, and raise ValueError.
    A count below 1 raises ValueError; a gap that holds no level gives [].
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    m = problem.m
    edge = 1e-9 * m
    lo, hi = -m + edge, m - edge
    fine_grid = RadialGrid.log_uniform(2 * problem.grid.n - 1,
                                       problem.grid.r_min, problem.grid.r_max)
    coarse = _multisect_gap(_gap_counts(_HermiteFem(problem.grid), problem),
                            lo, hi, count, _TOL * m)
    fine = _multisect_gap(_gap_counts(_HermiteFem(fine_grid), problem), lo, hi, count,
                          _TOL * m, warm=(coarse, _WARM_REACH * m))
    coarse = [v for v, _ in coarse]
    if len(coarse) > len(fine):
        raise ValueError(f"the coarse grid finds {len(coarse)} levels and the doubled grid "
                         f"only {len(fine)}; nested spaces cannot lose a level")
    # a level that only the doubled grid finds has no coarse partner to drift from
    coarse += [math.inf] * (len(fine) - len(coarse))
    return [GapEigenvalue(value=value, index=idx, error_estimate=max(abs(value - c), width))
            for idx, ((value, width), c) in enumerate(zip(fine, coarse))]


# ---------------------------------------------------------------------------
# ratio extremization
# ---------------------------------------------------------------------------

_EXTREMIZE_GRID = (1600, 1e-12, 1e3)        # nodes, r_min, r_max
# decades of c searched above the threshold; on rank-one L (a delta shell)
# ldl_inertia's count was found exact up to 8.3 decades above the crossing
_EXTREMIZE_DECADES = 8.0


@dataclass(frozen=True)
class ExtremizeResult:
    """``per_channel[k] = (lower, upper)`` encloses the supremum of lhs/rhs in
    channel k; ``best_ratio`` is the largest lower bound, at ``best_k``, and
    ``grid`` (nodes, r_min, r_max) the element grid of the lower bounds."""

    best_ratio: float
    best_k: int
    per_channel: dict

    @property
    def grid(self) -> tuple:
        return _EXTREMIZE_GRID

    def to_dict(self) -> dict:
        return {"best_ratio": self.best_ratio, "best_k": self.best_k,
                "per_channel": {str(k): {"lower_bound": lower, "upper_bound": upper}
                                for k, (lower, upper) in sorted(self.per_channel.items())},
                "grid": dict(zip(("n_nodes", "r_min", "r_max"), self.grid))}


def _channel_bounds(fem: _HermiteFem, rules, pair: PotentialPair, gamma: float, maxsq: float,
                    k: int) -> tuple:
    """(1/(A^2 c_h), U_k) of ``extremize_ratio`` in channel k, with the
    ``_kink_rules`` of its weights."""
    ak = a_k(pair, k)
    if not maxsq:               # V1 = V2 = 0 and no shell: the ratio is 0
        return 0.0, 0.0
    upper = ak**2 / maxsq if gamma == 0.0 else max(ak**2 / maxsq, 1.0)
    g, zero = gamma / maxsq, np.zeros(1)
    D0, B0 = _gap_form(fem, k, lambda r: np.full_like(r, g), lambda r: pair.v2(r) + gamma,
                       rules=rules)(zero)
    D, B = _gap_form(fem, k, lambda r: g - pair.v1_regular(r), lambda r: pair.v2(r) + gamma,
                     tuple((s.R, s.a) for s in pair.v1_shells), rules)(zero)
    D1, B1 = D0 - D, B0 - B             # q_c is D0 - c D1, B0 - c B1
    lo = -math.log(maxsq * upper) - 1e-9    # the threshold, less what rounding may tip

    def counts(x):
        c = np.exp(x)[:, None]
        n, logdet = ldl_inertia(D0 - c * D1, B0 - c * B1, x)
        if n[x <= lo].any():
            raise ValueError(f"channel k={k}: q_c has a negative direction below the threshold "
                             f"c = 1/(A^2 U_k), so A_k = {ak!r} is too small")
        return np.minimum(n, 1), logdet     # only the first crossing is sought

    levels = _multisect_gap(counts, lo, lo + _EXTREMIZE_DECADES * math.log(10.0), 1, _TOL)
    if not levels:
        return 0.0, upper
    value, width = levels[0]
    return math.exp(-value - 0.5 * width) / maxsq, upper


def extremize_ratio(pair: PotentialPair, gamma: float, k_set=(0, -2)) -> ExtremizeResult:
    """Enclose the supremum of lhs/rhs of the master inequality per channel.

    In channel k the ratio is L/(A^2 G + gamma M), A^2 = max(A+^2, A-^2), with
    L = int V1 f^2 r^2 dr (and shells), G = int |f' - k f/r|^2 r^2/(V2 + gamma) dr
    and M = int f^2 r^2 dr; the channel inequality bounds its supremum by
    U_k = A_k^2/A^2 (gamma = 0) or max(A_k^2/A^2, 1) (gamma > 0).  The supremum
    is 1/(A^2 c*), c* the least c at which q_c = (gamma/A^2) M - c L + G has a
    negative direction, and a negative inertia count of q_c on the element
    space of ``_EXTREMIZE_GRID`` (functions vanishing at both ends) is one
    (min-max).  So multisection of the count over log c, from 1e-9 below the
    threshold 1/(A^2 U_k) to ``_EXTREMIZE_DECADES`` (8) decades above it,
    brackets a c_h >= c*, and 1/(A^2 c_h) is a lower bound; it is 0 if the
    count stays 0, as it does for a supremum below 1e-8 U_k.  Further up,
    ldl_inertia miscounts a form whose L is of low rank, so the window
    stops there.  A count above 0 at the threshold contradicts A_k and raises
    ValueError.

    The bound holds as far as the form is integrated exactly on the space:
    elements that hold a breakpoint of V1 or V2 take the panels of the
    adaptive rule of ``integrate_radial``, 16 points each (``_kink_rules``),
    so weights narrower than an element count in full.  The grid spans
    [1e-12, 1e3]: a delta shell of V1 outside it raises ValueError, and the
    part of a regular weight outside it is left out, which only lowers the
    bound.  gamma = 0 needs V2 > 0.
    """
    if not k_set:
        raise ValueError("empty channel set")
    _check_gamma(gamma)
    if gamma == 0.0 and _v2_state(pair) != "positive":
        raise ValueError("gamma = 0 requires V2 > 0 everywhere, as the gradient term "
                         "weighs by 1/V2; take gamma > 0 with this V2")
    maxsq = max(a_plus(pair), a_minus(pair)) ** 2
    fem = _HermiteFem(RadialGrid.log_uniform(*_EXTREMIZE_GRID))
    # one rule for both forms, so that their gradient parts cancel in D1
    rules = _kink_rules(fem, pair, pair.v1_regular, lambda r: pair.v2(r) + gamma)
    per_channel = {k: _channel_bounds(fem, rules, pair, gamma, maxsq, k) for k in sorted(k_set)}
    best_k = max(per_channel, key=lambda k: per_channel[k][0])    # the lowest k of a tie
    return ExtremizeResult(per_channel[best_k][0], best_k, per_channel)
