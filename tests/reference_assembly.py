"""Reference forms of a channel problem, independent of the library's.

The band: an oracle for ``extension._problem_form`` and ``weak_solve``, with
element matrices by einsum, scattered with ``np.add.at`` into LAPACK lower
band storage, the value dofs at both ends fixed by loops over the band, and
diagonal equilibration entry by entry.  Only the shape tables and quadrature
points of ``_HermiteFem`` are shared with the library.

The quadrature form: ``h_inner_product``, the energy inner product of two
closed-form profiles by adaptive radial quadrature, with no elements at all;
an oracle for ``weak_solve``'s ``h_norm_phi``.
"""

import numpy as np

from hardydirac.numerics import integrate_radial


def einsum_band(fem, mass_vals, grad_vals, k, point_terms=()):
    """Lower band (6, 3n) of the form with coefficient samples mass_vals of
    f*u and grad_vals of (f.-k f)(u.-k u); point_terms are (radius, weight)
    pairs adding weight*f(R)*u(R)."""
    Dk = fem.Nd - k * fem.N
    em = np.einsum("q,eq,aq,bq->eab", fem.wq, mass_vals, fem.N, fem.N, optimize=True)
    em += np.einsum("q,eq,aq,bq->eab", fem.wq, grad_vals, Dk, Dk, optimize=True)
    ab = np.zeros((6, 3 * fem.n_nodes))
    base = np.arange(fem.n_nodes - 1) * 3
    for a in range(6):
        for b in range(a, 6):
            np.add.at(ab, (b - a, base + a), em[:, a, b])
    for radius, weight in point_terms:
        el, shapes = fem._element_shapes(radius)
        outer = weight * np.outer(shapes, shapes)
        for a in range(6):
            for b in range(a, 6):
                ab[b - a, el * 3 + a] += outer[a, b]
    return ab


def add_at_load(fem, f1_vals, f2_vals, k):
    """Load vector (3n,) of int f1*u dt - int f2*(u. - k u) dt."""
    Dk = fem.Nd - k * fem.N
    elt = np.einsum("q,eq,aq->ea", fem.wq, f1_vals, fem.N, optimize=True)
    elt -= np.einsum("q,eq,aq->ea", fem.wq, f2_vals, Dk, optimize=True)
    b = np.zeros(3 * fem.n_nodes)
    base = np.arange(fem.n_nodes - 1) * 3
    for a in range(6):
        np.add.at(b, base + a, elt[:, a])
    return b


def fixed_dofs(fem):
    """The value dofs at both ends (homogeneous Dirichlet)."""
    return (0, 3 * (fem.n_nodes - 1))


def loop_constrain(fem, ab):
    """Zero the rows and columns of the fixed dofs and put 1 on their diagonal."""
    ndof = ab.shape[1]
    for idx in fixed_dofs(fem):
        for d in range(6):
            if idx + d < ndof:
                ab[d, idx] = 0.0
            if idx - d >= 0:
                ab[d, idx - d] = 0.0
        ab[0, idx] = 1.0
    return ab


def loop_scaled_copy(ab):
    """(S A S, s) with s = |diag A|^(-1/2), scale 1 where |diag A| < 1e-300."""
    d = np.abs(ab[0]).copy()
    d[d < 1e-300] = 1.0
    s = 1.0 / np.sqrt(d)
    out = np.array(ab, dtype=float, copy=True)
    for i in range(ab.shape[0]):
        j = np.arange(ab.shape[1] - i)
        out[i, j] *= s[j] * s[j + i]
    return out, s


def band_matvec(ab, x):
    """A x for a symmetric A in lower band storage."""
    n = ab.shape[1]
    y = np.zeros(n)
    for d in range(ab.shape[0]):
        y[d:] += ab[d, :n - d] * x[:n - d]
        if d:
            y[:n - d] += ab[d, :n - d] * x[d:]
    return y


def banded_to_dense(ab):
    n = ab.shape[1]
    a = np.zeros((n, n))
    for d in range(ab.shape[0]):
        i = np.arange(n - d)
        a[i + d, i] = ab[d, i]
        a[i, i + d] = ab[d, i]
    return a


def reference_form(fem, problem, E):
    """Constrained band of the E-dependent form: mass (m - w1 - E) r^3,
    gradient r/(m + w2 + E), shells -a R^2 f(R) u(R)."""
    m, rq = problem.m, fem.rq
    points = [(radius, -a * radius**2) for radius, a in problem.shell_terms()]
    ab = einsum_band(fem, (m - problem.w1(rq) - E) * rq**3,
                     rq / (m + problem.w2(rq) + E), problem.channel.k, point_terms=points)
    return loop_constrain(fem, ab)


def reference_load(fem, problem, F1, F2):
    """Load (3n,) of the weak solve at E = -lam, zero on the fixed dofs."""
    m, lam, rq = problem.m, problem.lam, fem.rq
    f1 = np.real(F1(rq)) if F1 is not None else np.zeros_like(rq)
    f2 = np.real(F2(rq)) if F2 is not None else np.zeros_like(rq)
    b = add_at_load(fem, f1 * rq**3, f2 * rq**2 / (m + problem.w2(rq) - lam),
                    problem.channel.k)
    for idx in fixed_dofs(fem):
        b[idx] = 0.0
    return b


def reference_solve(fem, problem, F1, F2):
    """Coefficients and energy norm of the weak solve, by ``solveh_banded``
    of the equilibrated reference form at E = -lam."""
    from scipy.linalg import solveh_banded

    ab = reference_form(fem, problem, -problem.lam)
    scaled, s = loop_scaled_copy(ab)
    coefs = solveh_banded(scaled, reference_load(fem, problem, F1, F2) * s, lower=True) * s
    return coefs, float(np.sqrt(coefs @ band_matvec(ab, coefs)))


def band_blocks(ab):
    """Node blocks D (3, 3, n) and couplings B (3, 3, n-1), rows on node i, of
    a symmetric matrix in lower band storage with node-major dofs."""
    i = 3 * np.arange(ab.shape[1] // 3)
    D = np.array([[ab[abs(a - c), i + min(a, c)] for c in range(3)] for a in range(3)])
    B = np.array([[ab[3 + c - a, i[:-1] + a] for c in range(3)] for a in range(3)])
    return D, B


def _complex_quad(fn, breakpoints=()) -> complex:
    (re,), _ = integrate_radial(lambda r: fn(r).real, breakpoints=breakpoints)
    (im,), _ = integrate_radial(lambda r: fn(r).imag, breakpoints=breakpoints)
    return complex(re, im)


def h_inner_product(phi1, phi2, problem) -> complex:
    """Energy inner product of two upper-component profiles,

        int (m - w1 + lam) f u r^2 dr + int (f' - k f/r)(u' - k u/r) / (m + w2 - lam) r^2 dr

    with u conjugated; sesquilinear and conjugate symmetric, and shells
    contribute their point terms -a R^2 f(R) u(R)."""
    k = problem.channel.k
    m, lam = problem.m, problem.lam
    w1, w2 = problem.w1, problem.w2
    pair = problem.pair
    bps = sorted({*pair.v1_regular.breakpoints(), *pair.v2.breakpoints(),
                  *(s.R for s in pair.v1_shells)})
    d1 = phi1.reduced(k)
    d2 = phi2.reduced(k)

    def mass(r):
        return (m - w1(r) + lam) * phi1(r) * np.conj(phi2(r)) * r * r

    def grad(r):
        return d1(r) * np.conj(d2(r)) / (m + w2(r) - lam) * r * r

    value = _complex_quad(mass, bps) + _complex_quad(grad, bps)
    for radius, a in problem.shell_terms():
        value -= a * radius**2 * phi1(radius) * np.conj(phi2(radius))
    return value
