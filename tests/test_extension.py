import dataclasses
import gc
import math
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

from hardydirac import extension
from hardydirac.channels import Channel, ClosedFormProfile, ProfileTerm, exp_profile, gauss_profile
from hardydirac.extension import (
    _GQ_X,
    DiracChannelProblem,
    _FactoredForm,
    _HermiteFem,
    _gap_counts,
    _gap_form,
    _hermite_tables,
    _multisect_gap,
    _strong_form,
    pairing_defect,
    spectrum_in_gap,
    weak_solve,
)
from hardydirac.numerics import (
    NotPositiveDefiniteError,
    RadialGrid,
    _equilibrate,
    spd_factor,
    spd_solve,
)
from hardydirac.potentials import (
    CoulombPotential,
    PotentialPair,
    ShellMeasure,
    ZeroPotential,
    parse_pair,
)
from reference_assembly import (
    band_blocks,
    band_matvec,
    h_inner_product,
    loop_scaled_copy,
    reference_form,
    reference_load,
    reference_solve,
)


def dirac_coulomb_level(n_r: int, nu: float, m: float = 1.0) -> float:
    """Closed-form relativistic hydrogenic level for the j=1/2, s-type series.

    Independent oracle: E = m / sqrt(1 + nu^2/(n_r + sqrt(1 - nu^2))^2).
    """
    g = math.sqrt(1.0 - nu * nu)
    return m / math.sqrt(1.0 + nu * nu / (n_r + g) ** 2)


def free_problem(n=800, lam=0.0, k=0, r_min=1e-7, r_max=50.0):
    pair = parse_pair("zero", "zero", c1=0.0, c2=0.0)
    return DiracChannelProblem(pair=pair, channel=Channel(k), m=1.0, lam=lam,
                               grid=RadialGrid.log_uniform(n, r_min, r_max))


def coulomb_problem(nu=0.5, n=800, lam=None, k=0, m=1.0, r_max=50.0):
    pair = parse_pair("coulomb:1", "coulomb:1", c1=nu, c2=nu)
    return DiracChannelProblem(pair=pair, channel=Channel(k), m=m, lam=lam,
                               grid=RadialGrid.log_uniform(n, 1e-7, r_max))


class TestInnerProduct:
    def test_zero(self):
        prob = free_problem(n=200)
        zero = exp_profile(0, 1.0, coef=0.0)
        assert h_inner_product(zero, zero, prob) == 0.0

    def test_free_exp_value(self):
        # V=0, m=1, lam=0: 1*(1/4) + 1*(1/4)
        prob = free_problem(n=200)
        v = h_inner_product(exp_profile(0, 1.0), exp_profile(0, 1.0), prob)
        assert v.real == pytest.approx(0.5, rel=1e-10)
        assert v.imag == 0.0

    def test_conjugate_symmetry(self):
        prob = coulomb_problem(n=200)
        rng = np.random.default_rng(4)
        for _ in range(5):
            f = exp_profile(int(rng.integers(0, 2)), float(rng.uniform(0.5, 2.0)),
                            coef=complex(rng.normal(), rng.normal()))
            g = gauss_profile(int(rng.integers(0, 2)), float(rng.uniform(0.5, 2.0)),
                              coef=complex(rng.normal(), rng.normal()))
            a = h_inner_product(f, g, prob)
            b = h_inner_product(g, f, prob)
            assert abs(a - np.conj(b)) <= 1e-12 * (1.0 + abs(a))

    def test_shell_lowers_norm(self):
        with_shell = parse_pair("shell:0.5@1", "coulomb:1", c1=0.5, c2=0.5)
        without = parse_pair("zero", "coulomb:1", c1=0.5, c2=0.5)
        grid = RadialGrid.log_uniform(200, 1e-7, 50.0)
        p1 = DiracChannelProblem(pair=with_shell, channel=Channel(0), m=1.0, grid=grid)
        p0 = DiracChannelProblem(pair=without, channel=Channel(0), m=1.0, lam=p1.lam,
                                 grid=grid)
        f = exp_profile(0, 1.0)
        v1 = h_inner_product(f, f, p1).real
        v0 = h_inner_product(f, f, p0).real
        assert v1 == pytest.approx(v0 - 0.25 * math.exp(-2.0), rel=1e-9)

    def test_sigma_bound(self):
        # ||D f/(m+w2-lam)||^2 <= ||f||_H^2 / (m - lam)
        prob = coulomb_problem(n=200, lam=0.25)
        m, lam = prob.m, prob.lam
        for p, a in ((0, 1.0), (1, 0.7), (0, 2.0)):
            f = exp_profile(p, a)
            red = f.reduced(0)
            from hardydirac.numerics import integrate_radial
            (num,), _ = integrate_radial(
                lambda r: abs(red(r)) ** 2 / (m + prob.w2(r) - lam) ** 2 * r * r)
            hn = h_inner_product(f, f, prob).real
            assert num <= hn / (m - lam) * (1.0 + 1e-10)


class TestEnergyNormOracle:
    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("k, p", [(0, 1), (1, 2), (-2, 2)])
    def test_h_norm_matches_quadrature_form(self, k, p, nu):
        # manufactured Coulomb problem with solution (phi, 0), phi = r^p e^{-1.2 r}:
        # F1 = (m + lam - nu/r) phi and F2 = -(phi' - k phi/r); the element
        # form's h_norm_phi^2 must match the quadrature form of the energy
        # inner product.  phi vanishes at 0, so the Dirichlet value at r_min
        # costs nothing (a Gaussian with phi(0) = 1 agrees only to about 2e-7)
        pair = parse_pair("coulomb:1", "coulomb:1", c1=nu, c2=nu)
        prob = DiracChannelProblem(pair=pair, channel=Channel(k), m=1.0,
                                   grid=RadialGrid.log_uniform(2000, 1e-7, 50.0))
        phi = exp_profile(p, 1.2)
        F1 = ClosedFormProfile((ProfileTerm(prob.m + prob.lam, p, 1.2, "exp"),
                                ProfileTerm(-nu, p - 1, 1.2, "exp")))
        sol = weak_solve(prob, F1, phi.reduced(k).scaled(-1.0))
        oracle = h_inner_product(phi, phi, prob)
        assert oracle.imag == 0.0
        assert sol.h_norm_phi ** 2 == pytest.approx(oracle.real, rel=1e-10)


class TestWeakSolve:
    def test_zero_data(self):
        sol = weak_solve(free_problem(n=300), None, None)
        assert np.all(sol.phi.values == 0.0)
        assert np.all(sol.chi.values == 0.0)
        assert sol.residual_upper == 0.0

    @pytest.mark.parametrize("coef", [1j, 1 + 5j])
    def test_complex_data_rejected(self, coef):
        # solving for the real part alone gives phi = 0 at 1j and the coef=1 solution at 1+5j
        prob = free_problem(n=300)
        with pytest.raises(ValueError, match="F1 has a complex coefficient"):
            weak_solve(prob, exp_profile(0, 1.0, coef=coef))
        with pytest.raises(ValueError, match="F2 has a complex coefficient"):
            weak_solve(prob, exp_profile(0, 1.0), gauss_profile(1, 1.0, coef=coef))

    def test_manufactured_gaussian(self):
        # phi* = exp(-r^2), chi* = 0; F1 = (m+lam) phi*, F2 = -phi*'
        prob = free_problem(n=1000)
        sol = weak_solve(prob, gauss_profile(0, 1.0), gauss_profile(1, 1.0, coef=2.0))
        r = prob.grid.nodes
        h = prob.grid.t[1] - prob.grid.t[0]
        w = r ** 3 * h
        err = math.sqrt(float(np.sum((sol.phi.values - np.exp(-r * r)) ** 2 * w)))
        ref = math.sqrt(float(np.sum(np.exp(-2 * r * r) * w)))
        assert err / ref <= 1e-6
        # chi carries only the inner-truncation layer, which shrinks with r_min
        assert math.sqrt(float(np.sum(sol.chi.values ** 2 * w))) <= 1e-3
        assert sol.residual_lower <= 1e-12

    def test_coulomb_residual_and_decay(self):
        residuals = {}
        for n in (500, 1000, 2000):
            sol = weak_solve(coulomb_problem(n=n), exp_profile(0, 1.0), None)
            residuals[n] = sol.residual_upper
        # data norm |F1| = 1/2; demand 1e-6 relative at 2000 nodes
        assert residuals[2000] <= 1e-6 * 0.5
        assert residuals[1000] <= 0.5 * residuals[500]
        assert residuals[2000] <= 0.5 * residuals[1000]

    def test_singular_f1_is_a_valid_load(self):
        # F1 = r^-0.5 e^-r is square integrable with weight r^2 (norm 1/2) but
        # its derivative is not; only F2 is differentiated, for the strong
        # form's g', so the solve must take this F1
        sol = weak_solve(coulomb_problem(n=1500), exp_profile(-0.5, 1.0), None)
        assert sol.residual_upper <= 1e-9 * 0.5

    def test_real_with_slope_matches_profile_and_reduced(self):
        # weak_solve samples F and F' in one pass, F' from the terms' own
        # exponentials; that matches F(r) and F.reduced(0)(r) to round-off (not
        # bit for bit, as reduced() sums other exponentials), and a profile
        # whose F' is not square integrable, which reduced() refuses, still
        # gives finite slopes
        fem = _HermiteFem(coulomb_problem(n=200).grid)
        rq, tq = fem.rq, fem.tq
        two_terms = ClosedFormProfile((ProfileTerm(1.0, 1.0, 1.0, "exp"),
                                       ProfileTerm(-0.5, 0.0, 2.0, "exp")))
        singular = exp_profile(-0.5, 1.0)
        for F in (two_terms, exp_profile(0, 1.0), gauss_profile(2, 0.7), singular):
            f, slope = F._real_with_slope(rq, tq)
            want = np.real(F(rq))
            assert np.max(np.abs(f - want)) <= 1e-13 * np.max(np.abs(want))
            if F is singular:
                assert np.isfinite(slope).all()
                continue
            want = np.real(F.reduced(0)(rq))
            assert np.max(np.abs(slope - want)) <= 1e-13 * np.max(np.abs(want))
        with pytest.raises(ValueError, match="not square integrable"):
            singular.reduced(0)

    def test_residual_lower_is_rounding(self):
        # g is recovered from the lower equation itself, so lower - F2
        # vanishes in exact arithmetic and the residual is round-off of the
        # data's size
        fem = _HermiteFem(RadialGrid.log_uniform(2000, 1e-7, 50.0))
        for F2 in (None, gauss_profile(2, 0.9, coef=-0.4), exp_profile(0, 1.3, coef=2.0)):
            F2q = 0.0 if F2 is None else np.real(F2(fem.rq))
            norm = math.sqrt(float(np.einsum("q,eq->", fem.wq, F2q * F2q * fem.rq**3)))
            for prob in _solve_problems().values():
                sol = weak_solve(prob, exp_profile(1, 1.2, coef=0.7), F2)
                assert sol.residual_lower <= 1e-13 * max(1.0, norm)

    def test_deterministic(self):
        a = weak_solve(coulomb_problem(n=400), exp_profile(0, 1.0), None)
        b = weak_solve(coulomb_problem(n=400), exp_profile(0, 1.0), None)
        assert np.array_equal(a.coefs, b.coefs)

    def test_stability_under_data_perturbation(self):
        prob = coulomb_problem(n=400)
        base = weak_solve(prob, exp_profile(0, 1.0), None)
        delta = 1e-6
        pert = weak_solve(prob, exp_profile(0, 1.0, coef=1.0 + delta), None)
        diff = float(np.max(np.abs(pert.phi.values - base.phi.values)))
        scale = float(np.max(np.abs(base.phi.values)))
        assert diff <= 10.0 * delta * scale

    def test_hypothesis_violation_detected(self):
        pair = parse_pair("coulomb:1", "coulomb:1", c1=2.0, c2=1.0)
        prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0,
                                   grid=RadialGrid.log_uniform(800, 1e-7, 50.0))
        # a failed factorization is not kept, so each solve raises again
        for _ in range(2):
            with pytest.raises(NotPositiveDefiniteError):
                weak_solve(prob, exp_profile(0, 1.0), None)
        assert "_factored" not in vars(prob)

    def test_nonpositive_regime_always_solvable(self):
        pair = PotentialPair(v1_regular=CoulombPotential(1.0),
                             v2=CoulombPotential(1.0), c1=-3.0, c2=1.0)
        prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, lam=0.0,
                                   grid=RadialGrid.log_uniform(600, 1e-7, 50.0))
        assert prob.regime == "nonpositive"
        sol = weak_solve(prob, exp_profile(0, 1.0), None)
        assert sol.residual_upper <= 1e-6

    def test_nonuniform_grid_rejected(self):
        # the elements assume one log step; a mixed grid used to solve
        # silently with residual_upper near 1
        base = RadialGrid.log_uniform(400, 1e-7, 50.0).nodes[::2]
        extra = np.sqrt(base[:100] * base[1:101])
        grid = RadialGrid(np.sort(np.concatenate([base, extra])))
        pair = parse_pair("coulomb:1", "coulomb:1", c1=0.5, c2=0.5)
        prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, grid=grid)
        with pytest.raises(ValueError, match="uniformly spaced"):
            weak_solve(prob, exp_profile(0, 1.0), None)

    def test_form_matches_reference_assembly(self):
        # the weak-solve form is the gap form at E = -lam; equilibrated, its
        # node blocks match the reference band assembly entry by entry (the
        # dense matrix is zero off the block tridiagonal in both)
        for prob in _solve_problems().values():
            fem = _HermiteFem(prob.grid)
            D, B = _gap_form(fem, prob)(np.array([-prob.lam]))
            _equilibrate(D, B)
            scaled, _ = loop_scaled_copy(reference_form(fem, prob, -prob.lam))
            for X, X_ref in zip((D[:, :, 0], B[:, :, 0]), band_blocks(scaled)):
                assert np.array_equal(X == 0.0, X_ref == 0.0)
                assert np.max(np.abs(X - X_ref)) <= 1e-15

    @pytest.mark.parametrize("k", [0, 1, -2])
    @pytest.mark.parametrize("shells", [False, True], ids=["coulomb", "shells"])
    def test_form_matches_reference_at_many_shifts(self, shells, k):
        # the form of six shifts made in one call, two of them within
        # 1e-7 of the gap's ends, against the reference band of each shift;
        # one shell lies inside an element and one on a node
        grid = RadialGrid.log_uniform(300, 1e-6, 50.0)
        node = float(grid.nodes[180])
        pair = PotentialPair(v1_regular=CoulombPotential(1.0), v2=CoulombPotential(1.0),
                             v1_shells=(ShellMeasure(R=1.3, a=0.7), ShellMeasure(R=node, a=0.4))
                             if shells else (), c1=0.5, c2=0.5)
        prob = DiracChannelProblem(pair=pair, channel=Channel(k), m=1.0, lam=0.0, grid=grid)
        fem = _HermiteFem(grid)
        if shells:
            assert 0.0 < math.log(1.3 / grid.nodes[fem._element_shapes(1.3)[0]]) < 0.99 * fem.h
        shifts = np.array([-1.0 + 1e-7, -0.6, -0.1, 0.3, 0.8, 1.0 - 1e-7])
        D, B = _gap_form(fem, prob)(shifts)
        _equilibrate(D, B)
        for j, E in enumerate(shifts):
            scaled, _ = loop_scaled_copy(reference_form(fem, prob, E))
            for X, X_ref in zip((D[:, :, j], B[:, :, j]), band_blocks(scaled)):
                assert np.array_equal(X == 0.0, X_ref == 0.0)
                assert np.max(np.abs(X - X_ref)) <= 1e-15

    def test_solve_matches_reference_assembly(self):
        # the summation order differs from the reference (gradient plus
        # (fixed - E mass) against mass plus gradient), so the pin is a
        # tolerance, not bitwise equality
        F1 = exp_profile(1, 1.2, coef=0.7)
        F2 = gauss_profile(2, 0.9, coef=-0.4)
        for prob in _solve_problems().values():
            sol = weak_solve(prob, F1, F2)
            coefs, h_norm = reference_solve(_HermiteFem(prob.grid), prob, F1, F2)
            assert np.max(np.abs(sol.coefs - coefs)) <= 1e-10 * np.max(np.abs(coefs))
            phi = coefs[0::3]
            assert np.max(np.abs(sol.phi.values - phi)) <= 1e-11 * np.max(np.abs(phi))
            assert abs(sol.h_norm_phi - h_norm) <= 1e-12 * h_norm

    def test_factor_matches_banded_cholesky(self):
        # block cyclic reduction of the reference band's own node blocks
        # against LAPACK's banded Cholesky of the same equilibrated band: the
        # solutions agree and the residuals of the equilibrated system are alike
        from scipy.linalg import solveh_banded

        F1 = exp_profile(1, 1.2, coef=0.7)
        F2 = gauss_profile(2, 0.9, coef=-0.4)
        for prob in _solve_problems().values():
            fem = _HermiteFem(prob.grid)
            ab = reference_form(fem, prob, -prob.lam)
            scaled, s = loop_scaled_copy(ab)
            b = reference_load(fem, prob, F1, F2)
            x_ref = solveh_banded(scaled, s * b, lower=True) * s
            x = spd_solve(spd_factor(*band_blocks(ab)), b.reshape(-1, 3).T).T.ravel()
            assert np.max(np.abs(x - x_ref)) <= 1e-10 * np.max(np.abs(x_ref))
            residual, oracle = (np.linalg.norm(band_matvec(scaled, y / s) - s * b)
                                for y in (x, x_ref))
            assert residual <= 2.0 * oracle

    def test_shell_enters_weak_form(self):
        # a weak shell perturbs the solution continuously
        base_pair = parse_pair("zero", "coulomb:1", c1=1.0, c2=0.5)
        grid = RadialGrid.log_uniform(500, 1e-7, 50.0)
        base = weak_solve(DiracChannelProblem(pair=base_pair, channel=Channel(0),
                                              m=1.0, lam=0.3, grid=grid),
                          exp_profile(0, 1.0), None)
        diffs = []
        for a in (0.05, 0.025):
            pair = parse_pair(f"shell:{a}@1", "coulomb:1", c1=1.0, c2=0.5)
            sol = weak_solve(DiracChannelProblem(pair=pair, channel=Channel(0),
                                                 m=1.0, lam=0.3, grid=grid),
                             exp_profile(0, 1.0), None)
            diffs.append(float(np.max(np.abs(sol.phi.values - base.phi.values))))
        assert diffs[1] < diffs[0]
        assert diffs[0] < 0.1


def _solve_problems():
    """The zero, Coulomb and shell problems of the solve benchmark's kind, at 2000 nodes."""
    grid = RadialGrid.log_uniform(2000, 1e-7, 50.0)
    pairs = {
        "zero": (PotentialPair(c1=0.0, c2=0.0), 0, 0.3),
        "coulomb": (PotentialPair(v1_regular=CoulombPotential(1.0),
                                  v2=CoulombPotential(1.0), c1=0.6, c2=0.7), -2, None),
        "shell": (PotentialPair(v1_regular=ZeroPotential(),
                                v1_shells=(ShellMeasure(R=1.3, a=1.0),),
                                v2=CoulombPotential(1.0), c1=0.4, c2=0.5), 1, None),
    }
    return {key: DiracChannelProblem(pair=pair, channel=Channel(k), m=1.0, lam=lam, grid=grid)
            for key, (pair, k, lam) in pairs.items()}


def _recomputed_pairing_defect(problem, u, v, F2_u, F2_v):
    """The pairing defect recomputed from the coefficients alone: a fresh
    element set and samples, the strong form of both solutions (with their
    F2 data) and the einsum pairing, plus the shell point terms."""
    fem, form = _HermiteFem(problem.grid), _FactoredForm(problem)
    rq = form.rq        # point-major: rq[q, e] is fem.rq[e, q]

    def pieces(sol, F2):
        f, g, upper, lower = _strong_form(form, problem.channel.k, sol.coefs.reshape(-1, 3).T,
                                          np.real(F2(rq)), np.real(F2.reduced(0)(rq)))
        f_at = {}
        for radius, _ in problem.shell_terms():
            el, shapes = fem._element_shapes(radius)
            f_at[radius] = float(np.dot(shapes, sol.coefs[el * 3: el * 3 + 6]))
        return f, g, upper, lower, f_at

    f_u, g_u, up_u, lo_u, at_u = pieces(u, F2_u)
    f_v, g_v, up_v, lo_v, at_v = pieces(v, F2_v)
    w3 = rq**3

    def pair(up_a, lo_a, at_a, f_b, g_b, at_b):
        val = float(np.einsum("q,qe->", fem.wq, (up_a * f_b + lo_a * g_b) * w3))
        for radius, a in problem.shell_terms():
            val -= a * radius**2 * at_a[radius] * at_b[radius]
        return val

    return abs(pair(up_u, lo_u, at_u, f_v, g_v, at_v) - pair(up_v, lo_v, at_v, f_u, g_u, at_u))


class TestPairingDefect:
    def test_symmetry_on_random_domain_pairs(self):
        prob = coulomb_problem(n=500)
        rng = np.random.default_rng(9)
        sols = []
        for i in range(5):
            F1 = exp_profile(int(rng.integers(0, 2)), float(rng.uniform(0.5, 2.0)),
                             coef=float(rng.uniform(0.3, 1.5)))
            F2 = (gauss_profile(1, float(rng.uniform(0.5, 1.5)),
                                coef=float(rng.uniform(-1, 1)))
                  if i % 2 else None)
            sols.append(weak_solve(prob, F1, F2))
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                d = pairing_defect(prob, sols[i], sols[j])
                bound = 1e-8 * sols[i].h_norm_phi * sols[j].h_norm_phi
                assert d <= bound

    def test_matches_recomputed_strong_form(self):
        # the defect sums the strong form each solve kept; recomputing it from
        # the coefficients gives the same number to round-off
        data_u = (exp_profile(1, 1.2, coef=0.7), gauss_profile(2, 0.9, coef=-0.4))
        data_v = (gauss_profile(0, 1.1, coef=0.8), gauss_profile(1, 1.3, coef=0.6))
        for prob in _solve_problems().values():
            u, v = weak_solve(prob, *data_u), weak_solve(prob, *data_v)
            old = _recomputed_pairing_defect(prob, u, v, data_u[1], data_v[1])
            new = pairing_defect(prob, u, v)
            assert abs(new - old) <= 1e-13 * u.h_norm_phi * v.h_norm_phi

    def test_solutions_of_other_problems_rejected(self):
        # a solution of another problem cannot be paired on this one's grid;
        # unchecked, this pair reads a scaled defect at round-off level
        pair = parse_pair("coulomb:1", "coulomb:1", c1=0.5, c2=0.5)
        probs = [DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0,
                                     grid=RadialGrid.log_uniform(400, 1e-7, r_max))
                 for r_max in (50.0, 20.0)]
        u, v = (weak_solve(p, exp_profile(0, 1.0), None) for p in probs)
        for prob in probs:
            with pytest.raises(ValueError, match="weak solutions of the problem"):
                pairing_defect(prob, u, v)
        assert pairing_defect(probs[0], u, u) == 0.0


class TestFactoredForm:
    DATA = ((exp_profile(0, 1.0, coef=0.5), None),
            (exp_profile(1, 1.2, coef=0.7), gauss_profile(2, 0.9, coef=-0.4)),
            (gauss_profile(0, 1.1, coef=0.8), gauss_profile(1, 1.3, coef=0.6)))

    def test_later_solves_match_a_fresh_problem(self):
        # the first solve factors the form and keeps it on the problem; later
        # solves on that object only back-substitute, and give bit for bit
        # what a solve on a freshly built equal problem gives
        for prob in _solve_problems().values():
            weak_solve(prob, *self.DATA[0])
            form = vars(prob)["_factored"]
            kept = [weak_solve(prob, *data) for data in self.DATA]
            assert vars(prob)["_factored"] is form
            fresh = []
            for data in self.DATA:
                other = dataclasses.replace(prob)
                assert other == prob and "_factored" not in vars(other)
                fresh.append(weak_solve(other, *data))
            for a, b in zip(kept, fresh):
                assert np.array_equal(a.coefs, b.coefs)
                assert np.array_equal(a.phi.values, b.phi.values)
                assert np.array_equal(a.chi.values, b.chi.values)
                assert a.residual_upper == b.residual_upper
                assert a.residual_lower == b.residual_lower
                assert a.h_norm_phi == b.h_norm_phi
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    assert (pairing_defect(prob, kept[i], kept[j])
                            == pairing_defect(prob, fresh[i], fresh[j]))

    def test_factor_freed_with_the_problem(self):
        # the factor lives on the problem object and nowhere else
        prob = coulomb_problem(n=300)
        sols = [weak_solve(prob, *data) for data in self.DATA]
        refs = weakref.ref(prob), weakref.ref(vars(prob)["_factored"])
        del prob, sols
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_shape_tables_scale_the_grid_free_tables(self):
        # the Gauss-point tables are computed once; each grid only scales them
        fem = _HermiteFem(RadialGrid.log_uniform(300, 1e-7, 50.0))
        h = fem.h
        scale = np.array([1.0, h, h * h, 1.0, h, h * h])[:, None]
        H, D, D2 = _hermite_tables(_GQ_X)
        assert np.array_equal(fem.N, H * scale)
        assert np.array_equal(fem.Nd, D * scale / h)
        assert np.array_equal(fem.Ndd, D2 * scale / (h * h))


class TestSpectrum:
    def test_coulomb_levels_match_closed_form(self):
        prob = coulomb_problem(nu=0.5, n=500)
        evs = spectrum_in_gap(prob, 2)
        assert len(evs) == 2
        for ev, n_r in zip(evs, (0, 1)):
            assert ev.value == pytest.approx(dirac_coulomb_level(n_r, 0.5), abs=1e-4)
        assert evs[0].value < evs[1].value
        assert all(isinstance(ev.value, float) for ev in evs)

    def test_free_operator_empty_gap(self):
        prob = free_problem(n=300, r_min=1e-6)
        assert spectrum_in_gap(prob, 3) == []

    @pytest.mark.parametrize("count", [0, -1])
    def test_empty_request_rejected(self, count):
        # an empty gap still returns [] (above); asking for no level is an error
        with pytest.raises(ValueError, match=f"count must be at least 1, got {count}"):
            spectrum_in_gap(coulomb_problem(n=50), count)

    @pytest.mark.parametrize("m", [0.0, -1.0, math.inf, math.nan])
    def test_mass_must_be_positive_and_finite(self, m):
        with pytest.raises(ValueError, match="mass must be positive and finite"):
            coulomb_problem(n=50, lam=0.0, m=m)

    def test_mass_scaling(self):
        vals = {}
        for m in (0.5, 1.0, 2.0):
            prob = coulomb_problem(nu=0.5, n=400, lam=0.0, m=m)
            vals[m] = spectrum_in_gap(prob, 1)[0].value
        assert abs(vals[0.5] / 0.5 - vals[1.0]) <= 1e-6
        assert abs(vals[2.0] / 2.0 - vals[1.0]) <= 1e-6

    def test_error_estimates_reported(self):
        prob = coulomb_problem(nu=0.5, n=300)
        evs = spectrum_in_gap(prob, 1)
        assert evs[0].error_estimate >= 0.0
        assert evs[0].error_estimate < 1e-6

    def test_error_estimate_includes_bracket_width(self):
        # both grids used to bisect to the same float here, which reported
        # an estimate of 0.0 for a level that is off by 1.8e-8; the doubled
        # grid now starts from the coarse brackets and ladders below them, so
        # its drift is often exactly 0.0 and the estimate is then the bracket
        # width
        pair = parse_pair("coulomb:1", "coulomb:1", c1=0.5, c2=0.5)
        grid = RadialGrid.log_uniform(200, 1e-6, 50.0)
        prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, lam=0.0,
                                   grid=grid)
        evs = spectrum_in_gap(prob, 2)
        assert len(evs) == 2
        lo, hi = -1.0 + 1e-9, 1.0 - 1e-9
        coarse = _multisect_gap(_gap_counts(_HermiteFem(grid), prob), lo, hi, 2, 1e-10)
        fine_counts = _gap_counts(_HermiteFem(RadialGrid.log_uniform(399, 1e-6, 50.0)), prob)
        fine = _multisect_gap(fine_counts, lo, hi, 2, 1e-10,
                              warm=(coarse, extension._WARM_REACH))
        cold = _multisect_gap(fine_counts, lo, hi, 2, 1e-10)
        for ev, (c, _), (f, width), (f_cold, _) in zip(evs, coarse, fine, cold):
            assert ev.value == f
            assert ev.error_estimate == max(abs(f - c), width)
            assert 0.0 < width <= 1e-10
            assert ev.error_estimate > 0.0
            assert abs(f - f_cold) <= 1e-10

    @pytest.mark.parametrize("coarse_levels, fine_levels, estimates", [
        ([0.2, 0.5], [0.2, 0.4], [0.0, 0.1]),       # the second level moved by 0.1
        ([0.2], [0.2, 0.5], [0.0, math.inf]),       # the coarse grid missed the second
    ], ids=["moved", "fine_only"])
    def test_levels_reported_between_grids(self, monkeypatch, coarse_levels, fine_levels,
                                           estimates):
        # pencils keyed on the grid size stand in for the two grids' forms:
        # every level the doubled grid brackets is reported, without a warning
        levels = {50: coarse_levels, 99: fine_levels}
        monkeypatch.setattr(extension, "_gap_counts",
                            lambda fem, problem: _dense_counts(np.diag(levels[fem.n_nodes])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evs = spectrum_in_gap(coulomb_problem(n=50), 2)
        assert [ev.index for ev in evs] == [0, 1]
        assert [ev.value for ev in evs] == pytest.approx(fine_levels, abs=1e-10)
        assert [ev.error_estimate for ev in evs] == pytest.approx(estimates, abs=1e-9)

    def test_level_lost_on_doubled_grid_raises(self, monkeypatch):
        # the doubled grid's space contains the coarse one, so it cannot
        # count fewer levels: a level it loses is a wrong count
        levels = {50: [0.2, 0.5], 99: [0.2]}
        monkeypatch.setattr(extension, "_gap_counts",
                            lambda fem, problem: _dense_counts(np.diag(levels[fem.n_nodes])))
        with pytest.raises(ValueError, match="coarse grid finds 2 levels and the doubled grid only 1"):
            spectrum_in_gap(coulomb_problem(n=50), 2)

    @pytest.mark.parametrize("k", [0, -2])
    @pytest.mark.parametrize("v1, v2, c1, c2", [
        ("coulomb:1", "coulomb:1", 0.5, 0.5),
        ("coulomb:1", "coulomb:1", 0.99, 0.99),
        ("shell:1@1", "zero", 1.0, 0.0),
        ("shell:1@1", "zero", 3.0, 0.0),
        pytest.param("coulomb:1 + shell:1@1", "coulomb:1", 0.5, 0.5,
                     id="coulomb:1+shell:1@1-coulomb:1-0.5-0.5"),
    ])
    def test_doubled_grid_never_counts_fewer(self, v1, v2, c1, c2, k):
        # the premise of the raise above and of the doubled grid's one-sided
        # warm ladder: on n and 2n - 1 nodes of one log range the spaces are
        # nested, so by min-max the doubled grid's count is at least the
        # coarse count at every shift, the coarse brackets' upper ends too,
        # and no doubled-grid level lies above its coarse bracket
        prob = DiracChannelProblem(pair=parse_pair(v1, v2, c1=c1, c2=c2), channel=Channel(k),
                                   grid=RadialGrid.log_uniform(101, 1e-7, 50.0))
        fine = RadialGrid.log_uniform(201, 1e-7, 50.0)
        lo, hi = -1.0 + 1e-9, 1.0 - 1e-9
        coarse = _gap_counts(_HermiteFem(prob.grid), prob)
        E = np.concatenate([np.linspace(lo, hi, 64),
                            [v + 0.5 * w for v, w in _multisect_gap(coarse, lo, hi, 3, 1e-10)]])
        coarse_counts = coarse(E)[0]
        fine_counts = _gap_counts(_HermiteFem(fine), prob)(E)[0]
        assert np.all(fine_counts >= coarse_counts)

    def test_unit_shell_level_reported(self):
        # a unit delta shell at R = 1 with w2 = 0 binds one k = 0 level at the
        # root of (m + E) kappa R^2 i0(kappa R) k0(kappa R) = 1, kappa^2 = m^2 - E^2;
        # shell levels converge at first order, so this one moves by 3.8e-3
        # between the grids, beyond the doubled grid's warm ladder
        exact = 0.77007357
        kappa = math.sqrt(1.0 - exact * exact)
        assert (1.0 + exact) * -math.expm1(-2.0 * kappa) / (2.0 * kappa) == pytest.approx(
            1.0, abs=1e-7)
        pair = parse_pair("shell:1@1", "zero", c1=1.0, c2=0.0)
        prob = DiracChannelProblem(pair=pair, channel=Channel(0),
                                   grid=RadialGrid.log_uniform(400, 1e-9, 1e9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (ev,) = spectrum_in_gap(prob, 1)
        error = abs(ev.value - exact)
        assert error <= 2e-3
        assert ev.error_estimate >= error

    @pytest.mark.parametrize("bad_call", [0, 1])
    def test_falling_count_raises(self, monkeypatch, bad_call):
        # the form is monotone in E, so a count that falls as E grows is wrong:
        # here the highest shift of the first or the second count call counts
        # no level below it
        oracle, calls = _dense_counts(np.diag([0.2, 0.5])), []

        def gap_counts(fem, problem):
            def counts(shifts):
                C, logdet = oracle(shifts)
                if len(calls) == bad_call:
                    C[np.argmax(shifts)] = 0
                calls.append(len(shifts))
                return C, logdet
            return counts

        monkeypatch.setattr(extension, "_gap_counts", gap_counts)
        with pytest.raises(ValueError,
                           match=r"inertia count fell from [12] at shift E=\S+ to 0 at E="):
            spectrum_in_gap(coulomb_problem(n=50), 2)
        assert len(calls) == bad_call + 1

    @pytest.mark.parametrize("n, r_min", [(700, 1e-6), (1500, 1e-7)])
    def test_doubled_grid_warm_started(self, monkeypatch, n, r_min):
        # criterion 8 and the README spectrum problem: the coarse brackets and
        # the rungs below them bracket the doubled grid's levels in one or two
        # count calls, the first of at most 10 shifts and none above a coarse
        # bracket; every call after the first puts at most 4 shifts into each
        # bracket open before it and at most 32 in all, and the coarse grid,
        # whose first call takes 16 shifts and whose later shifts log|det|
        # places, takes at most 6 calls and 56 shifts (both problems take 5
        # and 48; a first call of 32 uniform shifts took 60 to 64)
        calls, coarse = {}, []

        def gap_counts(fem, problem, inner=_gap_counts):
            counts = inner(fem, problem)

            def recorded(shifts):
                C, logdet = counts(shifts)
                calls.setdefault(fem.n_nodes, []).append((np.array(shifts), C))
                return C, logdet
            return recorded

        def multisect(*args, inner=_multisect_gap, **kwargs):
            levels = inner(*args, **kwargs)
            if "warm" not in kwargs:
                coarse.extend(levels)
            return levels

        monkeypatch.setattr(extension, "_gap_counts", gap_counts)
        monkeypatch.setattr(extension, "_multisect_gap", multisect)
        pair = parse_pair("coulomb:1", "coulomb:1", c1=0.5, c2=0.5)
        prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, lam=0.0,
                                   grid=RadialGrid.log_uniform(n, r_min, 50.0))
        tol, lo, hi = extension._TOL, -1.0 + 1e-9, 1.0 - 1e-9
        assert len(spectrum_in_gap(prob, 2)) == 2
        assert set(calls) == {n, 2 * n - 1}
        for grid_calls in calls.values():
            _assert_shift_budget(grid_calls, 2, lo, hi, tol)
        assert len(calls[n]) <= 6
        assert sum(len(E) for E, _ in calls[n]) <= 56
        assert len(calls[2 * n - 1]) <= 2
        inner_shifts = calls[2 * n - 1][0][0][1:-1]     # lo and hi are the ends
        assert len(coarse) == 2 and len(inner_shifts) <= 8
        assert all(any(v - 0.5 * w - extension._WARM_REACH <= E <= v + 0.5 * w
                       for v, w in coarse) for E in inner_shifts)

    def test_no_masked_arrays_imported(self):
        # numpy.ma costs about 0.7 MB of resident memory per process
        code = ("import sys; from hardydirac import Channel, DiracChannelProblem, "
                "RadialGrid, parse_pair, spectrum_in_gap; "
                "pair = parse_pair('coulomb:1', 'coulomb:1', c1=0.5, c2=0.5); "
                "grid = RadialGrid.log_uniform(200, 1e-6, 50.0); "
                "spectrum_in_gap(DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, "
                "lam=0.0, grid=grid), 2); print('numpy.ma' in sys.modules)")
        src = os.path.dirname(os.path.dirname(extension.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("k", [0, 1, -2])
    def test_levels_consistent_with_counts(self, k):
        # every level E_i satisfies count(E_i - tol) <= i < count(E_i + tol)
        # on the grid it was reported from
        prob = coulomb_problem(nu=0.6, n=150, lam=0.0, k=k)
        tol = extension._TOL
        evs = spectrum_in_gap(prob, 2)
        fine = RadialGrid.log_uniform(2 * prob.grid.n - 1, prob.grid.r_min,
                                      prob.grid.r_max)
        counts = _gap_counts(_HermiteFem(fine), prob)
        c_lo = counts([-1.0 + 1e-9])[0][0]
        for ev in evs:
            below, above = counts([ev.value - tol, ev.value + tol])[0] - c_lo
            assert below <= ev.index < above

    def test_refinement_drift_decreasing(self):
        # |E(h) - E(h/2)| shrinks under refinement until it hits the
        # domain-truncation floor
        values = {}
        for n in (40, 80, 160):
            prob = coulomb_problem(nu=0.5, n=n, lam=0.0, r_max=50.0)
            values[n] = spectrum_in_gap(prob, 1)[0].value
        drift_coarse = abs(values[80] - values[40])
        drift_fine = abs(values[160] - values[80])
        assert drift_fine <= drift_coarse + 1e-12


def _dense_counts(a: np.ndarray, b: np.ndarray | None = None):
    """Oracle count function of the pencil A - E B: eigvalsh and slogdet of
    each shift."""
    b = np.eye(len(a)) if b is None else b

    def counts(shifts):
        return (np.array([int(np.sum(np.linalg.eigvalsh(a - E * b) < 0.0)) for E in shifts]),
                np.array([np.linalg.slogdet(a - E * b)[1] for E in shifts]))
    return counts


def _assert_shift_budget(calls, how_many, lo, hi, tol):
    """Replay the (shifts, counts) of one multisection's count calls: the first
    starts at lo and ends at hi, and every later one puts at most 4 shifts into
    each level bracket open before it, into at most 8 such brackets and none
    elsewhere, at most 32 in all."""
    E, C = calls[0]
    assert E[0] == lo and E[-1] == hi
    levels = range(C[0], C[0] + min(C[-1] - C[0], how_many))
    for new, new_counts in calls[1:]:
        open_ = [(a, b) for a, b in set(_brackets(E, C, levels)) if b - a > tol]
        inside = [np.count_nonzero((a < new) & (new < b)) for a, b in open_]
        assert max(inside) <= 4
        assert np.count_nonzero(inside) <= 8
        assert sum(inside) == len(new) <= 32
        E, C = np.append(E, new), np.append(C, new_counts)
    assert lo <= E.min() and E.max() <= hi


class TestMultisectGap:
    def test_diagonal_pencil(self):
        counts = _dense_counts(np.diag([1.0, 2.0, 3.0]))
        levels = _multisect_gap(counts, 0.5, 2.5, 3, 1e-12)
        assert [v for v, _ in levels] == pytest.approx([1.0, 2.0], abs=1e-12)
        assert all(0.0 < w <= 1e-12 for _, w in levels)

    @pytest.mark.parametrize("lo, hi", [(-1.0 + 1e-9, 1.0 - 1e-9), (0.5, 2.5)])
    def test_cold_first_sweep_at_chebyshev_lobatto_points(self, lo, hi):
        # gap levels accumulate at the gap's ends, where these points cluster;
        # the ends themselves are lo and hi exactly
        calls = []

        def counts(shifts):
            calls.append(np.array(shifts))
            return _dense_counts(np.diag([1.0, 2.0, 3.0]))(shifts)

        _multisect_gap(counts, lo, hi, 3, 1e-12)
        E = calls[0]
        assert len(E) == extension._FIRST_SWEEP == 16
        assert E[0] == lo and E[-1] == hi
        assert (np.diff(E) > 0.0).all()
        want = lo + (hi - lo) * (1.0 - np.cos(np.pi * np.arange(16) / 15)) / 2
        assert np.max(np.abs(E - want)) <= 1e-15 * (abs(lo) + abs(hi))

    def test_empty_window(self):
        counts = _dense_counts(np.diag([1.0, 2.0, 3.0]))
        assert _multisect_gap(counts, 5.0, 6.0, 3, 1e-12) == []

    def test_dirichlet_laplacian_modes(self):
        # -u'' on (0, pi), eigenvalues j^2; refinement converges toward 1 and 4
        errors = []
        for n in (60, 120):
            h = math.pi / (n + 1)
            a = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
                 - np.diag(np.ones(n - 1), -1)) / h**2
            evs = [v for v, _ in _multisect_gap(_dense_counts(a), 0.0, 5.0, 5, 1e-12)]
            dense = np.linalg.eigvalsh(a)
            assert evs == pytest.approx([e for e in dense if 0.0 < e < 5.0], rel=1e-9)
            errors.append(abs(evs[0] - 1.0) + abs(evs[1] - 4.0))
        assert errors[1] < errors[0] / 3.0

    def test_levels_sharing_one_bracket(self):
        # a generalized pencil whose three lowest levels (one double) lie
        # far closer together than the first sweep's spacing; how_many
        # caps the levels returned
        a = np.diag([0.3, 0.3 + 1e-7, 0.6 + 2e-7, 0.9])
        b = np.diag([1.0, 1.0, 2.0, 1.0])
        levels = _multisect_gap(_dense_counts(a, b), 0.0, 1.0, 3, 1e-13)
        assert [v for v, _ in levels] == pytest.approx(
            [0.3, 0.3 + 1e-7, 0.3 + 1e-7], abs=1e-13)

    @pytest.mark.parametrize("fake", ["constant", "noise", "reversed", "huge"])
    def test_wrong_log_det_only_costs_calls(self, fake):
        # log|det| only places shifts and the counts certify every bracket, so
        # a wrong one (here of -u'' on 30 nodes, levels near 1, 4, 9, 16, 25,
        # 36) still gives every level within tol, in at most 4 shifts per open
        # bracket and 32 per call
        n = 30
        h = math.pi / (n + 1)
        a = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
             - np.diag(np.ones(n - 1), -1)) / h**2
        dense = np.linalg.eigvalsh(a)
        oracle, rng, calls = _dense_counts(a), np.random.default_rng(3), []

        def counts(shifts):
            C, logdet = oracle(shifts)
            calls.append((np.array(shifts), C))
            return C, {"constant": np.zeros_like(logdet),
                       "noise": rng.normal(scale=10.0, size=logdet.size),
                       "reversed": -logdet,
                       "huge": rng.normal(scale=1e6, size=logdet.size)}[fake]

        lo, hi, tol = 0.0, 40.0, 1e-12
        levels = _multisect_gap(counts, lo, hi, 5, tol)
        assert [v for v, _ in levels] == pytest.approx(dense[:5], abs=tol)
        assert all(0.0 < w <= tol for _, w in levels)
        _assert_shift_budget(calls, 5, lo, hi, tol)

    @staticmethod
    def _counted(counts):
        calls = []

        def wrapped(shifts):
            calls.append(np.asarray(shifts))
            return counts(shifts)
        return wrapped, calls

    def _warm_matches_cold(self, a, lo, hi, how_many, guesses, tol=1e-12, reach=1e-3):
        # each guess g stands for a coarse level (g, 0.8 tol), the width the
        # model ladders close a bracket to
        cold, cold_calls = self._counted(_dense_counts(a))
        warm, warm_calls = self._counted(_dense_counts(a))
        want = _multisect_gap(cold, lo, hi, how_many, tol)
        got = _multisect_gap(warm, lo, hi, how_many, tol,
                             warm=([(g, 0.8 * tol) for g in guesses], reach))
        assert len(got) == len(want)
        assert [v for v, _ in got] == pytest.approx([v for v, _ in want], abs=tol)
        assert all(0.0 < w <= tol for _, w in got)
        # the count of the gap form is not defined outside the window
        assert all(len(E) <= extension._SHIFTS_PER_SWEEP and lo <= E.min() and E.max() <= hi
                   for E in warm_calls)
        return len(cold_calls), len(warm_calls)

    def test_warm_exact_guesses_one_call(self):
        a = np.diag([0.3, 0.55, 0.8, 1.7])
        assert self._warm_matches_cold(a, 0.0, 1.0, 3, [0.3, 0.55, 0.8])[1] == 1

    def test_warm_guesses_beyond_ladder_fall_back(self):
        # guesses 0.05 off with a ladder reaching 1e-3: the levels are
        # bracketed from the counts as in a cold call
        a = np.diag([0.3, 0.55, 0.8])
        self._warm_matches_cold(a, 0.0, 1.0, 3, [0.35, 0.5, 0.85])

    @pytest.mark.parametrize("guesses", [[0.55], [0.1, 0.3, 0.45, 0.55, 0.7, 0.8, 0.95]])
    def test_warm_fewer_or_more_guesses_than_levels(self, guesses):
        self._warm_matches_cold(np.diag([0.3, 0.55, 0.8]), 0.0, 1.0, 3, guesses)

    def test_warm_guesses_at_or_beyond_window(self):
        a = np.diag([0.3, 0.55, 0.8])
        self._warm_matches_cold(a, 0.0, 1.0, 3, [-0.5, 0.0, 0.55, 1.0, 2.0], reach=0.4)

    def test_warm_more_guesses_than_spare_shifts(self):
        # 20 guesses leave no room for a ladder in one sweep: the first
        # sweep is the cold one
        n = 20
        h = math.pi / (n + 1)
        a = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
             - np.diag(np.ones(n - 1), -1)) / h**2
        dense = np.linalg.eigvalsh(a)
        for count in (8, 20):
            cold_calls, warm_calls = self._warm_matches_cold(
                a, 0.0, dense[-1] + 1.0, count, dense[:count])
            assert warm_calls == cold_calls

    @pytest.mark.parametrize("how_many", [9, 20])
    def test_more_open_brackets_than_one_sweep_takes(self, how_many):
        # -u'' on 20 nodes: the first sweep leaves more than 8 levels open, and
        # every later sweep takes the 8 lowest open brackets, 4 shifts each
        n = 20
        h = math.pi / (n + 1)
        a = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
             - np.diag(np.ones(n - 1), -1)) / h**2
        dense = np.linalg.eigvalsh(a)
        oracle, calls = _dense_counts(a), []

        def counts(shifts):
            C, logdet = oracle(shifts)
            calls.append((np.array(shifts), C))
            return C, logdet

        lo, hi, tol = 0.0, dense[-1] + 1.0, 1e-12
        levels = _multisect_gap(counts, lo, hi, how_many, tol)
        assert [v for v, _ in levels] == pytest.approx(dense[:how_many], abs=tol)
        assert all(0.0 < w <= tol for _, w in levels)
        _assert_shift_budget(calls, how_many, lo, hi, tol)

    def test_coulomb_ten_levels_call_count(self, monkeypatch):
        # ten Dirac-Coulomb levels on both grids: 18 count calls in all, where
        # a 32-shift share over every open bracket took 30
        calls = []

        def gap_counts(fem, problem, inner=_gap_counts):
            counts = inner(fem, problem)

            def recorded(shifts):
                calls.append(len(shifts))
                return counts(shifts)
            return recorded

        monkeypatch.setattr(extension, "_gap_counts", gap_counts)
        pair = parse_pair("coulomb:1", "coulomb:1", c1=0.5, c2=0.5)
        prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, lam=0.0,
                                   grid=RadialGrid.log_uniform(600, 1e-6, 400.0))
        evs = spectrum_in_gap(prob, 10)
        assert [ev.value for ev in evs] == pytest.approx(
            [dirac_coulomb_level(n_r, 0.5) for n_r in range(10)], abs=1e-4)
        assert len(calls) <= 18
        assert max(calls) <= extension._SHIFTS_PER_SWEEP


def _multisect_gap_32(counts, lo, hi, how_many, tol, warm=None):
    """The multisection as it was before per-bracket shares: every later call
    spreads 32 shifts over the open brackets, and the warm ladder has
    (32 - 2) // (2 guesses) rungs per side around the midpoints of the
    coarse (value, width) levels."""
    E = np.linspace(lo, hi, 32)
    if warm and 0 < len(warm[0]) <= 30 // 4:
        (levels, reach), w = warm, 0.4 * tol
        guesses = [v for v, _ in levels]
        ladder = w * (reach / w) ** np.linspace(0.0, 1.0, 30 // (2 * len(guesses)))
        E = np.add.outer(guesses, np.concatenate((-ladder, ladder))).ravel()
        E = np.concatenate(([lo], E[(lo < E) & (E < hi)], [hi]))
    C = counts(E)[0]
    levels = range(C[0], C[0] + min(C[-1] - C[0], how_many))
    while True:
        brackets = _brackets(E, C, levels)
        open_ = sorted({ab for ab in brackets if ab[1] - ab[0] > tol})[:32]
        if not open_:
            return [(float(0.5 * (a + b)), float(b - a)) for a, b in brackets]
        share, extra = divmod(32, len(open_))
        new = np.concatenate([np.linspace(a, b, share + (j < extra) + 2)[1:-1]
                              for j, (a, b) in enumerate(open_)])
        E, C = np.append(E, new), np.append(C, counts(new)[0])


def _brackets(E, C, levels):
    """Each level's tightest bracket (a, b] in the shifts E with counts C."""
    out = []
    for idx in levels:
        b = E[C > idx].min()
        out.append((E[(C <= idx) & (E < b)].max(), b))
    return out


class TestSweepRule:
    """Per-bracket sweeps with shifts placed from log|det| against the 32-shift
    shared sweeps of uniform shifts they replaced."""

    @staticmethod
    def _both_rules(monkeypatch, run, tol=1e-10):
        # (result, warnings) of run() under the new rule and under the old;
        # every bracket either rule closes is at most tol wide; the new rule
        # closes a cold (coarse-grid) multisection in at most 7 count calls
        # and takes no more calls in all than the old one
        out, calls = [], []
        for rule in (_multisect_gap, _multisect_gap_32):
            widths, calls = [], calls + [[]]

            def recorded(counts, *args, rule=rule, **kwargs):
                calls[-1].append([kwargs.get("warm") is None, 0])

                def counted(shifts, tally=calls[-1][-1]):
                    tally[1] += 1
                    return counts(shifts)
                levels = rule(counted, *args, **kwargs)
                widths.extend(w for _, w in levels)
                return levels

            monkeypatch.setattr(extension, "_multisect_gap", recorded)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run()
            assert all(0.0 < w <= tol for w in widths)
            out.append((result, [str(w.message) for w in caught]))
        new_calls, old_calls = calls
        assert max(n for cold, n in new_calls if cold) <= 7
        assert sum(n for _, n in new_calls) <= sum(n for _, n in old_calls)
        return out

    @staticmethod
    def _assert_same(new, old, tol=1e-10):
        assert [ev.index for ev in new] == [ev.index for ev in old]
        assert all(abs(a.value - b.value) <= tol for a, b in zip(new, old))

    @pytest.mark.parametrize("n", [200, 399])
    @pytest.mark.parametrize("k", [0, 1, -2])
    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.8])
    def test_coulomb_levels_match(self, monkeypatch, nu, k, n):
        pair = parse_pair("coulomb:1", "coulomb:1", c1=nu, c2=nu)
        prob = DiracChannelProblem(pair=pair, channel=Channel(k), m=1.0, lam=0.0,
                                   grid=RadialGrid.log_uniform(n, 1e-6, 50.0))
        (new, new_warn), (old, old_warn) = self._both_rules(
            monkeypatch, lambda: spectrum_in_gap(prob, 3))
        assert new_warn == old_warn
        assert len(new) >= 2
        self._assert_same(new, old)

    @pytest.mark.parametrize("k", [0, -2])
    def test_shell_demo_levels_match(self, monkeypatch, k):
        # the shell-mass sweep of demo 05: unit shell at R = 1 with mass
        # a in {0, 0.5, 1}, second weight 0.5/r
        grid = RadialGrid.log_uniform(700, 1e-7, 60.0)
        pairs = [parse_pair("zero", "coulomb:1", c1=0.0, c2=0.5)] + [
            parse_pair("shell:1@1", "coulomb:1", c1=a, c2=0.5) for a in (0.5, 1.0)]
        problems = [DiracChannelProblem(pair=pair, channel=Channel(k), m=1.0, lam=0.0,
                                        grid=grid) for pair in pairs]
        (new, new_warn), (old, old_warn) = self._both_rules(
            monkeypatch, lambda: [spectrum_in_gap(prob, 2) for prob in problems])
        # only a = 0.5 and a = 1 bind, one level each, and only for k = 0:
        # both rules must agree on the empty windows too
        assert new_warn == old_warn
        assert [len(levels) for levels in new] == ([0, 1, 1] if k == 0 else [0, 0, 0])
        for levels_new, levels_old in zip(new, old):
            self._assert_same(levels_new, levels_old)

    def test_readme_problem_matches(self, monkeypatch):
        pair = parse_pair("coulomb:1", "coulomb:1", c1=0.5, c2=0.5)
        prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, lam=0.0,
                                   grid=RadialGrid.log_uniform(1500, 1e-7, 50.0))
        (new, new_warn), (old, old_warn) = self._both_rules(
            monkeypatch, lambda: spectrum_in_gap(prob, 2))
        assert new_warn == old_warn == []
        assert len(new) == 2
        self._assert_same(new, old)


class TestShellOutsideGrid:
    GRID = RadialGrid.log_uniform(100, 1e-6, 50.0)

    def problem(self, R, lam=None):
        pair = parse_pair(f"coulomb:1 + shell:0.01@{R}", "coulomb:1", c1=0.5, c2=0.5)
        return DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, lam=lam,
                                   grid=self.GRID)

    def test_inside_grid(self):
        sol = weak_solve(self.problem(40.0), gauss_profile(0, 1.0))
        assert sol.residual_upper < 1e-4
        evs = spectrum_in_gap(self.problem(40.0, lam=0.0), 2)
        assert [ev.value for ev in evs] == pytest.approx(
            [dirac_coulomb_level(0, 0.5), dirac_coulomb_level(1, 0.5)], abs=1e-4)

    @pytest.mark.parametrize("R", [1e-8, 500.0])
    def test_outside_grid_rejected(self, R):
        for call in (lambda: weak_solve(self.problem(R), gauss_profile(0, 1.0)),
                     lambda: spectrum_in_gap(self.problem(R, lam=0.0), 2)):
            with pytest.raises(ValueError, match="outside the element grid") as err:
                call()
            assert not isinstance(err.value, NotPositiveDefiniteError)


class TestShellDemo:
    def test_monotone_trend_in_mass(self):
        grid = RadialGrid.log_uniform(400, 1e-6, 60.0)
        ground = []
        for a in (0.5, 0.6, 0.7, 0.8):
            pair = parse_pair("shell:1@1", "coulomb:1", c1=a, c2=0.5)
            prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, lam=0.0,
                                       grid=grid)
            ground += [ev.value for ev in spectrum_in_gap(prob, 1)]
        assert len(ground) == 4
        assert all(b < a for a, b in zip(ground, ground[1:]))
