import math
import warnings

import numpy as np
import pytest

from hardydirac import extension
from hardydirac.channels import Channel, exp_profile, gauss_profile
from hardydirac.extension import (
    ConvergenceError,
    DiracChannelProblem,
    _HermiteFem,
    _gap_counts,
    _multisect_gap,
    apply_H,
    h_inner_product,
    norm_equivalence_probe,
    pairing_defect,
    shell_spectrum_demo,
    spectrum_in_gap,
    weak_solve,
)
from hardydirac.numerics import NotPositiveDefiniteError, RadialGrid
from hardydirac.potentials import (
    CoulombPotential,
    PotentialPair,
    ShellMeasure,
    ZeroPotential,
    parse_pair,
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
            num = integrate_radial(
                lambda r: abs(red(r)) ** 2 / (m + prob.w2(r) - lam) ** 2 * r * r).value
            hn = h_inner_product(f, f, prob).real
            assert num <= hn / (m - lam) * (1.0 + 1e-10)


class TestNormEquivalence:
    GALLERY = [exp_profile(p, a) for p in (0, 1) for a in (0.5, 1.0, 2.0)]

    def test_w1_zero_bounds(self):
        pair = parse_pair("zero", "coulomb:1", c1=0.0, c2=0.5)
        prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, lam=0.25,
                                   grid=RadialGrid.log_uniform(200, 1e-7, 50.0))
        rep = norm_equivalence_probe(prob, self.GALLERY)
        # gradient weights differ by (1+w2)/(m+w2-lam) in [1, 1/(m-lam)],
        # mass weights by (m+lam)
        lo = min(1.0, 1.0 / (prob.m - prob.lam), prob.m + prob.lam)
        hi = max(1.0, 1.0 / (prob.m - prob.lam), prob.m + prob.lam)
        assert lo - 1e-9 <= rep.c_low <= rep.c_high <= hi + 1e-9
        assert not rep.suspicious

    def test_coulomb_09_bounded(self):
        pair = parse_pair("coulomb:1", "coulomb:1", c1=0.9, c2=0.9)
        prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0,
                                   grid=RadialGrid.log_uniform(200, 1e-7, 50.0))
        rep = norm_equivalence_probe(prob, self.GALLERY)
        assert 0.0 < rep.c_low <= rep.c_high < math.inf
        assert not rep.suspicious

    def test_supercritical_degrades(self):
        good = parse_pair("coulomb:1", "coulomb:1", c1=0.9, c2=0.9)
        bad = parse_pair("coulomb:1", "coulomb:1", c1=1.6, c2=1.6)
        grid = RadialGrid.log_uniform(200, 1e-7, 50.0)
        # singular-looking trial functions probe the failure
        gallery = self.GALLERY + [exp_profile(-0.45, a) for a in (0.5, 1.0)]
        rep_good = norm_equivalence_probe(
            DiracChannelProblem(pair=good, channel=Channel(0), m=1.0, grid=grid), gallery)
        rep_bad = norm_equivalence_probe(
            DiracChannelProblem(pair=bad, channel=Channel(0), m=1.0, lam=0.5, grid=grid),
            gallery)
        assert rep_bad.c_low < rep_good.c_low

    def test_empty_gallery(self):
        with pytest.raises(ValueError):
            norm_equivalence_probe(free_problem(n=100), [])


class TestWeakSolve:
    def test_zero_data(self):
        sol = weak_solve(free_problem(n=300), None, None)
        assert np.all(sol.phi.values == 0.0)
        assert np.all(sol.chi.values == 0.0)
        assert sol.residual_upper == 0.0

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
        with pytest.raises(NotPositiveDefiniteError):
            weak_solve(prob, exp_profile(0, 1.0), None)
        with pytest.raises(NotPositiveDefiniteError):
            prob.check_hypothesis()

    def test_nonpositive_regime_always_solvable(self):
        pair = PotentialPair(v1_regular=CoulombPotential(1.0),
                             v2=CoulombPotential(1.0), c1=-3.0, c2=1.0)
        prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, lam=0.0,
                                   grid=RadialGrid.log_uniform(600, 1e-7, 50.0))
        assert prob.regime == "nonpositive"
        sol = weak_solve(prob, exp_profile(0, 1.0), None)
        assert sol.residual_upper <= 1e-6

    def test_refinement_contract(self):
        sol = weak_solve(coulomb_problem(n=500), exp_profile(0, 1.0), None,
                         residual_tol=1e-6)
        assert sol.residual_upper <= 1e-6 * 0.5 * 1.01
        with pytest.raises(ConvergenceError) as err:
            weak_solve(coulomb_problem(n=50), exp_profile(0, 1.0), None,
                       residual_tol=1e-300)
        assert "history" in err.value.diagnostics

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

    def test_coefs_bitwise_equal_to_einsum_assembly(self):
        # band builds its element matrices with the routine the gap count
        # batches over shifts; on the zero, Coulomb and shell problems of
        # the solve benchmark the coefficients must equal, bit for bit,
        # those of the einsum/np.add.at assembly (band, load, constrain and
        # equilibration) it replaced
        def einsum_band(fem, mass_vals, grad_vals, k, point_terms=()):
            Dk = fem.Nd - k * fem.N
            em = np.einsum("q,eq,aq,bq->eab", fem.wq, mass_vals, fem.N, fem.N,
                           optimize=True)
            em += np.einsum("q,eq,aq,bq->eab", fem.wq, grad_vals, Dk, Dk,
                            optimize=True)
            ab = np.zeros((6, fem.ndof))
            base = np.arange(fem.n_nodes - 1) * 3
            for a in range(6):
                for b in range(a, 6):
                    np.add.at(ab, (b - a, base + a), em[:, a, b])
            for radius, weight in point_terms:
                el, shapes, _, _ = fem._element_shapes(radius)
                outer = weight * np.outer(shapes, shapes)
                for a in range(6):
                    for b in range(a, 6):
                        ab[b - a, el * 3 + a] += outer[a, b]
            return ab

        def add_at_load(fem, f1_vals, f2_vals, k):
            Dk = fem.Nd - k * fem.N
            elt = np.einsum("q,eq,aq->ea", fem.wq, f1_vals, fem.N, optimize=True)
            elt -= np.einsum("q,eq,aq->ea", fem.wq, f2_vals, Dk, optimize=True)
            b = np.zeros(fem.ndof)
            base = np.arange(fem.n_nodes - 1) * 3
            for a in range(6):
                np.add.at(b, base + a, elt[:, a])
            return b

        def loop_constrain(fem, ab):
            for idx in fem.fixed:
                for d in range(6):
                    if idx + d < fem.ndof:
                        ab[d, idx] = 0.0
                    if idx - d >= 0:
                        ab[d, idx - d] = 0.0
                ab[0, idx] = 1.0
            return ab

        def loop_scaled_copy(ab):
            d = np.abs(ab[0]).copy()
            d[d < 1e-300] = 1.0
            s = 1.0 / np.sqrt(d)
            out = np.array(ab, dtype=float, copy=True)
            for i in range(ab.shape[0]):
                j = np.arange(ab.shape[1] - i)
                out[i, j] *= s[j] * s[j + i]
            return out, s

        grid = RadialGrid.log_uniform(2000, 1e-7, 50.0)
        pairs = {
            "zero": (PotentialPair(c1=0.0, c2=0.0), 0, 0.3),
            "coulomb": (PotentialPair(v1_regular=CoulombPotential(1.0),
                                      v2=CoulombPotential(1.0), c1=0.6, c2=0.7), -2, None),
            "shell": (PotentialPair(v1_regular=ZeroPotential(),
                                    v1_shells=(ShellMeasure(R=1.3, a=1.0),),
                                    v2=CoulombPotential(1.0), c1=0.4, c2=0.5), 1, None),
        }
        F1 = exp_profile(1, 1.2, coef=0.7)
        F2 = gauss_profile(2, 0.9, coef=-0.4)
        for pair, k, lam in pairs.values():
            prob = DiracChannelProblem(pair=pair, channel=Channel(k), m=1.0, lam=lam,
                                       grid=grid)
            sol = weak_solve(prob, F1, F2)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_HermiteFem, "band", einsum_band)
                mp.setattr(_HermiteFem, "load", add_at_load)
                mp.setattr(_HermiteFem, "constrain", loop_constrain)
                mp.setattr(extension, "_scaled_copy", loop_scaled_copy)
                ref = weak_solve(prob, F1, F2)
            assert np.array_equal(sol.coefs, ref.coefs)

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


class TestApplyH:
    def test_zero(self):
        res = apply_H(free_problem(n=200), None, None)
        assert np.all(res.upper.values == 0.0)
        assert np.all(res.lower.values == 0.0)

    def test_free_exp(self):
        prob = free_problem(n=300)
        res = apply_H(prob, exp_profile(0, 1.0), None)
        r = prob.grid.nodes
        np.testing.assert_allclose(res.upper.values, np.exp(-r), rtol=1e-10)
        np.testing.assert_allclose(res.lower.values, np.exp(-r), rtol=1e-10)

    def test_shell_charges_reported(self):
        pair = parse_pair("shell:0.5@1", "coulomb:1", c1=0.8, c2=0.5)
        prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0,
                                   grid=RadialGrid.log_uniform(300, 1e-7, 50.0))
        res = apply_H(prob, exp_profile(0, 1.0), None)
        (radius, charge), = res.shell_charges
        assert radius == 1.0
        assert charge == pytest.approx(0.8 * 0.5 * math.exp(-1.0), rel=1e-9)

    def test_roundtrip_reproduces_data(self):
        prob = coulomb_problem(n=1000)
        F1 = exp_profile(0, 1.0)
        sol = weak_solve(prob, F1, None)
        res = apply_H(prob, sol.phi, sol.chi)
        r = prob.grid.nodes
        inner = (r > 1e-3) & (r < 20.0)
        np.testing.assert_allclose(res.upper.values[inner].real,
                                   np.exp(-r[inner]), atol=2e-4, rtol=2e-3)

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
        # an estimate of 0.0 for a level that is off by 1.8e-8
        pair = parse_pair("coulomb:1", "coulomb:1", c1=0.5, c2=0.5)
        grid = RadialGrid.log_uniform(200, 1e-6, 50.0)
        prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, lam=0.0,
                                   grid=grid)
        evs = spectrum_in_gap(prob, 2)
        fine_grid = RadialGrid.log_uniform(399, 1e-6, 50.0)
        levels = {}
        for g in (grid, fine_grid):
            levels[g.n] = _multisect_gap(_gap_counts(_HermiteFem(g), prob),
                                         -1.0 + 1e-9, 1.0 - 1e-9, 2, 1e-10)
        for ev, (coarse, _), (fine, width) in zip(evs, levels[200], levels[399]):
            assert ev.value == fine
            assert ev.error_estimate == max(abs(fine - coarse), width)
            assert 0.0 < width <= 1e-10
            assert ev.error_estimate > 0.0

    @pytest.mark.parametrize("k", [0, 1, -2])
    def test_levels_consistent_with_counts(self, k):
        # every level E_i satisfies count(E_i - tol) <= i < count(E_i + tol)
        # on the grid it was reported from
        prob = coulomb_problem(nu=0.6, n=150, lam=0.0, k=k)
        tol = 1e-10
        evs = spectrum_in_gap(prob, 2, tol=tol)
        fine = RadialGrid.log_uniform(2 * prob.grid.n - 1, prob.grid.r_min,
                                      prob.grid.r_max)
        counts = _gap_counts(_HermiteFem(fine), prob)
        c_lo = counts([-1.0 + 1e-9])[0]
        for ev in evs:
            below, above = counts([ev.value - tol, ev.value + tol]) - c_lo
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
    """Oracle count function of the pencil A - E B: eigvalsh of each shift."""
    b = np.eye(len(a)) if b is None else b

    def counts(shifts):
        return np.array([int(np.sum(np.linalg.eigvalsh(a - E * b) < 0.0))
                         for E in shifts])
    return counts


class TestMultisectGap:
    def test_diagonal_pencil(self):
        counts = _dense_counts(np.diag([1.0, 2.0, 3.0]))
        levels = _multisect_gap(counts, 0.5, 2.5, 3, 1e-12)
        assert [v for v, _ in levels] == pytest.approx([1.0, 2.0], abs=1e-12)
        assert all(0.0 < w <= 1e-12 for _, w in levels)

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
    def test_zero_mass_matches_w2_only(self):
        grid = RadialGrid.log_uniform(300, 1e-6, 60.0)
        rows = shell_spectrum_demo([0.0], R=1.0, nu=0.5, k_set=(0,), count=2, grid=grid)
        pair = parse_pair("zero", "coulomb:1", c1=0.0, c2=0.5)
        prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, lam=0.0,
                                   grid=grid)
        direct = spectrum_in_gap(prob, 2)
        assert [r["E"] for r in rows] == [ev.value for ev in direct]

    def test_monotone_trend_in_mass(self):
        grid = RadialGrid.log_uniform(400, 1e-6, 60.0)
        rows = shell_spectrum_demo([0.5, 0.6, 0.7, 0.8], R=1.0, nu=0.5,
                                   k_set=(0,), count=1, grid=grid)
        ground = [r["E"] for r in rows if r["index"] == 0]
        assert len(ground) == 4
        assert all(b < a for a, b in zip(ground, ground[1:]))
        assert all(not r["flagged"] for r in rows)

    def test_outside_regime_flagged(self):
        grid = RadialGrid.log_uniform(200, 1e-6, 60.0)
        with pytest.warns(UserWarning, match="outside the guaranteed regime"):
            rows = shell_spectrum_demo([1.0], R=1.0, nu=0.5, k_set=(0,), count=1,
                                       grid=grid)
        assert all(r["flagged"] for r in rows)
