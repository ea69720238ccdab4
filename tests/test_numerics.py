import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardydirac.channels import Channel, GridProfile, exp_profile
from hardydirac.extension import DiracChannelProblem, _HermiteFem, _gap_counts
from hardydirac.numerics import (
    RadialGrid,
    UnboundedError,
    _scaled_copy,
    integrate_radial,
    ldl_inertia,
    sup_over_r,
)
from hardydirac.potentials import parse_pair
from hardydirac.verify import random_field_gallery


def _moment(n: int, a: float) -> float:
    """int_0^inf r^n e^{-2 a r} dr."""
    return math.gamma(n + 1) / (2.0 * a) ** (n + 1)


def _coulomb_grad_term(nu2, k, coef, p, a):
    """int (r/nu2) |f' - k f/r|^2 r^2 dr for f = coef r^p e^{-a r}."""
    n = int(2 * p + 1)
    d = p - k
    return abs(coef) ** 2 / nu2 * (d * d * _moment(n, a) - 2.0 * a * d * _moment(n + 1, a)
                                   + a * a * _moment(n + 2, a))


class TestIntegrateRadial:
    def test_gamma_three(self):
        q = integrate_radial(lambda r: np.exp(-r) * r * r)
        assert q.value == pytest.approx(2.0, abs=1e-10)
        assert q.abs_error_estimate >= 0

    def test_inverse_sqrt_singularity(self):
        q = integrate_radial(lambda r: r ** -0.5, a=0.0, b=1.0)
        assert q.value == pytest.approx(2.0, abs=1e-9)

    def test_coulomb_pair_integrand(self):
        # (V1+V2) t^2 for V = 1/t integrates to r^2
        q = integrate_radial(lambda r: 2.0 * r, a=0.0, b=3.0)
        assert q.value == pytest.approx(9.0, abs=1e-9)

    def test_error_within_estimate(self):
        q = integrate_radial(lambda r: np.exp(-2 * r) * r ** 3)
        assert abs(q.value - 6.0 / 16.0) <= max(q.abs_error_estimate, 1e-12)

    def test_nan_integrand_rejected(self):
        with pytest.raises(ValueError):
            integrate_radial(lambda r: float("nan"), a=1.0, b=2.0)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            integrate_radial(lambda r: r, a=2.0, b=1.0)

    def test_nonconvergence_carries_partial_result(self):
        from hardydirac.numerics import QuadratureError
        with pytest.raises(QuadratureError) as err:
            # ~1.6e7 oscillation periods exhaust the subdivision budget
            integrate_radial(lambda r: np.cos(1e8 * r), a=1.0, b=2.0)
        assert math.isfinite(err.value.value)
        assert err.value.estimate > 0.0

    def test_quadrant_validation(self):
        from hardydirac.numerics import Quadrant
        with pytest.raises(ValueError):
            Quadrant(float("inf"), 0.0)
        with pytest.raises(ValueError):
            Quadrant(1.0, -1e-3)

    def test_breakpoints_catch_narrow_feature(self):
        # a narrow annular bump has unit mass; without the breakpoints the
        # adaptive rule on the wide log window could step straight over it
        lo, hi = 5.0 - 1e-3, 5.0 + 1e-3
        f = lambda r: np.where((lo < r) & (r < hi), 500.0, 0.0)
        q = integrate_radial(f, breakpoints=(lo, 5.0, hi))
        assert q.value == pytest.approx(1.0, rel=1e-8)

    def test_integrand_called_on_arrays(self):
        shapes = []

        def f(r):
            shapes.append(r.shape)
            return np.exp(-r) * r * r

        integrate_radial(f)
        assert shapes and all(len(shape) == 1 and shape[0] > 1 for shape in shapes)

    def test_cancelling_integrand_converges_to_zero(self):
        # odd in t = log r: the panels reach round-off, not a relative tolerance
        q = integrate_radial(lambda r: np.sin(np.log(r)) * np.exp(-np.log(r) ** 2) / r)
        assert abs(q.value) <= 1e-15

    def test_double_root_gradient_side(self):
        # |f' - 3 f/r|^2 for f = r^4 e^{-a r} has a double root at r = 1/a; a
        # starting panel as wide as [1, 1e60] reads a small |G16 - G8| across
        # it and misses the integral by up to 1e-4 relative
        a, nu2 = 1.3398914747697246, 2.0
        prof = exp_profile(4, a)
        red = prof.reduced(3)
        q = integrate_radial(lambda r: r / nu2 * np.abs(red(r)) ** 2 * r * r)
        assert q.value == pytest.approx(_coulomb_grad_term(nu2, 3, 1.0, 4, a), rel=1e-12)

    def test_estimate_bounds_error_on_coulomb_sides(self):
        # both sides of the Coulomb inequality over a random gallery, against
        # their Gamma-function closed forms
        for field in random_field_gallery(40, seed=0):
            for ch, prof in field.terms:
                (term,) = prof.terms
                red = prof.reduced(ch.k)
                for nu in (0.5, 2.0):
                    lhs = integrate_radial(lambda r: nu * np.abs(prof(r)) ** 2 * r)
                    grad = integrate_radial(lambda r: np.abs(red(r)) ** 2 * r ** 3 / nu)
                    exact_lhs = nu * abs(term.coef) ** 2 * _moment(int(2 * term.p + 1), term.a)
                    exact_grad = _coulomb_grad_term(nu, ch.k, term.coef, term.p, term.a)
                    assert abs(lhs.value - exact_lhs) <= lhs.abs_error_estimate
                    assert abs(grad.value - exact_grad) <= grad.abs_error_estimate

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, alpha, beta):
        f = lambda r: np.exp(-r) * r * r
        g = lambda r: np.exp(-2.0 * r) * r
        combo = integrate_radial(lambda r: alpha * f(r) + beta * g(r)).value
        separate = alpha * integrate_radial(f).value + beta * integrate_radial(g).value
        assert combo == pytest.approx(separate, abs=1e-9)


class TestSupOverR:
    def test_unimodal(self):
        res = sup_over_r(lambda r: r * r * math.exp(-r))
        assert res.value == pytest.approx(4.0 * math.exp(-2.0), rel=1e-10)
        assert res.argmax == pytest.approx(2.0, abs=1e-5)

    def test_never_below_samples(self):
        g = lambda r: r * r * math.exp(-r)
        res = sup_over_r(g)
        rs = np.exp(np.linspace(math.log(1e-5), math.log(1e5), 5001))
        assert res.value >= max(g(r) for r in rs) - 1e-12

    def test_zero_function(self):
        res = sup_over_r(lambda r: 0.0)
        assert res.value == 0.0

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            sup_over_r(lambda r: 1.0 / r)

    def test_limit_tag_at_infinity(self):
        res = sup_over_r(lambda r: r / (1.0 + r))
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert res.tag == "r->inf"

    def test_explicit_candidate_jump(self):
        g = lambda r: 1.0 if r >= 3.0 else 0.0
        res = sup_over_r(g, candidates=(3.0,))
        assert res.value == 1.0


def _banded_to_dense(ab: np.ndarray) -> np.ndarray:
    n = ab.shape[1]
    a = np.zeros((n, n))
    for d in range(ab.shape[0]):
        i = np.arange(n - d)
        a[i + d, i] = ab[d, i]
        a[i, i + d] = ab[d, i]
    return a


def _elements(dense: np.ndarray) -> np.ndarray:
    """(nel, 6, 6) element matrices that assemble to a block-tridiagonal matrix."""
    n = dense.shape[0] // 3
    em = np.array([dense[3 * e:3 * e + 6, 3 * e:3 * e + 6] for e in range(n - 1)])
    em[:-1, 3:, 3:] = 0.0      # node e+1's diagonal block comes with element e+1
    return em


def _equilibrated(a: np.ndarray) -> np.ndarray:
    s = 1.0 / np.sqrt(np.abs(np.diag(a)))
    return a * s[:, None] * s[None, :]


class TestInertia:
    @pytest.mark.parametrize("k", [0, 1, -2])
    def test_gap_counts_match_dense_oracle(self, k):
        # the E-dependent Dirac-Coulomb form that spectrum_in_gap counts on,
        # all 40 shifts in one batched sweep; the raw matrix spans ~20
        # decades, so the dense oracle is taken of the equilibrated one,
        # which has the same inertia
        pair = parse_pair("coulomb:1", "coulomb:1", c1=0.5, c2=0.5)
        prob = DiracChannelProblem(pair=pair, channel=Channel(k), m=1.0, lam=0.0,
                                   grid=RadialGrid.log_uniform(200, 1e-6, 50.0))
        fem = _HermiteFem(prob.grid)
        rq = fem.rq
        shifts = np.concatenate([np.linspace(-0.99, 0.8, 8),
                                 1.0 - np.geomspace(0.2, 1e-4, 32)])
        expected = []
        for E in shifts:
            ab = fem.band((1.0 - prob.w1(rq) - E) * rq**3,
                          rq / (1.0 + prob.w2(rq) + E), k)
            scaled, s = _scaled_copy(fem.constrain(ab))
            assert np.all(s > 0.0)
            expected.append(int(np.sum(np.linalg.eigvalsh(_banded_to_dense(scaled)) < 0.0)))
        assert list(_gap_counts(fem, prob)(shifts)) == expected
        assert expected == sorted(expected) and expected[-1] >= 3

    def test_random_block_tridiagonal(self):
        # indefinite matrices over 20 decades of diagonal scale
        rng = np.random.default_rng(7)
        n_nodes = 12
        mats = []
        for _ in range(16):
            a = np.zeros((3 * n_nodes, 3 * n_nodes))
            for i in range(n_nodes):
                lo, hi = 3 * max(i - 1, 0), 3 * i + 3
                a[3 * i:3 * i + 3, lo:hi] = rng.normal(size=(3, hi - lo))
            a = a + a.T
            scale = np.exp(rng.uniform(-23.0, 23.0, 3 * n_nodes))
            mats.append(a * scale[:, None] * scale[None, :])
        got = ldl_inertia(np.stack([_elements(a) for a in mats]), np.arange(16.0))
        expected = [int(np.sum(np.linalg.eigvalsh(_equilibrated(a)) < 0.0)) for a in mats]
        assert list(got) == expected
        assert 0 < min(expected) and max(expected) < 3 * n_nodes

    def test_zero_pivot_counts_negative(self):
        # shifts landing exactly on eigenvalues of the diagonal pencil
        # diag(1..6) - E I: the eigenvalue at the shift is counted below it
        shifts = np.array([0.5, 1.0, 2.0, 3.5, 6.0, 7.0])
        em = np.stack([_elements(np.diag(np.arange(1.0, 7.0)) - E * np.eye(6))
                       for E in shifts])
        assert list(ldl_inertia(em, shifts)) == [0, 1, 2, 3, 6, 6]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_pivot_raises(self, bad):
        em = np.stack([_elements(np.diag(np.arange(1.0, 7.0)))] * 3)
        em[1, 0, 4, 4] = bad
        with pytest.raises(ValueError, match="E=0.25"):
            ldl_inertia(em, np.array([0.0, 0.25, 0.5]))


class TestRadialGrid:
    def test_log_uniform(self):
        g = RadialGrid.log_uniform(100, 1e-6, 50.0)
        assert g.r_min == pytest.approx(1e-6)
        assert g.r_max == pytest.approx(50.0)
        assert np.all(np.diff(g.nodes) > 0)

    def test_refined(self):
        g = RadialGrid.log_uniform(100, 1e-6, 50.0)
        f = g.refined()
        assert f.n >= 2 * g.n
        assert f.r_min == pytest.approx(g.r_min / 2.0)
        assert f.r_max == pytest.approx(g.r_max * 2.0)

    def test_log_step(self):
        g = RadialGrid.log_uniform(100, 1e-6, 50.0)
        assert g.log_step == pytest.approx(math.log(50.0 / 1e-6) / 99, rel=1e-12)

    def test_nonuniform_log_step_rejected(self):
        # every other node of a log grid plus midpoints of the first intervals
        base = RadialGrid.log_uniform(400, 1e-7, 50.0).nodes[::2]
        extra = np.sqrt(base[:100] * base[1:101])
        grid = RadialGrid(np.sort(np.concatenate([base, extra])))
        assert grid.n == 300
        with pytest.raises(ValueError, match="uniformly spaced"):
            grid.log_step
        with pytest.raises(ValueError, match="uniformly spaced"):
            GridProfile(grid, np.exp(-grid.nodes)).reduced(0)

    def test_bad_nodes(self):
        with pytest.raises(ValueError):
            RadialGrid(np.array([1.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            RadialGrid(np.array([-1.0, 2.0]))
