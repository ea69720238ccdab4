import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardydirac.channels import Channel, exp_profile
from hardydirac.extension import DiracChannelProblem, _HermiteFem, _gap_counts, _problem_form
from hardydirac.numerics import (
    NotPositiveDefiniteError,
    RadialGrid,
    UnboundedError,
    _eliminate_evens,
    _equilibrate,
    integrate_radial,
    ldl_inertia,
    spd_factor,
    spd_solve,
    sup_over_r,
)
from hardydirac.potentials import (
    CoulombPotential,
    MollifiedShell,
    ShellMeasure,
    SumPotential,
    TablePotential,
    _hardy_integrand,
    _hardy_slope,
    parse_pair,
)
from hardydirac.verify import random_field_gallery
from reference_assembly import banded_to_dense, loop_scaled_copy, reference_form


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
        (value,), (estimate,) = integrate_radial(lambda r: np.exp(-r) * r * r)
        assert value == pytest.approx(2.0, abs=1e-10)
        assert estimate >= 0

    def test_inverse_sqrt_singularity(self):
        (value,), _ = integrate_radial(lambda r: r ** -0.5, (0.0, 1.0))
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_coulomb_pair_integrand(self):
        # (V1+V2) t^2 for V = 1/t integrates to r^2
        (value,), _ = integrate_radial(lambda r: 2.0 * r, (0.0, 3.0))
        assert value == pytest.approx(9.0, abs=1e-9)

    def test_error_within_estimate(self):
        (value,), (estimate,) = integrate_radial(lambda r: np.exp(-2 * r) * r ** 3)
        assert abs(value - 6.0 / 16.0) <= max(estimate, 1e-12)

    def test_nan_integrand_rejected(self):
        with pytest.raises(ValueError):
            integrate_radial(lambda r: float("nan"), (1.0, 2.0))

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            integrate_radial(lambda r: r, (2.0, 1.0))

    def test_nonconvergence_carries_partial_result(self):
        from hardydirac.numerics import QuadratureError
        with pytest.raises(QuadratureError) as err:
            # ~1.6e7 oscillation periods exhaust the subdivision budget
            integrate_radial(lambda r: np.cos(1e8 * r), (1.0, 2.0))
        assert math.isfinite(err.value.value)
        assert err.value.estimate > 0.0

    def test_breakpoints_catch_narrow_feature(self):
        # a narrow annular bump has unit mass; without the breakpoints the
        # adaptive rule on the wide log window could step straight over it
        lo, hi = 5.0 - 1e-3, 5.0 + 1e-3
        f = lambda r: np.where((lo < r) & (r < hi), 500.0, 0.0)
        (value,), _ = integrate_radial(f, breakpoints=(lo, 5.0, hi))
        assert value == pytest.approx(1.0, rel=1e-8)

    def test_integrand_called_on_arrays(self):
        shapes = []

        def f(r):
            shapes.append(r.shape)
            return np.exp(-r) * r * r

        integrate_radial(f)
        assert shapes and all(len(shape) == 1 and shape[0] > 1 for shape in shapes)

    def test_cancelling_integrand_converges_to_zero(self):
        # odd in t = log r: the panels reach round-off, not a relative tolerance
        (value,), _ = integrate_radial(lambda r: np.sin(np.log(r)) * np.exp(-np.log(r) ** 2) / r)
        assert abs(value) <= 1e-15

    def test_double_root_gradient_side(self):
        # |f' - 3 f/r|^2 for f = r^4 e^{-a r} has a double root at r = 1/a; a
        # starting panel as wide as [1, 1e60] reads a small |G16 - G8| across
        # it and misses the integral by up to 1e-4 relative
        a, nu2 = 1.3398914747697246, 2.0
        prof = exp_profile(4, a)
        red = prof.reduced(3)
        (value,), _ = integrate_radial(lambda r: r / nu2 * np.abs(red(r)) ** 2 * r * r)
        assert value == pytest.approx(_coulomb_grad_term(nu2, 3, 1.0, 4, a), rel=1e-12)

    def test_estimate_bounds_error_on_coulomb_sides(self):
        # both sides of the Coulomb inequality over a random gallery, against
        # their Gamma-function closed forms
        for field in random_field_gallery(40, seed=0):
            for ch, prof in field.terms:
                (term,) = prof.terms
                red = prof.reduced(ch.k)
                for nu in (0.5, 2.0):
                    (lhs,), (lhs_est,) = integrate_radial(lambda r: nu * np.abs(prof(r)) ** 2 * r)
                    (grad,), (grad_est,) = integrate_radial(
                        lambda r: np.abs(red(r)) ** 2 * r ** 3 / nu)
                    exact_lhs = nu * abs(term.coef) ** 2 * _moment(int(2 * term.p + 1), term.a)
                    exact_grad = _coulomb_grad_term(nu, ch.k, term.coef, term.p, term.a)
                    assert abs(lhs - exact_lhs) <= lhs_est
                    assert abs(grad - exact_grad) <= grad_est

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, alpha, beta):
        f = lambda r: np.exp(-r) * r * r
        g = lambda r: np.exp(-2.0 * r) * r
        (combo,), _ = integrate_radial(lambda r: alpha * f(r) + beta * g(r))
        (f_value,), _ = integrate_radial(f)
        (g_value,), _ = integrate_radial(g)
        separate = alpha * f_value + beta * g_value
        assert combo == pytest.approx(separate, abs=1e-9)


class TestIntegrateSegments:
    # the supremum scan: 433 log-uniform radii over [1e-6, 1e6], from 0
    SCAN = np.concatenate([[0.0], np.exp(np.linspace(math.log(1e-6), math.log(1e6), 433))])

    @pytest.mark.parametrize("e", [-6, -2, 2, 8])
    def test_estimate_bounds_error_per_segment(self, e):
        # int s^(e-1) ds = (b^e - a^e)/e on every segment, in exact rational
        # arithmetic; for e < 0 the segments run from the first scan radius
        # to infinity.  On these narrow segments |G16 - G8| is nil and the
        # error is round-off of the log substitution, which the estimate
        # has to include.
        edges = np.append(self.SCAN[1:], math.inf) if e < 0 else self.SCAN
        values, estimates = integrate_radial(lambda s: s ** (e - 1.0), edges)
        power = [Fraction(0) if x == 0.0 or math.isinf(x) else Fraction(x) ** e for x in edges]
        exact = np.array([float((b - a) / e) for a, b in zip(power[:-1], power[1:])])
        assert np.all(np.abs(values - exact) <= estimates)
        assert np.all(estimates <= 1e-10 * np.abs(exact))

    @pytest.mark.parametrize("e", [-2, 2])
    def test_matches_one_segment_calls(self, e):
        # mollified shell plus Coulomb, with the shell edges as breakpoints
        pair = parse_pair("mshell:0.5,0.5@2 + coulomb:0.3", "coulomb:1")
        v = pair.v1_regular
        bps = v.breakpoints()        # v2 = 1/r has none
        f = lambda s: (v(s) + pair.v2(s)) * s ** e
        edges = np.append(self.SCAN[1:], math.inf) if e < 0 else self.SCAN
        values, _ = integrate_radial(f, edges, bps)
        one = [integrate_radial(f, (a, b), bps)[0][0] for a, b in zip(edges[:-1], edges[1:])]
        assert values == pytest.approx(one, rel=1e-14, abs=0.0)

    def test_edges_one_float_apart(self):
        # a segment or piece one float wide, as between a jump candidate and
        # its float neighbours: the mid of its one panel may round onto an edge
        below = np.nextafter(3.0, 0.0)
        (value,), _ = integrate_radial(lambda s: np.exp(-s), (below, math.inf), (3.0,))
        assert value == pytest.approx(math.exp(-3.0), rel=1e-14)
        edges = [below, 3.0, np.nextafter(3.0, 4.0), 5.0]
        values, _ = integrate_radial(lambda s: np.exp(-s), edges)
        assert values[:2].tolist() == pytest.approx([0.0, 0.0], abs=1e-15)
        assert values.sum() == pytest.approx(math.exp(-3.0) - math.exp(-5.0), rel=1e-14)

    def test_edge_order(self):
        # a repeated edge is a segment of width 0; a decreasing one is an error
        values, estimates = integrate_radial(lambda s: s, [0.0, 1.0, 1.0, 2.0])
        assert values.tolist() == pytest.approx([0.5, 0.0, 1.5], rel=1e-14)
        assert values[1] == 0.0 and estimates[1] == 0.0
        with pytest.raises(ValueError):
            integrate_radial(lambda s: s, [0.0, 2.0, 1.0])

    def test_segments_beyond_the_clipped_window(self):
        # radii past 1e60 are clipped away, and the integrand is never called
        values, estimates = integrate_radial(lambda s: pytest.fail("called"), [1e70, 1e80, 1e90])
        assert values.tolist() == [0.0, 0.0] and estimates.tolist() == [0.0, 0.0]


class TestVectorIntegrand:
    # an (m, n) integrand: m integrals under one shared subdivision
    def test_components_match_their_scalar_calls(self):
        pair = parse_pair("mshell:0.5,0.5@2 + coulomb:0.3", "coulomb:1")
        v = pair.v1_regular
        bps = v.breakpoints()        # v2 = 1/r has none
        fs = [lambda s: v(s) * s ** 2, lambda s: np.exp(-s) * s,
              lambda s: s ** -0.5 * np.exp(-s * s), lambda s: 1e-9 * np.exp(-3.0 * s) * s ** 4]
        edges = [0.0, 0.5, 2.0, 2.0, 7.0, math.inf]
        values, estimates = integrate_radial(lambda s: np.array([f(s) for f in fs]), edges, bps)
        assert values.shape == estimates.shape == (len(fs), len(edges) - 1)
        for f, value, estimate in zip(fs, values, estimates):
            one, one_est = integrate_radial(f, edges, bps)
            assert np.all(np.abs(value - one) <= estimate + one_est)

    def test_each_component_within_its_own_estimate(self):
        # both Coulomb sides of each gallery term, plus a third integral 1e-12
        # the size of the first with the next term's profile: a rule that
        # accepted panels on the norm of all components would hold that one
        # only to about 1e-10 of the largest
        nu = 0.5
        terms = [(ch.k, prof) for field in random_field_gallery(40, seed=0)
                 for ch, prof in field.terms]
        for (k, prof), (_, other) in zip(terms, terms[1:] + terms[:1]):
            (term,), (small,) = prof.terms, other.terms
            red = prof.reduced(k)
            values, estimates = integrate_radial(lambda r: np.array([
                nu * np.abs(prof(r)) ** 2 * r, np.abs(red(r)) ** 2 * r ** 3 / nu,
                1e-12 * nu * np.abs(other(r)) ** 2 * r]), [0.0, math.inf])
            exact = np.array([
                nu * abs(term.coef) ** 2 * _moment(int(2 * term.p + 1), term.a),
                _coulomb_grad_term(nu, k, term.coef, term.p, term.a),
                1e-12 * nu * abs(small.coef) ** 2 * _moment(int(2 * small.p + 1), small.a)])
            assert np.all(np.abs(values[:, 0] - exact) <= estimates[:, 0])
            assert np.all(estimates[:, 0] <= 1e-9 * exact)

    def test_value_independent_of_batch(self):
        # a component runs the rule on its own open panels, whatever it is
        # batched with, so it reads bit for bit as its own call (the steep
        # mollified shell takes the floor's derivative term)
        shell = parse_pair("mshell:0.5,0.5@2", "coulomb:1").v1_regular
        fs = [lambda s: np.exp(-s) * s * s, lambda s: np.exp(-0.1 * s * s) * s ** 3,
              lambda s: s / (1.0 + s) ** 4, lambda s: shell(s) * s ** 4]
        edges, bps = [0.0, 1.0, math.inf], shell.breakpoints()
        together = integrate_radial(lambda s: np.array([f(s) for f in fs]), edges, bps)
        for f, value, estimate in zip(fs, *together):
            alone = integrate_radial(lambda s: f(s)[None], edges, bps)
            assert [x.tolist() for x in alone] == [[value.tolist()], [estimate.tolist()]]
            assert [x.tolist() for x in integrate_radial(f, edges, bps)] == [
                value.tolist(), estimate.tolist()]

    def test_nonfinite_component_rejected(self):
        f = lambda s: np.array([np.exp(-s), np.where(s > 3.0, np.nan, s)])
        with pytest.raises(ValueError, match="non-finite value at r=") as err:
            integrate_radial(f, [0.0, math.inf])
        assert float(str(err.value).rsplit("r=", 1)[1]) > 3.0

    def test_one_dimensional_integrand_keeps_1d_results(self):
        values, estimates = integrate_radial(lambda s: np.exp(-s), [0.0, 1.0, math.inf])
        assert values.shape == estimates.shape == (2,)
        values, estimates = integrate_radial(lambda s: np.exp(-s)[None], [0.0, 1.0, math.inf])
        assert values.shape == estimates.shape == (1, 2)


_SCAN = np.exp(np.linspace(math.log(1e-6), math.log(1e6), 433))


# a slope for ``sup_over_r`` maps radii r and values v = g(r) to dg/dt and
# its t-derivative, t = ln r


def _r_slope(d1, d2):
    """The slope from g' and g'' in r: r g' and r g' + r^2 g''."""
    return lambda r, v: (r * d1(r), r * d1(r) + r * r * d2(r))


_GAMMA = (lambda r: r * r * np.exp(-r), lambda r, v: ((2.0 - r) * v, ((2.0 - r) ** 2 - r) * v))
# a constant 1/2 computed with round-off, differentiated as a Hardy integrand
# with e = 2 and r V = 1 is: p = 1 - 2 g, dp = -2 p
_FLAT_SLOPE = lambda r, v: (1.0 - 2.0 * v, -2.0 * (1.0 - 2.0 * v))
_ZERO_SLOPE = lambda r, v: (np.zeros_like(r), np.zeros_like(r))


def _rational_slope(r, v):
    """The slope of r^3 / (1 + r^5) = e^3t / (1 + e^5t)."""
    q = r ** 5 / (1.0 + r ** 5)
    return v * (3.0 - 5.0 * q), v * ((3.0 - 5.0 * q) ** 2 - 25.0 * q * (1.0 - q))


def _gauss(c, w):
    """A Gaussian of width w in log r, centred at log r = c, with its slope."""
    s = lambda r: -2.0 * (np.log(r) - c) / w ** 2
    return (lambda r: np.exp(-((np.log(r) - c) / w) ** 2),
            lambda r, v: (s(r) * v, (s(r) ** 2 - 2.0 / w ** 2) * v))


def _counted(g, sizes):
    def counted(r):
        sizes.append(r.size)
        return g(r)
    return counted


class TestSupOverR:
    def test_unimodal(self):
        res = sup_over_r(*_GAMMA)
        assert res.value == pytest.approx(4.0 * math.exp(-2.0), rel=1e-10)
        assert res.argmax == pytest.approx(2.0, abs=1e-5)

    def test_never_below_samples(self):
        g, slope = _GAMMA
        res = sup_over_r(g, slope)
        rs = np.exp(np.linspace(math.log(1e-5), math.log(1e5), 5001))
        assert res.value >= np.max(g(rs)) - 1e-12

    def test_zero_function(self):
        res = sup_over_r(np.zeros_like, _ZERO_SLOPE)
        assert res.value == 0.0

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            sup_over_r(lambda r: 1.0 / r, _r_slope(lambda r: -1.0 / r ** 2, lambda r: 2.0 / r ** 3))

    def test_limit_tag_at_infinity(self):
        res = sup_over_r(lambda r: r / (1.0 + r),
                         _r_slope(lambda r: 1.0 / (1.0 + r) ** 2, lambda r: -2.0 / (1.0 + r) ** 3))
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert res.tag == "r->inf"

    def test_explicit_candidate_jump(self):
        g = lambda r: np.where(r >= 3.0, 1.0, 0.0)
        res = sup_over_r(g, _ZERO_SLOPE, candidates=(3.0,))
        assert res.value == 1.0

    def test_scan_is_one_call(self):
        # the first call holds the scan and the candidates with their float
        # neighbours; then a smooth peak takes a few one-point Newton calls
        radii = []

        def g(r):
            radii.append(r)
            return _GAMMA[0](r)

        sup_over_r(g, _GAMMA[1], candidates=(0.5, 7.0))
        first = radii[0]
        assert first.size == 433 + 3 * 2 and (np.diff(first) > 0.0).all()
        assert np.isin(np.append(_SCAN, [0.5, 7.0]), first).all()
        assert 1 <= len(radii[1:]) <= 4 and all(r.size == 1 for r in radii[1:])

    @pytest.mark.parametrize("g, slope", [
        (lambda r: 0.5 * (1.0 + 1e-15 * np.sin(1e3 * np.log(r))), _FLAT_SLOPE),
        (_hardy_integrand(CoulombPotential(1.0), (), 2), _hardy_slope(CoulombPotential(1.0), 2)),
    ], ids=["noise", "coulomb"])
    def test_flat_to_roundoff_is_not_refined(self, g, slope):
        # an interior peak within round-off of its neighbours is noise
        sizes = []
        sup_over_r(_counted(g, sizes), slope)
        assert sizes == [433]

    @pytest.mark.parametrize("g, slope", [
        pytest.param(*_GAMMA, id="gamma"),
        pytest.param(lambda r: np.log1p(r) / (1.0 + r),
                     _r_slope(lambda r: (1.0 - np.log1p(r)) / (1.0 + r) ** 2,
                              lambda r: (2.0 * np.log1p(r) - 3.0) / (1.0 + r) ** 3), id="log"),
        pytest.param(lambda r: r ** 3 / (1.0 + r ** 5), _rational_slope, id="rational"),
    ] + [
        # log-r Gaussians of width w at seeded random centres
        pytest.param(*_gauss(c, w), id=f"w{w:g}-{i}")
        for w in (1e-2, 1e-1, 1.0, 10.0)
        for i, c in enumerate(np.random.default_rng(7).uniform(-10.0, 10.0, 8))
    ])
    def test_matches_golden_section(self, g, slope):
        # the Newton refinement against a golden-section search
        value, golden = sup_over_r(g, slope).value, _golden_sup(g)
        assert abs(value - golden) <= 2e-15 * golden
        assert value >= golden * (1.0 - 1e-15)

    # (weight, shells, relative tolerance against golden section, most
    # refinement calls); tables and narrow mollified shells hold g to their
    # quadrature's 1e-10 share only, and a narrow bump needs bisection steps
    HARDY_WEIGHTS = {
        "mollified": (SumPotential((MollifiedShell(0.5, 0.5, 2.0), CoulombPotential(0.5))), (), 1e-12, 4),
        "sum": (SumPotential((CoulombPotential(0.3), MollifiedShell(1.0, 0.3, 1.0),
                              CoulombPotential(1.0))), (), 1e-12, 4),
        "narrow": (SumPotential((MollifiedShell(1.0, 0.01, 1.0), CoulombPotential(0.3))), (), 1e-11, 8),
        "narrower": (MollifiedShell(1.0, 1e-3, 3.0), (), 1e-11, 10),
        "table": (SumPotential((TablePotential((0.5, 0.8, 1.3, 2.0, 3.1), (0.2, 1.1, 0.7, 0.9, 0.1)),
                                CoulombPotential(0.3))), (), 1e-11, 4),
        "shell": (CoulombPotential(0.7), (ShellMeasure(R=1.7, a=0.9),), 1e-12, 0),
    }

    @pytest.mark.parametrize("e", [2, -2, 4, -6])
    @pytest.mark.parametrize("name", list(HARDY_WEIGHTS))
    def test_hardy_integrand_matches_golden_section(self, name, e):
        weight, shells, rtol, calls = self.HARDY_WEIGHTS[name]
        candidates = tuple(weight.breakpoints()) + tuple(s.R for s in shells)
        sizes = []
        g = _counted(_hardy_integrand(weight, shells, e), sizes)
        value = sup_over_r(g, _hardy_slope(weight, e), candidates).value
        golden = _golden_sup(_hardy_integrand(weight, shells, e), candidates)
        assert value == pytest.approx(golden, rel=rtol, abs=0.0)
        assert sizes[1:] == [1] * len(sizes[1:]) and len(sizes) <= 1 + calls
        assert value >= _hardy_integrand(weight, shells, e)(_SCAN).max()

    @pytest.mark.parametrize("e", [2, -2, 4, -6])
    def test_shell_pair_takes_one_call(self, e):
        # the maximum sits at the shell radius, a candidate probed in the scan
        shell = ShellMeasure(R=1.7, a=0.9)
        sizes = []
        res = sup_over_r(_counted(_hardy_integrand(CoulombPotential(0.7), (shell,), e), sizes),
                         _hardy_slope(CoulombPotential(0.7), e), candidates=(shell.R,))
        assert sizes == [433 + 3]
        assert res.value == pytest.approx(0.9 + 0.7 / abs(e), rel=1e-14)
        assert res.argmax == shell.R

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            sup_over_r(lambda r: np.where(r > 2.0, np.nan, r), _r_slope(np.ones_like, np.zeros_like))


def _golden_sup(g, candidates=()) -> float:
    """Scan maximum polished by golden section on its bracket, one radius per
    call, and the candidates probed, as ``sup_over_r`` did before its batched
    refinement."""
    rs = _SCAN
    vals = g(rs)
    i = int(np.argmax(vals))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    g1 = lambda t: float(g(np.array([math.exp(t)]))[0])
    a, b = math.log(rs[i - 1]), math.log(rs[i + 1])
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = g1(c), g1(d)
    for _ in range(200):
        if b - a < 1e-12 * max(1.0, abs(a) + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = g1(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = g1(d)
    return max([float(vals[i]), fc, fd] + [g1(math.log(r)) for r in candidates if r > 0.0])


def _blocks(dense: np.ndarray):
    """Node blocks D (3, 3, n) and couplings B (3, 3, n-1) of a dense
    block-tridiagonal matrix, as ``ldl_inertia`` takes them per matrix."""
    n = dense.shape[0] // 3
    blocks, i = dense.reshape(n, 3, n, 3), np.arange(n)
    return blocks[i, :, i].transpose(1, 2, 0), blocks[i[:-1], :, i[1:]].transpose(1, 2, 0)


def _assembled(D: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dense matrix of node blocks D (3, 3, n) and couplings B (3, 3, n-1)."""
    n, i = D.shape[-1], np.arange(D.shape[-1])
    a = np.zeros((n, 3, n, 3))
    a[i, :, i] = D.transpose(2, 0, 1)
    a[i[:-1], :, i[1:]] = B.transpose(2, 0, 1)
    a[i[1:], :, i[:-1]] = B.transpose(2, 1, 0)
    return a.reshape(3 * n, 3 * n)


def _stacked(mats):
    """(D, B) of several dense matrices, matrix index on axis 2."""
    D, B = zip(*(_blocks(a) for a in mats))
    return np.stack(D, axis=2), np.stack(B, axis=2)


def _dense_inertia(fem, prob, E) -> tuple[int, float]:
    """Negative eigenvalues and log|det| of the reference form at shift E, both
    taken of the equilibrated matrix S A S (log|det A| is its slogdet less
    2 sum log s); the sign of det is (-1)^count."""
    scaled, s = loop_scaled_copy(reference_form(fem, prob, E))
    assert np.all(s > 0.0)
    dense = banded_to_dense(scaled)
    count = int(np.sum(np.linalg.eigvalsh(dense) < 0.0))
    sign, logdet = np.linalg.slogdet(dense)
    assert sign == (-1) ** count
    return count, logdet - 2.0 * np.log(s).sum()


def _random_block_tridiagonal(rng, n_nodes: int) -> np.ndarray:
    """Symmetric block-tridiagonal matrix of 3x3 node blocks with normal entries."""
    a = np.zeros((3 * n_nodes, 3 * n_nodes))
    for i in range(n_nodes):
        lo, hi = 3 * max(i - 1, 0), 3 * i + 3
        a[3 * i:3 * i + 3, lo:hi] = rng.normal(size=(3, hi - lo))
    return a + a.T


def _equilibrated(a: np.ndarray) -> np.ndarray:
    s = 1.0 / np.sqrt(np.abs(np.diag(a)))
    return a * s[:, None] * s[None, :]


def _assert_matches_slogdet(mats, counts, logdet):
    """log|det| of ``ldl_inertia`` against np.linalg.slogdet of each dense
    matrix, and the parity of its count against slogdet's sign; det itself to
    1e-8 relative (the random matrices span 20 decades and are not all well
    conditioned)."""
    for a, count, value in zip(mats, counts, logdet):
        sign, want = np.linalg.slogdet(a)
        assert sign == (-1) ** count
        assert value == pytest.approx(want, abs=1e-8)


class TestInertia:
    @pytest.mark.parametrize("k", [0, 1, -2])
    def test_gap_counts_match_dense_oracle(self, k):
        # the E-dependent Dirac-Coulomb form that spectrum_in_gap counts on,
        # all 40 shifts in one batched call, at an odd and an even node
        # count; the raw matrix spans ~20 decades, so the dense oracle is
        # taken of the equilibrated one, which has the same inertia
        pair = parse_pair("coulomb:1", "coulomb:1", c1=0.5, c2=0.5)
        shifts = np.concatenate([np.linspace(-0.99, 0.8, 8),
                                 1.0 - np.geomspace(0.2, 1e-4, 32)])
        for n in (199, 200):
            prob = DiracChannelProblem(pair=pair, channel=Channel(k), m=1.0, lam=0.0,
                                       grid=RadialGrid.log_uniform(n, 1e-6, 50.0))
            fem = _HermiteFem(prob.grid)
            expected, logdet = zip(*(_dense_inertia(fem, prob, E) for E in shifts))
            counts, got = _gap_counts(fem, prob)(shifts)
            assert list(counts) == list(expected)
            assert got == pytest.approx(logdet, rel=1e-12)
            assert list(expected) == sorted(expected) and expected[-1] >= 3

    @pytest.mark.parametrize("k", [0, -2])
    def test_shell_gap_counts_match_dense_oracle(self, k):
        # shell point terms enter the node blocks of both nodes of their
        # element and the coupling between them; one shell sits in the last
        # element, whose right node carries a Dirichlet value
        pair = parse_pair("coulomb:1 + shell:2@1 + shell:1@49.9", "coulomb:1", c1=0.4, c2=0.5)
        prob = DiracChannelProblem(pair=pair, channel=Channel(k), m=1.0, lam=0.0,
                                   grid=RadialGrid.log_uniform(161, 1e-6, 50.0))
        fem = _HermiteFem(prob.grid)
        assert fem._element_shapes(49.9)[0] == prob.grid.n - 2
        shifts = np.concatenate([np.linspace(-0.99, 0.8, 8),
                                 1.0 - np.geomspace(0.2, 1e-4, 24)])
        expected, logdet = zip(*(_dense_inertia(fem, prob, E) for E in shifts))
        counts, got = _gap_counts(fem, prob)(shifts)
        assert list(counts) == list(expected)
        assert got == pytest.approx(logdet, rel=1e-12)
        assert list(expected) == sorted(expected) and expected[-1] >= 3

    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 5, 12, 16, 17, 33, 64, 200])
    def test_random_block_tridiagonal(self, n_nodes):
        # indefinite matrices over 20 decades of diagonal scale; the node
        # counts give odd and even lengths at every reduction level
        rng = np.random.default_rng(7)
        mats = []
        for _ in range(16):
            a = _random_block_tridiagonal(rng, n_nodes)
            scale = np.exp(rng.uniform(-23.0, 23.0, 3 * n_nodes))
            mats.append(a * scale[:, None] * scale[None, :])
        got, logdet = ldl_inertia(*_stacked(mats), np.arange(16.0))
        expected = [int(np.sum(np.linalg.eigvalsh(_equilibrated(a)) < 0.0)) for a in mats]
        assert list(got) == expected
        _assert_matches_slogdet(mats, got, logdet)
        assert 0 < min(expected) < max(expected)
        if n_nodes > 1:     # a lone node may be negative definite
            assert max(expected) < 3 * n_nodes

    @pytest.mark.parametrize("v1, v2, c, r_min, r_max", [
        ("coulomb:1", "coulomb:1", 0.99, 1e-60, 1e3),
        ("coulomb:1", "coulomb:1", 0.9, 1e-30, 1e12),
        ("coulomb:1 + shell:1@1", "coulomb:1", 0.5, 1e-20, 1e9),
    ], ids=["coulomb-0.99", "coulomb-0.9", "shell-coulomb"])
    def test_count_needs_no_equilibration(self, v1, v2, c, r_min, r_max):
        # oracle: the equilibrated rule, D and B scaled by |diagonal|^(-1/2)
        # and 2 sum log s taken off log|det|; unpivoted block LDL^T of S A S
        # has the pivots of A times s_i^2, so the raw form gives the same
        # counts and log|det| though its diagonal spans 70 to 131 decades
        prob = DiracChannelProblem(pair=parse_pair(v1, v2, c1=c, c2=c), channel=Channel(0),
                                   m=1.0, lam=0.0, grid=RadialGrid.log_uniform(300, r_min, r_max))
        shifts = np.concatenate([np.cos(np.linspace(np.pi, 0.0, 70)) * (1.0 - 1e-9),
                                 1.0 - np.geomspace(0.2, 1e-8, 30)])
        D, B = _problem_form(_HermiteFem(prob.grid), prob)(shifts)
        spread = np.abs(D[[0, 1, 2], [0, 1, 2]])
        assert spread.max() / spread[spread > 0.0].min() > 1e30
        counts, logdet = ldl_inertia(D.copy(), B.copy(), shifts)
        want_logdet = -2.0 * np.log(_equilibrate(D, B)).sum(axis=(0, 2))
        pivots = []
        while D.shape[-1]:
            piv, _, _, D, B = _eliminate_evens(D, B)
            pivots.append(piv)
        piv = np.concatenate(pivots, axis=-1)
        want_logdet += np.log(np.abs(piv)).sum(axis=(0, 2))
        assert list(counts) == list(np.count_nonzero(piv < 0.0, axis=(0, 2)))
        assert logdet == pytest.approx(want_logdet, rel=1e-8)
        assert counts[-1] > counts[0]

    def test_zero_pivot_counts_negative(self):
        # shifts landing exactly on eigenvalues of the diagonal pencil
        # diag(1..6) - E I: the eigenvalue at the shift is counted below it
        shifts = np.array([0.5, 1.0, 2.0, 3.5, 6.0, 7.0])
        mats = [np.diag(np.arange(1.0, 7.0)) - E * np.eye(6) for E in shifts]
        counts, logdet = ldl_inertia(*_stacked(mats), shifts)
        assert list(counts) == [0, 1, 2, 3, 6, 6]
        # a nudged zero pivot gives a finite log|det| near log(1e-300)
        singular = np.isin(shifts, np.arange(1.0, 7.0))
        _assert_matches_slogdet([a for a, z in zip(mats, singular) if not z],
                                counts[~singular], logdet[~singular])
        assert (logdet[singular] < math.log(1e-300) + 10.0).all()

    def test_zero_pivot_at_later_level(self):
        # diag(1..15) - E I on 5 nodes: nodes 0, 2, 4 are eliminated at level
        # 1, node 1 at level 2 and node 3 at level 3, so these shifts put an
        # exact zero pivot on each level; a block inverse taken from a zero
        # determinant would turn the zero couplings into NaN
        shifts = np.array([2.0, 5.0, 11.0, 14.0])
        D, B = _stacked([np.diag(np.arange(1.0, 16.0)) - E * np.eye(15) for E in shifts])
        assert list(ldl_inertia(D, B, shifts)[0]) == [2, 5, 11, 14]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_pivot_raises(self, bad):
        D, B = _stacked([np.diag(np.arange(1.0, 7.0))] * 3)
        D[1, 1, 1, 1] = bad
        with pytest.raises(ValueError, match="E=0.25"):
            ldl_inertia(D, B, np.array([0.0, 0.25, 0.5]))


class TestEliminateEvens:
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("n_nodes", [2, 3, 4, 5, 16, 17])
    def test_schur_complement_matches_dense(self, n_nodes, stacked):
        # one level leaves the odd nodes' Schur complement A_oo - A_oe A_ee^-1 A_eo,
        # couplings of exact sign included, which no count can see (a congruence
        # by diag(+-I) keeps the inertia); indefinite matrices, with and without
        # a stack axis
        rng = np.random.default_rng(13)
        mats = [_random_block_tridiagonal(rng, n_nodes)
                + np.diag(rng.choice([-8.0, 8.0], 3 * n_nodes)) for _ in range(3 if stacked else 1)]
        D, B = _stacked(mats) if stacked else _blocks(mats[0])
        _, inv, _, D_odd, B_odd = _eliminate_evens(D, B)
        nodes = np.arange(3 * n_nodes).reshape(n_nodes, 3)
        even, odd = nodes[::2].ravel(), nodes[1::2].ravel()
        for j, a in enumerate(mats):
            want = a[np.ix_(odd, odd)] - a[np.ix_(odd, even)] @ np.linalg.solve(
                a[np.ix_(even, even)], a[np.ix_(even, odd)])
            got = (_assembled(D_odd[:, :, j], B_odd[:, :, j]) if stacked
                   else _assembled(D_odd, B_odd))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        want = np.linalg.inv(np.moveaxis(D[..., ::2], (0, 1), (-2, -1)))
        got = np.moveaxis(inv, (0, 1), (-2, -1))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSpdFactor:
    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 5, 12, 16, 17, 33, 64, 200])
    def test_random_spd_matches_dense_solve(self, n_nodes):
        # diagonally dominant block-tridiagonal matrices over 20 decades of
        # diagonal scale; the node counts give odd and even lengths at every
        # reduction level, the dense tail alone (up to 16), the tail after one
        # level (17) and after many (200)
        rng = np.random.default_rng(11)
        for _ in range(4):
            a = _random_block_tridiagonal(rng, n_nodes)
            a += (np.abs(a).sum(axis=1).max() + 1.0) * np.eye(3 * n_nodes)
            scale = np.exp(rng.uniform(-23.0, 23.0, 3 * n_nodes))
            c = rng.normal(size=3 * n_nodes)
            # S a S x = S c, so S x = a^-1 c
            x = spd_solve(spd_factor(*_blocks(a * scale[:, None] * scale[None, :])),
                          (c * scale).reshape(n_nodes, 3).T).T.ravel()
            y = np.linalg.solve(a, c)
            assert np.max(np.abs(x * scale - y)) <= 1e-13 * np.max(np.abs(y))

    @pytest.mark.parametrize("d", [-1.0, 0.0, np.nan])
    @pytest.mark.parametrize("node", [0, 1, 3])
    def test_pivot_not_positive_raises(self, d, node):
        # diagonal on 5 nodes: node 0 is eliminated at level 1, node 1 at
        # level 2 and node 3 at level 3, so each level checks its pivots
        diag = np.arange(1.0, 16.0)
        diag[3 * node + 1] = d
        with pytest.raises(NotPositiveDefiniteError):
            spd_factor(*_blocks(np.diag(diag)))


class TestRadialGrid:
    def test_log_uniform(self):
        g = RadialGrid.log_uniform(100, 1e-6, 50.0)
        assert g.r_min == pytest.approx(1e-6)
        assert g.r_max == pytest.approx(50.0)
        assert np.all(np.diff(g.nodes) > 0)

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
            _HermiteFem(grid)

    def test_bad_nodes(self):
        with pytest.raises(ValueError):
            RadialGrid(np.array([1.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            RadialGrid(np.array([-1.0, 2.0]))
        # NaN fails every comparison, so a check must demand the good case to catch it
        for nodes in ([1.0, 2.0, math.inf], [math.nan, 1.0, 2.0], [1.0, math.nan, 2.0]):
            with pytest.raises(ValueError, match="finite"):
                RadialGrid(np.array(nodes))
        with pytest.raises(ValueError, match="r_max < inf"):
            RadialGrid.log_uniform(5, 1e-7, math.inf)
