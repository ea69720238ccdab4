import math

import numpy as np
import pytest

from hardydirac.channels import (
    Channel,
    SpinorField,
    build_field,
    exp_profile,
    field_norm_weighted,
    gauss_profile,
    parse_field_term,
    parse_profile,
    sigma_grad_norm_weighted,
)
from hardydirac.numerics import RadialGrid, integrate_radial
from hardydirac.potentials import (
    PotentialPair,
    ShellMeasure,
    _hardy_integrand,
    a_k,
    combine,
    parse_pair,
)
from hardydirac.verify import _lhs_cached
from lattice_oracle import evaluate_spinor, lattice_sigma_grad_norm, lattice_weighted_norm


class TestChannel:
    def test_quantum_numbers(self):
        assert Channel(0).l == 0
        assert Channel(-2).l == 1
        assert Channel(3).l == 3

    def test_spectrum_gap(self):
        with pytest.raises(ValueError):
            Channel(-1)


class TestRadialReduction:
    def test_pure_derivative_at_k0(self):
        red = exp_profile(0, 1.0).reduced(0)
        for r in (0.3, 1.0, 2.5):
            assert red(r) == pytest.approx(-math.exp(-r), rel=1e-14)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_kernel_closed_form(self, k):
        # r^k on channel k: the power term of f' - k f/r cancels exactly,
        # leaving only the decay factor's contribution
        prof = exp_profile(k, 1.0)
        red = prof.reduced(k)
        for r in (0.5, 1.0, 4.0):
            assert red(r) == pytest.approx(-(r ** k) * math.exp(-r), rel=1e-13)

    def test_gauss_zero_crossing(self):
        red = gauss_profile(0, 1.0).reduced(-2)
        assert abs(red(1.0)) < 1e-15

    def test_matches_finite_differences(self):
        prof = gauss_profile(1, 0.8, coef=0.7)
        red = prof.reduced(2)
        h = 1e-6
        for r in (0.4, 1.3, 2.2):
            fd = (prof(r + h) - prof(r - h)) / (2 * h) - 2 * prof(r) / r
            assert red(r) == pytest.approx(fd, rel=1e-8)

    def test_k_minus_one_rejected(self):
        # no channel term can sit on k = -1, so no reduction ever sees it
        with pytest.raises(ValueError):
            SpinorField.single(-1, exp_profile(0, 1.0))
        with pytest.raises(ValueError):
            build_field(["k=-1:exp:0,1"])


def channel_weight(pair, k):
    """The solved channel weight g_k (k >= 0) or its tail analogue h_k
    (k <= -2): the cumulative Hardy integrand of V1 + V2 with power 2(k+1),
    shells entering with their indicator, whose supremum is a_k."""
    return _hardy_integrand(combine([pair.v1_regular, pair.v2]), pair.v1_shells, 2 * (k + 1))


class TestChannelWeights:
    RS = np.array([0.4, 1.0, 5.0])

    def test_coulomb_constant_profiles(self, coulomb_pair):
        for k in (0, 1, 2):
            g = channel_weight(coulomb_pair, k)
            np.testing.assert_allclose(g(self.RS), 1.0 / (k + 1), rtol=0.0, atol=1e-10)

    def test_coulomb_tail_channel(self, coulomb_pair):
        h = channel_weight(coulomb_pair, -2)
        np.testing.assert_allclose(h(self.RS), 1.0, rtol=0.0, atol=1e-10)

    def test_zero_pair(self):
        g = channel_weight(parse_pair("zero", "zero"), 1)
        assert np.all(g(self.RS) == 0.0)

    @pytest.mark.parametrize("k", [0, 2, -2, -3])
    def test_sup_matches_channel_constant(self, k):
        pair = parse_pair("shell:0.5@1 + coulomb:0.3", "coulomb:0.7")
        g = channel_weight(pair, k)
        ak = a_k(pair, k)
        rs = np.exp(np.linspace(math.log(1e-4), math.log(1e4), 400))
        samples = max(np.max(g(rs)), g(np.array([1.0]))[0])  # and the shell radius
        assert samples <= ak * (1.0 + 1e-8)
        assert samples == pytest.approx(ak, rel=1e-6)

    def test_later_calls_match_first_call(self):
        # the first call integrates its radii as one chain of segments; later
        # calls add segments from the radii already known, in any order, and
        # agree within the quadrature's relative tolerance
        pair = parse_pair("mshell:0.5,0.5@2 + coulomb:0.3", "coulomb:0.7")
        rs = np.array([30.0, 0.05, 2.2, 1.7, 2.2, 400.0])
        for k in (1, -3):
            g_once, g_steps = channel_weight(pair, k), channel_weight(pair, k)
            steps = np.concatenate([g_steps(rs[:1]), g_steps(rs[1:3]), g_steps(rs[3:])])
            np.testing.assert_allclose(steps, g_once(rs), rtol=1e-10)


class TestNorms:
    def test_unit_weight(self):
        f = SpinorField.single(0, exp_profile(0, 1.0))
        assert field_norm_weighted(f) == pytest.approx(0.25, rel=1e-12)

    def test_shell_only(self):
        # a pure shell pair's lhs entry is the shell term a R^2 |f(R)|^2 alone
        f = SpinorField.single(0, exp_profile(0, 1.0))
        (val,) = _lhs_cached(PotentialPair(v1_shells=(ShellMeasure(R=1.0, a=1.0),)), f)
        assert val == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_channel_additivity_exact(self):
        terms = ((Channel(0), exp_profile(0, 1.0)),
                 (Channel(1), exp_profile(1, 0.7)),
                 (Channel(-2), gauss_profile(1, 1.1)))
        field = SpinorField(terms)
        w = lambda r: np.exp(-0.3 * r)
        total = field_norm_weighted(field, weight=w)
        by_k = sorted(terms, key=lambda t: t[0].k)
        parts = sum(field_norm_weighted(SpinorField((t,)), weight=w) for t in by_k)
        assert total == parts

    def test_sigma_grad_k0(self):
        f = SpinorField.single(0, exp_profile(0, 1.0))
        assert sigma_grad_norm_weighted(f) == pytest.approx(0.25, rel=1e-12)

    def test_sigma_grad_k1(self):
        # f = r e^{-r}: f' - f/r = -r e^{-r}, norm Gamma(5)/2^5 = 3/4
        f = SpinorField.single(1, exp_profile(1, 1.0))
        assert sigma_grad_norm_weighted(f) == pytest.approx(0.75, rel=1e-12)

    def test_weighted_vs_quadrature_oracle(self):
        f = SpinorField.single(0, exp_profile(0, 1.0))
        w = lambda r: 1.0 / (1.0 / r + 1.0)
        got = sigma_grad_norm_weighted(f, weight=w)
        (oracle,), _ = integrate_radial(lambda r: np.exp(-2 * r) * r ** 3 / (r + 1))
        assert got == pytest.approx(oracle, rel=1e-10)


SQRT4PI = math.sqrt(4 * math.pi)


class TestEvaluateSpinor:
    def test_k0_constant(self):
        f = SpinorField.single(0, exp_profile(0, 1e-12))
        out = evaluate_spinor(f, np.array([0.3, -0.1, 0.7]))
        assert out[0] == pytest.approx(1.0 / SQRT4PI, rel=1e-9)
        assert out[1] == 0.0

    def test_km2_on_z_axis(self):
        f = SpinorField.single(-2, exp_profile(0, 1e-12))
        out = evaluate_spinor(f, np.array([0.0, 0.0, 2.0]))
        assert out[0] == pytest.approx(1.0 / SQRT4PI, rel=1e-9)
        assert out[1] == 0.0

    def test_unsupported_channel(self):
        f = SpinorField.single(1, exp_profile(1, 1.0))
        with pytest.raises(ValueError):
            evaluate_spinor(f, np.array([1.0, 0.0, 0.0]))

    def test_origin_rejected(self):
        f = SpinorField.single(0, exp_profile(0, 1.0))
        with pytest.raises(ValueError):
            evaluate_spinor(f, np.zeros(3))


class TestLatticeOracle:
    def test_sigma_grad_matches_radial(self):
        field = SpinorField.single(0, gauss_profile(0, 1.0))
        radial = sigma_grad_norm_weighted(field)
        coarse = lattice_sigma_grad_norm(field, spacing=0.1, extent=3.2)
        fine = lattice_sigma_grad_norm(field, spacing=0.05, extent=3.2)
        assert abs(coarse - radial) / radial < 0.04
        assert abs(fine - radial) / radial < 0.01
        assert abs(fine - radial) < 0.5 * abs(coarse - radial)

    def test_partner_channel(self):
        field = SpinorField.single(-2, gauss_profile(1, 1.0))
        radial = sigma_grad_norm_weighted(field)
        lattice = lattice_sigma_grad_norm(field, spacing=0.05, extent=3.2)
        assert abs(lattice - radial) / radial < 0.01

    def test_weighted_mass_two_channels(self):
        field = SpinorField(((Channel(0), gauss_profile(0, 1.0)),
                             (Channel(-2), gauss_profile(1, 0.9))))
        w = lambda r: np.exp(-r)
        radial = field_norm_weighted(field, weight=w)
        lattice = lattice_weighted_norm(field, weight=w, spacing=0.05, extent=3.4)
        assert abs(lattice - radial) / radial < 0.01


class TestProfileGrammar:
    def test_exp(self):
        prof = parse_profile("exp:0,1")
        assert prof(1.0) == pytest.approx(math.exp(-1.0))

    def test_gauss(self):
        prof = parse_profile("gauss:2,0.5")
        assert prof(2.0) == pytest.approx(4.0 * math.exp(-2.0))

    def test_field_term(self):
        k, prof = parse_field_term("k=-2:exp:1,1")
        assert k == -2
        assert prof(1.0) == pytest.approx(math.exp(-1.0))

    def test_build_field(self):
        field = build_field(["k=0:exp:0,1", "k=-2:gauss:1,1"])
        assert {ch.k for ch, _ in field.terms} == {0, -2}

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_profile("spline:1,2")
        with pytest.raises(ValueError):
            parse_field_term("0:exp:0,1")

    @pytest.mark.parametrize("spec", ["exp:nan,1", "exp:0,nan", "gauss:nan,1", "gauss:0,nan"])
    def test_nan_parameter_rejected(self, spec):
        with pytest.raises(ValueError, match="nan"):
            parse_profile(spec)

    def test_duplicate_channel_rejected(self):
        with pytest.raises(ValueError):
            build_field(["k=0:exp:0,1", "k=0:exp:1,1"])
