import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardydirac.potentials import (
    CoulombPotential,
    MollifiedShell,
    NotInClassAError,
    PotentialPair,
    PotentialParseError,
    PowerPotential,
    ShellMeasure,
    TablePotential,
    ZeroPotential,
    a_k,
    a_minus,
    a_plus,
    bump,
    parse_component,
    parse_pair,
    parse_v1_slot,
    scale_pair,
    tilde_constants,
)
from hardydirac import potentials
from hardydirac.numerics import QuadratureError, integrate_radial

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestParsing:
    def test_coulomb(self):
        c = parse_component("coulomb:1")
        assert c == CoulombPotential(1.0)

    def test_shell_plus_coulomb_slot(self):
        comp, shells = parse_v1_slot("shell:1@2 + coulomb:0.5")
        assert comp == CoulombPotential(0.5)
        assert shells == (ShellMeasure(R=2.0, a=1.0),)

    def test_negative_weight_rejected(self):
        with pytest.raises(PotentialParseError):
            parse_component("power:-1,2")

    def test_malformed(self):
        with pytest.raises(PotentialParseError):
            parse_component("coulomb:abc")
        with pytest.raises(PotentialParseError):
            parse_component("nonsense:1")
        with pytest.raises(PotentialParseError):
            parse_v1_slot("coulomb:1 + + coulomb:2")

    def test_shell_not_allowed_in_v2(self):
        with pytest.raises(PotentialParseError):
            parse_pair("zero", "shell:1@2")

    @given(st.floats(0.0, 10.0), st.floats(0.01, 10.0), st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_mshell_round_trip(self, c, eps, R):
        comp = MollifiedShell(c, eps, R)
        assert parse_component(f"mshell:{c!r},{eps!r}@{R!r}") == comp

    @given(st.floats(0.0, 50.0))
    @settings(max_examples=25, deadline=None)
    def test_coulomb_round_trip(self, nu):
        comp = CoulombPotential(nu)
        assert parse_component(f"coulomb:{nu!r}") == comp

    @given(st.floats(0.0, 10.0), st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_power_round_trip(self, a, p):
        comp = PowerPotential(a, p)
        assert parse_component(f"power:{a!r},{p!r}") == comp


class TestBump:
    def test_unit_mass(self):
        u = np.linspace(-1.0, 1.0, 20001)
        assert np.trapezoid(bump(u), u) == pytest.approx(1.0, abs=1e-8)

    def test_support(self):
        assert bump(1.0) == 0.0
        assert bump(-2.0) == 0.0
        assert bump(0.0) > 0.0

    def test_norm_literal_matches_quadrature(self):
        (norm,), _ = integrate_radial(lambda r: potentials._raw_bump(r - 2.0), (1.0, 3.0))
        assert potentials._BUMP_NORM == pytest.approx(norm, rel=1e-15, abs=0.0)


def _richardson(f, r, h):
    """f'(r) from central differences at steps h and h/2, error O(h^4)."""
    d = lambda h: (f(r + h) - f(r - h)) / (2.0 * h)
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


class TestDerivatives:
    def test_mollified_closed_form(self):
        comp = MollifiedShell(0.7, 0.4, 1.5)
        r = 1.5 + 0.4 * np.linspace(-0.9, 0.9, 19)
        np.testing.assert_allclose(comp.derivative(r), _richardson(comp, r, 1e-4),
                                   rtol=1e-9, atol=1e-10)
        # zero outside the support, and finite up to its edges
        assert (comp.derivative(np.array([0.5, 1.1, 1.9, 3.0])) == 0.0).all()
        assert np.isfinite(comp.derivative(1.5 + 0.4 * np.linspace(-1.0, 1.0, 10001))).all()

    def test_table_segment_slopes(self):
        tab = TablePotential((0.5, 1.0, 2.0, 4.0), (2.0, 1.0, 0.5, 0.25))
        inside = np.array([0.6, 0.9, 1.3, 1.9, 2.5, 3.9])
        np.testing.assert_allclose(tab.derivative(inside), _richardson(tab, inside, 1e-3),
                                   rtol=1e-10)
        # one-sided at a sample: the slope of the segment to its right
        assert tab.derivative(np.array([0.5, 1.0, 2.0])).tolist() == [-2.0, -0.5, -0.125]
        assert tab.derivative(np.array([0.1, 4.0, 5.0])).tolist() == [0.0, 0.0, 0.0]


class TestHardyConstants:
    def test_coulomb_pair(self, coulomb_pair):
        assert a_plus(coulomb_pair) == pytest.approx(1.0, abs=1e-9)
        assert a_minus(coulomb_pair) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
    def test_shell_coulomb(self, R):
        pair = parse_pair(f"shell:1@{R}", "coulomb:1")
        assert a_plus(pair) == pytest.approx(1.5, abs=1e-9)
        assert a_minus(pair) == pytest.approx(1.5, abs=1e-9)

    def test_zero_pair(self):
        pair = parse_pair("zero", "zero")
        assert a_plus(pair) == 0.0
        assert a_minus(pair) == 0.0

    @pytest.mark.parametrize("k", [0, 1, 2, 3, -2, -3, -4])
    def test_coulomb_channel_closed_form(self, coulomb_pair, k):
        # int_0^r 2 s^{2k+1} ds = r^{2k+2}/(k+1) makes the channel integrand
        # identically 1/|k+1|; the numeric sup must reproduce it
        assert a_k(coulomb_pair, k) == pytest.approx(1.0 / abs(k + 1), abs=1e-8)

    def test_channel_edges(self, coulomb_pair):
        assert a_k(coulomb_pair, 0) == pytest.approx(a_plus(coulomb_pair), abs=1e-10)
        assert a_k(coulomb_pair, -2) == pytest.approx(a_minus(coulomb_pair), abs=1e-10)

    def test_k_minus_one_rejected(self, coulomb_pair):
        with pytest.raises(ValueError):
            a_k(coulomb_pair, -1)

    def test_monotone_in_k(self, pair_gallery):
        for pair in pair_gallery:
            table = {k: a_k(pair, k) for k in (0, 1, 2, 3, -2, -3, -4)}
            for k in (1, 2, 3):
                assert table[k] <= table[0] + 1e-12
            for k in (-3, -4):
                assert table[k] <= table[-2] + 1e-12

    def test_constant_not_admissible(self):
        pair = PotentialPair(v1_regular=PowerPotential(1.0, 0.0), v2=ZeroPotential())
        with pytest.raises(NotInClassAError):
            a_plus(pair)

    def test_quadrature_failure_is_not_class_a_verdict(self, monkeypatch):
        # only unbounded growth means "not in class A"; a quadrature that
        # does not converge says nothing about the pair and must surface
        def fail(g, slope, candidates=()):
            raise QuadratureError("did not converge", 0.0, 1.0)

        monkeypatch.setattr(potentials, "sup_over_r", fail)
        potentials._a_exponent_cached.cache_clear()
        with pytest.raises(QuadratureError):
            a_plus(parse_pair("coulomb:0.25", "zero"))

    def test_invariant_bounds(self, pair_gallery):
        for pair in pair_gallery:
            tilde_plus, tilde_minus = tilde_constants(pair)
            assert a_plus(pair) <= tilde_plus + 1e-10
            assert a_minus(pair) <= tilde_minus + 1e-10


# a_k and the tilde constants of the gallery's mollified and sum pairs, as
# computed by one full quadrature per probed radius (before the prefix sums)
_GALLERY_LITERALS = {
    3: {-4: 0.28382546055216656, -3: 0.3771030329491326, -2: 0.5864688660999472,
        0: 0.6005366896698441, 1: 0.39013294884357813, 2: 0.29396896714733844,
        3: 0.23589145697410618, "tilde": (0.6005366896698447, 0.5864688660999475)},
    4: {-4: 0.5718042052717586, -3: 0.7801816753579442, -2: 1.2779116850625303,
        0: 1.312134957030059, 1: 0.8085492172860566, 2: 0.5921208471557998,
        3: 0.4667951817196748, "tilde": (1.31213495703006, 1.2779116850625314)},
}


class TestGalleryPins:
    @pytest.mark.parametrize("index", range(5))
    def test_channel_and_tilde_constants(self, pair_gallery, index):
        pair = pair_gallery[index]
        if index in _GALLERY_LITERALS:
            expected, rtol = _GALLERY_LITERALS[index], 1e-12
        else:
            # Coulomb and shell + Coulomb pairs: a + nu / (2 |k + 1|)
            a = sum(shell.a for shell in pair.v1_shells)
            nu = getattr(pair.v1_regular, "nu", 0.0) + pair.v2.nu
            expected = {k: a + nu / (2.0 * abs(k + 1)) for k in (-4, -3, -2, 0, 1, 2, 3)}
            expected["tilde"] = (expected[0], expected[-2])
            rtol = 1e-13
        for k in (-4, -3, -2, 0, 1, 2, 3):
            assert a_k(pair, k) == pytest.approx(expected[k], rel=rtol, abs=0.0)
        assert tilde_constants(pair) == pytest.approx(expected["tilde"], rel=rtol, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.5663007901938384, 2.0])
    def test_rescaled_mollified_pair(self, pair_gallery, alpha):
        # alpha V(alpha r) has the same constants.  At alpha = 1.566... a scan
        # segment starts just below the bump's left edge, which is flat to all
        # orders: accepted against that short segment's own width, its panels
        # put the constant 4e-14 high
        pair = scale_pair(pair_gallery[3], alpha)
        for k in (-4, -3, -2, 0, 1, 2, 3):
            assert a_k(pair, k) == pytest.approx(_GALLERY_LITERALS[3][k], rel=1e-14, abs=0.0)


class TestTildeConstants:
    def test_coulomb_pair_sum_of_single_sups(self, coulomb_pair):
        # each single Coulomb weight has sup (1/r^2) int_0^r t dt = 1/2,
        # so the separately-scaled constants are 1/2 + 1/2 = 1 here
        tp, tm = tilde_constants(coulomb_pair)
        assert tp == pytest.approx(1.0, abs=1e-9)
        assert tm == pytest.approx(1.0, abs=1e-9)

    def test_one_slot_empty(self):
        pair = parse_pair("zero", "coulomb:1")
        tp, tm = tilde_constants(pair)
        assert tp == pytest.approx(a_plus(pair), abs=1e-10)
        assert tm == pytest.approx(a_minus(pair), abs=1e-10)

    def test_zero_pair(self):
        assert tilde_constants(parse_pair("zero", "zero")) == (0.0, 0.0)

    def test_dominates_joint_constant_with_shell(self, shell_coulomb_pair):
        tp, tm = tilde_constants(shell_coulomb_pair)
        assert tp >= a_plus(shell_coulomb_pair) - 1e-10
        assert tm >= a_minus(shell_coulomb_pair) - 1e-10


class TestScaling:
    def test_coulomb_fixed_point(self):
        assert CoulombPotential(1.0).scaled(2.0) == CoulombPotential(1.0)

    def test_power_rule(self):
        assert PowerPotential(1.0, 0.0).scaled(2.0) == PowerPotential(2.0, 0.0)

    def test_pointwise_identity(self):
        comp = MollifiedShell(0.7, 0.4, 1.5)
        alpha = 1.7
        scaled = comp.scaled(alpha)
        rs = np.linspace(0.2, 3.0, 40)
        np.testing.assert_allclose(scaled(rs), alpha * comp(alpha * rs),
                                   rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_constants_invariant(self, pair_gallery, alpha):
        for pair in pair_gallery:
            scaled = scale_pair(pair, alpha)
            ap, am = a_plus(pair), a_minus(pair)
            assert abs(a_plus(scaled) - ap) <= 1e-8 * (1.0 + ap)
            assert abs(a_minus(scaled) - am) <= 1e-8 * (1.0 + am)

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.25, 2.0, 3.0])
    def test_mollified_pair_single_weights(self, pair_gallery, alpha):
        # on the bump's steep flanks the node round-off |dv/dt| eps |t| is
        # far above the quadrature's value-based round-off floor; unless the
        # floor includes it, these suprema exhaust the panel budget
        pair, scaled = pair_gallery[3], scale_pair(pair_gallery[3], alpha)
        assert tilde_constants(scaled) == pytest.approx(tilde_constants(pair), rel=1e-12, abs=0.0)
        for e in (-6, -4, -2, 2, 4, 6, 8):
            assert potentials._sup_of_weight(scaled.v1_regular, (), e).value == pytest.approx(
                potentials._sup_of_weight(pair.v1_regular, (), e).value, rel=1e-12, abs=0.0)

    def test_coulomb_pair_value(self, coulomb_pair):
        assert a_plus(scale_pair(coulomb_pair, 0.5)) == pytest.approx(1.0, abs=1e-9)

    def test_bad_alpha(self, coulomb_pair):
        with pytest.raises(ValueError):
            scale_pair(coulomb_pair, 0.0)


class TestTablePotential:
    def test_csv_round_trip_and_eval(self, tmp_path):
        path = tmp_path / "weight.csv"
        path.write_text("0.5,2.0\n1.0,1.0\n2.0,0.5\n4.0,0.25\n")
        comp = parse_component(f"table:{path}")
        assert comp(1.0) == pytest.approx(1.0)
        assert comp(1.5) == pytest.approx(0.75)   # linear between samples
        assert comp(0.1) == 0.0                   # clamped to zero outside
        assert comp(10.0) == 0.0
        # equality (and so the constants' cache key) depends on the data alone
        assert comp == TablePotential((0.5, 1.0, 2.0, 4.0), (2.0, 1.0, 0.5, 0.25))

    def test_table_pair_constants_finite(self, tmp_path):
        path = tmp_path / "weight.csv"
        rs = np.linspace(0.2, 8.0, 60)
        vals = 1.0 / rs
        path.write_text("\n".join(f"{r},{v}" for r, v in zip(rs, vals)) + "\n")
        pair = parse_pair(f"table:{path}", "coulomb:0.5")
        assert 0.0 < a_plus(pair) < math.inf
        assert 0.0 < a_minus(pair) < math.inf

    # a 1000-sample 1/r table: each sample is a kink of the interpolant, and
    # a kink inside a quadrature panel costs accuracy and dozens of halvings
    LONG = np.linspace(0.2, 8.0, 1000)

    def test_long_table_moment_exact(self):
        tab = TablePotential(tuple(self.LONG), tuple(1.0 / self.LONG))

        def exact(r):
            # int_0^r tab(s) s^2 ds, piece by piece in rational arithmetic
            pieces = []
            for a, b, va, vb in zip(tab.rs[:-1], tab.rs[1:], tab.values[:-1], tab.values[1:]):
                if a >= r:
                    break
                a, b, va, vb, hi = (Fraction(x) for x in (a, b, va, vb, min(b, r)))
                slope = (vb - va) / (b - a)
                pieces.append(float((va - slope * a) * (hi ** 3 - a ** 3) / 3
                                    + slope * (hi ** 4 - a ** 4) / 4))
            return math.fsum(pieces)

        for r in (1.0, 3.3333, 8.0, 20.0):
            (value,), _ = integrate_radial(lambda s: tab(s) * s ** 2, (0.0, r), tab.breakpoints())
            assert value == pytest.approx(exact(r), rel=1e-13)

    def test_long_table_a_minus_dominates_exact_tail(self):
        rs = self.LONG
        tab = TablePotential(tuple(rs), tuple(1.0 / rs))
        pair = PotentialPair(v1_regular=tab, v2=CoulombPotential(0.5))
        # r^2 int_r^inf (tab(s) + 0.5/s) s^-2 ds; on a piece tab = c0 + slope s
        vs = np.asarray(tab.values)
        slope = np.diff(vs) / np.diff(rs)
        c0 = vs[:-1] - slope * rs[:-1]

        def piece(i, a, b):
            return c0[i] * (1.0 / a - 1.0 / b) + slope[i] * np.log(b / a)

        full = piece(np.arange(rs.size - 1), rs[:-1], rs[1:])
        suffix = np.append(np.cumsum(full[::-1])[::-1], 0.0)
        x = np.geomspace(rs[0], rs[-1], 2000)
        j = np.minimum(np.searchsorted(rs, x, side="right") - 1, rs.size - 2)
        samples = 0.25 + x ** 2 * (piece(j, x, rs[j + 1]) + suffix[j + 1])
        assert a_minus(pair) >= samples.max() - 1e-12

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            TablePotential((1.0, 1.0), (2.0, 2.0))


class TestPairValidation:
    def test_c2_nonnegative(self):
        with pytest.raises(ValueError):
            PotentialPair(v2=CoulombPotential(1.0), c2=-1.0)

    @pytest.mark.parametrize("make", [
        lambda: PotentialPair(v2=CoulombPotential(1.0), c2=math.nan),
        lambda: PotentialPair(v2=CoulombPotential(1.0), c1=math.nan),
        lambda: parse_pair("coulomb:1", "coulomb:1", c1=math.nan),
        lambda: parse_pair("coulomb:1", "coulomb:1", c2=math.nan),
        lambda: parse_component("coulomb:nan"),
        lambda: parse_component("power:nan,1"),
        lambda: parse_component("power:1,nan"),
        lambda: parse_component("mshell:nan,0.5@1"),
    ], ids=["pair-c2", "pair-c1", "parse-c1", "parse-c2", "coulomb", "power-a", "power-p",
            "mshell-c"])
    def test_nan_coupling_or_strength_rejected(self, make):
        # NaN passes every x < 0 check; these once went through, or failed
        # deep in the quadrature with a message about a radius
        with pytest.raises(ValueError, match="nan"):
            make()

    def test_shell_needs_positive_mass(self):
        with pytest.raises(ValueError):
            ShellMeasure(R=1.0, a=0.0)
        with pytest.raises(ValueError):
            ShellMeasure(R=0.0, a=1.0)

    @pytest.mark.parametrize("make", [
        lambda x: ShellMeasure(R=x, a=1.0),
        lambda x: ShellMeasure(R=1.0, a=x),
        lambda x: MollifiedShell(c=1.0, eps=x, R=1.0),
        lambda x: MollifiedShell(c=1.0, eps=0.5, R=x),
    ], ids=["shell-R", "shell-a", "mshell-eps", "mshell-R"])
    def test_nan_shell_parameter_rejected(self, make):
        # a NaN radius once made the mollified shell vanish without a word
        with pytest.raises(ValueError, match="=nan"):
            make(math.nan)
