import math
import sys
import threading

import numpy as np
import pytest

from hardydirac import channels, extension, numerics, potentials, verify
from hardydirac.channels import (
    Channel,
    ClosedFormProfile,
    ProfileTerm,
    SpinorField,
    exp_profile,
    field_norm_weighted,
    gauss_profile,
    sigma_grad_norm_weighted,
)
from hardydirac.extension import extremize_ratio
from hardydirac.numerics import integrate_radial
from hardydirac.potentials import (
    CoulombPotential,
    PotentialComponent,
    PotentialPair,
    a_k,
    a_minus,
    a_plus,
    parse_pair,
    scale_pair,
)
from hardydirac.verify import (
    HypothesisViolationError,
    mollified_delta_experiment,
    random_field_gallery,
    select_lambda,
    verify_corollary,
    verify_theorem,
)

F_EXP = SpinorField.single(0, exp_profile(0, 1.0))


class _NaNBeyondTwo(PotentialComponent):
    """1/r up to r = 2 and NaN beyond: a weight whose integrals fail."""

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 2.0, np.nan, 1.0 / r)


def _unit_constants(monkeypatch):
    # the Hardy constants of a NaN weight fail first; these tests reach past them
    for name in ("a_plus", "a_minus", "a_k"):
        monkeypatch.setattr(verify, name, lambda *args: 1.0)


class TestLhs:
    def test_coulomb(self, coulomb_pair):
        # 1/r weight: int e^{-2r} r dr = 1/4
        assert sum(verify._lhs_cached(coulomb_pair, F_EXP)) == pytest.approx(0.25, rel=1e-10)

    def test_shell(self, shell_coulomb_pair):
        # the pair's regular first weight is zero: only the shell contributes
        assert sum(verify._lhs_cached(shell_coulomb_pair, F_EXP)) == pytest.approx(
            math.exp(-2.0), rel=1e-10)

    def test_zero_weight(self):
        pair = parse_pair("zero", "coulomb:1")
        assert sum(verify._lhs_cached(pair, F_EXP)) == 0.0


class TestRhs:
    def test_zero_pair_mass_only(self):
        pair = parse_pair("zero", "zero")
        assert verify_theorem(pair, F_EXP, 1.0).rhs == pytest.approx(0.25, rel=1e-10)

    def test_coulomb_weighted_gradient(self, coulomb_pair):
        # weight 1/(V2) = r: int e^{-2r} r^3 dr = Gamma(4)/2^4 = 3/8
        assert verify_theorem(coulomb_pair, F_EXP, 0.0).rhs == pytest.approx(
            0.375, rel=1e-9)

    def test_zero_field(self, coulomb_pair):
        empty = SpinorField(())
        assert verify_theorem(coulomb_pair, empty, 1.0).rhs == 0.0

    def test_gamma_zero_needs_positive_v2(self):
        pair = parse_pair("coulomb:1", "zero")
        with pytest.raises(ValueError):
            verify_theorem(pair, F_EXP, 0.0)

    def test_vanishing_v2_gives_infinite_rhs(self):
        pair = parse_pair("coulomb:0.5", "mshell:1,0.3@1")
        rep = verify_theorem(pair, F_EXP, 0.0)
        assert math.isinf(rep.rhs) and rep.vacuous


class TestVerifyTheorem:
    def test_coulomb_example(self, coulomb_pair):
        rep = verify_theorem(coulomb_pair, F_EXP, 0.0)
        assert rep.lhs == pytest.approx(0.25, rel=1e-9)
        assert rep.rhs == pytest.approx(0.375, rel=1e-9)
        assert rep.ratio == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert rep.satisfied

    def test_shell_pair_with_gap_gamma(self, shell_coulomb_pair):
        # gamma = m - lambda plays the mass-term role; constant is 9/4
        field = SpinorField.single(0, gauss_profile(0, 0.8))
        rep = verify_theorem(shell_coulomb_pair, field, gamma=0.5)
        assert rep.constant == pytest.approx(2.25, abs=1e-8)
        assert rep.satisfied

    def test_zero_field(self, coulomb_pair):
        rep = verify_theorem(coulomb_pair, SpinorField(()), 0.1)
        assert rep.ratio == 0.0
        assert rep.satisfied

    def test_vacuous_flagged(self):
        pair = parse_pair("coulomb:0.5", "mshell:1,0.3@1")
        rep = verify_theorem(pair, F_EXP, 0.0)
        assert rep.vacuous and rep.satisfied

    def test_lhs_is_channel_sum(self, coulomb_pair):
        field = SpinorField(((F_EXP.terms[0][0], F_EXP.terms[0][1]),
                             (SpinorField.single(2, exp_profile(2, 0.9)).terms[0][0],
                              exp_profile(2, 0.9))))
        rep = verify_theorem(coulomb_pair, field, 0.3)
        assert rep.lhs == pytest.approx(sum(c.lhs for c in rep.per_channel.values()),
                                        rel=1e-14)

    def test_per_channel_dominance(self, pair_gallery):
        fields = random_field_gallery(10, seed=3)
        for pair in pair_gallery[:2]:
            for field in fields:
                rep = verify_theorem(pair, field, gamma=0.2)
                if rep.vacuous:
                    continue
                for check in rep.per_channel.values():
                    assert check.lhs <= check.rhs * (1.0 + 1e-8) + 1e-12

    def test_gamma_monotonicity_above_balance(self, coulomb_pair):
        # computed balance point: gamma* = max(A+,A-) * grad-term / mass
        grad = sigma_grad_norm_weighted(F_EXP, weight=lambda r: r)
        mass = 0.25
        gamma1 = 1.0 * grad / mass
        rhs1 = verify_theorem(coulomb_pair, F_EXP, gamma1).rhs
        for gamma2 in (1.5 * gamma1, 3.0 * gamma1):
            assert verify_theorem(coulomb_pair, F_EXP, gamma2).rhs >= rhs1 - 1e-10

    def test_scaling_invariance_of_ratio(self, coulomb_pair):
        field = SpinorField(((F_EXP.terms[0][0], exp_profile(0, 0.8)),))
        base = verify_theorem(coulomb_pair, field, gamma=0.4)
        for alpha in (0.5, 2.0):
            scaled_pair = scale_pair(coulomb_pair, alpha)
            # f_alpha(r) = alpha^{3/2} f(alpha r)
            prof = ClosedFormProfile((ProfileTerm(alpha ** 1.5, 0.0, 0.8 * alpha, "exp"),))
            scaled_field = SpinorField.single(0, prof)
            rep = verify_theorem(scaled_pair, scaled_field, gamma=0.4 * alpha)
            assert rep.ratio == pytest.approx(base.ratio, abs=1e-6)


@pytest.mark.parametrize("gamma", [-0.5, math.nan])
def test_gamma_must_be_nonnegative(coulomb_pair, gamma):
    # a negative gamma puts a pole in 1/(V2 + gamma); a NaN one read as vacuous
    with pytest.raises(ValueError, match="gamma must be >= 0"):
        verify_theorem(coulomb_pair, F_EXP, gamma)
    with pytest.raises(ValueError, match="gamma must be >= 0"):
        extremize_ratio(coulomb_pair, gamma, k_set=(0,))


class TestSelectLambda:
    def test_symmetric(self):
        assert select_lambda(1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_asymmetric(self):
        assert select_lambda(3.0, 1.0, 1.0) == pytest.approx(0.75)

    def test_small_c1(self):
        lam = select_lambda(1e-9, 1.0, 1.0)
        assert lam == pytest.approx(0.5, abs=1e-9)
        # condition holds strictly
        assert 1e-9 / 1.0 <= (1.0 + lam) / (1.0 - lam)

    def test_scales_with_m(self):
        assert select_lambda(1.0, 1.0, 2.0) == pytest.approx(1.0)


class TestVerifyCorollary:
    def test_coulomb_09(self, coulomb_pair):
        pair = parse_pair("coulomb:1", "coulomb:1", c1=0.9, c2=0.9)
        for field in random_field_gallery(20, seed=11):
            rep = verify_corollary(pair, field, m=1.0)
            assert rep.satisfied
            if rep.norm_equivalence is not None:
                assert rep.norm_equivalence.satisfied

    def test_shell_below_threshold(self):
        pair = parse_pair("shell:1@2", "coulomb:1", c1=0.8, c2=0.5)  # a*nu = 0.4 < 4/9
        for field in random_field_gallery(20, seed=12):
            rep = verify_corollary(pair, field, m=1.0)
            assert rep.satisfied

    def test_hypothesis_violation(self):
        pair = parse_pair("coulomb:1", "coulomb:1", c1=2.0, c2=1.0)
        with pytest.raises(HypothesisViolationError):
            verify_corollary(pair, F_EXP, m=1.0)

    def test_needs_positive_couplings(self, coulomb_pair):
        pair = parse_pair("coulomb:1", "coulomb:1", c1=0.0, c2=1.0)
        with pytest.raises(ValueError):
            verify_corollary(pair, F_EXP, m=1.0)

    def test_never_violates_across_gallery(self, pair_gallery):
        # 200 random fields spread over the 5-pair gallery, each pair given
        # admissible couplings just below its own threshold
        fields = random_field_gallery(200, seed=99)
        per_pair = len(fields) // len(pair_gallery)
        for i, base in enumerate(pair_gallery):
            c = 0.95 / max(a_plus(base), a_minus(base))
            pair = PotentialPair(v1_regular=base.v1_regular,
                                 v1_shells=base.v1_shells, v2=base.v2,
                                 c1=c, c2=c)
            for field in fields[i * per_pair:(i + 1) * per_pair]:
                rep = verify_corollary(pair, field, m=1.0)
                assert rep.satisfied


    def test_integrates_each_channel_once(self, monkeypatch):
        # two channels: one quadrature call for the lhs of both channels, one
        # for their gradient, mass and epsilon-weighted gradient; the
        # whole-field sides are the channel sums
        pair = parse_pair("coulomb:1", "coulomb:1", c1=0.9, c2=0.9)
        field = SpinorField(((Channel(0), exp_profile(0, 1.0)),
                             (Channel(-2), gauss_profile(1, 0.7))))
        verify_corollary(pair, field, m=1.0)       # constants cached
        calls = []
        inner = channels.integrate_radial
        monkeypatch.setattr(channels, "integrate_radial",
                            lambda f, *a: calls.append(f(np.ones(1)).shape[0]) or inner(f, *a))
        verify._lhs_cached.cache_clear()
        rep = verify_corollary(pair, field, m=1.0)
        assert rep.norm_equivalence is not None
        assert calls == [2, 3 * 2]
        verify_corollary(pair, field, m=1.0)       # lhs cached
        assert calls == [2, 3 * 2, 3 * 2]

    @pytest.mark.parametrize("spec", [("coulomb:1", "coulomb:1", 0.9, 0.9),
                                      ("shell:1@2", "coulomb:1", 0.8, 0.5)])
    def test_rhs_equals_whole_field_formula(self, spec):
        v1, v2, c1, c2 = spec
        pair = parse_pair(v1, v2, c1=c1, c2=c2)
        for field in random_field_gallery(20, seed=13):
            rep = verify_corollary(pair, field, m=1.0)
            weight = lambda r: 1.0 / (1.0 + c2 * pair.v2(r) - rep.lam)
            rhs = (sigma_grad_norm_weighted(field, weight=weight)
                   + (1.0 + rep.lam) * field_norm_weighted(field))
            assert rep.rhs == rhs


def _per_integral_sides(pair, field, weight):
    """Per channel (ascending k): lhs, gradient and mass, one integrate_radial
    call each, as the checks were made before they were batched."""
    v1 = pair.v1_regular
    sides = []
    for ch, prof in field.sorted_terms():
        red = prof.reduced(ch.k)
        lhs = 0.0
        lhs += integrate_radial(lambda r: v1(r) * np.abs(prof(r)) ** 2 * r * r,
                                breakpoints=v1.breakpoints())[0][0]
        for shell in pair.v1_shells:
            lhs += shell.a * shell.R ** 2 * abs(prof(shell.R)) ** 2
        (grad,), _ = integrate_radial(lambda r: weight(r) * np.abs(red(r)) ** 2 * r * r)
        (mass,), _ = integrate_radial(lambda r: np.abs(prof(r)) ** 2 * r * r)
        sides.append((ch.k, lhs, grad, mass))
    return sides


class TestBatchedChecks:
    FIELDS = random_field_gallery(40, seed=0)

    @staticmethod
    def _close(got, want):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 1.0])
    def test_theorem_matches_per_integral_loop(self, pair_gallery, gamma):
        for pair in pair_gallery:
            maxsq = max(a_plus(pair), a_minus(pair)) ** 2
            for field in self.FIELDS:
                rep = verify_theorem(pair, field, gamma)
                sides = _per_integral_sides(pair, field, lambda r: 1.0 / (pair.v2(r) + gamma))
                mass_on = 1.0 if gamma > 0 else 0.0
                self._close(rep.lhs, sum(s[1] for s in sides))
                self._close(rep.rhs, maxsq * sum(s[2] for s in sides)
                            + gamma * mass_on * sum(s[3] for s in sides))
                for k, lhs, grad, mass in sides:
                    check = rep.per_channel[k]
                    self._close(check.lhs, lhs)
                    self._close(check.rhs, a_k(pair, k) ** 2 * grad + gamma * mass_on * mass)

    def test_corollary_matches_per_integral_loop(self, pair_gallery):
        m = 1.0
        for base in pair_gallery:
            c = 0.9 / max(a_plus(base), a_minus(base))
            pair = PotentialPair(v1_regular=base.v1_regular, v1_shells=base.v1_shells,
                                 v2=base.v2, c1=c, c2=c)
            for field in self.FIELDS:
                rep = verify_corollary(pair, field, m=m)
                lam, eq = rep.lam, rep.norm_equivalence
                sides = _per_integral_sides(pair, field, lambda r: 1.0 / (m + c * pair.v2(r) - lam))
                lhs = sum(s[1] for s in sides)
                mass = sum(s[3] for s in sides)
                self._close(rep.lhs, c * lhs)
                self._close(rep.rhs, sum(s[2] for s in sides) + (m + lam) * mass)
                for k, lhs_k, grad_k, mass_k in sides:
                    check = rep.per_channel[k]
                    self._close(check.lhs, c * lhs_k)
                    self._close(check.rhs, min(c * c * a_k(pair, k) ** 2, 1.0) * grad_k
                                + (m - lam) * mass_k)
                eps_sides = _per_integral_sides(pair, field,
                                                lambda r: 1.0 / (m + c * pair.v2(r) - eq.lam))
                self._close(eq.lhs, eq.epsilon * c * lhs)
                self._close(eq.rhs, sum(s[2] for s in eps_sides) + (m + eq.lam) * mass - c * lhs)

    def test_gradient_not_square_integrable_is_vacuous(self, coulomb_pair):
        # f = r^-0.5 e^-r has finite lhs but f' is not square integrable at
        # the origin: the gradient profile is refused, the rhs is infinite
        rep = verify_theorem(coulomb_pair, SpinorField.single(0, exp_profile(-0.5, 1.0)), 0.3)
        assert rep.vacuous and rep.satisfied and math.isinf(rep.rhs)
        assert math.isfinite(rep.lhs) and rep.lhs > 0.0

    def test_failing_gradient_integral_is_vacuous(self, monkeypatch):
        # V1 = 0 needs no lhs quadrature; V2 is NaN beyond r = 2, so the
        # gradient integral raises inside the check (gamma > 0 skips the
        # V2 sign probe, which would call the NaN weight mixed)
        _unit_constants(monkeypatch)
        pair = PotentialPair(v2=_NaNBeyondTwo())
        rep = verify_theorem(pair, F_EXP, 0.5)
        assert rep.vacuous and rep.satisfied and math.isinf(rep.rhs)
        assert rep.lhs == 0.0

    def test_failing_lhs_integral_raises(self, monkeypatch):
        _unit_constants(monkeypatch)
        pair = PotentialPair(v1_regular=_NaNBeyondTwo(), v2=CoulombPotential(1.0))
        with pytest.raises(ValueError, match="non-finite"):
            verify_theorem(pair, F_EXP, 0.1)

    def test_zero_weight_lhs_skips_quadrature(self, shell_coulomb_pair, monkeypatch):
        # the shell pair's regular V1 is zero: only the shell terms remain,
        # bit for bit, and no integrand is evaluated
        monkeypatch.setattr(channels, "integrate_radial",
                            lambda *a, **kw: pytest.fail("quadrature called"))
        (shell,) = shell_coulomb_pair.v1_shells
        for field in self.FIELDS[:10]:
            want = 0.0
            for ch, prof in field.sorted_terms():
                want += 0.0 + shell.a * shell.R ** 2 * abs(prof(shell.R)) ** 2
            assert sum(verify._lhs_cached(shell_coulomb_pair, field)) == want


def _element_space_ratio(pair, gamma: float, k: int, grid: tuple) -> float:
    """lhs/rhs of channel k, by adaptive quadrature with the weights'
    breakpoints and every node, of the best function of the element space
    on ``grid``: the top generalized eigenvector of the library's forms L and
    (gamma/A^2) M + G, which serves only as a trial function."""
    from scipy.linalg import eigh

    fem = extension._HermiteFem(numerics.RadialGrid.log_uniform(*grid))
    maxsq = max(a_plus(pair), a_minus(pair)) ** 2
    g, kinks = gamma / maxsq, pair.v1_regular.breakpoints() + pair.v2.breakpoints()

    def den(r):
        return pair.v2(r) + gamma

    rules = extension._kink_rules(fem, pair, pair.v1_regular, den)

    def dense(mass, shells=()):
        D, B = extension._gap_form(fem, k, mass, den, shells, rules)(np.zeros(1))
        n = fem.n_nodes
        a, i = np.zeros((n, 3, n, 3)), np.arange(n)
        a[i, :, i, :] = D[:, :, 0].transpose(2, 0, 1)
        a[i[:-1], :, i[1:], :] = B[:, :, 0].transpose(2, 0, 1)
        a[i[1:], :, i[:-1], :] = B[:, :, 0].transpose(2, 1, 0)
        return a.reshape(3 * n, 3 * n)

    rhs = dense(lambda r: np.full_like(r, g))
    lhs = rhs - dense(lambda r: g - pair.v1_regular(r), [(s.R, s.a) for s in pair.v1_shells])
    s = 1.0 / np.sqrt(np.diag(rhs))
    last = 3 * fem.n_nodes - 1
    _, v = eigh(lhs * s * s[:, None], rhs * s * s[:, None], subset_by_index=[last, last])
    x = (v[:, 0] * s).reshape(-1, 3)                    # node-major dofs
    nodes, h = fem.grid.nodes, fem.h
    scale = np.array([1.0, h, h * h, 1.0, h, h * h])[:, None]

    def f_and_slope(r):                                 # f and df/d(log r)
        el = np.clip(nodes.searchsorted(r, "right") - 1, 0, fem.n_nodes - 2)
        H, Ht, _ = extension._hermite_tables((np.log(r) - fem.t[el]) / h)
        local = np.concatenate([x[el], x[el + 1]], axis=1).T
        return (H * scale * local).sum(axis=0), (Ht * scale / h * local).sum(axis=0)

    def integrands(r):
        f, ft = f_and_slope(r)
        return np.array([pair.v1_regular(r) * f * f * r * r, (ft - k * f) ** 2 / den(r),
                         f * f * r * r])

    (L, G, M), _ = integrate_radial(integrands, (nodes[0], nodes[-1]),
                                    sorted({*nodes, *kinks}))
    L = L[0] + sum(sh.a * sh.R**2 * f_and_slope(np.array([sh.R]))[0][0] ** 2
                   for sh in pair.v1_shells)
    return L / (maxsq * G[0] + gamma * M[0])


class TestExtremize:
    # the best ratio over r^p e^{-a r}, p in [0, 3], a in [0.2, 4], of the 21-level
    # zoom that extremize_ratio ran before the inertia count, per
    # (standard_pair_gallery index, gamma) in the channels (0, 1, -2)
    ZOOM = {
        (0, 0.0): (0.6666666666666664, 0.2222222222222221, 0.6666666666666664),
        (0, 0.5): (0.7895021035873282, 0.33333333333333315, 0.6589579043131051),
        (0, 1.0): (0.7895021035873284, 0.3333333333333331, 0.6419675391168587),
        (1, 0.0): (0.4266666666666665, 0.14222222222222217, 0.4266666666666666),
        (1, 0.5): (0.42744471283084823, 0.1627140852264232, 0.39938048252202546),
        (1, 1.0): (0.41796451248930444, 0.16271408522642314, 0.3737122356007929),
        (2, 0.0): (0.17379738445013698, 0.08271794485961302, 0.17379738445013695),
        (2, 0.5): (0.26580630677602196, 0.13222981193490219, 0.2086612084753353),
        (2, 1.0): (0.2971714729035929, 0.1671965110097638, 0.22892807057541312),
        (3, 0.0): (0.26556279842788394, 0.12407592167455082, 0.26556279842788383),
        (3, 0.5): (0.34430018531825524, 0.24700763214501487, 0.2850052441430863),
        (3, 1.0): (0.23779463755139144, 0.20347656077035747, 0.2135455421789841),
        (4, 0.0): (0.32280901824332775, 0.13126519113823373, 0.3228090182433277),
        (4, 0.5): (0.45396942941484625, 0.2065031962803185, 0.3430922261258877),
        (4, 1.0): (0.45848802263204524, 0.2537557680089032, 0.3453871308441252),
    }

    def test_zero_pair(self):
        pair = parse_pair("zero", "coulomb:1")
        res = extremize_ratio(pair, 0.0, k_set=(0,))
        assert res.best_ratio == 0.0
        # V1 = V2 = 0: A = 0, so the form q_c is not defined, and the ratio is 0
        res = extremize_ratio(parse_pair("zero", "zero"), 0.5, k_set=(0, -2))
        assert res.best_ratio == 0.0 and res.per_channel == {-2: (0.0, 0.0), 0: (0.0, 0.0)}

    @pytest.mark.parametrize("nu1, nu2", [(1.0, 1.0), (0.5, 2.0)])
    def test_coulomb_closed_form(self, nu1, nu2):
        # V1 = nu1/r, V2 = nu2/r, gamma = 0: with f = u(ln r)/r, channel k reads
        # nu1 nu2/A^2 int u^2 dt against int u'^2 + (k+1)^2 u^2 dt, A = (nu1+nu2)/2,
        # so over u vanishing at the ends of the grid's log box, of length L, the
        # supremum is nu1 nu2/A^2/((k+1)^2 + (pi/L)^2); U_k is 1 in k = 0, -2
        res = extremize_ratio(parse_pair(f"coulomb:{nu1}", f"coulomb:{nu2}"), 0.0,
                              k_set=(0, -2, 1))
        _, r_min, r_max = res.grid
        scale = nu1 * nu2 / ((nu1 + nu2) / 2) ** 2
        for k in (0, -2, 1):
            want = scale / ((k + 1) ** 2 + (math.pi / math.log(r_max / r_min)) ** 2)
            assert res.per_channel[k][0] == pytest.approx(want, rel=1e-9, abs=0.0)
        assert res.per_channel[0][1] == res.per_channel[-2][1] == pytest.approx(1.0, rel=1e-12)
        # the two channels tie to round-off (about 1e-13 apart in the README case): either wins
        assert res.best_k in (0, -2)
        assert res.best_ratio == max(lower for lower, _ in res.per_channel.values())

    def test_matches_brute_force_grid(self, coulomb_pair):
        # the inertia count's supremum is over a whole element space, so it
        # reaches at least every ratio of a 20 x 20 grid over the zoom's box
        res = extremize_ratio(coulomb_pair, 0.0, k_set=(0, -2))
        for k in (0, -2):
            lower, upper = res.per_channel[k]
            for p in np.linspace(0.0, 3.0, 20):
                for a in np.linspace(0.2, 4.0, 20):
                    f = SpinorField.single(k, exp_profile(float(p), float(a)))
                    lhs = sum(verify._lhs_cached(coulomb_pair, f))
                    rhs = sigma_grad_norm_weighted(f, weight=lambda r: r)
                    assert lower >= lhs / rhs * (1.0 - 1e-9)
            assert lower <= upper == pytest.approx(1.0, rel=1e-12)

    def test_encloses_the_zoom(self, pair_gallery, monkeypatch):
        # every cell: count 0 where the search starts, 1e-9 below the threshold
        # c = 1/(A^2 U_k), and no count beyond 8 decades above it, where a
        # rank-one L was miscounted; a lower bound at most U_k (1 + 1e-9); and at
        # least the zoom's ratio, which the count undercuts only by its bracket
        # width (4e-11 on the two Coulomb cells at 1/3)
        starts, ends = [], []

        def recorded(D, B, x, inner=extension.ldl_inertia):
            n, logdet = inner(D, B, x)
            starts.append((float(x.min()), int(n[x.argmin()])))
            ends.append(float(x.max()))
            return n, logdet

        monkeypatch.setattr(extension, "ldl_inertia", recorded)
        for (i, gamma), zoom in self.ZOOM.items():
            pair = pair_gallery[i]
            maxsq = max(a_plus(pair), a_minus(pair)) ** 2
            for k, zoom_k in zip((0, 1, -2), zoom):
                starts.clear()
                ends.clear()
                lower, upper = extremize_ratio(pair, gamma, k_set=(k,)).per_channel[k]
                u_k = a_k(pair, k) ** 2 / maxsq
                assert upper == (u_k if gamma == 0.0 else max(u_k, 1.0))
                x_min, count = min(starts)
                assert x_min == pytest.approx(-math.log(maxsq * upper) - 1e-9, abs=1e-13)
                assert count == 0
                assert max(ends) == pytest.approx(x_min + 8.0 * math.log(10.0), abs=1e-13)
                assert zoom_k * (1.0 - 1e-9) <= lower <= upper * (1.0 + 1e-9), (i, gamma, k)
        # the Coulomb pair in k = 1 at gamma = 0.5: 1/3, above A_1^2/A^2 = 1/4
        lower, upper = extremize_ratio(pair_gallery[0], 0.5, k_set=(1,)).per_channel[1]
        assert lower == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert upper == 1.0 and lower > a_k(pair_gallery[0], 1) ** 2 == pytest.approx(0.25)

    @pytest.mark.parametrize("pair, gamma, k", [
        (parse_pair("mshell:1,1e-3@1", "coulomb:1"), 0.5, 0),
        (parse_pair("mshell:1,1e-3@1.03", "coulomb:1"), 0.5, -2),
        (parse_pair("mshell:1,0.5@2.03", "coulomb:1"), 0.0, 1),
        (parse_pair("coulomb:1", "coulomb:1+mshell:5,1e-3@1.03"), 0.5, 0),
        (PotentialPair(v1_regular=potentials.TablePotential((0.5, 0.51, 0.9, 1.7, 1.71),
                                                            (0.0, 2.0, 1.0, 3.0, 0.0)),
                       v2=CoulombPotential(1.0)), 0.5, 0),
    ], ids=["v1-narrow-between-points", "v1-narrow-on-a-point", "v1-wide-bump",
            "v2-narrow", "v1-table"])
    def test_bound_is_attained_on_the_space(self, monkeypatch, pair, gamma, k):
        # weights 1e-3 wide, far narrower than an element (0.058 in log r on this
        # grid), a bump 0.5 wide whose flat edges fall inside elements, and a
        # table with kinks and jumps: the best function of the element space,
        # integrated with the breakpoints, reaches the reported lower bound to
        # the bracket width.  Sampled at the 7 points of each element alone the
        # first read 0, the second 1.75 times the value its function attains,
        # and the others were off by 4e-8 to 3e-3
        grid = (241, 1e-4, 1e2)
        monkeypatch.setattr(extension, "_EXTREMIZE_GRID", grid)
        lower, upper = extremize_ratio(pair, gamma, k_set=(k,)).per_channel[k]
        assert lower <= upper
        exact = _element_space_ratio(pair, gamma, k, grid)
        assert lower == pytest.approx(exact, rel=1e-9, abs=0.0)

    def test_call_budget(self, coulomb_pair, monkeypatch):
        # the README case: at most 10 count calls per channel, and with the
        # constants warm no quadrature at all
        extremize_ratio(coulomb_pair, 0.0, k_set=(0, -2))
        for module in (numerics, potentials, channels):
            monkeypatch.setattr(module, "integrate_radial",
                                lambda *a, **kw: pytest.fail("quadrature called"))
        calls = []

        def counted(D, B, x, inner=extension.ldl_inertia):
            calls.append(x.size)
            return inner(D, B, x)

        monkeypatch.setattr(extension, "ldl_inertia", counted)
        for k in (0, -2):
            calls.clear()
            extremize_ratio(coulomb_pair, 0.0, k_set=(k,))
            assert 1 <= len(calls) <= 10

    def test_too_small_constant_raises(self, coulomb_pair, monkeypatch):
        # with A_0 = 0.9 the threshold 1/(A^2 U_0) lies above the crossing
        monkeypatch.setattr(extension, "a_k", lambda pair, k: 0.9)
        with pytest.raises(ValueError, match=r"channel k=0: .* A_k = 0\.9 is too small"):
            extremize_ratio(coulomb_pair, 0.0, k_set=(0,))

    @pytest.mark.parametrize("v2", ["zero", "mshell:1,0.5@2"])
    def test_gamma_zero_needs_positive_v2(self, v2):
        # the gradient term weighs by 1/V2 at gamma = 0 (this once ended in a
        # non-finite integrand, after RuntimeWarnings); with gamma > 0 it runs
        pair = parse_pair("coulomb:1", v2)
        with pytest.raises(ValueError, match="gamma = 0 requires V2 > 0"):
            extremize_ratio(pair, 0.0, k_set=(0,))
        lower, upper = extremize_ratio(pair, 0.5, k_set=(0,)).per_channel[0]
        assert 0.0 < lower <= upper * (1.0 + 1e-9)

    def test_leaves_the_lhs_cache_alone(self, coulomb_pair):
        # the checks' cache holds the fields they were given, none of extremize's
        before = verify._lhs_cached.cache_info()
        extremize_ratio(coulomb_pair, 0.5, k_set=(0,))
        after = verify._lhs_cached.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


def _forget_samples():
    channels._samples = (None, {}, [])
    verify._lhs_cached.cache_clear()


def _count_profile_calls(monkeypatch) -> dict:
    """Calls of every ClosedFormProfile, by the number of radii they sample."""
    calls = {}
    inner = ClosedFormProfile.__call__

    def counted(self, r):
        size = np.size(r)
        calls[size] = calls.get(size, 0) + 1
        return inner(self, r)

    monkeypatch.setattr(ClosedFormProfile, "__call__", counted)
    return calls


class TestChannelSamples:
    """The densities of the last field, kept per set of radii, change no result."""

    FIELDS = random_field_gallery(10, seed=7)
    TWO_CHANNELS = SpinorField(((Channel(0), exp_profile(0, 1.0)),
                                (Channel(-2), gauss_profile(1, 0.7))))

    @staticmethod
    def _checks(pair_gallery, field, fresh: bool) -> list:
        """Every gallery pair at gamma 0, 0.1 and 1, the corollary and the
        segmented edges of the mollified experiment, as reprs (bit for bit)."""
        calls = []
        for pair in pair_gallery:
            c = 0.9 / max(a_plus(pair), a_minus(pair))
            coupled = PotentialPair(v1_regular=pair.v1_regular, v1_shells=pair.v1_shells,
                                    v2=pair.v2, c1=c, c2=c)
            calls += [lambda p=pair, g=gamma: verify_theorem(p, field, g)
                      for gamma in (0.0, 0.1, 1.0)]
            calls.append(lambda p=coupled: verify_corollary(p, field, m=1.0))
        calls.append(lambda: mollified_delta_experiment(1.0, 0.25, 2.0, [1.5, 0.8, 0.2, 0.05],
                                                        field, m=1.0, lam=0.0))
        out = []
        for call in calls:
            if fresh:
                _forget_samples()
            out.append(repr(call()))
        return out

    def test_reports_equal_fresh_evaluation(self, pair_gallery):
        for field in self.FIELDS:
            _forget_samples()
            kept = self._checks(pair_gallery, field, fresh=False)
            assert kept == self._checks(pair_gallery, field, fresh=True)

    def test_first_sweep_sampled_once_per_profile(self, monkeypatch):
        # the lhs, the theorem's gradient and mass and the corollary's three
        # rows all start on the same panels: each profile (f_k and its
        # f_k' - k f_k/r) is evaluated there once, not once per call
        pair = parse_pair("coulomb:1", "coulomb:1", c1=0.9, c2=0.9)
        field = self.TWO_CHANNELS
        verify_corollary(pair, field, m=1.0)       # constants cached
        sizes = []
        inner = channels.integrate_radial

        monkeypatch.setattr(channels, "integrate_radial",
                            lambda f, *args: inner(lambda r: sizes.append(r.size) or f(r), *args))
        _forget_samples()
        calls = _count_profile_calls(monkeypatch)
        verify_theorem(pair, field, 0.1)
        verify_corollary(pair, field, m=1.0)
        assert sizes[0] == 140 * 24     # (0, inf) cut at r = 1, no panel wider than 2
        assert calls[sizes[0]] == 2 * len(field.terms)

    def test_alternating_fields_not_reused(self, coulomb_pair):
        other = random_field_gallery(1, seed=8)[0]
        fields = [self.TWO_CHANNELS, other] * 2
        kept, fresh = [], []
        for field in fields:
            verify._lhs_cached.cache_clear()
            kept.append(repr((verify_theorem(coulomb_pair, field, 0.1),
                              field_norm_weighted(field))))
        for field in fields:
            _forget_samples()
            fresh.append(repr((verify_theorem(coulomb_pair, field, 0.1),
                               field_norm_weighted(field))))
        assert kept == fresh and kept[0] != kept[1]

    def test_equal_field_shares_samples(self, monkeypatch):
        # an equal field, or one listing its terms in another order, samples nothing
        first = channels.build_field(["k=0:exp:0,1", "k=-2:gauss:1,0.7"])
        _forget_samples()
        want = (field_norm_weighted(first), sigma_grad_norm_weighted(first))
        calls = _count_profile_calls(monkeypatch)
        for field in (channels.build_field(["k=0:exp:0,1", "k=-2:gauss:1,0.7"]),
                      SpinorField(tuple(reversed(first.terms)))):
            assert field is not first
            assert (field_norm_weighted(field), sigma_grad_norm_weighted(field)) == want
        assert calls == {}

    def test_holds_one_field_and_four_radius_sets(self, monkeypatch):
        sweeps = []
        inner = channels.integrate_radial
        monkeypatch.setattr(channels, "integrate_radial",
                            lambda f, *args: inner(lambda r: sweeps.append(r) or f(r), *args))
        for field in self.FIELDS[:3]:
            mollified_delta_experiment(1.0, 0.25, 2.0, [0.8, 0.2, 0.05], field, m=1.0, lam=0.0)
        terms, profiles, sampled = channels._samples
        assert terms == self.FIELDS[2].sorted_terms()
        assert sorted(profiles) == [0, 1]
        assert len(sweeps) > 3 * 4 and len(sampled) == 4
        # four distinct sets of radii, the last one sampled last, each with
        # densities for its own radii only
        assert np.array_equal(sampled[-1][0], sweeps[-1])
        assert not any(a.shape == b.shape and np.array_equal(a, b)
                       for i, (a, _) in enumerate(sampled) for b, _ in sampled[i + 1:])
        assert all(d.shape == (len(terms), radii.size)
                   for radii, dens in sampled for d in dens.values())

    def test_threads_sharing_the_memo_get_fresh_results(self):
        # four threads cycling through four fields on a fine switch interval:
        # every result equals the fresh one of its field
        fields = self.FIELDS[:4]
        want = []
        for field in fields:
            _forget_samples()
            want.append((field_norm_weighted(field), sigma_grad_norm_weighted(field)))
        got, errors = [], []

        def work(j):
            try:
                for n in range(12):
                    i = (j + n) % len(fields)
                    got.append((i, field_norm_weighted(fields[i]),
                                sigma_grad_norm_weighted(fields[i])))
            except Exception as exc:    # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(j,)) for j in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and errors == []
        assert len(got) == 4 * 12
        assert all((norm, grad) == want[i] for i, norm, grad in got)


class TestMollified:
    def test_smooth_case_finite(self):
        rows = mollified_delta_experiment(1.0, 0.25, 2.0, [1.0], F_EXP, m=1.0, lam=0.0)
        assert rows[0].annulus_term > 0
        assert math.isfinite(rows[0].rhs)

    def test_annulus_roughly_halves(self):
        rows = mollified_delta_experiment(1.0, 0.25, 2.0, [0.8, 0.4], F_EXP,
                                          m=1.0, lam=0.0)
        ratio = rows[1].annulus_term / rows[0].annulus_term
        assert 0.5 / 1.5 <= ratio <= 0.5 * 1.5

    def test_lhs_fixed_across_eps(self):
        rows = mollified_delta_experiment(1.0, 0.25, 2.0, [0.8, 0.4, 0.2], F_EXP,
                                          m=1.0, lam=0.0)
        assert len({row.lhs for row in rows}) == 1

    def test_field_away_from_shell_vacuous(self):
        field = SpinorField.single(0, exp_profile(0, 3.0))
        rows = mollified_delta_experiment(1.0, 0.25, 40.0, [0.5], field,
                                          m=1.0, lam=0.0)
        assert rows[0].lhs < 1e-50
        assert rows[0].ratio < 1e-40

    def test_bad_eps(self):
        # NaN fails the range check too, so it cannot reach the quadrature
        for eps in (0.0, math.nan):
            with pytest.raises(ValueError, match="eps must be positive"):
                mollified_delta_experiment(1.0, 0.25, 2.0, [eps], F_EXP)

    @pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf])
    def test_bad_radius(self, R):
        # R = 0 once printed a NaN lhs, which is not valid JSON
        with pytest.raises(ValueError, match="shell radius R"):
            mollified_delta_experiment(1.0, 0.25, R, [0.8], F_EXP)

    @pytest.mark.parametrize("field", [F_EXP, SpinorField((
        (Channel(0), exp_profile(0, 1.0)), (Channel(-2), gauss_profile(1, 0.7))))])
    def test_rows_match_per_integral_calls(self, field):
        # demo 06's rows (plus eps >= 1, with no inner bulk segment) against
        # three integrate_radial calls per channel
        eps_list = [1.5, 1.0, 0.8, 0.4, 0.2, 0.1, 0.05]
        rows = mollified_delta_experiment(1.0, 0.25, 2.0, eps_list, field, m=1.0, lam=0.0)
        for eps, row in zip(eps_list, rows):
            inner, outer = max(1.0 - eps, 0.0), 1.0 + eps
            bulk = annulus = 0.0
            for ch, prof in field.sorted_terms():
                red = prof.reduced(ch.k)
                dens = lambda r: np.abs(red(r)) ** 2 * r * r
                if inner > 0.0:
                    bulk += integrate_radial(dens, (0.0, inner))[0][0]
                bulk += integrate_radial(dens, (outer, math.inf))[0][0]
                annulus += integrate_radial(dens, (inner, outer))[0][0]
            assert row.bulk_term == pytest.approx(bulk, rel=1e-10)
            assert row.annulus_term == pytest.approx(annulus / (1.0 + 1.0 / eps), rel=1e-10)
            assert row.rhs == pytest.approx(bulk + row.annulus_term + row.mass_term, rel=1e-10)


class TestGallery:
    def test_deterministic(self):
        g1 = random_field_gallery(8, seed=5)
        g2 = random_field_gallery(8, seed=5)
        assert g1 == g2

    def test_channels_admissible(self):
        for field in random_field_gallery(30, seed=6):
            for ch, prof in field.terms:
                assert ch.k != -1
                # regularity: p >= l
                assert all(t.p >= ch.l for t in prof.terms)
