"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; a failing assertion marks the criterion FAIL.
"""

import math
import time

import numpy as np
import pytest

from hardydirac.channels import (
    Channel,
    SpinorField,
    exp_profile,
    gauss_profile,
    sigma_grad_norm_weighted,
)
from hardydirac.extension import (
    DiracChannelProblem,
    pairing_defect,
    spectrum_in_gap,
    weak_solve,
)
from hardydirac.numerics import RadialGrid
from hardydirac.potentials import (
    _a_exponent_cached,
    a_k,
    a_minus,
    a_plus,
    parse_pair,
    scale_pair,
)
from hardydirac.verify import (
    mollified_delta_experiment,
    random_field_gallery,
    standard_pair_gallery,
    verify_corollary,
    verify_theorem,
)
from lattice_oracle import lattice_sigma_grad_norm


def _report(criterion: int, detail: str):
    print(f"criterion {criterion}: PASS - {detail}")


def test_criterion_1_coulomb_constants():
    """A+ = A- = 1 for the Coulomb pair, to 1e-9, in under a second."""
    _a_exponent_cached.cache_clear()
    pair = parse_pair("coulomb:1", "coulomb:1")
    t0 = time.perf_counter()
    ap = a_plus(pair)
    am = a_minus(pair)
    elapsed = time.perf_counter() - t0
    assert abs(ap - 1.0) <= 1e-9
    assert abs(am - 1.0) <= 1e-9
    assert elapsed < 1.0
    _report(1, f"A+={ap:.12f}, A-={am:.12f} in {elapsed:.2f}s")


def test_criterion_2_shell_constants():
    """Shell + Coulomb: A+ = A- = 3/2 for each R, theorem constant 9/4."""
    for R in (0.5, 1.0, 3.0):
        pair = parse_pair(f"shell:1@{R}", "coulomb:1")
        ap, am = a_plus(pair), a_minus(pair)
        assert abs(ap - 1.5) <= 1e-9, f"A+ off at R={R}"
        assert abs(am - 1.5) <= 1e-9, f"A- off at R={R}"
        assert abs(max(ap, am) ** 2 - 2.25) <= 1e-8
    _report(2, "A+=A-=3/2 at R in {0.5, 1, 3}; max constant 9/4")


def test_criterion_3_channel_table():
    """Coulomb channel constants follow 1/|k+1| and are monotone."""
    pair = parse_pair("coulomb:1", "coulomb:1")
    ks = (0, 1, 2, 3, -2, -3, -4)
    table = {k: a_k(pair, k) for k in ks}
    for k in ks:
        assert abs(table[k] - 1.0 / abs(k + 1)) <= 1e-8, f"A_{k} off"
    for k in (1, 2, 3):
        assert table[k] <= table[0]
    for k in (-3, -4):
        assert table[k] <= table[-2]
    _report(3, "A_k = 1/|k+1| for k in {0,1,2,3,-2,-3,-4}, monotone")


def test_criterion_4_scaling_invariance():
    """A+- invariant under the potential rescaling, over the pair gallery."""
    worst = 0.0
    for pair in standard_pair_gallery():
        ap, am = a_plus(pair), a_minus(pair)
        for alpha in (0.5, 2.0):
            scaled = scale_pair(pair, alpha)
            dp = abs(a_plus(scaled) - ap)
            dm = abs(a_minus(scaled) - am)
            assert dp <= 1e-8 * (1.0 + ap)
            assert dm <= 1e-8 * (1.0 + am)
            worst = max(worst, dp / (1.0 + ap), dm / (1.0 + am))
    _report(4, f"5-pair gallery, alpha in {{0.5, 2}}, worst defect {worst:.2e}")


def test_criterion_5_radial_reduction_oracle():
    """Radial sigma-gradient norm matches 3D lattice quadrature."""
    cases = {
        0: SpinorField.single(0, gauss_profile(0, 1.0)),
        -2: SpinorField.single(-2, gauss_profile(1, 1.0)),
    }
    details = []
    for k, field in cases.items():
        radial = sigma_grad_norm_weighted(field)
        coarse = lattice_sigma_grad_norm(field, spacing=0.05, extent=3.2)
        fine = lattice_sigma_grad_norm(field, spacing=0.025, extent=3.2)
        rel_coarse = abs(coarse - radial) / radial
        rel_fine = abs(fine - radial) / radial
        assert rel_coarse <= 0.01, f"k={k} at h=0.05: {rel_coarse:.2e}"
        assert rel_fine <= 0.0025, f"k={k} at h=0.025: {rel_fine:.2e}"
        details.append(f"k={k}: {rel_coarse:.1e}@h=.05 {rel_fine:.1e}@h=.025")
    _report(5, "; ".join(details))


def test_criterion_6_inequality_suite():
    """Theorem holds on 200 fields x 5 pairs x 3 gammas; coupled variant
    never violates on admissible configurations."""
    fields = random_field_gallery(200, seed=2026)
    pairs = standard_pair_gallery()
    checked = 0
    for pair in pairs:
        for field in fields:
            for gamma in (0.0, 0.1, 1.0):
                rep = verify_theorem(pair, field, gamma)
                assert rep.satisfied, (
                    f"theorem violated: ratio={rep.ratio} pair={pair!r} "
                    f"gamma={gamma}")
                checked += 1

    corollary_fields = random_field_gallery(20, seed=77)
    configs = [
        parse_pair("coulomb:1", "coulomb:1", c1=0.9, c2=0.9),   # product 0.81 < 1
        parse_pair("coulomb:1", "coulomb:1", c1=1.8, c2=0.5),   # product 0.9 < 1
        parse_pair("shell:1@2", "coulomb:1", c1=0.8, c2=0.5),   # 0.4 < 4/9
        parse_pair("shell:1@0.7", "coulomb:1", c1=2.0, c2=0.2),  # 0.4 < 4/9
    ]
    for pair in configs:
        for field in corollary_fields:
            rep = verify_corollary(pair, field, m=1.0)
            assert rep.satisfied, f"coupled inequality violated for {pair!r}"
    _report(6, f"{checked} theorem checks and {4 * 20} coupled checks, no violation")


def test_criterion_7_weak_solver():
    """Manufactured recovery at 2000 nodes, residual decay, symmetry."""
    # manufactured: phi* = exp(-r^2) against F1 = phi*, F2 = -phi*'
    zero = parse_pair("zero", "zero", c1=0.0, c2=0.0)
    grid = RadialGrid.log_uniform(2000, 1e-7, 50.0)
    prob = DiracChannelProblem(pair=zero, channel=Channel(0), m=1.0, lam=0.0,
                               grid=grid)
    sol = weak_solve(prob, gauss_profile(0, 1.0), gauss_profile(1, 1.0, coef=2.0))
    r = grid.nodes
    w = r ** 3 * (grid.t[1] - grid.t[0])
    err = math.sqrt(float(np.sum((sol.phi.values - np.exp(-r * r)) ** 2 * w)))
    ref = math.sqrt(float(np.sum(np.exp(-2.0 * r * r) * w)))
    recovery = err / ref
    assert recovery <= 1e-6

    # first-order-or-better residual decay under grid doubling
    pair = parse_pair("coulomb:1", "coulomb:1", c1=0.5, c2=0.5)
    residuals = []
    for n in (500, 1000, 2000):
        p = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0,
                                grid=RadialGrid.log_uniform(n, 1e-7, 50.0))
        residuals.append(weak_solve(p, exp_profile(0, 1.0), None).residual_upper)
    assert residuals[1] <= 0.5 * residuals[0]
    assert residuals[2] <= 0.5 * residuals[1]

    # symmetry defect of the discrete pairing on 50 random domain pairs
    prob_s = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0,
                                 grid=RadialGrid.log_uniform(800, 1e-7, 50.0))
    rng = np.random.default_rng(123)
    sols = []
    for i in range(11):
        F1 = exp_profile(int(rng.integers(0, 2)), float(rng.uniform(0.4, 2.5)),
                         coef=float(rng.uniform(0.3, 1.5)))
        F2 = (gauss_profile(int(rng.integers(0, 2)) + 1, float(rng.uniform(0.5, 1.5)),
                            coef=float(rng.uniform(-1.0, 1.0)))
              if i % 2 else None)
        sols.append(weak_solve(prob_s, F1, F2))
    defects = []
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            d = pairing_defect(prob_s, sols[i], sols[j])
            defects.append(d / (sols[i].h_norm_phi * sols[j].h_norm_phi))
    assert len(defects) >= 50
    assert max(defects) <= 1e-8
    _report(7, f"recovery {recovery:.1e}; residual decay "
               f"{residuals[0]:.1e}->{residuals[1]:.1e}->{residuals[2]:.1e}; "
               f"worst symmetry defect {max(defects):.1e} over {len(defects)} pairs")


def test_criterion_8_gap_spectrum():
    """Lowest two gap eigenvalues match the relativistic closed form."""
    nu = 0.5
    gamma0 = math.sqrt(1.0 - nu * nu)
    oracle = [1.0 / math.sqrt(1.0 + nu ** 2 / (n_r + gamma0) ** 2) for n_r in (0, 1)]
    pair = parse_pair("coulomb:1", "coulomb:1", c1=nu, c2=nu)
    prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, lam=0.0,
                               grid=RadialGrid.log_uniform(700, 1e-6, 50.0))
    t0 = time.perf_counter()
    evs = spectrum_in_gap(prob, 2)
    elapsed = time.perf_counter() - t0
    assert prob.grid.n <= 4000 and 2 * prob.grid.n - 1 <= 4000
    assert len(evs) == 2
    errs = [abs(ev.value - ex) for ev, ex in zip(evs, oracle)]
    assert errs[0] <= 1e-4
    assert errs[1] <= 1e-4
    assert elapsed < 30.0
    _report(8, f"E0 err {errs[0]:.1e}, E1 err {errs[1]:.1e} in {elapsed:.1f}s "
               f"(oracle {oracle[0]:.7f}, {oracle[1]:.7f})")


def test_criterion_9_mollified_delta():
    """Annulus term decays under eps halving while the shell side is fixed."""
    field = SpinorField.single(0, exp_profile(0, 1.0))
    rows = mollified_delta_experiment(1.0, 0.25, 2.0, [0.8, 0.4, 0.2], field,
                                      m=1.0, lam=0.0)
    assert len({row.lhs for row in rows}) == 1
    ratios = [rows[i + 1].annulus_term / rows[i].annulus_term
              for i in range(len(rows) - 1)]
    for ratio in ratios:
        assert 0.3 <= ratio <= 0.8, f"halving ratio {ratio} outside [0.3, 0.8]"
    _report(9, "annulus halving ratios " + ", ".join(f"{x:.3f}" for x in ratios))
