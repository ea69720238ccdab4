"""Verification of the two-weight inequality and its coupled variant.

Evaluates both sides on sample fields, shows the per-channel breakdown
with the sharper channel constants, selects the spectral parameter for
given couplings, and encloses the supremum of the ratio per channel:
below by the inertia count of an element space, above by the channel
constant.

Run:  python demos/02_inequality_checks.py
"""

import math

from hardydirac import (
    SpinorField,
    exp_profile,
    extremize_ratio,
    parse_pair,
    random_field_gallery,
    select_lambda,
    verify_corollary,
    verify_theorem,
)


def main():
    pair = parse_pair("coulomb:1", "coulomb:1")
    field = SpinorField.single(0, exp_profile(0, 1.0))

    rep = verify_theorem(pair, field, gamma=0.0)
    print("Coulomb pair, field e^-r on k=0, gamma=0:")
    print(f"  lhs = {rep.lhs:.6f}  rhs = {rep.rhs:.6f}  ratio = {rep.ratio:.6f}")
    for k, check in sorted(rep.per_channel.items()):
        print(f"  channel {k:+d}: ratio {check.ratio:.6f} with A_k^2 = {check.constant:.4f}")

    print("\nlambda selection for coupled weights (midpoint rule):")
    for c1, c2 in ((1.0, 1.0), (3.0, 1.0), (0.5, 2.0)):
        print(f"  c1={c1}, c2={c2}, m=1: lambda = {select_lambda(c1, c2, 1.0):.4f}")

    print("\ncoupled inequality on a random gallery (couplings 0.9/0.9):")
    coupled = parse_pair("coulomb:1", "coulomb:1", c1=0.9, c2=0.9)
    worst = 0.0
    for f in random_field_gallery(20, seed=3):
        rep = verify_corollary(coupled, f, m=1.0)
        worst = max(worst, rep.ratio)
    print(f"  20 fields, worst ratio {worst:.6f} (all satisfied)")

    shell = parse_pair("shell:1@2", "coulomb:1", c1=0.8, c2=0.5)  # product 0.4 < 4/9
    rep = verify_corollary(shell, field, m=1.0)
    print(f"\nshell 0.8*delta(r=2) with 0.5/r: ratio {rep.ratio:.6f}, "
          f"lambda {rep.lam:.4f}, satisfied {rep.satisfied}")

    res = extremize_ratio(pair, gamma=0.0, k_set=(0, -2))
    n, r_min, r_max = res.grid
    print(f"\nsupremum of the ratio per channel ({n} nodes on [{r_min:g}, {r_max:g}]):")
    for k, (lower, upper) in sorted(res.per_channel.items()):
        print(f"  channel {k:+d}: {lower:.12f} <= sup <= {upper:.12f}")
    # f = u(ln r)/r turns the channel inequality into int u^2 <= int u'^2 + u^2
    # over the grid's log box, whose constant is 1/(1 + (pi/L)^2)
    box = 1.0 / (1.0 + (math.pi / math.log(r_max / r_min)) ** 2)
    print(f"  on the grid's log box the supremum is {box:.12f}; over all of (0, inf) it is 1")


if __name__ == "__main__":
    main()
