"""Bound states in the spectral gap.

Gap eigenvalues of the channel operators: the Coulomb case against the
relativistic closed form, mass scaling, and the shell-mass sweep (a delta
shell needs a finite mass before it binds).

Run:  python demos/05_gap_spectrum.py
"""

import math

from hardydirac import (
    Channel,
    DiracChannelProblem,
    RadialGrid,
    parse_pair,
    spectrum_in_gap,
)


def closed_form(n_r: int, nu: float, m: float = 1.0) -> float:
    g = math.sqrt(1.0 - nu * nu)
    return m / math.sqrt(1.0 + nu * nu / (n_r + g) ** 2)


def main():
    nu = 0.5
    pair = parse_pair("coulomb:1", "coulomb:1", c1=nu, c2=nu)
    prob = DiracChannelProblem(pair=pair, channel=Channel(0), m=1.0, lam=0.0,
                               grid=RadialGrid.log_uniform(700, 1e-6, 50.0))
    print(f"Coulomb couplings {nu}/{nu}, channel k=0:")
    for ev in spectrum_in_gap(prob, 2):
        exact = closed_form(ev.index, nu)
        print(f"  E_{ev.index} = {ev.value:.10f}  closed form {exact:.10f}  "
              f"err {abs(ev.value - exact):.1e}  est {ev.error_estimate:.1e}")

    print("\npartner channel k=-2 starts one radial level higher:")
    prob2 = DiracChannelProblem(pair=pair, channel=Channel(-2), m=1.0, lam=0.0,
                                grid=RadialGrid.log_uniform(700, 1e-6, 50.0))
    for ev in spectrum_in_gap(prob2, 2):
        exact = closed_form(ev.index + 1, nu)
        print(f"  E_{ev.index} = {ev.value:.10f}  closed form {exact:.10f}  "
              f"err {abs(ev.value - exact):.1e}")

    print("\neigenvalues scale linearly with the mass:")
    for m in (0.5, 1.0, 2.0):
        pm = DiracChannelProblem(pair=pair, channel=Channel(0), m=m, lam=0.0,
                                 grid=RadialGrid.log_uniform(400, 1e-6, 50.0))
        ev = spectrum_in_gap(pm, 1)[0]
        print(f"  m={m}: E0 = {ev.value:.9f}  E0/m = {ev.value/m:.9f}")

    print("\nshell-mass sweep (unit shell at R=1, second weight 0.5/r):")
    grid = RadialGrid.log_uniform(400, 1e-6, 60.0)
    for a in (0.3, 0.5, 0.6, 0.7, 0.8):
        shell = parse_pair("shell:1@1", "coulomb:1", c1=a, c2=0.5)
        shell_prob = DiracChannelProblem(pair=shell, channel=Channel(0), m=1.0, lam=0.0,
                                         grid=grid)
        levels = spectrum_in_gap(shell_prob, 1)
        if levels:
            print(f"  a={a}: E0 = {levels[0].value:.8f}")
        else:
            print(f"  a={a}: no bound state yet (shell too weak)")


if __name__ == "__main__":
    main()
