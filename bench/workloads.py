"""The benchmark's four workloads.

A workload is built from a seed (input generation plus warm-up, which is
what ``setup_s`` times) and then hands out rounds of ops.  An op is a pair
``(run, check)``: ``run()`` makes the library call that is timed, and
``check(result)`` compares the result with its oracle (see ``oracles``).

Each round has a fixed composition, and a pass always ends on a round
boundary, so the mix of op kinds in a run does not depend on where the
clock stopped.  The seed picks the numerical inputs.  ``start_pass``
rewinds the input stream and the library caches, so a second pass replays
exactly the ops of the first one.
"""

from __future__ import annotations

import math

import numpy as np

from hardydirac import channels, extension, numerics, potentials, verify

import oracles
from oracles import WrongResult

CHANNEL_KS = (-4, -3, -2, 0, 1, 2, 3)
GAMMAS = (0.0, 0.1, 1.0)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _coupled(pair, rng, constant: float, lo: float, hi: float):
    """``pair`` with couplings c1 c2 = s / constant^2, s uniform in [lo, hi]."""
    product = float(rng.uniform(lo, hi)) / constant ** 2
    ratio = _log_uniform(rng, 0.5, 2.0)
    return potentials.PotentialPair(v1_regular=pair.v1_regular, v1_shells=pair.v1_shells,
                                    v2=pair.v2, c1=math.sqrt(product * ratio),
                                    c2=math.sqrt(product / ratio))


def _coulomb_pair(nu1: float, nu2: float):
    return potentials.PotentialPair(v1_regular=potentials.CoulombPotential(nu1),
                                    v2=potentials.CoulombPotential(nu2))


def _shell_pair(a: float, R: float, nu: float):
    return potentials.PotentialPair(v1_regular=potentials.ZeroPotential(),
                                    v1_shells=(potentials.ShellMeasure(R=R, a=a),),
                                    v2=potentials.CoulombPotential(nu))


class CacheStats:
    """Hit/miss totals of every functools cache in a module, across clears."""

    def __init__(self, module):
        self.module = module
        self.hits = 0
        self.misses = 0

    def _caches(self):
        return [obj for obj in vars(self.module).values()
                if callable(getattr(obj, "cache_info", None))
                and callable(getattr(obj, "cache_clear", None))]

    def clear(self) -> None:
        for cache in self._caches():
            info = cache.cache_info()
            self.hits += info.hits
            self.misses += info.misses
            cache.cache_clear()

    def totals(self) -> tuple[int, int]:
        hits, misses = self.hits, self.misses
        for cache in self._caches():
            info = cache.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses


class Workload:
    """Base class: seeded input stream, pass rewinding and cache handling."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.constant_cache = CacheStats(potentials)
        self.lhs_cache = CacheStats(verify)
        self.constant_cache.clear()
        self.lhs_cache.clear()
        self.prepare(np.random.default_rng([seed, 0]))

    def prepare(self, rng) -> None:
        """Generate the fixed inputs of a run and warm up."""

    def start_pass(self) -> None:
        self.rng = np.random.default_rng([self.seed, 1])
        self.round_index = 0

    def next_round(self) -> list:
        ops = self.make_round(self.round_index)
        self.round_index += 1
        return ops

    def make_round(self, index: int) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# constants: cold Hardy constants
# ---------------------------------------------------------------------------

# One round: (pair family, constant kind) per op, the same in every round so
# that the op mix of a run does not depend on how many rounds it holds.
# Coulomb pairs cost the median op: they fill 18%-64% of the sorted
# latencies, so the median sits at 70% of their own spread, inside the
# a_k-3/a_k-4 cluster and away from a boundary between kinds.  The second
# "mollified"/"sum" op is the rescaled twin of the first.  The kinds cover
# every function and every distinct exponent of k in -4..3.
CONSTANT_ROUND = (
    ("coulomb", "a_plus"), ("shell", "a_minus"), ("mollified", "a_k2"),
    ("coulomb", "a_k-4"), ("sum", "a_k-2"), ("coulomb", "a_k1"),
    ("mollified", "a_k2"), ("coulomb", "a_k-3"), ("shell", "a_k3"),
    ("sum", "a_k-2"), ("coulomb", "tilde"),
)


def constant_channels(kind: str) -> tuple[int, ...]:
    """Channels k whose A_k the constant kind returns, in order."""
    if kind == "a_plus":
        return (0,)
    if kind == "a_minus":
        return (-2,)
    if kind == "tilde":
        return (0, -2)
    return (int(kind[3:]),)


def compute_constant(kind: str, pair) -> tuple[float, ...]:
    if kind == "a_plus":
        return (potentials.a_plus(pair),)
    if kind == "a_minus":
        return (potentials.a_minus(pair),)
    if kind == "tilde":
        return tuple(potentials.tilde_constants(pair))
    return (potentials.a_k(pair, int(kind[3:])),)


def check_constant(values, exact, rtol: float, what: str) -> float:
    if len(values) != len(exact):
        raise WrongResult(f"{what}: {len(values)} values, expected {len(exact)}")
    return max(oracles.close(v, e, rtol, what) for v, e in zip(values, exact))


class Constants(Workload):
    """One op is one Hardy constant on one pair, with the constant cache cleared."""

    name = "constants"

    def prepare(self, rng) -> None:
        gallery = verify.standard_pair_gallery()
        self.twin_bases = {"mollified": gallery[3], "sum": gallery[4]}
        potentials.bump(0.0)  # the mollifier's normalization is computed once per process

    def make_round(self, index: int) -> list:
        rng = self.rng
        ops = []
        twins = {}
        for family, kind in CONSTANT_ROUND:
            if family == "coulomb":
                nu1, nu2 = (float(x) for x in rng.uniform(0.2, 2.0, size=2))
                pair = _coulomb_pair(nu1, nu2)
                exact = tuple(oracles.coulomb_constant(nu1 + nu2, k)
                              for k in constant_channels(kind))
                check = self._closed_form_check(exact, f"{kind} coulomb {nu1:.4f},{nu2:.4f}")
            elif family == "shell":
                a = float(rng.uniform(0.3, 2.0))
                R = _log_uniform(rng, 0.3, 3.0)
                nu = float(rng.uniform(0.2, 2.0))
                pair = _shell_pair(a, R, nu)
                exact = tuple(oracles.shell_coulomb_constant(a, nu, k)
                              for k in constant_channels(kind))
                check = self._closed_form_check(exact, f"{kind} shell {a:.4f}@{R:.4f} + {nu:.4f}/r")
            else:
                pair = potentials.scale_pair(self.twin_bases[family], _log_uniform(rng, 0.5, 2.0))
                if family in twins:
                    check = self._twin_check(twins.pop(family), f"{kind} {family} twin")
                else:
                    twins[family] = {}
                    check = self._first_twin_check(twins[family])
            ops.append((self._cold(kind, pair), check))
        return ops

    def _cold(self, kind: str, pair):
        def run():
            self.constant_cache.clear()
            return compute_constant(kind, pair)
        return run

    @staticmethod
    def _closed_form_check(exact, what: str):
        return lambda values: check_constant(values, exact, oracles.CONSTANT_RTOL, what)

    @staticmethod
    def _first_twin_check(slot: dict):
        def check(values):
            if not all(math.isfinite(v) and v > 0.0 for v in values):
                raise WrongResult(f"nonpositive or non-finite constant {values!r}")
            slot["values"] = values
            return None  # compared when its rescaled twin completes
        return check

    @staticmethod
    def _twin_check(slot: dict, what: str):
        def check(values):
            if "values" not in slot:
                raise WrongResult(f"{what}: the first twin produced no result")
            return check_constant(values, slot["values"], oracles.INVARIANCE_RTOL, what)
        return check


# ---------------------------------------------------------------------------
# inequality: verify_theorem / verify_corollary with warmed constants
# ---------------------------------------------------------------------------

class Inequality(Workload):
    """One op is one inequality check on a fresh field; constants are warm."""

    name = "inequality"
    FIELD_CHUNK = 64

    def prepare(self, rng) -> None:
        # The pairs are fixed, so that the cost of an op depends on the seed
        # only through the field: a seeded pair changes the quadrature cost of
        # every op of a run alike.
        gallery = verify.standard_pair_gallery()
        coulomb, shell = gallery[1], gallery[2]
        self.nu = (coulomb.v1_regular.nu, coulomb.v2.nu)
        (ring,) = shell.v1_shells
        self.pairs = (coulomb, shell)
        self.worst = (oracles.coulomb_constant(sum(self.nu), 0),
                      oracles.shell_coulomb_constant(ring.a, shell.v2.nu, 0))
        for pair in self.pairs:
            potentials.a_plus(pair)
            potentials.a_minus(pair)
            for k in CHANNEL_KS:
                potentials.a_k(pair, k)

    def start_pass(self) -> None:
        super().start_pass()
        self.lhs_cache.clear()
        self.fields = []
        self.chunks = 0

    def _field(self, index: int):
        # Only two-channel fields are kept: a mix of one- and two-channel
        # fields makes op costs bimodal, and the seed would then move the
        # median op by where the split between the modes falls.
        while index >= len(self.fields):
            gallery = verify.random_field_gallery(
                self.FIELD_CHUNK, seed=self.seed * 1_000_003 + self.chunks, k_choices=CHANNEL_KS)
            self.fields.extend(f for f in gallery if len(f.terms) == 2)
            self.chunks += 1
        return self.fields[index]

    def make_round(self, index: int) -> list:
        field = self._field(index)
        ops = []
        for pair in self.pairs:
            for gamma in GAMMAS:
                closed_form = pair is self.pairs[0] and gamma == 0.0
                ops.append((lambda p=pair, g=gamma: verify.verify_theorem(p, field, g),
                            self._theorem_check(field, closed_form)))
        which = index % 2
        # admissible couplings: c1 c2 max(A+, A-)^2 in [0.3, 0.9]
        coupled = _coupled(self.pairs[which], self.rng, self.worst[which], 0.3, 0.9)
        ops.append((lambda: verify.verify_corollary(coupled, field, m=1.0), _corollary_check))
        return ops

    def _theorem_check(self, field, closed_form: bool):
        def check(report):
            _check_satisfied(report)
            return self._coulomb_sides(report, field) if closed_form else None
        return check

    def _coulomb_sides(self, report, field) -> float:
        """Both sides at gamma = 0 against their Gamma-function closed forms."""
        nu1, nu2 = self.nu
        errs = []
        lhs_total = grad_total = 0.0
        for ch, prof in field.terms:
            (term,) = prof.terms
            lhs_k = oracles.coulomb_lhs_term(nu1, term.coef, term.p, term.a)
            grad_k = oracles.coulomb_grad_term(nu2, ch.k, term.coef, term.p, term.a)
            a_k = oracles.coulomb_constant(nu1 + nu2, ch.k)
            got = report.per_channel[ch.k]
            errs.append(oracles.close(got.lhs, lhs_k, oracles.INEQUALITY_RTOL, f"lhs k={ch.k}"))
            errs.append(oracles.close(got.rhs, a_k ** 2 * grad_k, oracles.INEQUALITY_RTOL,
                                      f"rhs k={ch.k}"))
            lhs_total += lhs_k
            grad_total += grad_k
        maxsq = oracles.coulomb_constant(nu1 + nu2, 0) ** 2
        errs.append(oracles.close(report.lhs, lhs_total, oracles.INEQUALITY_RTOL, "lhs"))
        errs.append(oracles.close(report.rhs, maxsq * grad_total, oracles.INEQUALITY_RTOL, "rhs"))
        return max(errs)


def _check_satisfied(report) -> None:
    """The inequality and each per-channel sharpening hold, and are not vacuous."""
    if report.vacuous or not math.isfinite(report.rhs):
        raise WrongResult("vacuous report although the right-hand side is finite")
    ratios = [report.ratio] + [c.ratio for c in report.per_channel.values()]
    if not report.satisfied or max(ratios) > 1.0 + oracles.RATIO_TOL:
        raise WrongResult(f"inequality violated: ratios {ratios}")


def _corollary_check(report):
    _check_satisfied(report)
    eq = report.norm_equivalence
    if eq is not None and not eq.satisfied:
        raise WrongResult(f"norm equivalence violated: {eq!r}")
    return None


# ---------------------------------------------------------------------------
# spectrum: Dirac-Coulomb gap eigenvalues
# ---------------------------------------------------------------------------

class Spectrum(Workload):
    """One op is spectrum_in_gap(problem, 2) for a seeded Dirac-Coulomb channel."""

    name = "spectrum"
    NODES = 200
    LEVELS = 2
    CHANNELS = (0, 1, -2)

    def make_round(self, index: int) -> list:
        nu = float(self.rng.uniform(0.3, 0.8))
        k = self.CHANNELS[index % len(self.CHANNELS)]
        pair = potentials.PotentialPair(v1_regular=potentials.CoulombPotential(1.0),
                                        v2=potentials.CoulombPotential(1.0), c1=nu, c2=nu)
        # orbitals grow like 1/nu, so the outer radius follows them
        grid = numerics.RadialGrid.log_uniform(self.NODES, 1e-6, 40.0 / nu)
        problem = extension.DiracChannelProblem(pair=pair, channel=channels.Channel(k),
                                                m=1.0, lam=0.0, grid=grid)

        def check(levels):
            if len(levels) != self.LEVELS:
                raise WrongResult(f"nu={nu} k={k}: {len(levels)} levels, expected {self.LEVELS}")
            return max(oracles.close(ev.value, oracles.dirac_coulomb_level(i, nu, k),
                                     oracles.LEVEL_RTOL, f"level {i} nu={nu:.4f} k={k}")
                       for i, ev in enumerate(levels))

        return [(lambda: extension.spectrum_in_gap(problem, self.LEVELS), check)]


# ---------------------------------------------------------------------------
# solve: weak solves followed by the pairing symmetry defect
# ---------------------------------------------------------------------------

class Solve(Workload):
    """One op is weak_solve plus pairing_defect against the previous solution."""

    name = "solve"
    NODES = 2000
    ROUND = ("zero", "zero", "coulomb", "coulomb", "shell", "shell")

    def prepare(self, rng) -> None:
        grid = numerics.RadialGrid.log_uniform(self.NODES, 1e-7, 50.0)
        a = float(rng.uniform(0.5, 1.5))
        R = _log_uniform(rng, 0.5, 2.5)
        # admissible regime: c1 c2 max(A+, A-)^2 <= 0.8, with A = 1 and a + 1/2
        coulomb = _coupled(_coulomb_pair(1.0, 1.0), rng, 1.0, 0.3, 0.8)
        shell = _coupled(_shell_pair(a, R, 1.0), rng, a + 0.5, 0.3, 0.8)
        k_coulomb, k_shell = (int(k) for k in rng.choice((0, 1, -2), size=2))
        zero = potentials.PotentialPair(c1=0.0, c2=0.0)
        problem = extension.DiracChannelProblem
        self.problems = {
            "zero": problem(pair=zero, channel=channels.Channel(0), m=1.0,
                            lam=float(rng.uniform(-0.5, 0.5)), grid=grid),
            "coulomb": problem(pair=coulomb, channel=channels.Channel(k_coulomb), m=1.0, grid=grid),
            "shell": problem(pair=shell, channel=channels.Channel(k_shell), m=1.0, grid=grid),
        }
        # every timed op then has a previous solution on its problem to pair with
        data = channels.exp_profile(0, 1.0, coef=0.5)
        self.first = {key: extension.weak_solve(p, data, None) for key, p in self.problems.items()}

    def start_pass(self) -> None:
        super().start_pass()
        self.last = dict(self.first)

    def make_round(self, index: int) -> list:
        rng = self.rng
        ops = []
        for slot, key in enumerate(self.ROUND):
            problem = self.problems[key]
            if key == "zero":
                # manufactured solution phi = c exp(-a r^2) with chi = 0
                exact = channels.gauss_profile(0, float(rng.uniform(0.5, 2.0)),
                                               coef=float(rng.uniform(0.5, 2.0)))
                F1 = exact.scaled(problem.m + problem.lam)
                F2 = exact.reduced(0).scaled(-1.0)
            else:
                exact = None
                F1 = channels.exp_profile(int(rng.integers(0, 2)), float(rng.uniform(0.4, 2.5)),
                                          coef=float(rng.uniform(0.3, 1.5)))
                F2 = (channels.gauss_profile(int(rng.integers(1, 3)), float(rng.uniform(0.5, 1.5)),
                                             coef=float(rng.uniform(-1.0, 1.0)))
                      if slot % 2 else None)
            ops.append((self._op(key, F1, F2), _solve_check(exact)))
        return ops

    def _op(self, key: str, F1, F2):
        problem = self.problems[key]

        def run():
            sol = extension.weak_solve(problem, F1, F2)
            prev = self.last[key]
            defect = extension.pairing_defect(problem, sol, prev)
            self.last[key] = sol
            return sol, prev, defect
        return run


def _solve_check(exact):
    def check(result):
        sol, prev, defect = result
        err = oracles.small(defect / (sol.h_norm_phi * prev.h_norm_phi),
                            oracles.DEFECT_RTOL, "pairing symmetry defect")
        if exact is not None:
            r = sol.phi.grid.nodes
            want = np.real(exact(r))
            w = r ** 3
            recovery = math.sqrt(float(np.sum((sol.phi.values - want) ** 2 * w))
                                 / float(np.sum(want ** 2 * w)))
            err = max(err, oracles.small(recovery, oracles.RECOVERY_RTOL,
                                         "manufactured solution recovery"))
        return err
    return check


WORKLOADS = {cls.name: cls for cls in (Constants, Inequality, Spectrum, Solve)}
