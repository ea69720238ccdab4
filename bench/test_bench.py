"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

They run the benchmark itself (about two minutes on two cores) and are not
part of the library's test suite.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hardydirac import channels, numerics, potentials  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def test_metric_tables_match_benchmark_json():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}
        assert declared == table


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_quick_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name


def test_missing_sources_exit_without_result(monkeypatch):
    monkeypatch.setattr(run, "SRC_DIR", os.path.join(BENCH_DIR, "no-such-src"))
    with pytest.raises(SystemExit) as exc:
        run.import_library()
    assert exc.value.code not in (0, None)


# -- oracles flag perturbed results ---------------------------------------------

def _first_round(cls, seed=5):
    w = cls(seed)
    w.start_pass()
    return w, w.next_round()


def test_constant_oracles_flag_perturbation():
    _, ops = _first_round(workloads.Constants)
    by_slot = dict(enumerate(ops))
    for slot in (0, 1):  # closed-form Coulomb, closed-form shell
        run_op, check = by_slot[slot]
        values = run_op()
        assert check(values) <= oracles.CONSTANT_RTOL
        with pytest.raises(oracles.WrongResult):
            check(tuple(v * (1.0 + 1e-6) for v in values))
    first_run, first_check = by_slot[2]
    twin_run, twin_check = by_slot[6]
    assert first_check(first_run()) is None
    values = twin_run()
    assert twin_check(values) <= oracles.INVARIANCE_RTOL
    with pytest.raises(oracles.WrongResult):
        twin_check(tuple(v * (1.0 + 1e-6) for v in values))


def test_inequality_oracles_flag_perturbation():
    _, ops = _first_round(workloads.Inequality)
    run_op, check = ops[0]  # Coulomb pair at gamma = 0: closed-form sides
    report = run_op()
    assert check(report) <= oracles.INEQUALITY_RTOL
    for change in ({"lhs": report.lhs * (1.0 + 1e-6)}, {"rhs": report.rhs * (1.0 - 1e-6)},
                   {"ratio": 1.5, "satisfied": False}):
        with pytest.raises(oracles.WrongResult):
            check(dataclasses.replace(report, **change))
    run_op, check = ops[-1]  # corollary: pass/fail only
    report = run_op()
    assert check(report) is None
    with pytest.raises(oracles.WrongResult):
        check(dataclasses.replace(report, ratio=1.5, satisfied=False))


def test_spectrum_oracle_flags_perturbation():
    _, ops = _first_round(workloads.Spectrum)
    (run_op, check), = ops
    levels = run_op()
    assert check(levels) <= oracles.LEVEL_RTOL
    shifted = [dataclasses.replace(ev, value=ev.value * (1.0 + 1e-4)) for ev in levels]
    with pytest.raises(oracles.WrongResult):
        check(shifted)
    with pytest.raises(oracles.WrongResult):
        check(levels[:1])


def test_solve_oracles_flag_perturbation():
    _, ops = _first_round(workloads.Solve)
    run_op, check = ops[0]  # zero pair: manufactured solution
    sol, prev, defect = run_op()
    assert check((sol, prev, defect)) <= oracles.RECOVERY_RTOL
    bent = dataclasses.replace(sol, phi=channels.GridProfile(sol.phi.grid, sol.phi.values * 1.001))
    with pytest.raises(oracles.WrongResult):
        check((bent, prev, defect))
    with pytest.raises(oracles.WrongResult):
        check((sol, prev, defect + 1e-6 * sol.h_norm_phi * prev.h_norm_phi))


# -- tracer ----------------------------------------------------------------------

def _bindings():
    """Every (holder, attribute) the tracer may patch, with its current object."""
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "hardydirac"]
    out = {}
    for _, owner, attr, _ in tracer.TARGETS:
        for holder in mods + [owner]:
            if hasattr(holder, attr):
                out[(id(holder), attr)] = getattr(holder, attr)
    return out


def test_tracer_restores_every_patched_attribute():
    before = _bindings()
    pair = potentials.PotentialPair(v1_regular=potentials.ZeroPotential(),
                                    v1_shells=(potentials.ShellMeasure(R=1.0, a=1.0),),
                                    v2=potentials.CoulombPotential(1.0))
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as t:
            assert t.patched
            assert all(getattr(h, a) is not o for h, a, o in t.patched)
            workloads.CacheStats(potentials).clear()
            assert potentials.a_plus(pair) == pytest.approx(1.5, rel=1e-9)
            numerics.integrate_radial(lambda r: math.exp(-r))
            raise RuntimeError("restore on the way out of an error too")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not t.patched
    assert t.calls["numerics.sup_over_r"] == 1
    assert t.counts["numerics.sup_over_r.g_evals"] > 0
    assert t.counts["numerics.integrate_radial.integrand_evals"] > 0
    assert all(span is not None for span in t.spans)
