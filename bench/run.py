"""hardydirac benchmark: one seeded workload, timed and checked against oracles.

    python3 bench/run.py --workload {constants,inequality,spectrum,solve} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The library is imported from ``src/`` of
the same checkout.  A closed loop with one client issues ops one after
another for ``--seconds`` (ending on a round boundary) and checks every
result.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
End-to-end op times are in units of a reference task timed during the same
pass (see ``reference.py``); the raw figures in seconds are printed above
the result.  A traced run spends half of its time on an untraced pass and
then replays the same ops under the tracer, and writes its spans to
``bench/out/``.  See ``bench/README.md``.
"""

import os

# BLAS/OpenMP pools are pinned before numpy is imported: the banded LAPACK
# calls are small, and the benchmark is one single-threaded client.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

from oracles import correct_digits
from reference import ReferenceClock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 3
IMPORT_CODE = f"import sys; sys.path.insert(0, {SRC_DIR!r}); import hardydirac.cli"

# name -> (unit, better); every one is printed on every run of its mode
END_TO_END = {
    "throughput_ops_per_ref": ("1/ref", "higher"),
    "latency_p50_ref": ("ref", "lower"),
    "min_correct_digits": ("digits", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "numerics.integrate_radial.calls": ("count/op", "lower"),
    "numerics.integrate_radial.integrand_evals": ("count/op", "lower"),
    "numerics.integrate_radial.self_s": ("s/op", "lower"),
    "numerics.sup_over_r.calls": ("count/op", "lower"),
    "numerics.sup_over_r.g_evals": ("count/op", "lower"),
    "numerics.sup_over_r.self_s": ("s/op", "lower"),
    "numerics.ldl_inertia.calls": ("count/op", "lower"),
    "numerics.ldl_inertia.dofs": ("count/op", "lower"),
    "numerics.ldl_inertia.self_s": ("s/op", "lower"),
    "numerics.scaled_copy.self_s": ("s/op", "lower"),
    "potentials.constants.calls": ("count/op", "lower"),
    "potentials.constants.self_s": ("s/op", "lower"),
    "potentials.constants.cache_hit_ratio": ("ratio", "higher"),
    "channels.weighted_norms.calls": ("count/op", "lower"),
    "channels.weighted_norms.self_s": ("s/op", "lower"),
    "verify.checks.calls": ("count/op", "lower"),
    "verify.checks.self_s": ("s/op", "lower"),
    "verify.lhs_cache_hit_ratio": ("ratio", "higher"),
    "extension.band.calls": ("count/op", "lower"),
    "extension.band.self_s": ("s/op", "lower"),
    "extension.solveh_banded.self_s": ("s/op", "lower"),
    "extension.weak_solve.self_s": ("s/op", "lower"),
    "extension.pairing_defect.self_s": ("s/op", "lower"),
    "extension.spectrum_in_gap.self_s": ("s/op", "lower"),
    "extension.inertia_counts_per_eigenvalue": ("count", "lower"),
    "bench.op.self_s": ("s/op", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
}


def import_library():
    """Import hardydirac from this checkout's src/, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC_DIR, "hardydirac")):
        sys.exit(f"bench: no library sources at {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    import hardydirac
    if os.path.dirname(os.path.dirname(os.path.abspath(hardydirac.__file__))) != SRC_DIR:
        sys.exit(f"bench: imported hardydirac from {hardydirac.__file__}, not {SRC_DIR}")


class Pass:
    """Outcome of one pass over the op stream."""

    def __init__(self):
        self.reference = ReferenceClock()
        self.latencies = []
        self.errors = []          # relative errors of ops with an exact oracle
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.wall_s = 0.0


def run_pass(workload, seconds=None, rounds=None, tracer=None) -> Pass:
    """Closed loop: each op starts when the previous one has returned."""
    out = Pass()
    workload.start_pass()
    start = time.perf_counter()

    def more() -> bool:
        if rounds is not None:
            return out.rounds < rounds
        return time.perf_counter() - start < seconds

    while more():
        for run, check in workload.next_round():
            out.reference.sample_if_due()
            out.attempted += 1
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.begin_op()
            try:
                result = run()
            except Exception as exc:  # a raising op is a failed op; keep measuring
                out.latencies.append(time.perf_counter() - t0)
                out.failed += 1
                print(f"bench: op {out.attempted} raised {exc!r}", file=sys.stderr)
                continue
            finally:
                if tracer is not None:
                    tracer.end()
            out.latencies.append(time.perf_counter() - t0)
            try:
                err = check(result)
            except Exception as exc:  # WrongResult, or a result of unexpected shape
                out.failed += 1
                print(f"bench: op {out.attempted} wrong: {exc!r}", file=sys.stderr)
                continue
            if err is not None:
                out.errors.append(err)
        out.rounds += 1
    out.reference.sample_if_due()
    out.wall_s = time.perf_counter() - start
    return out


def measure_setup(workload_cls, seed: int):
    """Median set-up time over several set-ups, and the last workload built.

    One set-up is a fresh interpreter importing the library (and its CLI
    front end) plus this process generating the inputs and warming up.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CODE], check=True, timeout=120)
        import_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        workload = workload_cls(seed)
        times.append(import_s + time.perf_counter() - t0)
    return statistics.median(times), workload


def throughput_ops_s(p: Pass) -> float:
    return (p.attempted - p.failed) / p.wall_s


def end_to_end_metrics(p: Pass, setup_s: float) -> dict:
    """Op times are in units of the reference task's median time (``ref``)."""
    ref_s = p.reference.seconds()
    return {
        "throughput_ops_per_ref": throughput_ops_s(p) * ref_s,
        "latency_p50_ref": statistics.median(p.latencies) / ref_s,
        "min_correct_digits": min((correct_digits(e) for e in p.errors), default=0.0),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, p: Pass, untraced: Pass, cache_deltas) -> dict:
    ops = p.attempted
    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = tracer.calls[span] / ops
        elif field == "self_s":
            out[name] = tracer.self_s[span] / ops
        else:
            out[name] = tracer.counts[name] / ops
    (c_hits, c_misses), (l_hits, l_misses) = cache_deltas
    out["potentials.constants.cache_hit_ratio"] = _ratio(c_hits, c_hits + c_misses)
    out["verify.lhs_cache_hit_ratio"] = _ratio(l_hits, l_hits + l_misses)
    out["extension.inertia_counts_per_eigenvalue"] = _ratio(
        tracer.calls["numerics.ldl_inertia"],
        tracer.counts["extension.spectrum_in_gap.eigenvalues"])
    out["trace_overhead_frac"] = p.wall_s / untraced.wall_s - 1.0
    return out


def provenance(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report varies by version
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "client": "closed loop, 1 client, single process",
    }


def describe(p: Pass) -> list:
    """Human-readable percentile lines, each with its sample count."""
    lines = [f"ops attempted {p.attempted}, failed {p.failed} "
             f"(failed_frac {p.failed / p.attempted:.3g}), rounds {p.rounds}, "
             f"wall {p.wall_s:.3f} s"]
    n = len(p.latencies)
    lines.append(f"reference task {p.reference.seconds():.6g} s "
                 f"(median of {len(p.reference.samples)})")
    lines.append(f"throughput_ops_s {throughput_ops_s(p):.6g}")
    lines.append(f"latency_p50_s {statistics.median(p.latencies):.6g} (n={n})")
    if n >= 2:
        p90 = statistics.quantiles(p.latencies, n=10)[-1]
        beyond = sum(x > p90 for x in p.latencies)
        if beyond >= 10:
            lines.append(f"latency_p90_s {p90:.6g} (n={n}, {beyond} beyond)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("constants", "inequality", "spectrum", "solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import_library()
    from tracer import Tracer
    from workloads import WORKLOADS

    setup_s, workload = measure_setup(WORKLOADS[args.workload], args.seed)
    info = provenance(args)
    if args.trace:
        untraced = run_pass(workload, seconds=args.seconds / 2.0)
        before = (workload.constant_cache.totals(), workload.lhs_cache.totals())
        with Tracer() as tracer:
            traced = run_pass(workload, rounds=untraced.rounds, tracer=tracer)
        after = (workload.constant_cache.totals(), workload.lhs_cache.totals())
        deltas = [tuple(a - b for a, b in zip(x, y)) for x, y in zip(after, before)]
        values = per_layer_metrics(tracer, traced, untraced, deltas)
        units = PER_LAYER
        passes = (untraced, traced)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"provenance": info, "metrics": values,
                       "span_fields": ["name", "start_s", "duration_s", "parent", "op"],
                       "spans": tracer.spans}, fh)
        print(f"spans written to {os.path.relpath(path)}")
    else:
        measured = run_pass(workload, seconds=args.seconds)
        values = end_to_end_metrics(measured, setup_s)
        units = END_TO_END
        passes = (measured,)
    for p in passes:
        print("\n".join(describe(p)))
    print("provenance " + json.dumps(info))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name][0]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
