"""Command-line front end.

Subcommands: constants, channel-constants, verify, extremize, solve,
spectrum, experiment.  Reports are JSON by default (CSV for the tabular
commands), echo the fully resolved configuration for reproducibility, and
are written atomically when --out is given.

Exit codes: 0 success, 2 hypothesis violation or invalid input (including
coupling products above threshold, weights outside the admissible class
and files that cannot be read or written), 1 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

from . import __version__
from .channels import Channel, build_field, parse_profile
from .extension import DiracChannelProblem, spectrum_in_gap, weak_solve
from .numerics import QuadratureError, RadialGrid
from .potentials import a_k, a_minus, a_plus, parse_pair, tilde_constants
from .verify import extremize_ratio, mollified_delta_experiment, verify_corollary, verify_theorem

_TOOL = "hardy-dirac"


def _add_pair_flags(p: argparse.ArgumentParser):
    p.add_argument("--v1", default="zero", help="first weight slot (components + shells)")
    p.add_argument("--v2", default="zero", help="second weight slot (components only)")
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0)


def _add_gap_flags(p: argparse.ArgumentParser):
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=None)


def _add_grid_flags(p: argparse.ArgumentParser):
    p.add_argument("--grid-n", type=int, default=1500)
    p.add_argument("--rmin", type=float, default=1e-7)
    p.add_argument("--rmax", type=float, default=50.0)


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=_TOOL, description=__doc__)
    parser.add_argument("--version", action="version", version=f"{_TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="Hardy constants of a pair")
    _add_pair_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("channel-constants", help="per-channel constants A_k")
    _add_pair_flags(p)
    _add_output_flags(p)
    p.add_argument("--kmin", type=int, default=-4)
    p.add_argument("--kmax", type=int, default=3)

    p = sub.add_parser("verify", help="check the inequalities on given fields")
    _add_pair_flags(p)
    _add_gap_flags(p)
    _add_output_flags(p)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--field", action="append", default=None,
                   help="channel term k=<int>:<profile>, repeatable")

    p = sub.add_parser("extremize", help="maximize lhs/rhs over a profile family")
    _add_pair_flags(p)
    _add_output_flags(p)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--kset", default="0,-2", help="comma-separated channel list")

    p = sub.add_parser("solve", help="weak solve of (H_V + lambda) pair = (F1, F2)")
    _add_pair_flags(p)
    _add_gap_flags(p)
    _add_grid_flags(p)
    _add_output_flags(p)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--f1", default="exp:0,1", help="upper datum profile")
    p.add_argument("--f2", default=None, help="lower datum profile (default zero)")

    p = sub.add_parser("spectrum", help="gap eigenvalues per channel")
    _add_pair_flags(p)
    _add_gap_flags(p)
    _add_grid_flags(p)
    _add_output_flags(p)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--count", type=int, default=2)

    p = sub.add_parser("experiment", help="mollified-delta degeneration table")
    _add_gap_flags(p)
    _add_output_flags(p)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=0.25)
    p.add_argument("--R", type=float, default=2.0)
    p.add_argument("--eps", type=float, action="append", default=None)
    p.add_argument("--field", action="append", default=None)
    return parser


def _config_echo(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("out",)}
    return cfg


def _grid(args) -> RadialGrid:
    return RadialGrid.log_uniform(args.grid_n, args.rmin, args.rmax)


def _fields(args, default=("k=0:exp:0,1",)):
    texts = args.field if args.field else list(default)
    return build_field(texts), texts


def run_constants(args):
    pair = parse_pair(args.v1, args.v2, args.c1, args.c2)
    tp, tm = tilde_constants(pair)
    return {
        "a_plus": a_plus(pair),
        "a_minus": a_minus(pair),
        "a_tilde_plus": tp,
        "a_tilde_minus": tm,
    }, None


def run_channel_constants(args):
    pair = parse_pair(args.v1, args.v2, args.c1, args.c2)
    ks = [k for k in range(args.kmin, args.kmax + 1) if k != -1]
    if not ks:
        raise ValueError(f"no channel k != -1 in kmin={args.kmin} .. kmax={args.kmax}")
    table = {str(k): a_k(pair, k) for k in ks}
    rows = [{"k": k, "A_k": table[str(k)]} for k in ks]
    return {"per_channel": table}, ("k,A_k", rows)


def run_verify(args):
    pair = parse_pair(args.v1, args.v2, args.c1, args.c2)
    field, texts = _fields(args)
    result = {"fields": texts,
              "theorem": verify_theorem(pair, field, args.gamma).to_dict()}
    if args.c1 > 0 and args.c2 > 0:
        result["corollary"] = verify_corollary(pair, field, args.m,
                                               lam=args.lam).to_dict()
    return result, None


def run_extremize(args):
    pair = parse_pair(args.v1, args.v2, args.c1, args.c2)
    k_set = tuple(int(tok) for tok in args.kset.split(",") if tok.strip())
    return extremize_ratio(pair, args.gamma, k_set=k_set).to_dict(), None


def run_solve(args):
    pair = parse_pair(args.v1, args.v2, args.c1, args.c2)
    problem = DiracChannelProblem(pair=pair, channel=Channel(args.k), m=args.m,
                                  lam=args.lam, grid=_grid(args))
    F1 = parse_profile(args.f1) if args.f1 else None
    F2 = parse_profile(args.f2) if args.f2 else None
    sol = weak_solve(problem, F1, F2)
    result = sol.to_dict()
    result["lambda"] = problem.lam
    result["regime"] = problem.regime
    rows = [{"r": float(r), "phi": float(sol.phi.values[i].real),
             "chi": float(sol.chi.values[i].real)}
            for i, r in enumerate(problem.grid.nodes)]
    return result, ("r,phi,chi", rows)


def run_spectrum(args):
    pair = parse_pair(args.v1, args.v2, args.c1, args.c2)
    problem = DiracChannelProblem(pair=pair, channel=Channel(args.k), m=args.m,
                                  lam=args.lam, grid=_grid(args))
    evs = spectrum_in_gap(problem, args.count)
    # a level only the doubled grid finds has an infinite estimate; strict JSON has no inf
    rows = [{"k": args.k, "index": ev.index, "E": ev.value,
             "error_estimate": ev.error_estimate if math.isfinite(ev.error_estimate) else "inf"}
            for ev in evs]
    return {"eigenvalues": rows, "lambda": problem.lam}, ("k,index,E,error_estimate", rows)


def run_experiment(args):
    field, texts = _fields(args)
    eps_list = args.eps if args.eps else [0.8, 0.4, 0.2]
    rows = [row.to_dict() for row in
            mollified_delta_experiment(args.c1, args.c2, args.R, eps_list,
                                       field, m=args.m, lam=args.lam)]
    header = "eps,lhs,bulk_term,annulus_term,mass_term,rhs,ratio"
    return {"fields": texts, "rows": rows}, (header, rows)


_RUNNERS = {
    "constants": run_constants,
    "channel-constants": run_channel_constants,
    "verify": run_verify,
    "extremize": run_extremize,
    "solve": run_solve,
    "spectrum": run_spectrum,
    "experiment": run_experiment,
}


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hardydirac-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def _render(args, result: dict, table) -> str:
    fmt = args.format
    if fmt is None:
        fmt = "json"
    if fmt == "csv":
        if table is None:
            raise ValueError(f"command {args.command!r} has no CSV form")
        header, rows = table
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        cols = header.split(",")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([row[c] for c in cols])
        return buf.getvalue()
    report = {
        "tool": _TOOL,
        "version": __version__,
        "command": args.command,
        "config": _config_echo(args),
        "result": result,
    }
    return json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, table = _RUNNERS[args.command](args)
        _emit(_render(args, result, table), args.out)
    except QuadratureError as exc:
        _emit_error(args, exc, 1)
        return 1
    except (ValueError, OSError) as exc:    # invalid input, violated hypotheses, file errors
        _emit_error(args, exc, 2)
        return 2
    return 0


def _emit_error(args, exc: Exception, code: int):
    err = {
        "tool": _TOOL,
        "version": __version__,
        "command": getattr(args, "command", None),
        "error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code},
    }
    sys.stderr.write(f"{_TOOL}: error: {exc}\n")
    sys.stdout.write(json.dumps(err, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
