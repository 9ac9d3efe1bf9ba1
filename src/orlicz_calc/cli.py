"""Command-line frontend.

Subcommands: target, domain, bounded, boyd, conjugate, probe.  Space
descriptions use the small DSL from ``specdsl``.  Reports are deterministic
JSON (fixed field order, floats at 12 significant digits) or CSV grid dumps.
Exit codes: 0 decision reached (negative verdicts included), 1 output pipe
closed by the reader, 2 parse or argument error, 3 numeric indeterminacy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import oracle, optimality, reduction
from . import boyd as boydmod
from . import young as youngmod
from .grid import GridSpec
from .specdsl import SpecParseError, parse_spec, render
from .transforms import DoubleRangeError
from .young import GammaContext

SCHEMA = "orlicz-calc/1"


def _fmt(value):
    """Render floats at 12 significant digits; recurse into containers."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _emit_json(payload: dict) -> None:
    body = {"schema": SCHEMA}
    body.update(payload)
    json.dump(_fmt(body), sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_grid_csv(fn: youngmod.YoungFn) -> None:
    tab = fn.table
    sys.stdout.write("t,value\n")
    for t, y in zip(tab.t, tab.y):
        sys.stdout.write(f"{t:.12g},{y:.12g}\n")


def young_record(fn: youngmod.YoungFn) -> dict:
    """JSON record {family, params, grid} for a Young function.

    The grid section is decimated to one sample per decade; the full table
    is available through the CSV output format.
    """
    closed = fn.closed_form
    tab = fn.table
    idx = np.arange(0, len(tab.t), max(1, fn.grid.points_per_decade))
    return {
        "family": closed.render() if closed is not None else "tabulated",
        "params": {
            "zero_plateau_end": fn.zero_plateau_end,
            "finite_sup": fn.finite_sup,
        },
        "grid": {
            "t": [float(x) for x in tab.t[idx]],
            "value": [float(x) for x in tab.y[idx]],
        },
    }


def _load(text: str, grid: GridSpec) -> tuple[str, youngmod.YoungFn]:
    """The canonical rendering of a description and its Young function."""
    spec = parse_spec(text)
    return render(spec), spec.to_young(grid=grid)


def _boyd_payload(est) -> dict:
    return {
        "i_lower": est.i_lower,
        "I_upper": est.I_upper,
        "ci_halfwidth": est.ci_halfwidth,
        "method": est.method,
        "flags": list(est.flags),
    }


def cmd_target(args, grid: GridSpec, ctx: GammaContext) -> int:
    name, A = _load(args.spec, grid)
    result = optimality.optimal_target(A, ctx)
    payload = {
        "command": "target",
        "input": name,
        "n": args.n,
        "gamma": args.gamma,
        "kind": result.kind,
        "i_Agamma": result.index_value,
        "gate": result.gate,
        "flags": list(result.flags),
    }
    if result.target is not None:
        payload["target"] = result.target.describe()
        payload["target_record"] = young_record(result.target)
    if args.format == "csv" and result.target is not None:
        _emit_grid_csv(result.target)
    else:
        _emit_json(payload)
    return 0


def cmd_domain(args, grid: GridSpec, ctx: GammaContext) -> int:
    name, B = _load(args.spec, grid)
    result = optimality.optimal_domain(B, ctx)
    payload = {
        "command": "domain",
        "input": name,
        "n": args.n,
        "gamma": args.gamma,
        "kind": result.kind,
        "simplified": result.simplified,
        "flags": list(result.flags),
    }
    if result.domain is not None:
        payload["domain"] = result.domain.describe()
        payload["domain_record"] = young_record(result.domain)
    if args.format == "csv" and result.domain is not None:
        _emit_grid_csv(result.domain)
    else:
        _emit_json(payload)
    return 0


def _cap_rejected(cap: float) -> bool:
    """Report a --constant-cap that no constant ladder accepts (below 1 or
    infinite) on one line."""
    try:
        youngmod.constant_ladder(cap)
    except ValueError as exc:
        print(f"orlicz-calc: error: {exc}", file=sys.stderr)
        return True
    return False


def cmd_bounded(args, grid: GridSpec, ctx: GammaContext) -> int:
    if _cap_rejected(args.constant_cap):
        return 2
    name_a, A = _load(args.spec_a, grid)
    name_b, B = _load(args.spec_b, grid)
    verdict = reduction.bounded(A, B, ctx, constant_cap=args.constant_cap)
    _emit_json({
        "command": "bounded",
        "domain": name_a,
        "target": name_b,
        "n": args.n,
        "gamma": args.gamma,
        "holds": verdict.holds,
        "constant": verdict.constant,
        "criterion": verdict.criterion_used,
        "worst_t": verdict.worst_t,
        "flags": list(verdict.flags),
    })
    return 0


def cmd_boyd(args, grid: GridSpec, ctx: GammaContext) -> int:
    name, A = _load(args.spec, grid)
    est = boydmod.boyd_indices(A)
    payload = {"command": "boyd", "input": name}
    payload.update(_boyd_payload(est))
    _emit_json(payload)
    return 3 if "indeterminate" in est.flags else 0


def cmd_conjugate(args, grid: GridSpec, ctx: GammaContext) -> int:
    name, A = _load(args.spec, grid)
    conj = youngmod.conjugate(A)
    if args.format == "csv":
        _emit_grid_csv(conj)
    else:
        _emit_json({
            "command": "conjugate",
            "input": name,
            "conjugate": conj.describe(),
            "zero_plateau_end": conj.zero_plateau_end,
            "finite_sup": conj.finite_sup,
            "record": young_record(conj),
        })
    return 0


def cmd_probe(args, grid: GridSpec, ctx: GammaContext) -> int:
    if args.spec_a and not args.spec_b:
        print("probe needs two spec arguments", file=sys.stderr)
        return 2
    pairs = [(args.spec_a, args.spec_b)] if args.spec_a else []
    if args.fixtures:
        try:
            with open(args.fixtures) as fh:
                pairs.extend((e["A"], e["B"]) for e in json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"cannot read fixtures {args.fixtures}: {exc}", file=sys.stderr)
            return 2
    if not pairs:
        print("probe needs spec arguments or --fixtures", file=sys.stderr)
        return 2
    if _cap_rejected(args.constant_cap):
        return 2
    reports = []
    for text_a, text_b in pairs:
        name_a, A = _load(text_a, grid)
        name_b, B = _load(text_b, grid)
        rep = oracle.norm_probe(A, B, ctx)
        verdict = reduction.bounded(A, B, ctx, constant_cap=args.constant_cap)
        reports.append({
            "domain": name_a,
            "target": name_b,
            "trend": rep.trend,
            "max_ratio": rep.max_ratio,
            "bounded_verdict": verdict.holds,
            "consistent": (rep.trend == "bounded") == verdict.holds
                          or rep.trend == "inconclusive",
            "ratios": [{"fn": i, "scale": s, "ratio": r}
                       for i, s, r in rep.ratios],
            "flags": list(rep.flags),
        })
    _emit_json({"command": "probe", "n": args.n, "gamma": args.gamma,
                "reports": reports})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz-calc",
        description="Young-function transforms and boundedness decisions for "
                    "the fractional maximal operator between Orlicz spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, csv: bool = False):
        """The flags every subcommand takes; --format where a CSV dump exists."""
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--gamma", type=float, default=1.0)
        p.add_argument("--grid-points-per-decade", type=int, default=24)
        p.add_argument("--tmin", type=float, default=1e-12)
        p.add_argument("--tmax", type=float, default=1e12)
        if csv:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    one = (("spec", dict(help="space description, e.g. 'Zygmund(2,1,2,1)'")),)
    pair = (("spec_a", dict(help="domain space description")),
            ("spec_b", dict(help="target space description")))
    optional_pair = (("spec_a", dict(nargs="?", default=None)),
                     ("spec_b", dict(nargs="?", default=None)))
    for name, func, text, positionals, csv in (
            ("target", cmd_target, "optimal Orlicz target space", one, True),
            ("domain", cmd_domain, "optimal Orlicz domain space", one, True),
            ("bounded", cmd_bounded, "decide boundedness between two spaces", pair, False),
            ("boyd", cmd_boyd, "Boyd indices of a space description", one, False),
            ("conjugate", cmd_conjugate, "Young conjugate of a description", one, True),
            ("probe", cmd_probe, "independent norm-ratio probe", optional_pair, False)):
        p = sub.add_parser(name, help=text)
        for dest, kwargs in positionals:
            p.add_argument(dest, **kwargs)
        common(p, csv=csv)
        p.set_defaults(func=func)
    sub.choices["probe"].add_argument(
        "--fixtures", help="JSON file with [{'A': spec, 'B': spec}, ...]")
    for name in ("bounded", "probe"):  # the commands that search a constant
        sub.choices[name].add_argument("--constant-cap", type=float, default=1e6)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        grid = GridSpec(t_min=args.tmin, t_max=args.tmax,
                        points_per_decade=args.grid_points_per_decade)
        ctx = GammaContext(args.n, args.gamma)
    except ValueError as exc:
        print(f"orlicz-calc: error: {exc}", file=sys.stderr)
        return 2
    try:
        code = args.func(args, grid, ctx)
        sys.stdout.flush()
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (optimality.IndeterminateIndexError, DoubleRangeError) as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed the pipe: send the unwritten rest to /dev/null so
        # that the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
