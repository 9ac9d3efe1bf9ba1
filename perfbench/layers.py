"""What the traced run wraps, and the per-layer metrics it reports.

The layers are the modules of ``orlicz_calc``.  Every name below is reported
on every workload (0 where the workload never reaches that function), as a
figure per round of the workload's ops.
"""

from __future__ import annotations

import math

from tracer import Target, first_arg_points


def _ladder_steps(tracer, args, kwargs, verdict) -> None:
    """Rungs of the constant ladder a criterion tried, read off its verdict:
    the rung of the constant found, every rung when the range ran out, none
    when an end test or a gate decided first."""
    from orlicz_calc import reduction

    cap = kwargs.get("constant_cap", reduction.CONSTANT_CAP)
    steps = kwargs.get("steps", reduction.CONSTANT_STEPS)
    if verdict.holds and math.isfinite(verdict.constant) and cap > 1:
        rung = round((steps - 1) * math.log10(verdict.constant) / math.log10(cap))
        tracer.add("reduction.ladder_steps", rung + 1)
    elif "constant-range-exhausted" in verdict.flags:
        tracer.add("reduction.ladder_steps", steps)


def _a_gamma_seen(tracer, args, kwargs, result) -> None:
    A = args[0] if args else kwargs["A"]
    ctx = args[1] if len(args) > 1 else kwargs["ctx"]
    # the input is held so that its id cannot be reused within the round
    tracer.seen.setdefault("a_gamma", {})[(id(A), ctx)] = A


def _grid_inverse_points(args, kwargs):
    out_t = args[1] if len(args) > 1 else kwargs["out_t"]
    return first_arg_points((out_t,), {})


TARGETS = (
    Target("families.value", "orlicz_calc.families", "AsymptoticFamily.value",
           first_arg_points),
    Target("grid.GridFn", "orlicz_calc.grid", "GridFn.__init__"),
    Target("grid.gridfn_call", "orlicz_calc.grid", "GridFn.__call__", first_arg_points),
    Target("grid.grid_inverse", "orlicz_calc.grid", "grid_inverse", _grid_inverse_points),
    Target("grid.prefix_integral", "orlicz_calc.grid", "GridFn.prefix_integral"),
    Target("young.YoungFn", "orlicz_calc.young", "YoungFn.__init__"),
    Target("young.inverse_many", "orlicz_calc.young", "YoungFn.inverse_many",
           first_arg_points),
    Target("young.end_profile", "orlicz_calc.young", "end_profile"),
    Target("young.conjugate", "orlicz_calc.young", "conjugate"),
    Target("young.dominates", "orlicz_calc.young", "dominates"),
    Target("young.luxemburg_norm", "orlicz_calc.young", "luxemburg_norm"),
    Target("boyd.boyd_indices", "orlicz_calc.boyd", "boyd_indices"),
    Target("boyd.dilation", "orlicz_calc.boyd", "dilation"),
    Target("transforms.a_gamma", "orlicz_calc.transforms", "a_gamma",
           on_result=_a_gamma_seen),
    Target("transforms.b_gamma", "orlicz_calc.transforms", "b_gamma"),
    Target("transforms.a_sup", "orlicz_calc.transforms", "a_sup"),
    Target("transforms.lower_fractional_integral", "orlicz_calc.transforms",
           "lower_fractional_integral"),
    Target("transforms.check_acond", "orlicz_calc.transforms", "check_acond"),
    Target("transforms.check_bconv", "orlicz_calc.transforms", "check_bconv"),
    Target("reduction.criterion_iii", "orlicz_calc.reduction", "criterion_iii",
           on_result=_ladder_steps),
    Target("reduction.criterion_iv", "orlicz_calc.reduction", "criterion_iv",
           on_result=_ladder_steps),
    Target("optimality.optimal_target", "orlicz_calc.optimality", "optimal_target"),
    Target("optimality.optimal_domain", "orlicz_calc.optimality", "optimal_domain"),
    Target("optimality.reiterate_range", "orlicz_calc.optimality", "reiterate_range"),
    Target("optimality.reiterate_domain", "orlicz_calc.optimality", "reiterate_domain"),
    Target("optimality.witness_improvement", "orlicz_calc.optimality",
           "witness_improvement"),
    Target("oracle.norm_probe", "orlicz_calc.oracle", "norm_probe"),
    Target("oracle.maximal_2d", "orlicz_calc.oracle", "maximal_2d"),
    Target("oracle.rearrangement_bound_check", "orlicz_calc.oracle",
           "rearrangement_bound_check"),
    Target("specdsl.parse_spec", "orlicz_calc.specdsl", "parse_spec"),
    Target("specdsl.to_young", "orlicz_calc.specdsl", "SpaceSpec.to_young"),
    Target("cli.main", "orlicz_calc.cli", "main"),
)

# derived counters and per-workload outcomes: name -> (unit, better)
EXTRA_METRICS = {
    "young.callable.points": ("count", "lower"),
    "reduction.ladder_steps": ("count", "lower"),
    "transforms.a_gamma.reuse_ratio": ("ratio", "higher"),
    "boyd.index_relerr_max": ("ratio", "lower"),
    "transforms.formula_logerr_max": ("ratio", "lower"),
    "optimality.witness_rungs": ("count", "higher"),
    "process.python_ms": ("ms", "lower"),
    "process.numpy_import_ms": ("ms", "lower"),
    "trace.ops_per_s": ("op/s", "higher"),
}


def per_layer_metrics() -> dict:
    """Every per-layer metric name -> (unit, better)."""
    out = {}
    for t in TARGETS:
        out[f"{t.metric}.calls"] = ("count", "lower")
        out[f"{t.metric}.self_ms"] = ("ms", "lower")
        if t.points is not None:
            out[f"{t.metric}.points"] = ("count", "lower")
    out.update(EXTRA_METRICS)
    return out
