"""Numerical calculus of Young functions for the fractional maximal operator.

The library computes the Young-function transforms controlling when the
fractional maximal operator of order gamma maps one Orlicz space into
another on R^n: the optimal target and domain profiles, the domain
improvement, Boyd indices, the reduction-principle boundedness criteria,
and independent discretized-operator probes that cross-check the verdicts.

``import orlicz_calc`` loads no submodule.  Each public name below is looked
up in its home module when it is first read (PEP 562), and each submodule is
imported when it is first read as an attribute (``orlicz_calc.young``), so a
program imports only the modules whose names it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("boyd", "cli", "families", "grid", "optimality", "oracle", "reduction",
               "specdsl", "transforms", "young")

# public name -> the module that defines it
_HOME = {
    **dict.fromkeys(("BoydEstimate", "boyd_indices", "dilation"), "boyd"),
    **dict.fromkeys(("AsymPiece", "AsymptoticFamily", "exp_type", "l1", "linf", "lp",
                     "power_sqrtlog", "zygmund"), "families"),
    **dict.fromkeys(("DEFAULT_GRID", "GridFn", "GridSpec", "StepFn", "TailFit"), "grid"),
    **dict.fromkeys(("ProbeReport", "TestFunction", "hardy_dual_apply", "maximal_2d",
                     "modular_probe", "norm_probe", "rearrangement_bound_check"), "oracle"),
    **dict.fromkeys(("DomainResult", "TargetResult", "WitnessResult", "optimal_domain",
                     "optimal_target", "reiterate_domain", "reiterate_range",
                     "witness_improvement"), "optimality"),
    **dict.fromkeys(("bounded", "criterion_iii", "criterion_iv"), "reduction"),
    **dict.fromkeys(("SpaceSpec", "SpecParseError", "parse_spec", "render"), "specdsl"),
    **dict.fromkeys(("TransformGateError", "a_gamma", "a_sup", "b_gamma", "check_acond",
                     "check_bconv", "f_transform", "g_transform",
                     "lower_fractional_integral"), "transforms"),
    **dict.fromkeys(("GammaContext", "IndeterminateIndexError", "IntegralDivergentError",
                     "Verdict", "YoungFn", "conjugate", "dominates", "equivalent",
                     "from_callable", "from_family", "luxemburg_norm", "rearrangement"),
                    "young"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A submodule, or a public name read from its home module on every access.

    Nothing is cached here, so a name rebound in its home module (by a
    tracer, say) is seen through the package too.  An imported submodule is
    bound on the package by the import system, and not looked up here again.
    """
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_HOME})
