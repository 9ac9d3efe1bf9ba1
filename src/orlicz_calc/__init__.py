"""Numerical calculus of Young functions for the fractional maximal operator.

The library computes the Young-function transforms controlling when the
fractional maximal operator of order gamma maps one Orlicz space into
another on R^n: the optimal target and domain profiles, the domain
improvement, Boyd indices, the reduction-principle boundedness criteria,
and independent discretized-operator probes that cross-check the verdicts.
"""

from .boyd import BoydEstimate, boyd_indices, dilation
from .families import (
    AsymPiece,
    AsymptoticFamily,
    exp_type,
    l1,
    linf,
    lp,
    power_sqrtlog,
    zygmund,
)
from .grid import DEFAULT_GRID, GridFn, GridSpec, StepFn, TailFit
from .oracle import (
    ProbeReport,
    TestFunction,
    hardy_dual_apply,
    maximal_2d,
    modular_probe,
    norm_probe,
    rearrangement_bound_check,
)
from .optimality import (
    DomainResult,
    IndeterminateIndexError,
    TargetResult,
    WitnessResult,
    optimal_domain,
    optimal_target,
    reiterate_domain,
    reiterate_range,
    witness_improvement,
)
from .reduction import (
    Verdict,
    bounded,
    criterion_iii,
    criterion_iv,
)
from .specdsl import SpaceSpec, SpecParseError, parse_spec, render
from .transforms import (
    TransformGateError,
    a_gamma,
    a_sup,
    b_gamma,
    check_acond,
    check_bconv,
    f_transform,
    g_transform,
    lower_fractional_integral,
)
from .young import (
    GammaContext,
    IntegralDivergentError,
    YoungFn,
    conjugate,
    dominates,
    equivalent,
    from_callable,
    from_family,
    luxemburg_norm,
    rearrangement,
)

__version__ = "0.1.0"
