"""Spectral solver and verification suite for a coupled fractional
short-wave/long-wave system on a truncated periodic domain.

The package implements the nonlocal operator in both of its equivalent
forms, the exact linear propagators of the regularized system, a
mass-conserving midpoint-Duhamel time marcher with per-step fixed-point
iteration, and numerical verification of the estimates the analysis rests
on: norm equivalences, sharp interpolation and product inequalities, the
generalized Gronwall bounds, level-set entropy identities, and the weak
formulations of both the regularized and the limit systems.
"""

from .grid import Field, GridSpec, make_grid, as_order
from .fractional import (
    cns_constant,
    frac_laplacian_singular,
    frac_laplacian_spectral,
    riesz_inverse,
)
from .sobolev import (
    InequalityReport,
    NormReport,
    check_algebra,
    check_chain_rule,
    check_equivalence,
    check_linf_interp,
    check_product_bound,
    hs_norm,
    norm_equivalence_constants,
    random_band_limited,
)
from .propagators import (
    PropagatorSpec,
    check_heat_smoothing,
    heat_semigroup_apply,
    schrodinger_group_apply,
)
from .gronwall import GronwallInadmissibleError, GronwallSpec, gronwall_bound
from .solver import (
    BlowupError,
    ConvergenceTable,
    NonlinearityG,
    PerturbedRun,
    SolverError,
    SystemParams,
    Trajectory,
    contraction_time_bound,
    g_linear,
    g_tanh_blend,
    g_zero,
    solve_perturbed,
    vanishing_viscosity_sweep,
)
from .diagnostics import (
    DiagnosticsRecord,
    SmallnessReport,
    bilinear_form,
    coercivity_report,
    diagnose_trajectory,
    energy_balance_residual,
    record_diagnostics,
    smallness_condition,
    theta_envelope,
    v_balance_residual,
)
from .entropy import (
    EntropySpec,
    TestFunction,
    entropy_balance_residual,
    entropy_flux,
    kruzkov_entropy,
    quadratic_capped_entropy,
    reconstruct_entropy,
    remainder_Rk,
    smooth_capped_entropy,
    weak_residual_u,
    weak_residual_v,
)

__version__ = "0.1.0"
