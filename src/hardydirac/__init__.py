"""Two-weight Hardy constants, Hardy-Dirac inequalities, and the
distinguished self-adjoint extension of radial Dirac operators with
diagonal (including delta-shell) potentials."""

from .numerics import (
    NotPositiveDefiniteError,
    QuadratureError,
    RadialGrid,
    SupResult,
    UnboundedError,
    integrate_radial,
    sup_over_r,
)
from .potentials import (
    CoulombPotential,
    MollifiedShell,
    NotInClassAError,
    PotentialPair,
    PotentialParseError,
    PowerPotential,
    ShellMeasure,
    SumPotential,
    TablePotential,
    ZeroPotential,
    a_k,
    a_minus,
    a_plus,
    parse_component,
    parse_pair,
    parse_v1_slot,
    scale_pair,
    tilde_constants,
)
from .channels import (
    Channel,
    ClosedFormProfile,
    GridProfile,
    SpinorField,
    build_field,
    exp_profile,
    field_norm_weighted,
    gauss_profile,
    parse_field_term,
    parse_profile,
    sigma_grad_norm_weighted,
)
from .verify import (
    HypothesisViolationError,
    InequalityReport,
    MollifiedRow,
    mollified_delta_experiment,
    random_field_gallery,
    select_lambda,
    standard_pair_gallery,
    verify_corollary,
    verify_theorem,
)
from .extension import (
    DiracChannelProblem,
    ExtremizeResult,
    GapEigenvalue,
    WeakSolveResult,
    extremize_ratio,
    pairing_defect,
    spectrum_in_gap,
    weak_solve,
)

__version__ = "0.1.0"
