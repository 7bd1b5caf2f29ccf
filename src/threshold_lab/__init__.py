"""Sharp-threshold analysis of functions on [q]^n under product measures.

Exact Efron-Stein decompositions, influences, noise operators and
hypercontractivity checks; generalized Russo derivatives and threshold
window scans along simplex paths; certified structural checks; built-in
monotone/fair function families; and social-choice constructions
(McGarvey profiles, plurality realization, indeterminacy experiments).
"""

from .core import (
    MAX_TABLE_SIZE,
    DegenerateMeasureError,
    DimensionMismatchError,
    InvalidFunctionError,
    MeasurePath,
    Oracle,
    ProductMeasure,
    QaryFunction,
    SimplexSampler,
    TableSizeError,
    ThresholdLabError,
    conditional_expectation,
    expectation,
    permute_input_symbols,
    prob_value,
)
from .checks import (
    CheckResult,
    SymmetryGroup,
    check_fair,
    check_monotone,
    check_symmetric,
    check_zero_monotone,
    leq_a,
)
from .decomposition import (
    EfronSteinDecomposition,
    InfluenceReport,
    delta_i,
    efron_stein,
    hypercontractive_sigma,
    influence,
    influence_report,
    lp_norm,
    noise_operator,
    talagrand_report,
    verify_hypercontractivity,
    verify_level_bound,
    verify_level_bounds,
)
from .families import (
    antisym_majority,
    dictator,
    graph_property,
    plurality,
    recursive_plurality,
    resolve_oracle,
)
from .threshold import (
    JuryReport,
    SweepReport,
    ThresholdCurve,
    ThresholdWindow,
    WindowUndefinedError,
    jury_experiment,
    mc_estimate,
    russo_derivative,
    russo_report,
    scan_path,
    simplex_sweep,
    threshold_window,
)
from .social_choice import (
    ChoiceFunction,
    LinearOrder,
    Tournament,
    VoterProfile,
    borda_choice,
    indeterminacy_experiment,
    is_rational,
    majority_relation,
    mcgarvey_profile,
    outdegree_choice,
    plurality_choice,
    saari_search,
)

__version__ = "0.1.0"
