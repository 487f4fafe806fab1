"""starcoal: exact laws and simulators for a star-shaped resampling model.

A population is swept by single-ancestor replacement events at rate 1 while
individual lines mutate independently.  Everything observable then splits
over the most recent replacement, which makes transition laws, stationary
laws, moments, spectral expansions, backward line counts and selection
variants available in closed form.  Modules:

    core       parameter bundles, mixed atom/density laws, RNG streams,
               one offset quadrature rule for endpoint singularities
    twotype    two-type transition and stationary laws, moments, samplers
    eigen      eigenpolynomials of the generator and dual pairings
    lines      backward line counting, spectral form, moment duality
    multitype  finite-type and infinitely-many-type extensions
    selection  skeleton flows, stationary selection laws, branching dual
    verification  cross-route consistency suites behind ``starcoal verify``
    cli        command-line access
"""

from .core import (
    DomainEscapeError,
    InvalidParameterError,
    LINE_LAW_N_CAP,
    MixedLaw,
    NonMonotoneDriftError,
    NoStationaryDistributionError,
    Piece,
    QuadratureError,
    RngStream,
    SIM_WORK_CAP,
    SimulationAbortError,
    StarcoalError,
    TwoTypeParams,
    exp_decay_window,
    replacement_decay_integral,
)
from .eigen import (
    PolyRep,
    eigen_coefficients,
    eigen_poly,
    eigenvalue,
    expansion_expectation,
    generator_apply,
    hyper_pairing,
    pv_expectation_g_q1,
    pv_expectation_g_q1_numeric,
    stationary_expectation,
)
from .lines import (
    LineDist,
    LinePath,
    absorption_time_ensemble,
    an_distribution,
    an_distribution_spectral,
    duality_check,
    mean_absorption_time,
    simulate_lines,
    stationary_moment_via_coalescent,
)
from .multitype import (
    MultiParams,
    MutationMatrix,
    SimplexLaw,
    SimplexRegion,
    infinite_sampling_prob,
    load_mutation_matrix,
    markov_line_kernel,
    markov_stationary_gamma,
    markov_stationary_sample,
    pim_line_kernel,
    pim_stationary_sample,
    pim_transition_law,
)
from .selection import (
    ASG_STATE_CAP,
    AsgPath,
    DriftSpec,
    RootPair,
    asg_count_ensemble,
    asg_simulate,
    asg_stationary,
    asg_stationary_gf,
    custom_drift,
    fixation_prob,
    flow,
    logistic_drift,
    mutation_selection_drift,
    neutral_drift,
    replacement_stationary,
    roots,
    selection_duality_check,
    skeleton_matrix,
    ua_time_ensemble,
)
from .twotype import (
    PathRecord,
    line_kernel,
    marginal_q,
    path_endpoint_ensemble,
    replacement_component_density,
    sample_transition,
    simulate_path,
    stationary_density_eval,
    stationary_law,
    stationary_sample,
    transition_density_eval,
    transition_law,
    transition_moment,
)
from .verification import CheckResult, SUITE_NAMES, format_report, run_suites

# selection.stationary_density, selection.stationary_law,
# selection.stationary_sample and selection.simulate_path share names with
# the two-type ops; access those through the module to keep the flat
# namespace unambiguous.

__version__ = "0.1.0"
