"""Exact path simulation of finite-variation tempered-stable OU processes.

Two distinct families are covered: processes whose *stationary law* is a
one-sided classical tempered stable (CTS) distribution, and processes whose
*driving noise* is a CTS process.  Both transition laws decompose into a
rescaled CTS draw plus a compound-Poisson sum of gamma-mixture jumps, which
is what the samplers here implement, together with closed-form cumulant
oracles and a Monte Carlo validation harness.
"""

from .rand_core import (
    CtsParams,
    RngStream,
    StepLaw,
    cts_tilting_acceptance,
    sample_cts,
    sample_inverse_gaussian,
    sample_poisson,
    sample_stable_subordinator,
)
from .levy_core import (
    ARemainderTriplet,
    DecompositionError,
    GeneralTsLaw,
    LevyTriplet,
    NotSelfDecomposableError,
    QuadratureError,
    TsRemainderDecomposition,
    aremainder_triplet,
    bdlp_density_from_stationary,
    cts_cumulants,
    cts_log_chf,
    lk_log_chf,
    ou_cumulants_from_bdlp,
    ou_cumulants_from_stationary,
    stationary_density_from_bdlp,
    ts_remainder_decompose,
)
from .cts_ou import (
    CtsOuProcess,
    CtsOuStepLaw,
    cumulants_ctsou,
    sample_transition_ctsou,
    sample_v_ctsou,
    simulate_skeleton_ctsou,
    step_law,
)
from .ou_cts import (
    Envelope,
    OuCtsProcess,
    OuCtsStepLaw,
    build_envelope,
    cumulants_oucts,
    f_w_density,
    sample_transition_oucts,
    sample_v_alpha0,
    sample_v_oucts,
    sample_w,
    scaled_bdlp_law,
    simulate_skeleton_oucts,
    step_law_oucts,
    x1_only_law,
)
from .harness import (
    CumulantVector,
    ErrTable,
    ErrTableRow,
    ExperimentConfig,
    estimate_cumulants,
    export_trajectories,
    run_experiment,
    validate_suite,
)

__version__ = "0.1.0"
