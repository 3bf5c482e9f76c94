"""Exact path simulation of finite-variation tempered-stable OU processes.

Two distinct families are covered: processes whose *stationary law* is a
one-sided classical tempered stable (CTS) distribution, and processes whose
*driving noise* is a CTS process.  Both transition laws decompose into a
rescaled CTS draw plus a compound-Poisson sum of gamma-mixture jumps, which
is what the samplers here implement, together with closed-form cumulant
oracles and a Monte Carlo validation harness.

The package re-exports the samplers, step laws, closed forms and harness.
The Levy-triplet oracles (Levy-Khintchine quadrature, remainder
decompositions, stationary/driving density maps) are imported from
``tsousim.levy_core``: no sampling path uses them, so ``import tsousim``
does not load that module; ``validate_suite`` loads it when it runs.
"""

from .rand_core import (
    CtsParams,
    RngStream,
    StepLaw,
    cts_cumulants,
    cts_tilting_acceptance,
    sample_cts,
    sample_inverse_gaussian,
    sample_poisson,
    sample_stable_subordinator,
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
