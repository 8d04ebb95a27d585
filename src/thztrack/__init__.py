"""Sensing-assisted THz beam tracking with real-time beamwidth adaptation.

The package simulates a base station that periodically senses a moving
target, predicts its path, and serves it with precoders whose main lobe is
shaped to cover the predicted sine-space interval. It includes the precoder
family, a penalised average-rate optimiser, codebook precomputation and
persistence, three tracking schemes, and a batch CLI.
"""

from .channel import (
    ArrayConfig,
    FarFieldWarning,
    LinkBudget,
    achievable_rate,
    channel_gain,
    dbm_to_watt,
    fraunhofer_distance,
    response_matrix,
)
from .codebook import (
    Codebook,
    CodebookEntry,
    CodebookError,
    CodebookGrid,
    build_codebook,
    entry_precoder,
    load,
    lookup_indices,
    save,
)
from .config import (
    ConfigError,
    RunConfig,
    build_array,
    build_budget,
    build_event_params,
    build_grid,
    build_objective_template,
    build_pso,
    build_scenario,
    parse_config,
    parse_config_file,
    render_config,
)
from .geometry import (
    AngularInterval,
    BsGeometry,
    SensedState,
    path_to_interval,
    pose_to_direction,
    positions_to_directions,
    predict_pose,
)
from .optimizer import (
    ObjectiveSpec,
    OptResult,
    PsoConfig,
    objectives,
    optimize_omega,
    optimize_omegas,
    pso_bounds,
)
from .precoder import (
    Precoder,
    adaptive_precoder,
    bf_gain_profile,
    mrt_precoder,
    sample_fn,
)
from .tracking import (
    SCHEME_CONVENTIONAL,
    SCHEME_EVENT,
    SCHEME_PROPOSED,
    EventBasedParams,
    Metrics,
    Scenario,
    SweepRow,
    TrackRecord,
    TrackingRunError,
    compute_metrics,
    run_conventional,
    run_event_based,
    run_sensing_assisted,
    run_sensing_assisted_direct,
    sweep,
)

__version__ = "0.1.0"
