"""Beam-domain channel probing and secret-key generation analysis for
multi-user massive MIMO links.

The package splits into five layers: `channel` synthesizes multipath MIMO
channels and their beam-domain statistics, `allocation` assigns disjoint
strongest beams across users and builds precoders/combiners, `probing`
simulates the two-way pilot exchange that produces the shared key material,
`keyrate` evaluates the secret key rate of the resulting Gaussian
observations, and `experiments` wires everything into seeded, reproducible
experiment runners behind the `beamkey` command-line tool.
"""

__version__ = "0.1.0"

from .allocation import (
    BeamAllocation,
    allocate_bs_beams,
    allocate_ut_beams,
    allocation_summary,
    build_matrices,
    neutralization_residual,
    rank_beams,
)
from .channel import (
    ArrayGeometry,
    BeamCovariances,
    BeamDomainChannel,
    PathSet,
    beam_covariance_factor,
    beam_covariances,
    beam_path_factors,
    grid_sines,
    pathset_from_json,
    pathset_to_json,
    sample_paths,
    sampling_matrix,
    steering_vector,
    synthesize_channel,
    to_beam_domain,
)
from .experiments import (
    ConfigError,
    ExperimentResult,
    ScenarioConfig,
    ValidationReport,
    run_beam_gain_profile,
    run_multiuser_unit_rate,
    run_overhead_comparison,
    run_single_user_rate,
    run_validation_suite,
    write_result,
)
from .keyrate import (
    NumericalConsistencyError,
    ObservationCovariances,
    RateInputs,
    SingularNoiseFreeRateError,
    assemble_observation_covariances,
    build_v_matrices,
    full_sampling_rate,
    gaussian_mi_oracle,
    pilot_overhead,
    psd_sqrt,
    rate_factors,
    secret_key_rate,
    unit_skr,
)
from .probing import (
    PilotSet,
    ProbingObservation,
    dimension_reduction_factor,
    downlink_probe,
    make_pilots,
    observations_to_csv,
    uplink_probe,
    vectorize_observations,
)

__all__ = [
    "ArrayGeometry",
    "BeamAllocation",
    "BeamCovariances",
    "BeamDomainChannel",
    "ConfigError",
    "ExperimentResult",
    "NumericalConsistencyError",
    "ObservationCovariances",
    "PathSet",
    "PilotSet",
    "ProbingObservation",
    "RateInputs",
    "ScenarioConfig",
    "SingularNoiseFreeRateError",
    "ValidationReport",
    "allocate_bs_beams",
    "allocate_ut_beams",
    "allocation_summary",
    "assemble_observation_covariances",
    "beam_covariance_factor",
    "beam_covariances",
    "beam_path_factors",
    "build_matrices",
    "build_v_matrices",
    "dimension_reduction_factor",
    "downlink_probe",
    "full_sampling_rate",
    "gaussian_mi_oracle",
    "grid_sines",
    "make_pilots",
    "neutralization_residual",
    "observations_to_csv",
    "pathset_from_json",
    "pathset_to_json",
    "pilot_overhead",
    "psd_sqrt",
    "rank_beams",
    "rate_factors",
    "run_beam_gain_profile",
    "run_multiuser_unit_rate",
    "run_overhead_comparison",
    "run_single_user_rate",
    "run_validation_suite",
    "sample_paths",
    "sampling_matrix",
    "secret_key_rate",
    "steering_vector",
    "synthesize_channel",
    "to_beam_domain",
    "unit_skr",
    "uplink_probe",
    "vectorize_observations",
    "write_result",
]
