"""Beam-domain channel probing and secret-key generation analysis for
multi-user massive MIMO links.

The package splits into five layers: `channel` synthesizes multipath MIMO
channels and their beam-domain statistics, `allocation` assigns disjoint
strongest beams across users (as beam indices), `probing` forms the grid
beamformers and simulates the two-way pilot exchange that yields the shared
key material, `keyrate` evaluates the secret key rate of the resulting
Gaussian observations, and `experiments` wires everything into seeded,
reproducible experiment runners behind the `beamkey` command-line tool.
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
    BeamCovariances,
    PathSet,
    beam_covariance_factor,
    beam_covariances,
    beam_path_factors,
    grid_sines,
    sample_paths,
    sampling_matrix,
    synthesize_channel,
    to_beam_domain,
)
from .experiments import (
    ConfigError,
    ExperimentResult,
    Scenario,
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
    rate_factors,
    secret_key_rate,
    unit_skr,
)
from .probing import (
    dimension_reduction_factor,
    downlink_probe,
    uplink_probe,
    vectorize_observations,
)

__all__ = [
    "BeamAllocation",
    "BeamCovariances",
    "ConfigError",
    "ExperimentResult",
    "NumericalConsistencyError",
    "ObservationCovariances",
    "PathSet",
    "RateInputs",
    "Scenario",
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
    "neutralization_residual",
    "pilot_overhead",
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
    "synthesize_channel",
    "to_beam_domain",
    "unit_skr",
    "uplink_probe",
    "vectorize_observations",
    "write_result",
]
