"""Exact Kerr-oscillator dynamics of coherent-state superpositions.

The package simulates a single bosonic mode under H = chi a^dag^2 a^2 in a
truncated number basis and reproduces the fractional-revival phenomenology of
multi-component cat states: quadrature-moment bursts, Wigner phase-space
portraits, and Renyi entropic-uncertainty minima, each cross-validated
against independent brute-force routes.
"""

__version__ = "0.1.0"

from .states import (
    DEFAULT_PHASE,
    DimensionMismatchError,
    FockState,
    SuperpositionSpec,
    TruncationError,
    coherent_state,
    fidelity,
    mean_photon_number,
    rotate_state,
    superposed_state,
    superposition_norm,
    truncation_dim,
)
from .evolution import (
    KerrParams,
    TimeGrid,
    TimeSeries,
    analytic_state_at,
    evolve,
    revival_components,
)
from .moments import (
    HeadroomError,
    a_power_oracle,
    a_power_superposition,
    ladder_expectation_coherent,
    ladder_moment_oracle,
    moment_series,
    p_moment_oracle,
    x2_even_cat,
    x3_three_cat,
    x_moment_oracle,
)
from .wigner import (
    GridCoverageWarning,
    PhaseSpaceField,
    PhaseSpaceGrid,
    count_lobes,
    wigner_field,
)
from .entropy import (
    DensityProfile,
    RenyiPair,
    entropy_series,
    momentum_density,
    momentum_wavefunction,
    position_density,
    position_wavefunction,
    renyi_bound,
    renyi_entropy,
    renyi_uncertainty_sum,
)
from .schedule import (
    MatchReport,
    detect_bursts,
    detect_dips,
    detect_minima,
    match_report,
    visible_burst_times,
)

__all__ = [name for name in dir() if not name.startswith("_")]
