"""Energy-efficiency design toolkit for surface-assisted multi-user MISO downlink.

Jointly designs per-user transmit powers and low-resolution surface phase
shifts to maximize bits-per-Joule, with exhaustive-search and relay
baselines and a seeded Monte-Carlo experiment harness.
"""

__version__ = "0.1.0"

from .channels import ChannelSet, pathloss_gain, sample_channels
from .config import (
    CONTINUOUS,
    Geometry,
    PathlossModel,
    PathlossParams,
    RelayParams,
    SystemConfig,
    dbm_to_watts,
)
from .harness import (
    ResultRow,
    Scenario,
    aggregate,
    emit_outputs,
    load_scenario,
    run_scenario,
    scenario_from_pairs,
)
from .model import (
    PhaseConfig,
    PowerAllocation,
    SingularMatrixError,
    SolveReport,
    effective_channel,
    phase_grid,
    sinr,
    sum_rate,
    transmit_power_used,
    zf_precoder,
)
from .phases import (
    PhaseOptimizationError,
    RelaxedSolveOptions,
    quantize_phases,
    solve_relaxed,
    trace_objective,
    trace_values,
)
from .power import (
    InfeasibleError,
    NonConvergenceError,
    dinkelbach_allocation,
    qos_min_powers,
    solve_inner,
    zf_power_weights,
)
from .solver import (
    EnumerationCapError,
    alternating_ee_max,
    evaluate,
    exhaustive_search,
    max_rate_power_fill,
    relay_baseline,
)

__all__ = [
    "CONTINUOUS",
    "ChannelSet",
    "EnumerationCapError",
    "Geometry",
    "InfeasibleError",
    "NonConvergenceError",
    "PathlossModel",
    "PathlossParams",
    "PhaseConfig",
    "PhaseOptimizationError",
    "PowerAllocation",
    "RelaxedSolveOptions",
    "RelayParams",
    "ResultRow",
    "Scenario",
    "SingularMatrixError",
    "SolveReport",
    "SystemConfig",
    "aggregate",
    "alternating_ee_max",
    "dbm_to_watts",
    "dinkelbach_allocation",
    "effective_channel",
    "emit_outputs",
    "evaluate",
    "exhaustive_search",
    "load_scenario",
    "max_rate_power_fill",
    "pathloss_gain",
    "phase_grid",
    "qos_min_powers",
    "quantize_phases",
    "relay_baseline",
    "run_scenario",
    "sample_channels",
    "scenario_from_pairs",
    "sinr",
    "solve_inner",
    "solve_relaxed",
    "sum_rate",
    "trace_objective",
    "trace_values",
    "transmit_power_used",
    "zf_power_weights",
    "zf_precoder",
]
