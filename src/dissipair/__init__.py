"""Two qubits on a shared waveguide: exchange coupling versus collective decay.

The package simulates a pair of two-level emitters coupled both directly
(excitation exchange with amplitude J) and through a common
one-dimensional channel whose propagation phase phi makes their joint
decay interfere.  Tuning phi against J makes the mutual influence
one-way, shows up in the entanglement dynamics, and under a local drive
pins the pair to an entangled stationary state.
"""

from .dynamics import (
    INITIAL_STATE_NAMES,
    SteadyStateResult,
    TimeGrid,
    Trajectory,
    build_liouvillian,
    evolve_rk4,
    initial_state,
    liouvillian_from_params,
    steady_state,
)
from .experiments import (
    ExperimentConfig,
    SweepConfig,
    parse_config,
    parse_sweep_config,
    run_experiment,
    run_figure,
    run_sweep,
    write_csv,
)
from .model import Drive, ModelParams
from .observables import (
    CollectivePopulations,
    IsolationReport,
    collective_populations,
    concurrence,
    damping_forces,
    populations,
)

__version__ = "0.1.0"
