"""Marginal-pinned smoothing of symmetric particle ensembles, the matching
fermionic mixed state, Coulomb multi-marginal transport, and the
small-parameter rate study, all at desk scale on uniform grids."""

from .errors import NumericalError, ValidationError
from .grids import (
    AtomicPlan,
    Grid,
    GridDensity,
    coulomb,
    density_from_values,
    h1_seminorm_sqrt,
    l1_gradient,
    marginal,
    separation,
    snap_to_grid,
)
from .mollifier import BumpProfile, GridKernel
from .regularizer import (
    RegularizedPlan,
    build_regularized,
    integrate_observable,
    kinetic_of_sqrt,
    potential_error,
)
from .quantum import (
    MixedStateKernel,
    kernel_eval,
    kinetic_trace,
    one_particle_density,
    rdm_max_eigenvalue,
)
from .mmot import (
    TransportProblem,
    TransportSolution,
    solve_lp,
    solve_sinkhorn,
)
from .semiclassics import (
    SweepRecord,
    SweepResult,
    TrialEnergy,
    assembled_constant,
    fit_log_slope,
    sweep,
    trial_energy,
)

__version__ = "0.1.0"
