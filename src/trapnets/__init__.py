"""Bouchaud trap models on finite electrical networks.

Resistance geometry of finite networks, metrics on rooted discrete measures,
heavy-tailed trap environments, exact trap-model dynamics with aging and
sub-aging two-point functions, graph ensembles (gasket, random-conductance
path, random trees, critical Erdos-Renyi components), and a batch experiment
driver with a CLI.
"""

from .errors import TrapnetsError
from .networks import (
    ElectricalNetwork,
    FiniteMetricSpace,
    FusedNetwork,
    add_unit_edges,
    boundary_resistance,
    build_network,
    effective_resistance,
    fuse,
    metric_entropy,
    resistance_between_sets,
)
from .measures import (
    DiscreteMeasure,
    Correspondence,
    dis_measure_distance,
    distortion,
    glue,
    hausdorff,
    local_hausdorff,
    prohorov,
    prohorov_bruteforce,
    vague_distance,
)
from .rng import RngStream
from .traps import (
    TrapEnvironment,
    TrapLaw,
    make_environment,
    pareto_sample,
    sample_trap,
    scaling_constant,
    scaling_identity_residual,
    truncated_prm,
)
from .dynamics import (
    Generator,
    PathSample,
    TransitionKernel,
    aging_phi,
    exit_time_bound,
    exit_time_bound_check,
    return_probability_bounds_check,
    scaled_surface,
    simulate_path,
    subaging_psi,
    transition_kernel,
)
from .experiments import (
    ExperimentConfig,
    ResultTable,
    run_aging_experiment,
    run_metric_convergence,
    run_subaging_experiment,
    run_trap_convergence,
    run_two_point_experiment,
)
from .ensembles import (
    GasketGraph,
    PlaneTree,
    UniformConductanceLaw,
    as_plane_tree,
    attachment_markers,
    binomial_pointset_under_walk,
    coding_functions,
    conductance_path,
    er_largest_component,
    sierpinski,
    surplus_attachment,
    tilted_tree,
    uniform_cayley_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
