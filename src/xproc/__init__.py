"""Exact spectral theory and Monte Carlo simulation of symmetric exclusion
processes on finite graphs: level generators, eigenbases and lifting
operators, spectral profiles of Boolean functions, closed-form noise
covariance and flip-probability formulas, and a brute-force oracle plus
simulator that cross-check all of it.
"""

__version__ = "0.1.0"

from .graph import (
    Graph,
    is_connected,
    load_graph,
    make_complete,
    make_cycle,
    make_half_complete_cycle,
    max_degree,
    save_graph,
)
from .statespace import (
    Configuration,
    LevelStateSpace,
    StateCapExceeded,
    enumerate_level,
)
from .generator import (
    LevelGenerator,
    NumericalError,
    build_level_generator,
    build_level_generators,
    dirichlet_form,
)
from .spectral import (
    SpectralBasis,
    complete_graph_basis,
    eigendecompose_stack,
    lift_down,
    lift_up,
    mirror_basis,
    solve_graph,
)
from .fourier import (
    BooleanFunction,
    SpectralProfile,
    exact_correlation,
    exact_covariance,
    exact_flip_probability,
    make_function,
    spectral_profile,
)
from .dynamics import (
    EstimateResult,
    SimulationSpec,
    estimate_covariance,
    estimate_flip_probability,
    simulate_path,
)
from .oracle import TransitionMatrix, brute_force_correlation, matrix_exponential
from .diagnostics import (
    containment_residual,
    monotonicity_inequality_check,
    projection_mass_inequality,
    sensitivity_profile,
)
