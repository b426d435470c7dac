"""splitlq: structure-preserving integrators for LQ control and differential games.

Backward-then-forward pipeline for finite-horizon linear-quadratic
N-player games, with optimal control as the one-player case: the
linearized Riccati flow is integrated backward (matrix exponential or
commutator-free Magnus), then the coupled Riccati/state system is
integrated forward with splitting methods that keep the gain symmetric
and, for the order-two schemes, positive semidefinite.
"""

from .bench import (PollutionConfig, SweepResult, TimeFunction,
                    build_pollution, emit_csv, preset, run_sweep)
from .errors import (ConfigError, DimensionError, InputError, MisuseError,
                     SingularityError)
from .games import (GameFlow, GameProblem, backward_game, game_block_matrix,
                    solve_game, solve_zero_sum, zero_sum_rhs)
from .magnus import LinearFlowProblem, cf4_step
from .matfun import expm, min_eigenvalue_sym, pade2, symmetry_defect
from .problem import (LQProblem, TimeMatrix, closed_loop_matrix,
                      hamiltonian_matrix, s_matrix)
from .riccati import (RiccatiFlow, backward_autonomous, backward_nonautonomous,
                      control, gain, gain_defect)
from .splitting import (COMPOSE4_ALPHAS, ExtendedState, SplittingScheme,
                        Trajectory, builtin_schemes, compose, get_scheme,
                        integrate_forward, s2_step, step_autonomous,
                        step_near_integrable, step_nonautonomous)

__all__ = [
    "COMPOSE4_ALPHAS", "ConfigError", "DimensionError", "ExtendedState",
    "GameFlow", "GameProblem", "InputError", "LQProblem",
    "LinearFlowProblem", "MisuseError", "PollutionConfig", "RiccatiFlow",
    "SingularityError", "SplittingScheme", "SweepResult", "TimeFunction",
    "TimeMatrix", "Trajectory", "backward_autonomous", "backward_game",
    "backward_nonautonomous", "build_pollution", "builtin_schemes",
    "cf4_step", "closed_loop_matrix", "compose", "control", "emit_csv",
    "expm", "gain", "gain_defect", "game_block_matrix", "get_scheme",
    "hamiltonian_matrix", "integrate_forward", "min_eigenvalue_sym",
    "pade2", "preset", "run_sweep", "s2_step", "s_matrix", "solve_game",
    "solve_zero_sum", "step_autonomous", "step_near_integrable",
    "step_nonautonomous", "symmetry_defect", "zero_sum_rhs",
]

__version__ = "0.1.0"
