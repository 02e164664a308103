"""Cross-layer utility maximization for multihop flows with batched coding."""

from . import ffmat, loss, netmodel, rankcalc, recoding, scenarios, sim, solvers
from .scenarios import load_scenario
from .solvers import (Scenario, Solution, SolverConfig, solve_fixed_policy,
                      solve_nap, solve_up, two_step_solve, utility_ratio)

__version__ = "0.1.0"

__all__ = [
    "ffmat", "loss", "netmodel", "rankcalc", "recoding", "scenarios", "sim",
    "solvers", "load_scenario", "Scenario", "Solution", "SolverConfig",
    "solve_nap", "solve_up", "two_step_solve", "solve_fixed_policy",
    "utility_ratio",
]
