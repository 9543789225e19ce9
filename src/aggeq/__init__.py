"""Nash and Wardrop equilibria of aggregative games with coupling
constraints: game model, solvers, verification, and two applications
(fleet charging, route choice)."""

from .algorithms import (EquilibriumResult, SolverConfig,
                         asymmetric_projection, auto_step_size,
                         best_response, extragradient, two_level_wardrop)
from .analysis import (ConstantsEstimate, VerificationReport,
                       distance_bounds, epsilon_nash, estimate_constants,
                       ev_dual_uniqueness, kkt_residual,
                       outer_sum_eigenvalue_check, verify_equilibrium,
                       vi_gap_bound, vi_gap_sampled, wardrop_epsilon_bound)
from .errors import (AggeqError, ConfigError, ConvergenceError,
                     DimensionError, InfeasibleSetError)
from .game import (AggregativeGame, BoxFamily, CouplingConstraint,
                   DiagonalPrice, FlowFamily, PriceTimesUsage, QuadraticCost,
                   QuadraticTracking, StrategyProfile, ZeroUtility,
                   cost_value, feasibility_report)
from .operators import (NASH, WARDROP, GameOperator, MonotonicityReport,
                        build_operator, monotonicity_analysis, operator_gap,
                        quadratic_monotonicity_conditions)
from .synthetic import build_quadratic_game

__version__ = "0.1.0"
