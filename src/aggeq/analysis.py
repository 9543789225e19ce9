"""Equilibrium verification and theoretical bounds.

Provides the epsilon-equilibrium measure (largest unilateral cost
improvement over the coupled feasible set), KKT residuals, a certified
lower bound on the variational-inequality gap and a sampled estimate of
it, constants estimation, the Nash/Wardrop distance and epsilon bounds,
and the spectral inequality underpinning the population-size monotonicity
estimates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, InfeasibleSetError
from .game import (AggregativeGame, FeasibilityReport, aggregate_matrix,
                   feasibility_report)
from .operators import (NASH, build_operator, coupling_constants,
                        default_sampler, monotonicity_analysis)
from .projection import (dykstra, project_halfspace, project_individual,
                         projected_gradient)

ACTIVE_TOL = 1e-6
# Stop test and pass cap of epsilon_nash's projected-gradient deviation.
DEVIATION_TOL = 1e-8
DEVIATION_MAX_ITER = 200_000


@dataclass(frozen=True)
class ConstantsEstimate:
    """Problem constants feeding the theoretical bounds.

    R bounds the norm of every individual strategy; L_p is the Lipschitz
    constant of the price/aggregate coupling; alpha is the
    strong-monotonicity constant of the Nash mapping.
    """

    R: float
    L_p: float
    alpha: float

    @property
    def L2(self) -> float:
        """R * L_p, the bound on the aggregate-gradient term."""
        return self.R * self.L_p


@dataclass
class VerificationReport:
    kkt_stationarity: float
    complementarity_gap: float
    vi_gap_bound: float
    feasibility: FeasibilityReport
    epsilon_nash: float
    bounds: dict

    def as_row(self) -> dict:
        row = {
            "kkt_stationarity": self.kkt_stationarity,
            "complementarity_gap": self.complementarity_gap,
            "vi_gap_bound": self.vi_gap_bound,
            **self.feasibility.as_row(),
            "epsilon_nash": self.epsilon_nash,
        }
        for key, val in sorted(self.bounds.items()):
            row[f"bound_{key}"] = val
        return row


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


def estimate_constants(game: AggregativeGame,
                       alpha: Optional[float] = None) -> ConstantsEstimate:
    """R and L_p of ``coupling_constants``, alpha of the Nash map."""
    R, L_p = coupling_constants(game)
    if alpha is None:
        alpha = monotonicity_analysis(build_operator(game, NASH)).safe_alpha()
    return ConstantsEstimate(R=R, L_p=L_p, alpha=float(alpha))


def wardrop_epsilon_bound(constants: ConstantsEstimate, M: int) -> float:
    """A Wardrop equilibrium is an epsilon-Nash equilibrium with epsilon
    bounded by 2 R L2 / M."""
    return 2.0 * constants.R * constants.L2 / M


def distance_bounds(constants: ConstantsEstimate, M: int) -> dict:
    """Bounds on the Nash/Wardrop strategy and aggregate distances."""
    alpha = constants.alpha
    if alpha <= 0:
        raise DimensionError("distance bounds need alpha > 0")
    return {
        "strategy_bound": constants.L2 / (alpha * np.sqrt(M)),
        "sigma_bound": float(np.sqrt(
            2.0 * constants.R * constants.L2 / (alpha * M))),
    }


def equilibrium_bounds(game: AggregativeGame,
                       constants: ConstantsEstimate) -> dict:
    """Every bound the paper gives for the game: the generic epsilon bound,
    the distance bounds when alpha > 0, and the game's
    ``application_bounds``."""
    bounds = {"eps_generic": wardrop_epsilon_bound(constants, game.M)}
    if constants.alpha > 0:
        bounds.update(distance_bounds(constants, game.M))
    if game.application_bounds is not None:
        bounds.update(game.application_bounds(constants))
    return bounds


# ---------------------------------------------------------------------------
# Epsilon-Nash: best unilateral deviation with the deviator inside sigma
# ---------------------------------------------------------------------------


def _deviation_projector(game: AggregativeGame, X_bar: np.ndarray,
                         S: np.ndarray):
    """Projector onto each agent's deviation set: own constraints plus the
    coupling restricted to the agent at the others' fixed strategies, whose
    sums are the rows of S."""
    coupling = game.coupling
    if coupling.A is None:
        proj = game.projector.capped(game.M * coupling.b[None, :] - S)
        if proj is not None:
            return proj
    A = coupling.matrix()
    slack = coupling.b - A @ X_bar.reshape(-1)
    M, n = game.M, game.n
    # On a row that x_bar exceeds (within the feasibility tolerance), the
    # offset slack + a_i^T x_bar_i can fall below min over X_i of a_i^T v,
    # and agent i's deviation set would be empty: clip it at that minimum.
    floor = np.full((M, len(A)), -np.inf)
    for j in np.flatnonzero(slack < 0.0):
        blocks = A[j].reshape(M, n)
        V = game.projector.minimize_linear(blocks)
        floor[:, j] = np.einsum("ij,ij->i", blocks, V)
    projectors = []
    for i in range(M):
        Ai = A[:, i * n:(i + 1) * n]
        projs = [lambda v, i=i: project_individual(game.individual, i, v)]
        for a_row, beta in zip(Ai, np.maximum(slack + Ai @ X_bar[i],
                                              floor[i])):
            if np.any(a_row):  # else agent i cannot move the row
                projs.append(lambda v, a=a_row, bb=beta:
                             project_halfspace(v, a, bb))
        projectors.append(projs)

    def proj(Y):
        out = np.empty_like(Y)
        for i, projs in enumerate(projectors):
            out[i] = dykstra(Y[i], projs)
        return out

    return proj


def epsilon_nash(game: AggregativeGame, x_bar) -> float:
    """Largest cost improvement any single agent can achieve by deviating
    within the coupled feasible set, with the deviation entering the
    population average.  Nonnegative; zero at a Nash equilibrium.  The
    deviation gradients are the Nash mapping's rows at the per-agent
    averages (X + S) / M, S[i] the sum of the other agents' strategies."""
    X_bar = game.profile(x_bar).as_matrix()
    M, cost = game.M, game.cost
    S = M * aggregate_matrix(X_bar)[None, :] - X_bar
    nash = build_operator(game, NASH)
    proj = _deviation_projector(game, X_bar, S)
    L = max(cost.deviation_lipschitz(M, game.bounding_box()[1]), 1e-12)
    X = projected_gradient(lambda X: nash.evaluate_blocks(X, (X + S) / M),
                           proj, proj(X_bar.copy()), 1.0 / L, DEVIATION_TOL,
                           DEVIATION_MAX_ITER, "deviation subproblem")
    base = cost.value_all(X_bar, (X_bar + S) / M)
    best = cost.value_all(X, (X + S) / M)
    return float(max(0.0, np.max(base - best)))


# ---------------------------------------------------------------------------
# KKT residuals
# ---------------------------------------------------------------------------


def kkt_residual(game: AggregativeGame, flavor: str, x_bar,
                 lambda_bar) -> dict:
    """First-order optimality residuals of a candidate primal-dual pair.

    With G the mapping plus the coupling term at x_bar and Gamma the rows
    of the individual constraints active within ACTIVE_TOL, an agent's
    stationarity residual is that of the sign-constrained fit
    min |G + Gamma^T mu| (inequality entries of mu >= 0).  By Moreau's
    decomposition along the tangent cone T at x, whose polar cone the
    active rows generate, that residual is -P_T(-G): one projection per
    profile, ``ProfileProjector.tangent_residual``, for either set family.

    Reports the worst stationarity residual and the worst complementarity
    product of the coupling multipliers with lam > 0.
    """
    X = game.profile(x_bar).as_matrix()
    lam = np.asarray(lambda_bar, dtype=float)
    op = build_operator(game, flavor)
    G = op.evaluate_blocks(X) + game.coupling.adjoint_blocks(lam)
    R = game.projector.tangent_residual(X, G, ACTIVE_TOL)
    # Only rows with lam > 0: a row without a bound (b = +inf) has slack
    # +inf, and 0 * inf would read nan.
    held = lam > 0.0
    complementarity = float(np.max(
        np.abs(lam[held] * game.coupling.residual(X)[held]), initial=0.0))
    return {
        "stationarity": float(np.max(np.abs(R), initial=0.0)),
        "complementarity": complementarity,
    }


# ---------------------------------------------------------------------------
# Dual uniqueness for per-component caps with box-budget agents
# ---------------------------------------------------------------------------


def ev_dual_uniqueness(x_bar, ev_params) -> dict:
    """Uniqueness certificate for the coupling multipliers of a charging
    equilibrium: some agent strictly interior at every tight slot and at
    one slack slot pins the multipliers down.  Tight and interior are read
    within ACTIVE_TOL.

    ``ev_params`` needs attributes xtilde (M, n) and K (n,).
    """
    X = np.asarray(x_bar, dtype=float)
    if X.ndim == 1:
        X = X.reshape(ev_params.xtilde.shape)
    sigma = aggregate_matrix(X)
    K = np.asarray(ev_params.K, dtype=float)
    tight = sigma >= K - ACTIVE_TOL
    if not np.any(tight):
        return {"unique": True, "witness_agent": None,
                "tight_slots": np.zeros(0, dtype=int)}
    interior = (X > ACTIVE_TOL) & (X < ev_params.xtilde - ACTIVE_TOL)
    ok_tight = np.all(interior[:, tight], axis=1)
    ok_slack = (np.any(interior[:, ~tight], axis=1)
                if np.any(~tight) else np.zeros(X.shape[0], dtype=bool))
    witnesses = np.nonzero(ok_tight & ok_slack)[0]
    if witnesses.size:
        return {"unique": True, "witness_agent": int(witnesses[0]),
                "tight_slots": np.nonzero(tight)[0]}
    return {"unique": False, "witness_agent": None,
            "tight_slots": np.nonzero(tight)[0]}


# ---------------------------------------------------------------------------
# Spectral inequality for symmetrized rank-one aggregation terms
# ---------------------------------------------------------------------------


def _outer_sum_min_eig(y: np.ndarray) -> float:
    """Smallest eigenvalue of y 1^T + 1 y^T for y >= 0, in closed form."""
    M = y.size
    if M == 1:
        return float(2.0 * y[0])
    s = float(np.sum(y))
    return s - float(np.sqrt(M * float(y @ y)))


def outer_sum_eigenvalue_check(M: int, n_random: int = 10_000,
                               seed: int = 0) -> dict:
    """Verify that the symmetrized outer-product term y 1^T + 1 y^T stays
    above -M/4 in its smallest eigenvalue for y in the unit box.

    Vertex enumeration is exact for M <= 12; random sampling covers the
    interior.  Equality holds at binary y with M/4 unit entries.
    """
    if M < 1:
        raise DimensionError("M must be at least 1")
    rng = np.random.default_rng(seed)
    min_found = np.inf
    if M <= 12:
        for bits in itertools.product((0.0, 1.0), repeat=M):
            min_found = min(min_found, _outer_sum_min_eig(np.array(bits)))
    for _ in range(n_random):
        min_found = min(min_found, _outer_sum_min_eig(rng.uniform(size=M)))
    bound = -M / 4.0
    return {"min_found": float(min_found), "bound": bound,
            "pass": bool(min_found >= bound - 1e-9)}


# ---------------------------------------------------------------------------
# Sampled variational-inequality gap
# ---------------------------------------------------------------------------


def vi_gap_sampled(game: AggregativeGame, flavor: str, x_bar,
                   n_samples: int = 1000, seed: int = 0) -> float:
    """min over sampled feasible x of F(x_bar)^T (x - x_bar).

    Nonnegative (within tolerance) at a solution.  Samples are drawn from
    the individual sets; draws violating the coupling are pulled toward
    x_bar along the segment, which stays in the individual sets by
    convexity.  x_bar must be feasible within 1e-6.  The pull-back reads
    x_bar's slack b - A x_bar clipped at 0, so on a row that x_bar exceeds
    within that tolerance the step is 0 (the sample becomes x_bar), never
    negative.
    """
    X_bar = game.profile(x_bar).as_matrix()
    rep = feasibility_report(game, X_bar)
    if not rep.feasible:
        raise InfeasibleSetError("x_bar is not feasible within 1e-06")
    F = build_operator(game, flavor).evaluate_blocks(X_bar).reshape(-1)
    sampler = default_sampler(game)
    rng = np.random.default_rng(seed)
    base = np.maximum(rep.coupling_residual, 0.0)  # b - A x_bar
    gap = np.inf
    for _ in range(n_samples):
        X = sampler(rng)
        resid = game.coupling.residual(X)
        if np.min(resid, initial=0.0) < 0.0:
            d_resid = base - resid  # A d
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(d_resid > 1e-15, base / d_resid, np.inf)
            theta = min(1.0, np.min(ratios, initial=1.0))
            X[:] = X_bar + theta * (X - X_bar)  # the sample, pulled back
        gap = min(gap, float(F @ (X - X_bar).reshape(-1)))
    return float(gap)


# ---------------------------------------------------------------------------
# Certified variational-inequality gap
# ---------------------------------------------------------------------------


def vi_gap_bound(game: AggregativeGame, flavor: str, x_bar,
                 lambda_bar) -> float:
    """Lower bound on the VI gap min over feasible y of F(x_bar)^T
    (y - x_bar), from one linear minimization over the individual sets.

    For lam >= 0 and y in the coupled set, lam^T (A y - b) <= 0, so the gap
    is at least the minimum over the product of the individual sets of
    F(x_bar)^T (y - x_bar) + lam^T (A y - b), attained at Y =
    ``minimize_linear(F(x_bar) + A^T lam)``.  That minimum is the bound
    returned; it is 0 at a KKT pair, by LP duality (the gap functions of
    Facchinei & Pang 2003, section 1.5), and negative for every lam at a
    feasible x_bar that does not solve the VI, whose gap is negative.
    Negative entries of lambda_bar count as 0, and only rows with
    lam > 0 enter the sum, so a row without a bound (b = +inf) adds
    nothing.  Raises InfeasibleSetError on unbounded box sets, and on a
    flow family where some cost F + A^T lam is negative.
    """
    X = game.profile(x_bar).as_matrix()
    lam = np.maximum(np.asarray(lambda_bar, dtype=float), 0.0)
    coupling = game.coupling
    F = build_operator(game, flavor).evaluate_blocks(X)
    Y = game.projector.minimize_linear(F + coupling.adjoint_blocks(lam))
    held = lam > 0.0
    return float(F.reshape(-1) @ (Y - X).reshape(-1)
                 - lam[held] @ coupling.residual(Y)[held])


# ---------------------------------------------------------------------------
# One-call verification
# ---------------------------------------------------------------------------


def verify_equilibrium(game: AggregativeGame, flavor: str, x_bar, lambda_bar,
                       constants: Optional[ConstantsEstimate] = None,
                       compute_epsilon: bool = True,
                       feas_tol: float = 1e-6) -> VerificationReport:
    X = game.profile(x_bar).as_matrix()
    lam = np.asarray(lambda_bar, dtype=float)
    # Feasibility first: an infeasible x_bar is rejected before the KKT fit
    # is spent on it.
    feas = feasibility_report(game, X, tol=feas_tol)
    if not feas.feasible:
        raise InfeasibleSetError(f"x_bar is not feasible within {feas_tol}")
    kkt = kkt_residual(game, flavor, X, lam)
    gap = vi_gap_bound(game, flavor, X, lam)
    eps = epsilon_nash(game, X) if compute_epsilon else float("nan")
    if constants is None:
        constants = estimate_constants(game)
    return VerificationReport(
        kkt_stationarity=kkt["stationarity"],
        complementarity_gap=kkt["complementarity"],
        vi_gap_bound=gap,
        feasibility=feas,
        epsilon_nash=eps,
        bounds=equilibrium_bounds(game, constants),
    )
