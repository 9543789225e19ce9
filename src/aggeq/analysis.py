"""Equilibrium verification and theoretical bounds.

Provides the epsilon-equilibrium measure (largest unilateral cost
improvement over the coupled feasible set), KKT residuals, sampled
variational-inequality gaps, constants estimation, the Nash/Wardrop
distance and epsilon bounds, and the spectral inequality underpinning the
population-size monotonicity estimates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionError, InfeasibleSetError
from .game import (AggregativeGame, FeasibilityReport, aggregate_matrix,
                   feasibility_report)
from .operators import (NASH, SAMPLE_CHUNK_ENTRIES, build_operator,
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
    constant of the price/aggregate coupling; L2 = R * L_p bounds the
    aggregate-gradient term; alpha is the strong-monotonicity constant of
    the Nash mapping.
    """

    R: float
    L2: float
    alpha: float
    source: str  # exact | formula | sampled
    L_p: float = 0.0
    extras: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    kkt_stationarity: float
    complementarity_gap: float
    vi_gap_sampled: float
    feasibility: FeasibilityReport
    epsilon_nash: float
    bounds: dict

    def as_row(self) -> dict:
        row = {
            "kkt_stationarity": self.kkt_stationarity,
            "complementarity_gap": self.complementarity_gap,
            "vi_gap_sampled": self.vi_gap_sampled,
            **self.feasibility.as_row(),
            "epsilon_nash": self.epsilon_nash,
        }
        for key, val in sorted(self.bounds.items()):
            row[f"bound_{key}"] = val
        return row


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


def coupling_constants(game: AggregativeGame) -> tuple:
    """(R, L_p, source): R from the tightest common box, L_p and its source
    from the price/aggregate coupling.  No monotonicity sampling."""
    lo, hi = game.bounding_box()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InfeasibleSetError("unbounded individual sets")
    R = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
    return (R, *game.cost.aggregate_lipschitz(hi))


def estimate_constants(game: AggregativeGame,
                       alpha: Optional[float] = None) -> ConstantsEstimate:
    """R from the tightest common box, L2 = R * L_p, alpha of the Nash map."""
    R, L_p, source = coupling_constants(game)
    if alpha is None:
        rep = monotonicity_analysis(build_operator(game, NASH))
        alpha = rep.safe_alpha()
        if not rep.exact and source == "exact":
            source = "formula"
    extras = dict(game.meta)
    extras["n"] = game.n
    return ConstantsEstimate(R=R, L2=R * L_p, alpha=float(alpha),
                             source=source, L_p=L_p, extras=extras)


def wardrop_epsilon_bound(constants: ConstantsEstimate, M: int,
                          tag: Optional[str] = None) -> dict:
    """A Wardrop equilibrium is an epsilon-Nash equilibrium with epsilon
    bounded by 2 R L2 / M; application tags add their specialized forms."""
    out = {"generic": 2.0 * constants.R * constants.L2 / M}
    ex = constants.extras
    if tag == "ev" and "xtilde0" in ex:
        out["ev"] = 2.0 * ex["n"] * ex["xtilde0"] ** 2 * constants.L_p / M
    if tag == "traffic" and "E" in ex and "f_min" in ex:
        out["traffic"] = ex["E"] / (M * ex["f_min"])
    return out


def distance_bounds(constants: ConstantsEstimate, M: int,
                    tag: Optional[str] = None) -> dict:
    """Bounds on the Nash/Wardrop strategy and aggregate distances."""
    alpha = constants.alpha
    if alpha <= 0:
        raise DimensionError("distance bounds need alpha > 0")
    out = {
        "strategy_bound": constants.L2 / (alpha * np.sqrt(M)),
        "sigma_bound": float(np.sqrt(
            2.0 * constants.R * constants.L2 / (alpha * M))),
    }
    ex = constants.extras
    if tag == "ev" and "xtilde0" in ex:
        out["ev_sigma_bound"] = ex["xtilde0"] * float(np.sqrt(
            2.0 * ex["n"] * constants.L_p / (alpha * M)))
    if tag == "traffic" and all(k in ex for k in ("E", "f_min", "gamma_hat")):
        out["traffic_sigma_bound"] = float(
            np.sqrt(ex["E"])
            / (2.0 * ex["f_min"] * ex["gamma_hat"] * np.sqrt(M)))
    return out


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
    n = game.n
    projectors = []
    for i, cs in enumerate(game.individual):
        Ai = A[:, i * n:(i + 1) * n]
        projs = [lambda v, cs=cs: project_individual(cs, v)]
        for a_row, beta in zip(Ai, slack + Ai @ X_bar[i]):
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
    active rows generate, that residual is -P_T(-G), and the normal part
    -G - P_T(-G) is Gamma^T mu.  Box families take this route: one
    batched projection for all agents
    (``ProfileProjector.tangent_residual``), with the multipliers read off
    the normal part.  Flow sets fit mu per agent by BVLS, an exact
    active-set solver: their systems are small and dense, and their active
    sets are often degenerate (flow conservation rows are always
    rank-deficient), where the iterative default can run for minutes.

    Reports the worst stationarity residual, the worst complementarity
    product of the coupling multipliers with lam > 0, the smallest inequality
    multiplier (0 for an agent whose active rows are dependent: its
    multipliers are not unique and some valid choice has a zero entry)
    and whether any agent's active rows are dependent.
    """
    X = game.profile(x_bar).as_matrix()
    lam = np.asarray(lambda_bar, dtype=float)
    op = build_operator(game, flavor)
    G = op.evaluate_blocks(X) + game.coupling.adjoint_blocks(lam)
    cone = game.projector.tangent_residual(X, G, ACTIVE_TOL)
    if cone is not None:
        stationarity, min_mu, degenerate = _cone_multipliers(G, *cone)
    else:
        stationarity, min_mu, degenerate = _bvls_multipliers(game, X, G)
    # Only rows with lam > 0: a row without a bound (b = +inf) has slack
    # +inf, and 0 * inf would read nan.
    held = lam > 0.0
    complementarity = float(np.max(
        np.abs(lam[held] * game.coupling.residual(X)[held]), initial=0.0))
    return {
        "stationarity": stationarity,
        "complementarity": complementarity,
        "dual_feasibility": float(min(np.min(lam, initial=0.0), 0.0)),
        "min_mu": float(min_mu) if np.isfinite(min_mu) else 0.0,
        "degenerate_active_set": degenerate,
    }


def _cone_multipliers(G, R, at_lo, at_hi, pinned, budget) -> tuple:
    """(stationarity, min_mu, degenerate) from the tangent-cone residual R.

    The normal part N = R - G equals -mu_lo + mu_hi - mu_budget per
    component.  A pinned component (lo == hi) is one equality row, whose
    multiplier has no sign.  A component at both bounds that is not
    pinned, or an active budget with no free component, makes the rows
    dependent; otherwise mu_budget is -N on the free components (their
    mean) and each one-sided bound's multiplier follows from its component.
    """
    free = ~(at_lo | at_hi)
    n_free = free.sum(axis=1)
    degenerate = (np.any(at_lo & at_hi & ~pinned, axis=1)
                  | (budget & (n_free == 0)))
    N = R - G
    mu_budget = np.where(budget, -np.where(free, N, 0.0).sum(axis=1)
                         / np.maximum(n_free, 1), 0.0)
    mu_box = np.where(at_lo, -1.0, 1.0) * (N + mu_budget[:, None])
    ok = ~degenerate
    min_mu = min(np.min(mu_box[(at_lo ^ at_hi) & ok[:, None]],
                        initial=np.inf),
                 np.min(mu_budget[budget & ok], initial=np.inf),
                 0.0 if np.any(degenerate) else np.inf)
    return (float(np.max(np.abs(R), initial=0.0)), min_mu,
            bool(np.any(degenerate)))


def _bvls_multipliers(game: AggregativeGame, X, G) -> tuple:
    """(stationarity, min_mu, degenerate) from a per-agent BVLS fit."""
    from scipy.optimize import lsq_linear

    stationarity = 0.0
    min_mu = np.inf
    degenerate = False
    for i, cs in enumerate(game.individual):
        ineq, eq = cs.active_rows(X[i], ACTIVE_TOL)
        Gamma = np.vstack([ineq, eq])
        if not len(Gamma):
            stationarity = max(stationarity,
                               float(np.max(np.abs(G[i]), initial=0.0)))
            continue
        if np.linalg.matrix_rank(Gamma) < Gamma.shape[0]:
            degenerate = True
        lb = np.concatenate([np.zeros(len(ineq)),
                             np.full(len(eq), -np.inf)])
        ub = np.full(len(Gamma), np.inf)
        sol = lsq_linear(Gamma.T, -G[i], bounds=(lb, ub), method="bvls")
        resid = G[i] + Gamma.T @ sol.x
        stationarity = max(stationarity,
                           float(np.max(np.abs(resid), initial=0.0)))
        if len(ineq):
            min_mu = min(min_mu, float(np.min(sol.x[:len(ineq)])))
    return stationarity, min_mu, degenerate


# ---------------------------------------------------------------------------
# Dual uniqueness for per-component caps with box-budget agents
# ---------------------------------------------------------------------------


def ev_dual_uniqueness(x_bar, ev_params, lambda_bar,
                       tol: float = ACTIVE_TOL) -> dict:
    """Uniqueness certificate for the coupling multipliers of a charging
    equilibrium: some agent strictly interior at every tight slot and at
    one slack slot pins the multipliers down.

    ``ev_params`` needs attributes xtilde (M, n) and K (n,).
    """
    X = np.asarray(x_bar, dtype=float)
    if X.ndim == 1:
        X = X.reshape(ev_params.xtilde.shape)
    sigma = aggregate_matrix(X)
    K = np.asarray(ev_params.K, dtype=float)
    tight = sigma >= K - tol
    if not np.any(tight):
        return {"unique": True, "witness_agent": None,
                "tight_slots": np.zeros(0, dtype=int)}
    interior = (X > tol) & (X < ev_params.xtilde - tol)
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
                               include_vertices: bool = True,
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
    if include_vertices and M <= 12:
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
                   n_samples: int = 1000, seed: int = 0,
                   feas_tol: float = 1e-6,
                   feasibility: Optional[FeasibilityReport] = None) -> float:
    """min over sampled feasible x of F(x_bar)^T (x - x_bar).

    Nonnegative (within tolerance) at a solution.  Samples are drawn from
    the individual sets; draws violating the coupling are pulled toward
    x_bar along the segment, which stays feasible by convexity.  The
    samples are drawn, projected and pulled back in chunks of about
    SAMPLE_CHUNK_ENTRIES entries, with the bytes of one sample at a time.
    ``feasibility`` is x_bar's ``feasibility_report`` at feas_tol when the
    caller has it; otherwise it is computed here.
    """
    X_bar = game.profile(x_bar).as_matrix()
    rep = (feasibility if feasibility is not None
           else feasibility_report(game, X_bar, tol=feas_tol))
    if not rep.feasible:
        raise InfeasibleSetError(f"x_bar is not feasible within {feas_tol}")
    F = build_operator(game, flavor).evaluate_blocks(X_bar).reshape(-1)
    sampler = default_sampler(game)
    rng = np.random.default_rng(seed)
    base = rep.coupling_residual  # b - A x_bar
    chunk = max(1, SAMPLE_CHUNK_ENTRIES // X_bar.size)
    gap = np.inf
    for start in range(0, n_samples, chunk):
        X = sampler(rng, min(chunk, n_samples - start))
        resid = game.coupling.residual(X)
        pull = np.min(resid, axis=1, initial=0.0) < 0.0
        if np.any(pull):
            d_resid = base - resid[pull]  # A d per row
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(d_resid > 1e-15, base / d_resid, np.inf)
            theta = np.minimum(1.0, np.min(ratios, axis=1, initial=1.0))
            X[pull] = X_bar + theta[:, None, None] * (X[pull] - X_bar)
        for d in (X - X_bar).reshape(len(X), -1):
            gap = min(gap, float(F @ d))
    return float(gap)


# ---------------------------------------------------------------------------
# One-call verification
# ---------------------------------------------------------------------------


def verify_equilibrium(game: AggregativeGame, flavor: str, x_bar, lambda_bar,
                       constants: Optional[ConstantsEstimate] = None,
                       n_samples: int = 200, seed: int = 0,
                       compute_epsilon: bool = True,
                       feas_tol: float = 1e-6) -> VerificationReport:
    X = game.profile(x_bar).as_matrix()
    lam = np.asarray(lambda_bar, dtype=float)
    # Feasibility first: the sampled VI gap rejects an infeasible x_bar, and
    # the KKT fit would be spent on it for nothing.
    feas = feasibility_report(game, X, tol=feas_tol)
    if not feas.feasible:
        raise InfeasibleSetError(f"x_bar is not feasible within {feas_tol}")
    kkt = kkt_residual(game, flavor, X, lam)
    gap = vi_gap_sampled(game, flavor, X, n_samples=n_samples, seed=seed,
                         feas_tol=feas_tol, feasibility=feas)
    eps = epsilon_nash(game, X) if compute_epsilon else float("nan")
    if constants is None:
        constants = estimate_constants(game)
    bounds = {}
    for key, val in wardrop_epsilon_bound(constants, game.M,
                                          game.tag).items():
        bounds[f"eps_{key}"] = val
    if constants.alpha > 0:
        bounds.update(distance_bounds(constants, game.M, game.tag))
    return VerificationReport(
        kkt_stationarity=kkt["stationarity"],
        complementarity_gap=kkt["complementarity"],
        vi_gap_sampled=gap,
        feasibility=feas,
        epsilon_nash=eps,
        bounds=bounds,
    )
