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
from scipy.optimize import lsq_linear

from .errors import ConvergenceError, DimensionError, InfeasibleSetError
from .game import (AggregativeGame, Box, BoxBudget, DiagonalPrice,
                   FeasibilityReport, FlowPolytope, HalfspaceIntersection,
                   PriceTimesUsage, QuadraticCost, QuadraticTracking,
                   ZeroUtility, aggregate_matrix, feasibility_report)
from .operators import (NASH, build_operator, default_sampler,
                        monotonicity_analysis)
from .projection import project_box_budget_batch, project_individual

ACTIVE_TOL = 1e-6


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
            "feasible": int(self.feasibility.feasible),
            "max_individual_violation": float(
                np.max(self.feasibility.individual_violations, initial=0.0)),
            "max_coupling_violation": float(
                np.max(-self.feasibility.coupling_residual, initial=0.0)),
            "epsilon_nash": self.epsilon_nash,
        }
        for key, val in sorted(self.bounds.items()):
            row[f"bound_{key}"] = val
        return row


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


def _price_lipschitz(game: AggregativeGame) -> tuple:
    """(L_p, source) for the aggregate-coupling map of the cost."""
    cost = game.cost
    if isinstance(cost, QuadraticCost):
        return float(np.linalg.norm(cost.C, 2)), "exact"
    if isinstance(cost, PriceTimesUsage):
        price = cost.price
        if isinstance(price, DiagonalPrice):
            lo, hi = game.bounding_box()
            zmax = float(np.max(hi))
            grid = np.arange(0.0, zmax + 1e-4, 1e-4)
            best = 0.0
            for z in np.array_split(grid, max(1, grid.size // 4096)):
                Z = np.broadcast_to(z[:, None], (z.size, game.n))
                best = max(best, float(np.max(np.abs(price.diag(Z)))))
            return best, "formula"
        J = price.jac(np.zeros(game.n))
        return float(np.linalg.norm(J, 2)), "exact"
    raise DimensionError("cannot bound the aggregate coupling of this cost")


def coupling_constants(game: AggregativeGame) -> tuple:
    """(R, L_p, source): R from the tightest common box, L_p and its source
    from the price/aggregate coupling.  No monotonicity sampling."""
    lo, hi = game.bounding_box()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InfeasibleSetError("unbounded individual sets")
    R = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
    return (R, *_price_lipschitz(game))


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


def _composed_value_grad(game, X, S):
    """Value and gradient rows of the true deviation objective.

    Row i evaluates agent i's cost at strategy X[i] with the average
    (X[i] + S[i]) / M, so the deviation moves the aggregate too.  S[i] is
    the sum of the other agents' fixed strategies.
    """
    M = game.M
    Z = (X + S) / M
    cost = game.cost
    if isinstance(cost, QuadraticCost):
        lin = Z @ cost.C.T + cost.c
        vals = 0.5 * np.einsum("ij,jk,ik->i", X, cost.Q, X) \
            + np.einsum("ij,ij->i", lin, X)
        grads = X @ cost.Q.T + lin + (X @ cost.C) / M
        return vals, grads
    if isinstance(cost, PriceTimesUsage) and isinstance(cost.price,
                                                        DiagonalPrice):
        p = cost.price.value(Z)
        dp = cost.price.diag(Z)
        if isinstance(cost.utility, ZeroUtility):
            uv = np.zeros(X.shape[0])
            ug = np.zeros_like(X)
        elif isinstance(cost.utility, QuadraticTracking):
            d = X - cost.utility.ref
            uv = 0.5 * cost.utility.gamma * np.einsum("ij,ij->i", d, d)
            ug = cost.utility.gamma[:, None] * d
        else:
            uv = np.array([cost.utility.value(i, X[i])
                           for i in range(X.shape[0])])
            ug = cost.utility.grad_all(X)
        vals = uv + np.einsum("ij,ij->i", p, X)
        grads = ug + p + (dp * X) / M
        return vals, grads
    vals = np.empty(X.shape[0])
    grads = np.empty_like(X)
    for i in range(X.shape[0]):
        z = (X[i] + S[i]) / M
        vals[i] = cost.value(i, X[i], z)
        grads[i] = cost.grad_own(i, X[i], z) \
            + cost.grad_agg(i, X[i], z) / M
    return vals, grads


def _composed_gradient_lipschitz(game: AggregativeGame) -> float:
    cost = game.cost
    M = game.M
    if isinstance(cost, QuadraticCost):
        H = cost.Q + (cost.C + cost.C.T) / M
        return float(np.linalg.norm(H, 2))
    if isinstance(cost, PriceTimesUsage) and isinstance(cost.price,
                                                        DiagonalPrice):
        lo, hi = game.bounding_box()
        zg = np.linspace(0.0, float(np.max(hi)), 2049)
        Z = np.broadcast_to(zg[:, None], (zg.size, game.n))
        dmax = float(np.max(np.abs(cost.price.diag(Z))))
        ddmax = float(np.max(np.abs(cost.price.diag2(Z))))
        gmax = cost.utility.curvature()[1]
        xmax = float(np.max(np.abs(hi)))
        return gmax + 2.0 * dmax / M + ddmax * xmax / M**2
    raise DimensionError("no curvature bound for this cost model")


def _deviation_projector(game: AggregativeGame, X_bar: np.ndarray):
    """Projector onto each agent's deviation set: own constraints plus the
    coupling restricted to the agent at the others' fixed strategies."""
    coupling = game.coupling
    if coupling.cap is not None:
        S = game.M * aggregate_matrix(X_bar)[None, :] - X_bar
        cap_hi = game.M * coupling.cap[None, :] - S
        if all(isinstance(cs, (Box, BoxBudget)) for cs in game.individual):
            lo = np.stack([cs.lo for cs in game.individual])
            hi = np.minimum(np.stack([cs.hi for cs in game.individual]),
                            cap_hi)
            hi = np.maximum(hi, lo)  # clip roundoff at tight caps
            if all(isinstance(cs, BoxBudget) for cs in game.individual):
                theta = np.array([cs.theta for cs in game.individual])
                return lambda Y: project_box_budget_batch(Y, lo, hi, theta)
            return lambda Y: np.clip(Y, lo, hi)
    A = coupling.matrix()
    b = coupling.b
    x_flat = X_bar.reshape(-1)

    def proj(Y):
        out = np.empty_like(Y)
        for i in range(game.M):
            Ai = A[:, i * game.n:(i + 1) * game.n]
            rest = b - A @ x_flat + Ai @ X_bar[i]
            spec = HalfspaceIntersection(Ai, rest)
            from .projection import dykstra, project_halfspace
            projs = [lambda v, cs=game.individual[i]:
                     project_individual(cs, v)]
            for a_row, beta in zip(spec.normals, spec.offsets):
                projs.append(lambda v, a=a_row, bb=beta:
                             project_halfspace(v, a, bb))
            out[i] = dykstra(Y[i], projs)
        return out

    return proj


def epsilon_nash(game: AggregativeGame, x_bar, inner_tol: float = 1e-8,
                 max_iter: int = 200_000) -> float:
    """Largest cost improvement any single agent can achieve by deviating
    within the coupled feasible set, with the deviation entering the
    population average.  Nonnegative; zero at a Nash equilibrium."""
    X_bar = game.profile(x_bar).as_matrix()
    S = game.M * aggregate_matrix(X_bar)[None, :] - X_bar
    proj = _deviation_projector(game, X_bar)
    L = max(_composed_gradient_lipschitz(game), 1e-12)
    step = 1.0 / L
    X = proj(X_bar.copy())
    for _ in range(max_iter):
        _, G = _composed_value_grad(game, X, S)
        X_new = proj(X - step * G)
        if float(np.max(np.abs(X_new - X), initial=0.0)) <= inner_tol:
            X = X_new
            break
        X = X_new
    else:
        raise ConvergenceError("deviation subproblem did not converge",
                               last=X)
    base, _ = _composed_value_grad(game, X_bar, S)
    best, _ = _composed_value_grad(game, X, S)
    return float(max(0.0, np.max(base - best)))


# ---------------------------------------------------------------------------
# KKT residuals
# ---------------------------------------------------------------------------


def _active_rows(cs, x, tol):
    """(inequality gradients, equality gradients) of active constraints."""
    n = x.size
    ineq = []
    eq = []
    if isinstance(cs, (Box, BoxBudget)):
        lo, hi = cs.lo, cs.hi
        for t in range(n):
            if x[t] <= lo[t] + tol:
                row = np.zeros(n)
                row[t] = -1.0
                ineq.append(row)
            if x[t] >= hi[t] - tol:
                row = np.zeros(n)
                row[t] = 1.0
                ineq.append(row)
        if isinstance(cs, BoxBudget) and float(np.sum(x)) <= cs.theta + tol:
            ineq.append(-np.ones(n))
    elif isinstance(cs, FlowPolytope):
        for t in range(n):
            if x[t] <= tol:
                row = np.zeros(n)
                row[t] = -1.0
                ineq.append(row)
            if x[t] >= 1.0 - tol:
                row = np.zeros(n)
                row[t] = 1.0
                ineq.append(row)
        eq.extend(np.asarray(cs.B, dtype=float))
    elif isinstance(cs, HalfspaceIntersection):
        for a, beta in zip(cs.normals, cs.offsets):
            if float(a @ x) >= beta - tol:
                ineq.append(np.asarray(a, dtype=float))
        if cs.box is not None:
            sub_i, _ = _active_rows(cs.box, x, tol)
            ineq.extend(sub_i)
    else:
        raise DimensionError(f"no active-set rules for {type(cs).__name__}")
    return ineq, eq


def kkt_residual(game: AggregativeGame, flavor: str, x_bar, lambda_bar,
                 tol: float = ACTIVE_TOL) -> dict:
    """First-order optimality residuals of a candidate primal-dual pair.

    Identifies active individual constraints, fits their multipliers by
    sign-constrained least squares, and reports the worst stationarity
    residual, the worst complementarity product of the coupling
    multipliers, and the smallest fitted multiplier.  The fit uses BVLS, an
    exact active-set solver: these systems are small and dense, and their
    active sets are often degenerate (flow conservation rows are always
    rank-deficient), where the iterative default can run for minutes.
    """
    X = game.profile(x_bar).as_matrix()
    lam = np.asarray(lambda_bar, dtype=float)
    op = build_operator(game, flavor)
    G = op.evaluate_blocks(X) + game.coupling.adjoint_blocks(lam)
    stationarity = 0.0
    min_mu = np.inf
    degenerate = False
    for i in range(game.M):
        ineq, eq = _active_rows(game.individual[i], X[i], tol)
        rows = ineq + eq
        if not rows:
            stationarity = max(stationarity,
                               float(np.max(np.abs(G[i]), initial=0.0)))
            continue
        Gamma = np.stack(rows)
        if np.linalg.matrix_rank(Gamma) < Gamma.shape[0]:
            degenerate = True
        lb = np.concatenate([np.zeros(len(ineq)),
                             np.full(len(eq), -np.inf)])
        ub = np.full(len(rows), np.inf)
        sol = lsq_linear(Gamma.T, -G[i], bounds=(lb, ub), method="bvls")
        resid = G[i] + Gamma.T @ sol.x
        stationarity = max(stationarity,
                           float(np.max(np.abs(resid), initial=0.0)))
        if len(ineq):
            min_mu = min(min_mu, float(np.min(sol.x[:len(ineq)])))
    slack = game.coupling.residual(X)
    complementarity = float(np.max(np.abs(lam * slack), initial=0.0))
    return {
        "stationarity": stationarity,
        "complementarity": complementarity,
        "dual_feasibility": float(min(np.min(lam, initial=0.0), 0.0)),
        "min_mu": (0.0 if min_mu is np.inf else float(min_mu)),
        "degenerate_active_set": degenerate,
    }


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
                   feas_tol: float = 1e-6) -> float:
    """min over sampled feasible x of F(x_bar)^T (x - x_bar).

    Nonnegative (within tolerance) at a solution.  Samples are drawn from
    the individual sets; draws violating the coupling are pulled toward
    x_bar along the segment, which stays feasible by convexity.
    """
    X_bar = game.profile(x_bar).as_matrix()
    rep = feasibility_report(game, X_bar, tol=feas_tol)
    if not rep.feasible:
        raise InfeasibleSetError(f"x_bar is not feasible within {feas_tol}")
    F = build_operator(game, flavor).evaluate_blocks(X_bar).reshape(-1)
    sampler = default_sampler(game)
    rng = np.random.default_rng(seed)
    gap = np.inf
    accepted = 0
    for _ in range(n_samples):
        X = sampler(rng)
        resid = game.coupling.residual(X)
        if np.min(resid, initial=0.0) < 0.0:
            D = X - X_bar
            d_resid = game.coupling.residual(X_bar) - resid  # A d per row
            base = game.coupling.residual(X_bar)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(d_resid > 1e-15, base / d_resid, np.inf)
            theta = float(min(1.0, np.min(ratios, initial=1.0)))
            X = X_bar + theta * D
        else:
            accepted += 1
        gap = min(gap, float(F @ (X - X_bar).reshape(-1)))
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
                         feas_tol=feas_tol)
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
