"""Exact Euclidean projections onto the constraint geometries used by the
solvers: boxes with an optional budget, flow polytopes, halfspaces, and
intersections handled by Dykstra's alternating scheme.  Also the exact
linear minimizer over box-plus-budget sets, ``ProfileProjector``, which
projects a whole profile onto a game's set family, and ``projected_gradient``,
the one projected-gradient loop (the two-level scheme's optimal responses and
the epsilon-Nash deviation run it).

All functions are pure.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConvergenceError
from .game import (Box, BoxFamily, FlowPolytope, SetFamily, check_box_budget,
                   sum_rounding_bound)

DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ITER = 10_000


def project_box_budget(y, lo, hi, theta) -> np.ndarray:
    """Projection onto {x in [lo, hi] : sum(x) >= theta}, the clamp when
    theta = -inf: a one-row call of project_box_budget_batch."""
    y = np.asarray(y, dtype=float)
    return project_box_budget_batch(y[None, :], lo, hi,
                                    np.reshape(theta, 1))[0]


def project_box_budget_batch(Y, lo, hi, theta) -> np.ndarray:
    """Projection of every row of Y onto {x in [lo, hi] : sum(x) >= theta}.

    lo, hi broadcast to the (M, n) shape of Y; theta is (M,).  A row whose
    clip misses its budget is clip(y + mu, lo, hi) with mu > 0 the budget
    multiplier.  s(mu) = sum(clip(y + mu, lo, hi)) is piecewise linear with
    breakpoints lo - y (slope +1) and hi - y (slope -1): sorting them and
    accumulating slope times gap gives s at every breakpoint, and mu is
    refitted in closed form on the free set of the segment where s reaches
    theta (the continuous quadratic knapsack breakpoint search, Helgason,
    Kennington & Lall 1980).  One correction step on that free set makes
    every such row's floating-point sum at least theta.  Raises
    InfeasibleSetError when some row has lo > hi or theta above sum(hi) by
    more than that sum's rounding bound; a clip within its sum's rounding
    bound of theta counts as meeting the budget.
    """
    Y = np.asarray(Y, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), Y.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), Y.shape)
    theta = np.broadcast_to(np.asarray(theta, dtype=float), Y.shape[:1])
    check_box_budget(lo, hi, theta)
    return _box_budget_rows(Y, lo, hi, theta)


def _box_budget_rows(Y, lo, hi, theta=None) -> np.ndarray:
    """The body of project_box_budget_batch, for float Y and bounds of its
    shape that passed check_box_budget; the clamp alone when theta is
    None."""
    X = np.minimum(np.maximum(Y, lo), hi)
    if theta is None:
        return X
    short = theta - X.sum(axis=1)
    need = short > 0.0
    need[need] = short[need] > sum_rounding_bound(X[need])
    if not np.any(need):
        return X
    y, l, h, t = Y[need], lo[need], hi[need], theta[need]
    m, n = y.shape
    rows = np.arange(m)
    bp = np.concatenate([l - y, h - y], axis=1)
    order = np.argsort(bp, axis=1)
    b = bp.ravel()[order + 2 * n * rows[:, None]]
    # free[:, j]: count of components strictly inside the box for mu between
    # b[:, j] and b[:, j + 1]; rise[:, j] = s(b[:, j + 1]) - sum(lo).
    free = np.cumsum(np.where(order < n, 1.0, -1.0), axis=1)
    rise = np.cumsum(free[:, :-1] * np.diff(b, axis=1), axis=1)
    # s reaches theta on the segment [b[:, k], b[:, k + 1]], which has
    # positive length and a free component; k == 2n - 1 only when theta
    # rounds above s(b[:, -1]) = sum(hi): there x = hi, and count >= 1
    # only keeps the discarded refit finite.
    k = np.count_nonzero(rise < (t - l.sum(axis=1))[:, None], axis=1)
    full = k == 2 * n - 1
    k = np.minimum(k, 2 * n - 2)
    left = b[rows, k][:, None]
    at_hi = h - y <= left
    inside = (l - y <= left) & ~at_hi
    count = np.maximum(free[rows, k], 1.0)
    mu = (t - np.where(inside, y, np.where(at_hi, h, l)).sum(axis=1)) / count
    mu[full] = np.inf
    x = np.clip(y + mu[:, None], l, h)
    # Rounding can leave a sum a few ulps short of theta.  The free
    # components take the deficit plus a bound on the rounding of the two
    # n-term sums and of the additions themselves: n * eps * sum(|x|).
    deficit = t - x.sum(axis=1)
    step = (deficit + sum_rounding_bound(x)) / count
    X[need] = np.where(inside & (deficit > 0)[:, None],
                       np.minimum(x + step[:, None], h), x)
    return X


def _greedy_linear_box_budget_batch(Q_costs: np.ndarray, lo, hi,
                                    theta) -> np.ndarray:
    """Exact minimizer of q^T x over {lo <= x <= hi, sum(x) >= theta} for
    every row q of Q_costs.

    Negative-cost components fill to their caps; the rest of each budget is
    met by the cheapest components in ascending cost order, each taking what
    its cheaper ones left, up to its room.
    """
    X = np.where(Q_costs < 0.0, hi, lo)
    need = theta - X.sum(axis=1)
    need = np.where(need > 1e-15, need, 0.0)
    rows = np.arange(len(X))[:, None]
    order = np.argsort(Q_costs, axis=1, kind="stable")
    room = (hi - X)[rows, order]
    before = np.cumsum(room, axis=1) - room
    X[rows, order] += np.clip(need[:, None] - before, 0.0, room)
    return X


def project_flow_polytope(y, B, b_od) -> np.ndarray:
    """Projection onto {x in [0, 1]^E : B x = b_od}.

    Works on the concave dual over the node multipliers mu:
    x(mu) = clip(y - B^T mu, 0, 1) and d(mu) = 0.5 |x(mu) - y|^2
    + mu^T (B x(mu) - b_od).  One L-BFGS-B run maximizes it; an active-set
    polish then restores the conservation equations to machine precision.
    This is orders of magnitude faster than alternating projections when
    y is far from the polytope.
    """
    from scipy.optimize import minimize

    y, B, b_od = (np.asarray(v, dtype=float) for v in (y, B, b_od))

    def neg_dual(mu):
        x = np.clip(y - B.T @ mu, 0.0, 1.0)
        r = B @ x - b_od
        val = 0.5 * float((x - y) @ (x - y)) + float(mu @ r)
        return -val, -r

    res = minimize(neg_dual, np.zeros(B.shape[0]), jac=True,
                   method="L-BFGS-B",
                   options={"maxiter": 2000, "ftol": 1e-18, "gtol": 1e-12})
    u = y - B.T @ res.x
    return _polish_flow(np.clip(u, 0.0, 1.0), u, y, B, b_od)


def _polish_flow(x, u, y, B, b_od, margin=1e-7):
    """Equality-constrained least-squares refit on the inactive components.

    Falls back to the unpolished point when the refit leaves the box, which
    only happens under active-set misidentification at degenerate points.
    """
    free = (u > margin) & (u < 1.0 - margin)
    if not np.any(free):
        if np.max(np.abs(B @ x - b_od), initial=0.0) <= 1e-9:
            return x
        free = np.ones_like(free)
    Bf = B[:, free]
    rhs = Bf @ y[free] - (b_od - B[:, ~free] @ x[~free])
    w, *_ = np.linalg.lstsq(Bf @ Bf.T, rhs, rcond=None)
    xf = y[free] - Bf.T @ w
    if np.all(xf >= -1e-9) and np.all(xf <= 1.0 + 1e-9):
        out = x.copy()
        out[free] = np.clip(xf, 0.0, 1.0)
        if (np.max(np.abs(B @ out - b_od), initial=0.0)
                <= np.max(np.abs(B @ x - b_od), initial=0.0) + 1e-12):
            return out
    return x


def project_halfspace(y, a, beta) -> np.ndarray:
    """Projection onto {x : a^T x <= beta}."""
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    gap = float(a @ y - beta)
    if gap <= 0.0:
        return y.copy()
    return y - (gap / float(a @ a)) * a


def dykstra(y, projectors: Sequence[Callable], tol: float = DYKSTRA_TOL,
            max_iter: int = DYKSTRA_MAX_ITER) -> np.ndarray:
    """Dykstra's alternating projection onto an intersection of convex sets.

    ``projectors`` are exact projections onto the individual sets.  Stops
    when successive sweeps move the iterate by at most ``tol`` in inf-norm.
    """
    x = np.asarray(y, dtype=float).copy()
    corrections = [np.zeros_like(x) for _ in projectors]
    for _ in range(max_iter):
        x_prev = x.copy()
        # Stop only when the corrections settle as well: the iterate alone
        # can stall for many sweeps while the corrections still grow.
        corr_change = 0.0
        for j, proj in enumerate(projectors):
            z = proj(x + corrections[j])
            new_corr = x + corrections[j] - z
            corr_change = max(corr_change, float(
                np.max(np.abs(new_corr - corrections[j]), initial=0.0)))
            corrections[j] = new_corr
            x = z
        gap = max(float(np.max(np.abs(x - x_prev), initial=0.0)),
                  corr_change)
        if gap <= tol:
            return x
    raise ConvergenceError(
        f"dykstra did not converge in {max_iter} sweeps (gap {gap:.3e})",
        last=x, gap=gap)


def projected_gradient(grad: Callable, proj: Callable, X: np.ndarray,
                       step: float, tol: float, max_iter: int,
                       what: str) -> np.ndarray:
    """Iterate X <- proj(X - step * grad(X)) from X until a pass moves X by
    at most tol in inf-norm, and return that pass's point.  Raises
    ConvergenceError, with the last iterate, after max_iter passes; its
    message says that ``what`` did not converge."""
    for _ in range(max_iter):
        X_new = proj(X - step * grad(X))
        if float(np.max(np.abs(X_new - X), initial=0.0)) <= tol:
            return X_new
        X = X_new
    raise ConvergenceError(f"{what} did not converge", last=X)


def project_individual(cs: Union[Box, FlowPolytope], y) -> np.ndarray:
    """Projection onto one agent's set."""
    if isinstance(cs, FlowPolytope):
        return project_flow_polytope(y, cs.B, cs.b_od)
    return project_box_budget(y, cs.lo, cs.hi, cs.theta)


def _tile(arrays: tuple, k: int):
    """Each array stacked k times along its first axis."""
    return arrays if k == 1 else [np.concatenate([a] * k) for a in arrays]


class ProfileProjector:
    """Projection of an (M, n) strategy matrix onto the product of the
    agents' sets, one set family.  A box family takes one batched pass (the
    clamp alone when no budget is finite), a flow family one
    ``project_individual`` call per row.  A (k M, n) stack of k profiles,
    row r belonging to agent r mod M, is projected in the same call, each
    row to the bytes it gets alone."""

    def __init__(self, family: SetFamily):
        self.family = family
        self._M = len(family)
        self._box = isinstance(family, BoxFamily)
        if self._box:
            # The clamp's bounds, plus the budgets when some are finite.
            budgets = bool(np.any(family.theta > -np.inf))
            self._bounds = ((family.lo, family.hi, family.theta) if budgets
                            else (family.lo, family.hi))

    def __call__(self, Y: np.ndarray) -> np.ndarray:
        M = self._M
        reps = len(Y) // M
        if self._box:
            # The family is validated: no checks per call.
            return _box_budget_rows(np.asarray(Y, dtype=float),
                                    *_tile(self._bounds, reps))
        return np.stack([project_individual(self.family[r % M], y)
                         for r, y in enumerate(Y)])

    def tangent_residual(self, X: np.ndarray, G: np.ndarray, tol: float):
        """Every agent's stationarity residual -P_T(-G[i]), T the tangent
        cone of its set at X[i], with the active sets it used; None for a
        flow family.

        The active sets are those of ``active_rows``: at_lo where
        x <= lo + tol, at_hi where x >= hi - tol, and the budget row where
        sum(x) <= theta + tol.  T bounds each active component's sign and,
        under an active budget, the sum from below by 0.  The projection is
        ``project_box_budget_batch`` with the free bounds at
        +-(n + 1)(|G[i]|_inf + 1), which the projection never reaches.
        Returns (R, at_lo, at_hi, pinned, budget) with R and the masks
        (M, n), pinned where lo == hi, and budget (M,).
        """
        if not self._box:
            return None
        lo, hi, theta = self.family.lo, self.family.hi, self.family.theta
        at_lo = X <= lo + tol
        at_hi = X >= hi - tol
        budget = X.sum(axis=1) <= theta + tol
        far = (X.shape[1] + 1) * (np.max(np.abs(G), axis=1,
                                         keepdims=True) + 1.0)
        P = project_box_budget_batch(-G, np.where(at_lo, 0.0, -far),
                                     np.where(at_hi, 0.0, far),
                                     np.where(budget, 0.0, -np.inf))
        return -P, at_lo, at_hi, lo == hi, budget

    def minimize_linear(self, Q_costs: np.ndarray):
        """Every agent's minimizer of Q_costs[i]^T x over its set: exact for
        a box family (a greedy fill), None for a flow family."""
        f = self.family
        return (_greedy_linear_box_budget_batch(Q_costs, f.lo, f.hi, f.theta)
                if self._box else None)

    def capped(self, cap_hi: np.ndarray):
        """Projector onto the same sets with every upper bound lowered to
        cap_hi (never below lo), or None for a flow family.  The lowered
        bounds are checked once, here: InfeasibleSetError when a cap pushes
        some budget above sum(hi)."""
        if not self._box:
            return None
        lo, hi, *theta = self._bounds
        hi = np.maximum(np.minimum(hi, cap_hi), lo)  # tight-cap roundoff
        check_box_budget(lo, hi, self.family.theta)
        return lambda Y: _box_budget_rows(np.asarray(Y, dtype=float), lo, hi,
                                          *theta)
