"""Exact Euclidean projections onto the constraint geometries used by the
solvers: boxes, box-plus-budget sets, flow polytopes, halfspaces, and
intersections handled by Dykstra's alternating scheme.  Also the exact
linear minimizer over box-plus-budget sets.

All functions are pure.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DimensionError, InfeasibleSetError
from .game import (Box, BoxBudget, FlowPolytope, IndividualConstraintSet,
                   sum_rounding_bound)

DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ITER = 10_000


def project_box(y, lo, hi) -> np.ndarray:
    """Componentwise clamp of y to [lo, hi]."""
    y = np.asarray(y, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise InfeasibleSetError("box requires lo <= hi componentwise")
    return np.clip(y, lo, hi)


def project_box_budget(y, lo, hi, theta) -> np.ndarray:
    """Projection onto {x in [lo, hi] : sum(x) >= theta}: a one-row call of
    project_box_budget_batch."""
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
    _check_box_budget(lo, hi, theta)
    return _box_budget_rows(Y, lo, hi, theta)


def _check_box_budget(lo, hi, theta) -> None:
    """The checks of project_box_budget_batch on (M, n) bounds and (M,)
    budgets."""
    if np.any(lo > hi):
        raise InfeasibleSetError("box requires lo <= hi componentwise")
    over = theta - hi.sum(axis=1)
    if np.any(over > 0.0) and np.any(over > sum_rounding_bound(hi)):
        raise InfeasibleSetError("budget exceeds the box: theta > sum(hi)")


def _box_budget_rows(Y, lo, hi, theta) -> np.ndarray:
    """The body of project_box_budget_batch, for float Y and bounds of its
    shape that passed _check_box_budget."""
    X = np.minimum(np.maximum(Y, lo), hi)
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
    """Projection onto {x in [0, 1]^E : B x = b_od}: a one-row call of
    _project_flow_batch."""
    Y, b_ods = (np.asarray(v, dtype=float)[None, :] for v in (y, b_od))
    return _project_flow_batch(Y, np.asarray(B, dtype=float), b_ods)[0]


def _project_flow_batch(Y, B, b_ods) -> np.ndarray:
    """Projection of every row of Y onto {x in [0, 1]^E : B x = b_ods[i]}.

    Works on the concave dual over the node multipliers mu_i:
    x_i(mu_i) = clip(y_i - B^T mu_i, 0, 1) and d(mu) = sum_i
    0.5 |x_i(mu_i) - y_i|^2 + mu_i^T (B x_i(mu_i) - b_ods[i]).  The dual is
    separable across rows, so one L-BFGS-B run maximizes every row's at
    once; a per-row active-set polish then restores the conservation
    equations to machine precision.  This is orders of magnitude faster
    than alternating projections when y is far from the polytope.
    """
    from scipy.optimize import minimize

    M, V = Y.shape[0], B.shape[0]

    def neg_dual(mu):
        X = np.clip(Y - mu.reshape(M, V) @ B, 0.0, 1.0)
        R = X @ B.T - b_ods
        # Dot products of the flattened arrays: on one row they round as
        # a single agent's vector dot products.
        D = (X - Y).ravel()
        val = 0.5 * float(D @ D) + float(mu @ R.ravel())
        return -val, -R.ravel()

    res = minimize(neg_dual, np.zeros(M * V), jac=True, method="L-BFGS-B",
                   options={"maxiter": 2000, "ftol": 1e-18, "gtol": 1e-12})
    U = Y - res.x.reshape(M, V) @ B
    X = np.clip(U, 0.0, 1.0)
    return np.stack([_polish_flow(X[i], U[i], Y[i], B, b_ods[i])
                     for i in range(M)])


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


def project_individual(cs: IndividualConstraintSet, y) -> np.ndarray:
    """Projection onto an individual constraint set, dispatched per variant."""
    if isinstance(cs, Box):
        return project_box(y, cs.lo, cs.hi)
    if isinstance(cs, BoxBudget):
        return project_box_budget(y, cs.lo, cs.hi, cs.theta)
    if isinstance(cs, FlowPolytope):
        return project_flow_polytope(y, cs.B, cs.b_od)
    raise DimensionError(f"no projection for {type(cs).__name__}")


def _tile(a: np.ndarray, reps: int) -> np.ndarray:
    """a stacked reps times along its first axis; a itself when reps is 1."""
    return a if reps == 1 else np.tile(a, (reps,) + (1,) * (a.ndim - 1))


class ProfileProjector:
    """Projection of an (M, n) strategy matrix onto the product of the
    agents' individual sets, vectorized when the sets share a variant.  A
    (k M, n) stack of k profiles, row r belonging to agent r mod M, is
    projected in the same call, each row to the bytes it gets alone."""

    def __init__(self, individual: Sequence[IndividualConstraintSet]):
        self.individual = tuple(individual)
        self._mode = "generic"
        first = self.individual[0]
        if all(isinstance(cs, BoxBudget) for cs in self.individual):
            self._mode = "box_budget"
            self._lo = np.stack([cs.lo for cs in self.individual])
            self._hi = np.stack([cs.hi for cs in self.individual])
            self._theta = np.array([cs.theta for cs in self.individual])
        elif all(isinstance(cs, Box) for cs in self.individual):
            self._mode = "box"
            self._lo = np.stack([cs.lo for cs in self.individual])
            self._hi = np.stack([cs.hi for cs in self.individual])
        elif (all(isinstance(cs, FlowPolytope) for cs in self.individual)
              and all(cs.B is first.B for cs in self.individual)):
            self._mode = "flow"
            self._B = first.B
            self._b_ods = np.stack([cs.b_od for cs in self.individual])

    def __call__(self, Y: np.ndarray) -> np.ndarray:
        reps = len(Y) // len(self.individual)
        if self._mode == "box":
            # np.clip's values, at a third of its cost with array bounds.
            return np.minimum(np.maximum(Y, _tile(self._lo, reps)),
                              _tile(self._hi, reps))
        if self._mode == "box_budget":
            # The sets are validated BoxBudgets: no checks per call.
            return _box_budget_rows(np.asarray(Y, dtype=float),
                                    _tile(self._lo, reps),
                                    _tile(self._hi, reps),
                                    _tile(self._theta, reps))
        if self._mode == "flow":
            # One dual run per profile: the run's stopping test is joint.
            return np.concatenate([
                _project_flow_batch(block, self._B, self._b_ods)
                for block in np.split(np.asarray(Y, dtype=float), reps)])
        return np.stack([project_individual(cs, y)
                         for cs, y in zip(self.individual * reps, Y)])

    def tangent_residual(self, X: np.ndarray, G: np.ndarray, tol: float):
        """Every agent's stationarity residual -P_T(-G[i]), T the tangent
        cone of its set at X[i], with the active sets it used; None unless
        all sets are boxes or all are box-budget sets.

        The active sets are those of ``active_rows``: at_lo where
        x <= lo + tol, at_hi where x >= hi - tol, and the budget row where
        sum(x) <= theta + tol.  T bounds each active component's sign and,
        under an active budget, the sum from below by 0.  For a box the
        projection is a clip; for a box-budget set it is
        ``project_box_budget_batch`` with the free bounds at
        +-(n + 1)(|G[i]|_inf + 1), which the projection never reaches.
        Returns (R, at_lo, at_hi, budget) with R and the masks (M, n) and
        budget (M,).
        """
        if self._mode not in ("box", "box_budget"):
            return None
        at_lo = X <= self._lo + tol
        at_hi = X >= self._hi - tol
        if self._mode == "box":
            budget = np.zeros(len(X), dtype=bool)
            P = np.clip(-G, np.where(at_lo, 0.0, -np.inf),
                        np.where(at_hi, 0.0, np.inf))
        else:
            budget = X.sum(axis=1) <= self._theta + tol
            far = (X.shape[1] + 1) * (np.max(np.abs(G), axis=1,
                                             keepdims=True) + 1.0)
            P = project_box_budget_batch(-G, np.where(at_lo, 0.0, -far),
                                         np.where(at_hi, 0.0, far),
                                         np.where(budget, 0.0, -np.inf))
        return -P, at_lo, at_hi, budget

    def minimize_linear(self, Q_costs: np.ndarray):
        """Every agent's minimizer of Q_costs[i]^T x over its set: exact for
        box-budget sets (a greedy fill), None for the others."""
        if self._mode != "box_budget":
            return None
        return _greedy_linear_box_budget_batch(Q_costs, self._lo, self._hi,
                                               self._theta)

    def capped(self, cap_hi: np.ndarray):
        """Projector onto the same sets with every upper bound lowered to
        cap_hi (never below lo), or None unless all sets are boxes or all
        are box-budget sets.  The lowered bounds are checked once, here:
        InfeasibleSetError when a cap pushes some budget above sum(hi)."""
        if self._mode not in ("box", "box_budget"):
            return None
        lo = self._lo
        hi = np.maximum(np.minimum(self._hi, cap_hi), lo)  # tight-cap roundoff
        if self._mode == "box":
            return lambda Y: np.clip(Y, lo, hi)
        theta = self._theta
        _check_box_budget(lo, hi, theta)
        return lambda Y: _box_budget_rows(np.asarray(Y, dtype=float), lo, hi,
                                          theta)
