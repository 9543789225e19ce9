"""Exact Euclidean projections onto the constraint geometries used by the
solvers: boxes with an optional budget, flow polytopes, halfspaces, and
intersections handled by Dykstra's alternating scheme.  Also
``ProfileProjector``, which projects one (M, n) profile onto a game's set
family and minimizes linear costs over it exactly (a greedy fill for boxes
with budgets, one shortest path per agent for flow sets), and
``projected_gradient``,
the one projected-gradient loop (the two-level scheme's optimal responses and
the epsilon-Nash deviation run it).

All functions are pure but the box-budget body, whose speed-only cache is
an argument: each row's partition (components inside the box, at hi) in the
last call that passed it, which lets rows whose partition still holds skip
the breakpoint sort.  ``ProfileProjector`` passes one, and each of its
``capped`` closures its own.  It never changes a result.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DimensionError, InfeasibleSetError
from .game import (BoxFamily, FlowFamily, SetFamily, check_box_budget,
                   ordered_fill, sum_rounding_bound)

DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ITER = 10_000
# A cached partition is kept when every component clears its bounds by this
# many times the rounding bound n * eps * (sum(|y| + |lo| + |hi|) + |theta|)
# of the row's sums.
_HINT_SLACK = 8.0
_EPS = np.finfo(float).eps


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


def _box_budget_rows(Y, lo, hi, theta=None, hint=None) -> np.ndarray:
    """The body of project_box_budget_batch, for float (M, n) Y, (M, n)
    bounds and (M,) budgets that passed check_box_budget; the clamp alone
    when theta is None.  ``hint``, a ``_partition_cache`` of the bounds,
    holds each row's partition (inside, at_hi) in the last call that
    passed it; rows where it fails the margin check below run the
    breakpoint sort, whose partitions refresh it in place.  Without a
    hint, every row that needs the budget is sorted.  A row's bytes
    depend only on its partition, and a kept partition is the one the
    sort would choose."""
    X = np.minimum(np.maximum(Y, lo), hi)
    if theta is None:
        return X
    short = theta - X.sum(axis=-1)
    need = short > 0.0
    need[need] = short[need] > sum_rounding_bound(X[need])
    if not np.any(need):
        return X
    if np.all(need):
        need = slice(None)  # every row: views
    y, l, h, t = Y[need], lo[need], hi[need], theta[need]
    if hint is None:
        inside, at_hi = _sort_partition(y, l, h, t)
    else:
        inside, at_hi = hint[0][need], hint[1][need]
    mu, count = _multiplier(y, l, h, t, inside, at_hi)
    z = y + mu[:, None]
    if hint is not None:
        # A row keeps its partition when every component clears its bounds
        # by the margin on the sides the partition puts it: above lo when
        # inside or at hi, below it otherwise; above hi when at hi (and not
        # inside), below it otherwise.  A pinned slot (lo == hi) gives the
        # same bytes at hi or at lo, so only being inside fails it.  A row
        # with no component inside (mu = inf) is always sorted.  theta is
        # at most sum(|lo|) + sum(|hi|) on a row that needs the budget.
        n = Y.shape[1]
        margin = _HINT_SLACK * n * _EPS * (n * np.abs(y).max()
                                           + 2.0 * hint[3])
        above, below = z - l, h - z
        ok = (np.abs(above) > margin) & ((above > 0.0) == (inside | at_hi))
        ok &= np.abs(below) > margin
        ok &= (below < 0.0) == (at_hi & ~inside)
        ok |= hint[2][need] & ~inside
        bad = ~ok.all(axis=1) | (mu == np.inf)
        if np.any(bad):
            sub = [a[bad] for a in (y, l, h, t)]
            part = _sort_partition(*sub)
            mu_b, count[bad] = _multiplier(*sub, *part)
            z[bad] = sub[0] + mu_b[:, None]
            inside[bad], at_hi[bad] = part
            hint[0][need], hint[1][need] = inside, at_hi
    X[need] = _finish(z, l, h, t, inside, count)
    return X


def _partition_cache(lo, hi):
    """A fresh hint for _box_budget_rows on (M, n) bounds lo, hi: the
    partitions (inside, at_hi), the pinned slots (lo == hi) and the bounds'
    share of every row's margin; None when some bound is infinite."""
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        return None
    return (np.zeros(lo.shape, dtype=bool), np.zeros(lo.shape, dtype=bool),
            lo == hi, float(np.max(np.abs(lo).sum(axis=1)
                                   + np.abs(hi).sum(axis=1))))


def _sort_partition(y, l, h, t):
    """Each row's partition (inside, at_hi) of the budget step, from the
    breakpoint search of project_box_budget_batch: the components strictly
    inside the box and those at hi on the segment where s reaches t; none
    inside on a row whose t rounds above sum(h)."""
    m, n = y.shape
    rows = np.arange(m)
    bp = np.concatenate([l - y, h - y], axis=1)
    order = np.argsort(bp, axis=1)
    b = bp.ravel()[order + 2 * n * rows[:, None]]
    # free[:, j]: count of components strictly inside the box for mu between
    # b[:, j] and b[:, j + 1]; rise[:, j] = s(b[:, j + 1]) - sum(l).
    free = np.cumsum(np.where(order < n, 1.0, -1.0), axis=1)
    rise = np.cumsum(free[:, :-1] * np.diff(b, axis=1), axis=1)
    # s reaches t on the segment [b[:, k], b[:, k + 1]], which then has
    # positive length and free[:, k] >= 1 components inside; k == 2n - 1
    # only when t rounds above s(b[:, -1]) = sum(h).
    k = np.count_nonzero(rise < (t - l.sum(axis=1))[:, None], axis=1)
    left = b[rows, np.minimum(k, 2 * n - 2)][:, None]
    at_hi = h - y <= left
    inside = (l - y <= left) & ~at_hi
    inside[k == 2 * n - 1] = False
    return inside, at_hi


def _multiplier(y, l, h, t, inside, at_hi):
    """The budget multiplier mu of each row under its partition, solved in
    closed form on the components inside (inf on a row with none), and the
    count of those components, at least 1.  ``inside`` takes precedence
    where both masks are set."""
    count = inside.sum(axis=1)
    none = count == 0
    count[none] = 1
    mu = (t - np.where(inside, y, np.where(at_hi, h, l)).sum(axis=1)) / count
    mu[none] = np.inf
    return mu, count


def _finish(z, l, h, t, inside, count):
    """Each row's projection clip(z, l, h), z = y + mu, with the rounding
    correction: rounding can leave a sum a few ulps short of t, so the
    components inside take the deficit plus a bound on the rounding of the
    two n-term sums and of the additions themselves, n * eps * sum(|x|)."""
    x = np.clip(z, l, h)
    deficit = t - x.sum(axis=1)
    step = (deficit + sum_rounding_bound(x)) / count
    return np.where(inside & (deficit > 0)[:, None],
                    np.minimum(x + step[:, None], h), x)


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
    return X + ordered_fill(hi - X, need, Q_costs)


def shortest_path_edges(out_edges, weights, origin: int,
                        destination: int) -> tuple:
    """Edge indices, in path order, of the minimum-weight path from origin
    to destination: Dijkstra's search over out_edges[u], the (edge, head)
    pairs leaving node u in ascending edge order (``incidence_graph``), with
    nonnegative weights indexed by edge.  Ties between equal-cost paths
    break toward the lexicographically smallest edge-index sequence, so
    results are deterministic.  Raises InfeasibleSetError when the
    destination is unreachable."""
    best = {origin: (0.0, ())}
    heap = [(0.0, (), origin)]
    while heap:
        dist, path, u = heapq.heappop(heap)
        if (dist, path) > best.get(u, (np.inf, ())):
            continue
        if u == destination:
            break
        for e, v in out_edges[u]:
            cand = (dist + weights[e], path + (e,))
            if v not in best or cand < best[v]:
                best[v] = cand
                heapq.heappush(heap, (cand[0], cand[1], v))
    if destination not in best:
        raise InfeasibleSetError("destination unreachable")
    return best[destination][1]


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


def _polish_flow(x, u, y, B, b_od):
    """Equality-constrained least-squares refit on the components whose
    unclipped value u clears the unit box by 1e-7.

    Falls back to the unpolished point when the refit leaves the box, which
    only happens under active-set misidentification at degenerate points.
    """
    free = (u > 1e-7) & (u < 1.0 - 1e-7)
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


def dykstra(y, projectors: Sequence[Callable],
            max_iter: int = DYKSTRA_MAX_ITER) -> np.ndarray:
    """Dykstra's alternating projection onto an intersection of convex sets.

    ``projectors`` are exact projections onto the individual sets.  Stops
    when successive sweeps move the iterate by at most ``DYKSTRA_TOL`` in
    inf-norm.
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
        if gap <= DYKSTRA_TOL:
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


def project_individual(family: SetFamily, i: int, y) -> np.ndarray:
    """Projection of y onto agent i's set of the family."""
    if isinstance(family, FlowFamily):
        return project_flow_polytope(y, family.B, family.b_ods[i])
    return project_box_budget(y, family.lo[i], family.hi[i],
                              family.theta[i])


class ProfileProjector:
    """Projection of an (M, n) strategy matrix onto the product of the
    agents' sets, one set family; any other shape raises DimensionError.
    A box family takes one batched pass (the clamp alone when no budget is
    finite), a flow family one ``project_individual`` call per row.

    On a bounded box family with budgets, each call passes
    ``_box_budget_rows`` its hint ``_hint``, a ``_partition_cache`` that
    holds the partitions of the last call."""

    def __init__(self, family: SetFamily):
        self.family = family
        self._shape = (len(family), family.n)
        self._box = isinstance(family, BoxFamily)
        self._hint = None
        if self._box:
            lo, hi, theta = family.lo, family.hi, family.theta
            self._bounded = bool(np.all(np.isfinite(lo))
                                 and np.all(np.isfinite(hi)))
            # The clamp's bounds, plus the budgets when some are finite.
            budgets = bool(np.any(theta > -np.inf))
            self._bounds = (lo, hi, theta) if budgets else (lo, hi)
            if budgets:
                self._hint = _partition_cache(lo, hi)

    def __call__(self, Y: np.ndarray) -> np.ndarray:
        if np.shape(Y) != self._shape:
            raise DimensionError(f"a profile has shape {self._shape},"
                                 f" not {np.shape(Y)}")
        if not self._box:
            return np.stack([project_individual(self.family, i, y)
                             for i, y in enumerate(Y)])
        # The family is validated: no checks per call.
        return _box_budget_rows(np.ascontiguousarray(Y, dtype=float),
                                *self._bounds, hint=self._hint)

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

    def minimize_linear(self, Q_costs: np.ndarray) -> np.ndarray:
        """Every agent's exact minimizer of Q_costs[i]^T x over its set: a
        greedy fill for a box family; for a flow family, the indicator of
        one shortest path from the agent's origin to its destination over
        the family's graph (LeBlanc, Morlok & Pierskalla 1975).  Raises
        InfeasibleSetError on a box family with an infinite bound, and on
        a negative or nan cost for a flow family, where a shortest path is
        not the minimizer."""
        f = self.family
        if not self._box:
            if not np.all(Q_costs >= 0.0):
                raise InfeasibleSetError("a flow set's linear minimizer needs"
                                         " nonnegative edge costs")
            X = np.zeros_like(Q_costs)
            for x, q, od in zip(X, Q_costs, f.ods):
                x[list(shortest_path_edges(f.out_edges, q.tolist(),
                                           *od))] = 1.0
            return X
        if not self._bounded:
            raise InfeasibleSetError("unbounded individual sets")
        return _greedy_linear_box_budget_batch(Q_costs, f.lo, f.hi, f.theta)

    def capped(self, cap_hi: np.ndarray):
        """Projector onto the same sets with every upper bound lowered to
        cap_hi (never below lo), or None for a flow family.  The lowered
        bounds are checked once, here: InfeasibleSetError when a cap pushes
        some budget above sum(hi).  Like a projector call, each call starts
        from the partitions of the closure's last one."""
        if not self._box:
            return None
        lo, hi, *theta = self._bounds
        hi = np.maximum(np.minimum(hi, cap_hi), lo)  # tight-cap roundoff
        check_box_budget(lo, hi, self.family.theta)
        hint = _partition_cache(lo, hi) if theta else None
        return lambda Y: _box_budget_rows(np.asarray(Y, dtype=float), lo, hi,
                                          *theta, hint=hint)
