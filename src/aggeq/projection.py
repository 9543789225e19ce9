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
# Residual |B x - b|_inf at which a flow projection stops, and its Newton
# step cap; the ridge of its Newton systems is _FLOW_RIDGE times that
# residual, and at least _FLOW_RIDGE_FLOOR.
FLOW_TOL = 1e-10
FLOW_MAX_ITER = 200
_FLOW_RIDGE = 1e-3
_FLOW_RIDGE_FLOOR = 1e-12
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
    """Projection onto {x in [0, 1]^E : B x = b_od}: ``_project_flow`` with
    unit bounds."""
    y, B, b_od = (np.asarray(v, dtype=float) for v in (y, B, b_od))
    return _project_flow(y, B, b_od, 0.0, 1.0)


def _project_flow(y, B, b, lo, hi) -> np.ndarray:
    """Projection of y onto {x : lo <= x <= hi, B x = b}, for B a node-edge
    incidence matrix and bounds that broadcast to y: the body of
    ``project_flow_polytope`` and of a flow family's tangent residual.

    Semismooth Newton on the concave dual over the node multipliers nu
    (Qi & Sun 1993; Li, Sun & Toh's SSNAL, 2018): x(nu) = clip(y - B^T nu,
    lo, hi), the dual's gradient is r = B x(nu) - b, and its generalized
    Hessian is -L, L = B diag(free) B^T the Laplacian of the edges strictly
    inside their bounds, assembled from the edge endpoints.  L is singular
    (constants, and each part the free edges leave apart, are in its
    kernel), so each step solves (L + delta I) d = r with a ridge delta
    proportional to |r|_inf, then moves nu by the exact maximizer of the
    dual along d (``_flow_step``).  Returns x once |B x - b|_inf <=
    FLOW_TOL; raises ConvergenceError, with the last x and that residual,
    after FLOW_MAX_ITER steps without it.
    """
    V = len(B)
    tail, head = B.argmin(axis=0), B.argmax(axis=0)
    # L's flat cells per edge (column): +1 at (tail, tail) and (head, head),
    # -1 at (tail, head) and (head, tail); the ridge's cells on the diagonal.
    cells = np.stack([tail * (V + 1), head * (V + 1), tail * V + head,
                      head * V + tail])
    signs = np.repeat([[1.0], [1.0], [-1.0], [-1.0]], len(tail), axis=1)
    diagonal = np.arange(V) * (V + 1)
    nu = np.zeros(V)
    u = y
    for step in range(FLOW_MAX_ITER + 1):
        x = np.minimum(np.maximum(u, lo), hi)
        r = B @ x - b
        gap = float(np.abs(r).max())
        if gap <= FLOW_TOL:
            return x
        if step == FLOW_MAX_ITER:
            raise ConvergenceError(
                f"flow projection did not converge in {step} Newton steps"
                f" (|B x - b| {gap:.3e})", last=x, gap=gap)
        free = (u > lo) & (u < hi)
        ridge = np.full(V, max(_FLOW_RIDGE * gap, _FLOW_RIDGE_FLOOR))
        L = np.bincount(np.concatenate([diagonal, cells[:, free].ravel()]),
                        np.concatenate([ridge, signs[:, free].ravel()]),
                        V * V)
        d = np.linalg.solve(L.reshape(V, V), r)
        # Rounding leaves |g_e| up to 2 eps |d|_inf on an edge whose ends
        # d moves alike; such an edge would put a breakpoint near infinity.
        g = B.T @ d
        g[np.abs(g) <= 4.0 * _EPS * np.max(np.abs(d))] = 0.0
        nu = nu + _flow_step(u, g, lo, hi, float(d @ r)) * d
        u = y - B.T @ nu


def _flow_step(u, g, lo, hi, slope) -> float:
    """The step s >= 0 that maximizes the flow dual along a direction d, at
    u = y - B^T nu with g = B^T d and slope = d^T r > 0, the dual's
    derivative at s = 0: where its derivative phi(s) = g^T clip(u - s g,
    lo, hi) - d^T b falls to 0.

    phi is piecewise linear and nonincreasing, with breakpoints where an
    edge enters or leaves its bounds, (u_e - lo_e) / g_e and
    (u_e - hi_e) / g_e.  A bisection over the sorted positive breakpoints,
    evaluating phi in full at each, finds the segment where phi reaches 0,
    and s interpolates phi there.  It is 0 when slope <= 0, and the last
    breakpoint when phi stays positive, which only rounding allows on a
    nonempty set."""
    if slope <= 0.0:
        return 0.0
    rest = slope - g @ np.minimum(np.maximum(u, lo), hi)  # -d^T b

    def phi(s):
        return float(g @ np.minimum(np.maximum(u - s * g, lo), hi)) + rest

    move = g != 0.0
    bp = np.concatenate([(u - lo)[move] / g[move], (u - hi)[move] / g[move]])
    bp = np.sort(bp[bp > 0.0])
    # Invariant: phi > 0 at bp[below - 1] (slope at 0), <= 0 at bp[above].
    below, above, left = 0, bp.size, slope
    while below < above:
        mid = (below + above) // 2
        value = phi(bp[mid])
        if value > 0.0:
            below, left = mid + 1, value
        else:
            above, right = mid, value
    if below == bp.size:
        return float(bp[-1]) if below else 0.0
    start = bp[below - 1] if below else 0.0
    return float(start + (bp[below] - start) * left / (left - right))


def project_halfspace(y, a, beta) -> np.ndarray:
    """Projection onto {x : a^T x <= beta}."""
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    gap = float(a @ y - beta)
    if gap <= 0.0:
        return y.copy()
    return y - (gap / float(a @ a)) * a


def dykstra(y, projectors: Sequence[Callable]) -> np.ndarray:
    """Dykstra's alternating projection onto an intersection of convex sets.

    ``projectors`` are exact projections onto the individual sets.  Stops
    when successive sweeps move the iterate by at most ``DYKSTRA_TOL`` in
    inf-norm; raises ConvergenceError after ``DYKSTRA_MAX_ITER`` sweeps.
    """
    x = np.asarray(y, dtype=float).copy()
    corrections = [np.zeros_like(x) for _ in projectors]
    for _ in range(DYKSTRA_MAX_ITER):
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
        f"dykstra did not converge in {DYKSTRA_MAX_ITER} sweeps"
        f" (gap {gap:.3e})",
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
    finite), a flow family one ``project_individual`` call per row.  The
    result is a new array, never Y or a view of it.

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
        cone of its set at X[i], as an (M, n) array.

        T bounds the sign of each component within tol of a bound: d >= 0
        where x <= lo + tol, d <= 0 where x >= hi - tol.  On a box family
        it bounds the sum from below by 0 where the budget is active
        (sum(x) <= theta + tol); on a flow family it keeps B d = 0.  The
        projection takes the free bounds at +-(n + 1)(|G[i]|_inf + 1),
        which it never reaches: ``project_box_budget_batch`` for a box
        family, and per agent ``_project_flow`` with b = 0 for a flow
        family, on -G[i] / s, s = max(1, |G[i]|_inf), scaled back by s: T
        is a cone, and so the flow projection's tolerance scales with G.
        """
        lo, hi = self.family.bounds()
        far = (X.shape[1] + 1) * (np.max(np.abs(G), axis=1,
                                         keepdims=True) + 1.0)
        lo = np.where(X <= lo + tol, 0.0, -far)
        hi = np.where(X >= hi - tol, 0.0, far)
        if self._box:
            budget = X.sum(axis=1) <= self.family.theta + tol
            return -project_box_budget_batch(-G, lo, hi,
                                             np.where(budget, 0.0, -np.inf))
        B = self.family.B
        zero = np.zeros(len(B))
        scale = np.maximum(np.max(np.abs(G), axis=1), 1.0)
        return -np.stack([s * _project_flow(-g / s, B, zero, l / s, h / s)
                          for g, l, h, s in zip(G, lo, hi, scale)])

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
