"""Aggregative game model: agents, costs, individual and coupling constraints.

The population of M agents each picks a strategy in R^n.  Costs depend on the
own strategy and on the population average; an affine constraint A x <= b may
couple all strategies.  Everything here is immutable after construction and
safe for concurrent reads.

Cost models and constraint sets answer for themselves what the solvers and
the verification ask of them, so no caller dispatches on their type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .errors import DimensionError, InfeasibleSetError


def _vec(a, name="array"):
    out = np.asarray(a, dtype=float)
    if out.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {out.shape}")
    return out


# ---------------------------------------------------------------------------
# Strategy profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyProfile:
    """Stacked decision vector of the whole population.

    ``entries`` has length M*n; agent i (0-based) owns the contiguous slice
    ``[i*n, (i+1)*n)``.
    """

    entries: np.ndarray
    M: int
    n: int

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float).copy()
        if self.M <= 0 or self.n <= 0:
            raise DimensionError("M and n must be positive")
        if e.ndim != 1 or e.size != self.M * self.n:
            raise DimensionError(
                f"profile length {e.size} != M*n = {self.M * self.n}"
            )
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @classmethod
    def from_matrix(cls, X) -> "StrategyProfile":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DimensionError("expected an (M, n) matrix")
        return cls(X.reshape(-1), X.shape[0], X.shape[1])

    def as_matrix(self) -> np.ndarray:
        return self.entries.reshape(self.M, self.n)

    def agent(self, i: int) -> np.ndarray:
        if not 0 <= i < self.M:
            raise IndexError(f"agent index {i} out of range [0, {self.M})")
        return self.entries[i * self.n : (i + 1) * self.n]

    def aggregate(self) -> np.ndarray:
        return aggregate_matrix(self.as_matrix())


def aggregate_matrix(X: np.ndarray) -> np.ndarray:
    """Average of the rows of an (M, n) strategy matrix.

    Uses a fixed agent-index-order reduction so repeated runs are bitwise
    identical.
    """
    X = np.asarray(X, dtype=float)
    return np.add.reduce(X, axis=0) / X.shape[0]


def sum_rounding_bound(a) -> np.ndarray:
    """n * eps * sum(|a|) over the last axis of a: a bound on the rounding
    error of summing its n entries in floating point."""
    return a.shape[-1] * np.finfo(float).eps * np.abs(a).sum(axis=-1)


def ordered_fill(room, need, key) -> np.ndarray:
    """Each row's greedy fill of need[i] into room[i], entries in ascending
    order of key[i] (ties in index order), each taking what the entries
    before it left, up to its room."""
    rows = np.arange(len(room))[:, None]
    order = np.argsort(key, axis=1, kind="stable")
    sorted_room = room[rows, order]
    before = np.cumsum(sorted_room, axis=1) - sorted_room
    fill = np.empty_like(room)
    fill[rows, order] = np.clip(need[:, None] - before, 0.0, sorted_room)
    return fill


# ---------------------------------------------------------------------------
# Individual constraint sets
# ---------------------------------------------------------------------------
#
# A game holds one family of sets, a BoxFamily or a FlowFamily, with
# bounds() and violation(X) for all agents at once; agent i's set is row i
# of the family's arrays.


def check_box_budget(lo, hi, theta) -> None:
    """Raise InfeasibleSetError unless lo <= hi and every budget theta is at
    most sum(hi) over the last axis, up to that sum's rounding bound."""
    if np.any(lo > hi):
        raise InfeasibleSetError("box requires lo <= hi componentwise")
    if np.any(theta - hi.sum(axis=-1) > sum_rounding_bound(hi)):
        raise InfeasibleSetError("budget exceeds the box: theta > sum(hi)")


def incidence_graph(B) -> list:
    """The out-edge lists of the node-edge incidence matrix B: entry u holds
    the (edge, head) pairs of the edges leaving node u, in ascending edge
    order.  Raises DimensionError unless B has a row per node, at least
    one, and each column one -1 (its tail), one +1 (its head), else 0."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or len(B) == 0 or not (
            np.all(np.count_nonzero(B, axis=0) == 2)
            and np.all(B.min(axis=0) == -1.0)
            and np.all(B.max(axis=0) == 1.0)):
        raise DimensionError("B must be a node-edge incidence matrix: one -1"
                             " (tail) and one +1 (head) per column")
    out_edges = [[] for _ in range(len(B))]
    for e, (tail, head) in enumerate(zip(B.argmin(axis=0).tolist(),
                                         B.argmax(axis=0).tolist())):
        out_edges[tail].append((e, head))
    return out_edges


def reachable(out_edges, source: int) -> set:
    """The nodes reachable from source along the out-edge lists."""
    seen, stack = {source}, [source]
    while stack:
        for _, v in out_edges[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _box_violation(X, lo, hi, theta):
    """Largest breach of lo <= x <= hi and sum(x) >= theta, over the last
    axis of X."""
    box = np.maximum(np.max(lo - X, axis=-1, initial=0.0),
                     np.max(X - hi, axis=-1, initial=0.0))
    return np.maximum(box, theta - X.sum(axis=-1))


def _flow_violation(X, B, b_od):
    """Largest breach of 0 <= x <= 1 and B x = b_od, over the last axis."""
    cons = np.max(np.abs(X @ B.T - b_od), axis=-1, initial=0.0)
    return np.maximum(_box_violation(X, 0.0, 1.0, -np.inf), cons)


def _freeze(obj, **arrays):
    """Set the fields of the frozen dataclass obj to the arrays, made
    read-only."""
    for a in arrays.values():
        a.setflags(write=False)
    obj.__dict__.update(arrays)


@dataclass(frozen=True)
class BoxFamily:
    """Every agent's box {x : lo[i] <= x <= hi[i]} with the minimum total
    sum(x) >= theta[i]: (M, n) bounds lo and hi, and (M,) budgets theta,
    -inf for an agent without a budget (theta None: no agent has one)."""

    lo: np.ndarray
    hi: np.ndarray
    theta: Optional[np.ndarray] = None

    def __post_init__(self):
        # C order: a copied broadcast keeps its stride-0 axis innermost.
        lo, hi = (np.array(a, float, order="C") for a in (self.lo, self.hi))
        if lo.ndim != 2 or hi.shape != lo.shape:
            raise DimensionError("lo and hi must both be (M, n)")
        theta = np.array(np.full(len(lo), -np.inf) if self.theta is None
                         else self.theta, dtype=float)
        if theta.shape != (len(lo),):
            raise DimensionError("theta must have one entry per agent")
        check_box_budget(lo, hi, theta)
        _freeze(self, lo=lo, hi=hi, theta=theta)

    @classmethod
    def common(cls, lo, hi, M: int) -> "BoxFamily":
        """M agents sharing the box [lo, hi], without budgets."""
        return cls(*(np.broadcast_to(_vec(a), (M, np.size(a)))
                     for a in (lo, hi)))

    @property
    def n(self):
        return self.lo.shape[1]

    def __len__(self):
        return len(self.lo)

    def bounds(self):
        return self.lo, self.hi

    def violation(self, X) -> np.ndarray:
        return _box_violation(X, self.lo, self.hi, self.theta)


@dataclass(frozen=True)
class FlowFamily:
    """Every agent's unit-box flows satisfying conservation B x = b_ods[i]:
    one read-only node-edge incidence matrix B (+1 head, -1 tail) and
    (M, V) rows b_ods, e_d - e_o for an agent from origin o to
    destination d (zero for o = d).  Construction builds the graph once,
    ``out_edges`` (the ``incidence_graph`` of B) and ``ods``, each agent's
    (o, d).  It raises DimensionError on a B that ``incidence_graph``
    refuses, and InfeasibleSetError on a row of another form or on a
    destination its origin cannot reach."""

    B: np.ndarray
    b_ods: np.ndarray
    out_edges: list = field(init=False, repr=False, compare=False)
    ods: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        B, b_ods = (np.array(a, dtype=float) for a in (self.B, self.b_ods))
        out_edges = incidence_graph(B)
        if b_ods.ndim != 2 or b_ods.shape[1] != len(B):
            raise DimensionError("b_ods must be (M, V): one entry per node")
        o, d = b_ods.argmin(axis=1), b_ods.argmax(axis=1)
        unit = np.zeros_like(b_ods)
        unit[np.arange(len(b_ods)), d] += 1.0
        unit[np.arange(len(b_ods)), o] -= 1.0
        if not np.array_equal(b_ods, unit):
            raise InfeasibleSetError("each b_od must be e_d - e_o: one origin"
                                     " -1, one destination +1, or zero")
        ods = list(zip(o.tolist(), d.tolist()))
        reach = {u: reachable(out_edges, u) for u in set(o.tolist())}
        for u, v in ods:
            if v not in reach[u]:
                raise InfeasibleSetError(
                    f"system B x = b_od is inconsistent: node {v} is"
                    f" unreachable from node {u}")
        _freeze(self, B=B, b_ods=b_ods)
        self.__dict__.update(out_edges=out_edges, ods=ods)

    @property
    def n(self):
        return self.B.shape[1]

    def __len__(self):
        return len(self.b_ods)

    def bounds(self):
        return np.zeros((len(self), self.n)), np.ones((len(self), self.n))

    def violation(self, X) -> np.ndarray:
        return _flow_violation(X, self.B, self.b_ods)


SetFamily = Union[BoxFamily, FlowFamily]


# ---------------------------------------------------------------------------
# Coupling constraint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CouplingConstraint:
    """Affine coupling constraint A x <= b on the stacked profile.

    The structured per-component form (1/M) sum_i x^i_t <= K_t has A None
    and b = K; it stands for A = (1/M)(1_M^T kron I_n) but evaluates
    residuals without materializing A.
    """

    A: Optional[np.ndarray]
    b: np.ndarray
    M: int
    n: int

    @classmethod
    def dense(cls, A, b, M: int, n: int) -> "CouplingConstraint":
        A = np.asarray(A, dtype=float)
        b = _vec(b, "b")
        if A.ndim != 2 or A.shape != (b.size, M * n):
            raise DimensionError(
                f"A must be ({b.size}, {M * n}), got {A.shape}"
            )
        return cls(A=A.copy(), b=b, M=M, n=n)

    @classmethod
    def per_component_cap(cls, K, M: int) -> "CouplingConstraint":
        K = _vec(K, "K")
        return cls(A=None, b=K.copy(), M=M, n=K.size)

    @property
    def m(self) -> int:
        return self.b.size

    def matrix(self) -> np.ndarray:
        """Dense A, built on demand for the structured form."""
        if self.A is not None:
            return self.A
        return np.kron(np.ones((1, self.M)), np.eye(self.n)) / self.M

    def apply(self, X: np.ndarray) -> np.ndarray:
        """A x for an (M, n) strategy matrix."""
        if self.A is None:
            return aggregate_matrix(X)
        return self.A @ X.reshape(-1)

    def residual(self, X: np.ndarray) -> np.ndarray:
        """Slack b - A x for an (M, n) strategy matrix; nonnegative iff the
        constraint holds."""
        return self.b - self.apply(X)

    def adjoint_blocks(self, lam: np.ndarray) -> np.ndarray:
        """(M, n) matrix whose row i is A_(:,i)^T lam; for the cap form a
        read-only view repeating lam / M in every row."""
        if self.A is None:
            return np.broadcast_to(lam / self.M, (self.M, self.n))
        return (self.A.T @ lam).reshape(self.M, self.n)

    def norm(self) -> float:
        """Largest singular value of A."""
        if self.A is None:
            return 1.0 / np.sqrt(self.M)
        return float(np.linalg.norm(self.A, 2))


# ---------------------------------------------------------------------------
# Prices and separable utilities (building blocks for PriceTimesUsage)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalPrice:
    """Componentwise price p_t(z_t) with analytic first and second derivatives.

    ``f``, ``df``, ``ddf`` map an n-vector z to the n-vector of per-component
    values/derivatives.  ``slopes_fall`` declares that |p'_t| and |p''_t|
    do not increase on z >= 0, so that their maxima over [0, b] are at
    z = 0.
    """

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    ddf: Callable[[np.ndarray], np.ndarray]
    slopes_fall: bool = False

    def value(self, z):
        return np.asarray(self.f(z), dtype=float)

    def diag(self, z):
        return np.asarray(self.df(z), dtype=float)

    def diag2(self, z):
        return np.asarray(self.ddf(z), dtype=float)


def grid_extremes(grid, n, terms, extreme=np.maximum) -> list:
    """extreme (np.maximum or np.minimum) of each array terms(Z) returns,
    over the points z_j of the 1-D grid as rows z_j 1^T of Z.  Chunks of
    about 1,024 points keep the (k, n) temporaries in cache; an extreme
    over chunks is exact, so the chunking moves no float."""
    best = None
    for z in np.array_split(grid, max(1, grid.size // 1024)):
        Z = np.broadcast_to(z[:, None], (z.size, n))
        vals = [extreme.reduce(t, axis=None) for t in terms(Z)]
        best = vals if best is None else list(map(extreme, best, vals))
    return [float(v) for v in best]


class ZeroUtility:
    """v^i = 0: the cost is linear in the own strategy."""

    def weights(self, M):
        """Per-agent curvature weights (gamma_i): all zero."""
        return np.zeros(M)

    def lipschitz(self):
        return 0.0

    def value_all(self, X):
        return np.zeros(X.shape[0])

    def grad_all(self, X):
        return np.zeros_like(X)

    def response(self, q, proj):
        """Every agent's minimizer of q[i]^T x over its set: the sets'
        linear minimizer."""
        return proj.minimize_linear(q)


@dataclass(frozen=True)
class QuadraticTracking:
    """v^i(x) = gamma_i/2 * ||x - ref_i||^2."""

    gamma: np.ndarray
    ref: np.ndarray

    def __post_init__(self):
        gamma = _vec(self.gamma, "gamma")
        ref = np.asarray(self.ref, dtype=float)
        if ref.ndim != 2 or ref.shape[0] != gamma.size:
            raise DimensionError("ref must be (M, n) with one row per agent")
        if np.any(gamma < 0):
            raise InfeasibleSetError("tracking weights must be nonnegative")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "ref", ref)

    def weights(self, M):
        return self.gamma

    def lipschitz(self):
        return float(np.max(self.gamma))

    def value_all(self, X):
        d = X - self.ref
        return 0.5 * self.gamma * np.einsum("ij,ij->i", d, d)

    def grad_all(self, X):
        return self.gamma[:, None] * (X - self.ref)

    def response(self, q, proj):
        """Every agent's minimizer of v^i(x) + q[i]^T x over its set: one
        projection of the preferred points shifted by q / gamma, or None
        when some gamma_i is zero."""
        if not np.all(self.gamma > 0):
            return None
        return proj(self.ref - q / self.gamma[:, None])


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------
#
# Both work on all agents at once.  X is an (M, n) profile and z one (n,)
# average or an (M, n) matrix of per-agent averages z_i; row i of
# value_all(X, z) is J^i(X[i], z_i), of grad_own_all(X, z) its gradient in
# X[i] and of grad_agg_all(X, z) its gradient in z_i.  They also give:
# * mapping_all(X, z, M, nash, charge=None): the game mapping's rows, each
#   agent's own gradient, plus its gradient in z_i divided by M when nash,
#   plus charge, an (n,) row or (M, n) blocks; the solvers' hot path, so
#   each model sums it in as few array passes as its form allows;
# * own_lipschitz(): a Lipschitz constant of grad_own_all in X, every agent;
# * aggregate_lipschitz(hi): L_p, the Lipschitz constant of the
#   price/aggregate coupling (PriceTimesUsage scans p' on a grid, or reads
#   it at z = 0 when the price declares that its slopes fall);
# * closed_form_response(z, charge, proj): all agents' minimizers of
#   J^i(x, z) + charge[i]^T x over their sets, or None without a closed form;
# * deviation_lipschitz(M, hi): a Lipschitz constant of the gradient of
#   x -> J^i(x, (x + S_i) / M), S_i the other agents' sum: the Nash
#   mapping's row i at the averages (X + S) / M (p' and p'' found as for
#   aggregate_lipschitz);
# * the structure of the game mapping's Jacobian, Nash when nash is true and
#   Wardrop otherwise, where each model answers None for the structure it
#   lacks: constant_jacobian(M, nash) and exact_constants(M, nash) (the
#   mapping is affine), or slot_terms(X, M, nash) (the mapping acts on each
#   component t separately).
# Arguments hi bound the strategies, and so the averages, from above.


def _identity_multiple(A: np.ndarray) -> Optional[float]:
    """s when the square matrix A is exactly s * I, else None."""
    s = float(A[0, 0]) if A.size else 0.0
    return s if np.array_equal(A, s * np.eye(A.shape[0])) else None


@dataclass(frozen=True)
class QuadraticCost:
    """J^i = 1/2 x^T Q x + (C z + c^i)^T x with common Q, C.

    When Q or C is exactly a multiple s I of the identity, as
    ``build_quadratic_game`` makes both, the batched gradients and the
    mapping multiply by the scalar s in place of the dense product.  The
    product's off-diagonal terms are exact zeros, so both give the same
    bits.  ``Q`` and ``C`` stay the matrices for everything else.
    """

    Q: np.ndarray
    C: np.ndarray
    c: np.ndarray  # (M, n), one offset per agent
    # s where Q (or C) is exactly s I, else None.
    q_scale: Optional[float] = field(init=False, repr=False, compare=False)
    c_scale: Optional[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        C = np.asarray(self.C, dtype=float)
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        n = Q.shape[0]
        if Q.shape != (n, n) or C.shape != (n, n) or c.shape[1] != n:
            raise DimensionError("Q, C must be n x n and c rows length n")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise DimensionError("Q must be symmetric")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "q_scale", _identity_multiple(Q))
        object.__setattr__(self, "c_scale", _identity_multiple(C))

    @property
    def n(self):
        return self.Q.shape[0]

    def value_all(self, X, z):
        lin = z @ self.C.T + self.c
        return 0.5 * np.einsum("ij,jk,ik->i", X, self.Q, X) \
            + np.einsum("ij,ij->i", lin, X)

    def grad_own_all(self, X, z):
        out = X @ self.Q.T if self.q_scale is None else X * self.q_scale
        out += z @ self.C.T if self.c_scale is None else z * self.c_scale
        out += self.c
        return out

    def grad_agg_all(self, X, z):
        return X @ self.C if self.c_scale is None else X * self.c_scale

    def mapping_all(self, X, z, M, nash, charge=None):
        """X P + c + (C z + charge): the affine mapping with one coefficient
        P on X, Q^T + C/M (Nash) or Q^T (Wardrop), a scalar where Q and C
        allow, and the z term and charge summed before their one add.  An
        (n,) z and row charge make that an (n,) sum and a row broadcast."""
        if self.q_scale is not None and (self.c_scale is not None
                                         or not nash):
            p = self.q_scale + self.c_scale / M if nash else self.q_scale
            out = X * p
        else:
            out = X @ (self.Q.T + self.C / M if nash else self.Q.T)
        out += self.c
        shift = z @ self.C.T if self.c_scale is None else z * self.c_scale
        if charge is not None:
            shift = shift + charge
        out += shift
        return out

    def own_lipschitz(self) -> float:
        return float(np.linalg.norm(self.Q, 2))

    def aggregate_lipschitz(self, hi) -> float:
        return float(np.linalg.norm(self.C, 2))

    def closed_form_response(self, z, charge, proj):
        return None

    def deviation_lipschitz(self, M, hi) -> float:
        return float(np.linalg.norm(self.Q + (self.C + self.C.T) / M, 2))

    def constant_jacobian(self, M, nash) -> np.ndarray:
        """The mapping's (M*n) x (M*n) Jacobian, the same at every point."""
        P = np.full((M, M), 1.0 / M)
        J = np.kron(np.eye(M), self.Q) + np.kron(P, self.C)
        if nash:
            J = J + np.kron(np.eye(M), self.C.T) / M
        return J

    def exact_constants(self, M, nash) -> tuple:
        """Exact (alpha, L_F) of the affine mapping.

        The Jacobian decomposes over the averaging projection into two
        blocks, Q (+C^T/M) on the deviation subspace and Q + C (+C^T/M) on
        the consensus subspace, so constants follow from two n x n problems.
        """
        Q, C = self.Q, self.C
        extra = C.T / M if nash else 0.0
        dev = Q + extra
        con = Q + C + extra
        blocks = [con] if M == 1 else [dev, con]
        alpha = min(float(np.min(np.linalg.eigvalsh(0.5 * (B + B.T))))
                    for B in blocks)
        lip = max(float(np.linalg.norm(B, 2)) for B in blocks)
        return alpha, lip

    def slot_terms(self, X, M, nash):
        return None


@dataclass(frozen=True)
class PriceTimesUsage:
    """J^i = v^i(x^i) + p(z)^T x^i."""

    utility: Union[ZeroUtility, QuadraticTracking]
    price: DiagonalPrice
    n: int

    def value_all(self, X, z):
        return self.utility.value_all(X) \
            + np.einsum("ij,ij->i", np.broadcast_to(self.price.value(z),
                                                    X.shape), X)

    def grad_own_all(self, X, z):
        return self.utility.grad_all(X) + self.price.value(z)

    def grad_agg_all(self, X, z):
        return X * self.price.diag(z)

    def mapping_all(self, X, z, M, nash, charge=None):
        """Own gradient plus price, then the aggregate term over M when
        nash, then charge, each summed in place."""
        out = self.grad_own_all(X, z)
        if nash:
            agg = self.grad_agg_all(X, z)
            agg /= M
            out += agg
        if charge is not None:
            out += charge
        return out

    def own_lipschitz(self) -> float:
        return self.utility.lipschitz()

    def _slope_maxima(self, grid, terms) -> list:
        """The maxima of terms(Z) over the rows z 1^T of Z, z a point of
        grid(), a grid of [0, b] whose first point is 0.  A price whose
        slopes fall is read at z = 0 alone, where the true maxima are; with
        monotone rounding they are also the grid's, bit for bit."""
        if self.price.slopes_fall:
            return [float(np.max(t)) for t in terms(np.zeros(self.n))]
        return grid_extremes(grid(), self.n, terms)

    def aggregate_lipschitz(self, hi) -> float:
        """max |p'| over a 1e-4 grid of [0, max(hi)]."""
        return self._slope_maxima(
            lambda: np.arange(0.0, float(np.max(hi)) + 1e-4, 1e-4),
            lambda Z: (np.abs(self.price.diag(Z)),))[0]

    def closed_form_response(self, z, charge, proj):
        return self.utility.response(self.price.value(z) + charge, proj)

    def deviation_lipschitz(self, M, hi) -> float:
        """Own curvature plus the chain-rule terms, with |p'| and |p''|
        maximized over a 2049-point grid of [0, max(hi)].  The grid is
        coarser than aggregate_lipschitz's: it sets only epsilon_nash's
        step, and the 1e-4 grid would add milliseconds to every call of a
        price whose slopes do not fall."""
        dmax, ddmax = self._slope_maxima(
            lambda: np.linspace(0.0, float(np.max(hi)), 2049),
            lambda Z: (np.abs(self.price.diag(Z)),
                       np.abs(self.price.diag2(Z))))
        xmax = float(np.max(np.abs(hi)))
        return self.own_lipschitz() + 2.0 * dmax / M + ddmax * xmax / M**2

    def constant_jacobian(self, M, nash):
        return None

    def exact_constants(self, M, nash):
        return None

    def slot_terms(self, X, M, nash) -> tuple:
        """(g, u) with slot block H_t = diag(g_t) + u_t 1^T.

        The price acts componentwise and the utility has per-agent
        curvature weights gamma, so the mapping's Jacobian is
        block-diagonal under the agent/component reordering, one M x M
        block per slot t.  ``X`` is an (M, n) profile or an (S, M, n) stack
        of profiles; g and u have shape (n, M) or (S, n, M).  With
        c_t = p'_t / M:

        * Wardrop: g = gamma, u = c_t 1;
        * Nash: g = gamma + c_t, u = c_t 1 + (p''_t / M^2) x_t.
        """
        z = np.add.reduce(X, axis=-2) / M
        c = (self.price.diag(z) / M)[..., None]
        g = np.broadcast_to(self.utility.weights(M), c.shape[:-1] + (M,))
        u = np.broadcast_to(c, g.shape)
        if nash:
            g = g + c
            u = u + (self.price.diag2(z) / M**2)[..., None] \
                * np.swapaxes(X, -1, -2)
        return g, u


CostModel = Union[QuadraticCost, PriceTimesUsage]


# ---------------------------------------------------------------------------
# The game itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregativeGame:
    M: int
    n: int
    cost: CostModel
    individual: SetFamily
    coupling: CouplingConstraint
    # Set by an application's builder: its own bounds, a dict, as a function
    # of the game's ConstantsEstimate, added to the generic ones.
    application_bounds: Optional[Callable[..., dict]] = None

    def __post_init__(self):
        if self.M <= 0 or self.n <= 0:
            raise DimensionError("games require M >= 1 and n >= 1")
        if len(self.individual) != self.M:
            raise DimensionError("one individual constraint set per agent")
        if self.individual.n != self.n:
            raise DimensionError("individual set dimension mismatch")
        if self.coupling.M != self.M or self.coupling.n != self.n:
            raise DimensionError("coupling constraint dimension mismatch")
        if self.cost.n != self.n:
            raise DimensionError("cost model dimension mismatch")

    @cached_property
    def projector(self):
        """The ProfileProjector of the individual sets, built on first use
        and shared by every solve and check of the game."""
        from .projection import ProfileProjector
        return ProfileProjector(self.individual)

    def profile(self, x) -> StrategyProfile:
        """x, a profile, its matrix or its entries, as a profile of the
        game; a profile or a matrix not (M, n) raises DimensionError."""
        if isinstance(x, StrategyProfile):
            x = x.as_matrix()
        x = np.asarray(x, dtype=float)
        if x.ndim == 2 and x.shape != (self.M, self.n):
            raise DimensionError(f"a profile has shape ({self.M}, {self.n}),"
                                 f" not {x.shape}")
        return StrategyProfile(x.reshape(-1) if x.ndim == 2 else x, self.M,
                               self.n)

    def bounding_box(self):
        """Tightest common box containing every individual set."""
        lo, hi = self.individual.bounds()
        return lo.min(axis=0), hi.max(axis=0)


def cost_value(game: AggregativeGame, i: int, x_i, z) -> float:
    """Cost J^i(x^i, z) of agent i at strategy x_i and average z: row i of
    the cost model's value_all on a profile whose row i is x_i, O(M n)."""
    if not 0 <= i < game.M:
        raise IndexError(f"agent index {i} out of range [0, {game.M})")
    x_i = _vec(x_i, "x_i")
    z = _vec(z, "z")
    if x_i.size != game.n or z.size != game.n:
        raise DimensionError("x_i and z must have length n")
    X = np.zeros((game.M, game.n))
    X[i] = x_i
    return float(game.cost.value_all(X, z)[i])


@dataclass(frozen=True)
class FeasibilityReport:
    individual_violations: np.ndarray  # (M,) max violation per agent
    coupling_residual: np.ndarray  # b - A x
    feasible: bool

    def as_row(self) -> dict:
        """The feasibility columns of report.csv."""
        return {
            "feasible": int(self.feasible),
            "max_individual_violation": float(
                np.max(self.individual_violations, initial=0.0)),
            "max_coupling_violation": float(
                np.max(-self.coupling_residual, initial=0.0)),
        }


def feasibility_report(game: AggregativeGame, x, tol: float = 1e-6
                       ) -> FeasibilityReport:
    """Check individual and coupling feasibility of a profile within tol."""
    prof = game.profile(x)
    X = prof.as_matrix()
    viol = game.individual.violation(X)
    resid = game.coupling.residual(X)
    feasible = bool(np.all(viol <= tol) and np.min(resid, initial=0.0) >= -tol)
    return FeasibilityReport(viol, resid, feasible)
