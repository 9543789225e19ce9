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


def aggregate(x: Union[StrategyProfile, np.ndarray], M: Optional[int] = None,
              n: Optional[int] = None) -> np.ndarray:
    """Population average (1/M) sum_i x^i of a strategy profile."""
    if isinstance(x, StrategyProfile):
        return x.aggregate()
    if M is None or n is None:
        raise DimensionError("aggregate of a raw vector needs M and n")
    x = _vec(x, "profile")
    if x.size != M * n:
        raise DimensionError(f"profile length {x.size} != M*n = {M * n}")
    return aggregate_matrix(x.reshape(M, n))


# ---------------------------------------------------------------------------
# Individual constraint sets
# ---------------------------------------------------------------------------
#
# Each gives violation(x), bounds() and active_rows(x, tol): the
# (inequality, equality) gradient rows, as (k, n) arrays, of the constraints
# active at x within tol.


def _active_box_rows(x, lo, hi, tol) -> np.ndarray:
    """-e_t where x_t <= lo_t + tol and +e_t where x_t >= hi_t - tol, per
    component the lo row before the hi row."""
    t, at_hi = np.nonzero(np.stack([x <= lo + tol, x >= hi - tol], axis=1))
    rows = np.zeros((t.size, x.size))
    rows[np.arange(t.size), t] = np.where(at_hi, 1.0, -1.0)
    return rows


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {x : lo <= x <= hi}."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo, hi = _vec(self.lo, "lo"), _vec(self.hi, "hi")
        if lo.shape != hi.shape:
            raise DimensionError("lo and hi must have the same shape")
        if np.any(lo > hi):
            raise InfeasibleSetError("box requires lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.size

    def bounds(self):
        return self.lo, self.hi

    def violation(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(max(np.max(self.lo - x, initial=0.0),
                         np.max(x - self.hi, initial=0.0)))

    def active_rows(self, x, tol):
        return (_active_box_rows(x, self.lo, self.hi, tol),
                np.zeros((0, x.size)))


@dataclass(frozen=True)
class BoxBudget:
    """Box intersected with a minimum-total constraint sum(x) >= theta."""

    lo: np.ndarray
    hi: np.ndarray
    theta: float

    def __post_init__(self):
        lo, hi = _vec(self.lo, "lo"), _vec(self.hi, "hi")
        if lo.shape != hi.shape:
            raise DimensionError("lo and hi must have the same shape")
        if np.any(lo > hi):
            raise InfeasibleSetError("box requires lo <= hi componentwise")
        excess = self.theta - float(np.sum(hi))
        if excess > 0.0 and excess > sum_rounding_bound(hi):
            raise InfeasibleSetError(
                f"budget theta={self.theta} exceeds sum(hi)={np.sum(hi)}"
            )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def dim(self):
        return self.lo.size

    def bounds(self):
        return self.lo, self.hi

    def violation(self, x) -> float:
        x = np.asarray(x, dtype=float)
        box = max(np.max(self.lo - x, initial=0.0),
                  np.max(x - self.hi, initial=0.0))
        return float(max(box, self.theta - float(np.sum(x))))

    def active_rows(self, x, tol):
        ineq = _active_box_rows(x, self.lo, self.hi, tol)
        if float(np.sum(x)) <= self.theta + tol:
            ineq = np.vstack([ineq, -np.ones(x.size)])
        return ineq, np.zeros((0, x.size))


@dataclass(frozen=True)
class FlowPolytope:
    """Unit-box flows satisfying conservation B x = b_od.

    B is a node-edge incidence matrix (+1 head, -1 tail); b_od marks the
    origin (-1) and destination (+1) of the agent.
    """

    B: np.ndarray
    b_od: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        b_od = _vec(self.b_od, "b_od")
        if B.ndim != 2 or B.shape[0] != b_od.size:
            raise DimensionError("incidence matrix rows must match b_od length")
        vals = np.unique(b_od)
        if not np.all(np.isin(vals, (-1.0, 0.0, 1.0))):
            raise InfeasibleSetError("b_od entries must be in {-1, 0, 1}")
        if abs(float(np.sum(b_od))) > 1e-12:
            raise InfeasibleSetError("b_od must sum to zero")
        x0 = np.linalg.lstsq(B, b_od, rcond=None)[0]
        if np.max(np.abs(B @ x0 - b_od), initial=0.0) > 1e-8:
            raise InfeasibleSetError("system B x = b_od is inconsistent")
        B = B.copy()
        B.setflags(write=False)
        b_od = b_od.copy()
        b_od.setflags(write=False)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b_od", b_od)

    @property
    def dim(self):
        return self.B.shape[1]

    def bounds(self):
        e = self.B.shape[1]
        return np.zeros(e), np.ones(e)

    def violation(self, x) -> float:
        x = np.asarray(x, dtype=float)
        box = max(np.max(-x, initial=0.0), np.max(x - 1.0, initial=0.0))
        cons = float(np.max(np.abs(self.B @ x - self.b_od), initial=0.0))
        return float(max(box, cons))

    def active_rows(self, x, tol):
        return _active_box_rows(x, 0.0, 1.0, tol), self.B


IndividualConstraintSet = Union[Box, BoxBudget, FlowPolytope]


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

    def agent_block(self, i: int) -> np.ndarray:
        """A_(:,i), the m x n block acting on agent i."""
        if self.A is None:
            return np.eye(self.n) / self.M
        return self.A[:, i * self.n : (i + 1) * self.n]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """A x for an (M, n) strategy matrix."""
        if self.A is None:
            return aggregate_matrix(X)
        return self.A @ X.reshape(-1)

    def residual(self, X: np.ndarray) -> np.ndarray:
        """Slack b - A x; nonnegative iff the constraint holds.  A (k, M, n)
        stack of strategy matrices gets (k, m) slacks, each row with the
        bytes of its matrix's own call; the cap form takes them in one
        reduction."""
        if X.ndim == 3:
            if self.A is None:
                return self.b - np.add.reduce(X, axis=1) / self.M
            return np.stack([self.residual(Xk) for Xk in X])
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
    values/derivatives.
    """

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    ddf: Callable[[np.ndarray], np.ndarray]

    def value(self, z):
        return np.asarray(self.f(z), dtype=float)

    def diag(self, z):
        return np.asarray(self.df(z), dtype=float)

    def diag2(self, z):
        return np.asarray(self.ddf(z), dtype=float)


class ZeroUtility:
    """v^i = 0: the cost is linear in the own strategy."""

    def weights(self, M):
        """Per-agent curvature weights (gamma_i): all zero."""
        return np.zeros(M)

    def lipschitz(self):
        return 0.0

    def value(self, i, x_i):
        return 0.0

    def grad(self, i, x_i):
        return np.zeros_like(np.asarray(x_i, dtype=float))

    def value_all(self, X):
        return np.zeros(X.shape[0])

    def grad_all(self, X):
        return np.zeros_like(X)

    def response(self, q, proj):
        """Every agent's minimizer of q[i]^T x over its set: the sets'
        linear minimizer, or None when they have none in closed form."""
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

    def value(self, i, x_i):
        d = np.asarray(x_i, dtype=float) - self.ref[i]
        return 0.5 * self.gamma[i] * float(d @ d)

    def grad(self, i, x_i):
        return self.gamma[i] * (np.asarray(x_i, dtype=float) - self.ref[i])

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
# Both give gradients per agent and for all agents (grad_own at fixed z,
# grad_agg with respect to z), and:
# * own_lipschitz(): a Lipschitz constant of grad_own in x, for every agent;
# * aggregate_lipschitz(hi): (L_p, source) of the price/aggregate coupling;
# * closed_form_response(z, charge, proj): all agents' minimizers of
#   J^i(x, z) + charge[i]^T x over their sets, or None without a closed form;
# * deviation_value_grad(X, Z, M): values and gradient rows of agent i's
#   deviation objective x -> J^i(x, (x + S_i) / M) at X[i], where
#   Z = (X + S) / M and S_i sums the other agents' strategies;
# * deviation_lipschitz(M, hi): a Lipschitz constant of those gradients;
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
    ``build_quadratic_game`` makes both, the batched gradients multiply by
    the scalar s in place of the dense product.  The product's off-diagonal
    terms are exact zeros, so both give the same bits.  ``Q`` and ``C`` stay
    the matrices for everything else.
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

    def value(self, i, x_i, z):
        x_i = np.asarray(x_i, dtype=float)
        z = np.asarray(z, dtype=float)
        return float(0.5 * x_i @ self.Q @ x_i + (self.C @ z + self.c[i]) @ x_i)

    def grad_own(self, i, x_i, z):
        return self.Q @ np.asarray(x_i, dtype=float) + self.C @ z + self.c[i]

    def grad_agg(self, i, x_i, z):
        return self.C.T @ np.asarray(x_i, dtype=float)

    def grad_own_all(self, X, z):
        out = X @ self.Q.T if self.q_scale is None else X * self.q_scale
        out += self.C @ z if self.c_scale is None else z * self.c_scale
        out += self.c
        return out

    def grad_agg_all(self, X, z):
        return X @ self.C if self.c_scale is None else X * self.c_scale

    def own_lipschitz(self) -> float:
        return float(np.linalg.norm(self.Q, 2))

    def aggregate_lipschitz(self, hi) -> tuple:
        return float(np.linalg.norm(self.C, 2)), "exact"

    def closed_form_response(self, z, charge, proj):
        return None

    def deviation_value_grad(self, X, Z, M):
        lin = Z @ self.C.T + self.c
        vals = 0.5 * np.einsum("ij,jk,ik->i", X, self.Q, X) \
            + np.einsum("ij,ij->i", lin, X)
        grads = X @ self.Q.T + lin + (X @ self.C) / M
        return vals, grads

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

    def value(self, i, x_i, z):
        x_i = np.asarray(x_i, dtype=float)
        return float(self.utility.value(i, x_i) + self.price.value(z) @ x_i)

    def grad_own(self, i, x_i, z):
        return self.utility.grad(i, x_i) + self.price.value(z)

    def grad_agg(self, i, x_i, z):
        return self.price.diag(z) * np.asarray(x_i, dtype=float)

    def grad_own_all(self, X, z):
        return self.utility.grad_all(X) + self.price.value(z)[None, :]

    def grad_agg_all(self, X, z):
        return X * self.price.diag(z)[None, :]

    def own_lipschitz(self) -> float:
        return self.utility.lipschitz()

    def aggregate_lipschitz(self, hi) -> tuple:
        """max |p'| over a 1e-4 grid of [0, max(hi)], scanned in chunks
        of about 1,024 points, whose (1024, n) temporaries stay in cache."""
        grid = np.arange(0.0, float(np.max(hi)) + 1e-4, 1e-4)
        best = 0.0
        for z in np.array_split(grid, max(1, grid.size // 1024)):
            Z = np.broadcast_to(z[:, None], (z.size, self.n))
            best = max(best, float(np.max(np.abs(self.price.diag(Z)))))
        return best, "formula"

    def closed_form_response(self, z, charge, proj):
        return self.utility.response(self.price.value(z)[None, :] + charge,
                                     proj)

    def deviation_value_grad(self, X, Z, M):
        p = self.price.value(Z)
        vals = self.utility.value_all(X) + np.einsum("ij,ij->i", p, X)
        grads = self.utility.grad_all(X) + p + (self.price.diag(Z) * X) / M
        return vals, grads

    def deviation_lipschitz(self, M, hi) -> float:
        """Own curvature plus the chain-rule terms, with |p'| and |p''|
        maximized over a 2049-point grid of [0, max(hi)]."""
        zg = np.linspace(0.0, float(np.max(hi)), 2049)
        Z = np.broadcast_to(zg[:, None], (zg.size, self.n))
        dmax = float(np.max(np.abs(self.price.diag(Z))))
        ddmax = float(np.max(np.abs(self.price.diag2(Z))))
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
    individual: tuple
    coupling: CouplingConstraint
    tag: Optional[str] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.M <= 0 or self.n <= 0:
            raise DimensionError("games require M >= 1 and n >= 1")
        individual = tuple(self.individual)
        if len(individual) != self.M:
            raise DimensionError("one individual constraint set per agent")
        for cs in individual:
            if cs.dim != self.n:
                raise DimensionError("individual set dimension mismatch")
        if self.coupling.M != self.M or self.coupling.n != self.n:
            raise DimensionError("coupling constraint dimension mismatch")
        if self.cost.n != self.n:
            raise DimensionError("cost model dimension mismatch")
        object.__setattr__(self, "individual", individual)

    def profile(self, x) -> StrategyProfile:
        if isinstance(x, StrategyProfile):
            return x
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return StrategyProfile.from_matrix(x)
        return StrategyProfile(x, self.M, self.n)

    def bounding_box(self):
        """Tightest common box containing every individual set."""
        lo = np.full(self.n, np.inf)
        hi = np.full(self.n, -np.inf)
        for cs in self.individual:
            l, h = cs.bounds()
            lo = np.minimum(lo, l)
            hi = np.maximum(hi, h)
        return lo, hi


def cost_value(game: AggregativeGame, i: int, x_i, z) -> float:
    """Cost J^i(x^i, z) of agent i at strategy x_i and average z."""
    if not 0 <= i < game.M:
        raise IndexError(f"agent index {i} out of range [0, {game.M})")
    x_i = _vec(x_i, "x_i")
    z = _vec(z, "z")
    if x_i.size != game.n or z.size != game.n:
        raise DimensionError("x_i and z must have length n")
    return game.cost.value(i, x_i, z)


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
    viol = np.array([game.individual[i].violation(X[i])
                     for i in range(game.M)])
    resid = game.coupling.residual(X)
    feasible = bool(np.all(viol <= tol) and np.min(resid, initial=0.0) >= -tol)
    return FeasibilityReport(viol, resid, feasible)
