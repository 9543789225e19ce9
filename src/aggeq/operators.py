"""Game mappings for equilibrium computation.

The Nash mapping stacks the full cost gradients, including the chain-rule
term through the population average; the Wardrop mapping freezes the average.
Also provides constants estimation (strong monotonicity, Lipschitz).  The
solvers pass the coupling term A^T lambda in as the mapping's charge.  The
Jacobian structure behind the constants comes from the cost model, so
nothing here dispatches on its type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, InfeasibleSetError
from .game import AggregativeGame, aggregate_matrix

NASH = "nash"
WARDROP = "wardrop"

FD_STEP_SCALE = 1e-6
# Sampled constants handle this many slot-block entries (samples x n x M)
# per pass: enough samples for one bisection probe to be a single array
# pass over many slots, few enough to keep each temporary near 0.5 MB.
SAMPLE_CHUNK_ENTRIES = 1 << 16


class GameOperator:
    """Stacked gradient mapping of a game, Nash or Wardrop flavored.

    ``evaluate`` takes and returns stacked (M*n,) vectors; ``evaluate_blocks``
    works on (M, n) matrices and is the hot path for the solvers.
    """

    def __init__(self, game: AggregativeGame, flavor: str):
        if flavor not in (NASH, WARDROP):
            raise DimensionError(f"unknown flavor {flavor!r}")
        self.game = game
        self.flavor = flavor

    def evaluate_blocks(self, X: np.ndarray, z: Optional[np.ndarray] = None,
                        charge: Optional[np.ndarray] = None) -> np.ndarray:
        """F(X) + charge as a fresh (M, n) matrix, the cost model's
        ``mapping_all`` with the game's M.  z is X's aggregate (None
        computes it) or an (M, n) matrix of per-agent averages, as
        ``epsilon_nash`` passes its deviations' averages; charge, summed in
        with the mapping's own terms, is the solvers' dual charge A^T lam:
        the (n,) row lam / M under a per-component cap, else (M, n)
        blocks."""
        X = np.asarray(X, dtype=float)
        if z is None:
            z = aggregate_matrix(X)
        return self.game.cost.mapping_all(X, z, self.game.M,
                                          self.flavor == NASH, charge)

    def evaluate(self, x) -> np.ndarray:
        X = self.game.profile(x).as_matrix()
        return self.evaluate_blocks(X).reshape(-1)

    def jacobian(self, x) -> np.ndarray:
        """(M*n) x (M*n) analytic Jacobian: the cost model's constant one,
        or else assembled from the slot blocks."""
        X = self.game.profile(x).as_matrix()
        J = self.game.cost.constant_jacobian(self.game.M, self.flavor == NASH)
        if J is not None:
            return J
        return _assemble_from_slot_blocks(self.slot_blocks(X))

    def slot_terms(self, X: np.ndarray) -> Optional[tuple]:
        """The cost model's slot terms (g, u) of X, slot block
        H_t = diag(g_t) + u_t 1^T, or None when it has no slot structure."""
        return self.game.cost.slot_terms(X, self.game.M, self.flavor == NASH)

    def slot_blocks(self, X: np.ndarray) -> Optional[np.ndarray]:
        """(n, M, M) per-component Jacobian blocks, or None when the slot
        structure of ``slot_terms`` does not apply."""
        terms = self.slot_terms(X)
        if terms is None:
            return None
        g, u = terms
        return g[:, :, None] * np.eye(self.game.M) + u[:, :, None]

    def _fd_jacobian(self, X: np.ndarray) -> np.ndarray:
        """Central finite differences: the reference the analytic Jacobians
        are tested against, not a path of the library."""
        x = X.reshape(-1)
        d = x.size
        h = FD_STEP_SCALE * (1.0 + float(np.max(np.abs(x), initial=0.0)))
        J = np.empty((d, d))
        for j in range(d):
            xp = x.copy()
            xm = x.copy()
            xp[j] += h
            xm[j] -= h
            J[:, j] = (self.evaluate(xp) - self.evaluate(xm)) / (2.0 * h)
        return J


def _assemble_from_slot_blocks(blocks: np.ndarray) -> np.ndarray:
    """Dense Jacobian in agent-major ordering from (n, M, M) slot blocks."""
    n, M, _ = blocks.shape
    J = np.zeros((M * n, M * n))
    for t in range(n):
        J[t::n, t::n] = blocks[t]
    return J


@dataclass(frozen=True)
class MonotonicityReport:
    alpha: float
    lipschitz: float
    exact: bool
    samples: int

    def safe_alpha(self) -> float:
        """Monotonicity constant with a safety factor on sampled estimates."""
        return self.alpha if self.exact else 0.9 * self.alpha

    def safe_lipschitz(self) -> float:
        return self.lipschitz if self.exact else 1.1 * self.lipschitz


def build_operator(game: AggregativeGame, flavor: str) -> GameOperator:
    return GameOperator(game, flavor)


def coupling_constants(game: AggregativeGame) -> tuple:
    """(R, L_p): R the norm bound of the tightest common box, L_p the cost
    model's aggregate Lipschitz constant.  No monotonicity sampling."""
    lo, hi = game.bounding_box()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InfeasibleSetError("unbounded individual sets")
    R = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
    return R, game.cost.aggregate_lipschitz(hi)


def operator_gap(game: AggregativeGame, x) -> tuple:
    """Norm of the Nash/Wardrop mapping difference and its bound
    R L_p / sqrt(M), from ``coupling_constants``.

    Returns (gap, bound) and asserts that the gap respects the bound.
    """
    X = game.profile(x).as_matrix()
    f_n = build_operator(game, NASH).evaluate_blocks(X)
    f_w = build_operator(game, WARDROP).evaluate_blocks(X)
    gap = float(np.linalg.norm((f_n - f_w).reshape(-1)))
    R, L_p = coupling_constants(game)
    bound = R * L_p / np.sqrt(game.M)
    if gap > bound + 1e-9:
        raise AssertionError(
            f"mapping gap {gap:.3e} exceeds bound {bound:.3e}")
    return gap, bound


def default_sampler(game: AggregativeGame) -> Callable:
    """Feasible-point sampler over the product of individual sets.

    ``sample(rng)`` draws a uniform point in each agent's bounding box and
    projects it onto the agent's set, an (M, n) profile.  Given the same
    Generator state the draw is deterministic.

    A draw is the one array expression lo + (hi - lo) * rng.random(shape),
    which numpy's ``rng.uniform(lo, hi)`` evaluates element by element in
    C with the same roundings; with array bounds that per-element path is
    the slower one.  Raises InfeasibleSetError when a set is unbounded.
    """
    proj = game.projector
    lo, hi = game.individual.bounds()
    span = hi - lo
    if not np.all(np.isfinite(span)):
        raise InfeasibleSetError("unbounded individual sets")

    def sample(rng: np.random.Generator) -> np.ndarray:
        return proj(lo + span * rng.random(lo.shape))

    return sample


def _count_negative_2x2(a, b, c):
    """Number of negative eigenvalues of each symmetric [[a, b], [b, c]]."""
    det = a * c - b * b
    return np.where(det < 0, 1,
                    np.where(a + c < 0, np.where(det > 0, 2, 1), 0))


def _min_eig_diag_plus_rank2(D: np.ndarray, v: np.ndarray, K: np.ndarray
                             ) -> np.ndarray:
    """Smallest eigenvalue of each diag(D[k]) + W K[k] W^T, W = [1, v[k]].

    D and v are (m, M) and K is (m, 2, 2), symmetric and invertible.  The
    update W K W^T has the eigenvalues of K G, G = W^T W the 2 x 2 Gram
    matrix, and zero when M > 2 (for M = 1 only trace(K G)).  A row whose
    diagonal is uniform, D[k] = d 1, therefore has the spectrum
    d + eig(K G), plus d itself when M > 2.  Every other row gets Weyl
    bounds from the same numbers and is bisected on the eigenvalue count
    below lambda: by Sylvester's law of inertia applied to the bordered
    matrix [[D - lambda, W], [W^T, -K^{-1}]], that count is
    #{D_i < lambda} + neg(-K^{-1} - W^T (D - lambda)^{-1} W) - pos(K),
    where only the last two terms are 2 x 2 inertias (Golub, "Some modified
    matrix eigenvalue problems", SIAM Review 1973).  O(M) per row and probe.
    """
    m, M = D.shape
    s, q = v.sum(axis=1), np.einsum("km,km->k", v, v)
    tr = M * K[:, 0, 0] + 2.0 * s * K[:, 0, 1] + q * K[:, 1, 1]
    if M == 1:
        e_lo = e_hi = tr
    else:
        det = (K[:, 0, 0] * K[:, 1, 1] - K[:, 0, 1] ** 2) * (M * q - s * s)
        half_gap = np.sqrt(np.maximum(0.25 * tr * tr - det, 0.0))
        e_lo, e_hi = 0.5 * tr - half_gap, 0.5 * tr + half_gap
        if M > 2:
            e_lo, e_hi = np.minimum(e_lo, 0.0), np.maximum(e_hi, 0.0)
    d_lo, d_hi = D.min(axis=1), D.max(axis=1)
    out = d_lo + e_lo
    rows = np.flatnonzero(d_hi > d_lo)
    if rows.size == 0:
        return out
    D, v, K = D[rows], v[rows], K[rows]
    lo = out[rows]
    hi = np.minimum(d_lo[rows] + e_hi[rows], d_hi[rows] + e_lo[rows])
    tol = 4.0 * np.finfo(float).eps * (np.abs(D).max(axis=1)
                                       + np.maximum(-e_lo, e_hi)[rows])
    det_K = K[:, 0, 0] * K[:, 1, 1] - K[:, 0, 1] ** 2
    inv_a, inv_b, inv_c = (K[:, 1, 1] / det_K, -K[:, 0, 1] / det_K,
                           K[:, 0, 0] / det_K)
    pos_K = _count_negative_2x2(-K[:, 0, 0], -K[:, 0, 1], -K[:, 1, 1])
    powers = np.stack([np.ones_like(v), v, v * v], axis=1)
    for _ in range(200):
        open_ = hi - lo > tol
        if not open_.any():
            break
        mid = 0.5 * (lo + hi)
        shifted = D - mid[:, None]
        # A probe on a pole of (D - lambda)^{-1} counts that D_i as lying
        # tol below it, a perturbation within the accuracy sought.
        shifted = np.where(shifted == 0.0, -tol[:, None], shifted)
        r = np.einsum("kjm,km->kj", powers, 1.0 / shifted)
        count = ((shifted < 0).sum(axis=1) - pos_K
                 + _count_negative_2x2(-inv_a - r[:, 0], -inv_b - r[:, 1],
                                       -inv_c - r[:, 2]))
        below = open_ & (count >= 1)
        hi = np.where(below, mid, hi)
        lo = np.where(open_ & ~below, mid, lo)
    out[rows] = 0.5 * (lo + hi)
    return out


def _slot_constants(g: np.ndarray, u: np.ndarray) -> tuple:
    """(alpha, L_F) over slot blocks H = diag(g) + u 1^T, rows of (m, M).

    sym(H) = diag(g) + [1, u] [[0, 1/2], [1/2, 0]] [1, u]^T and
    H^T H = diag(g^2) + [1, g u] [[|u|^2, 1], [1, 0]] [1, g u]^T, so both
    constants are extreme eigenvalues of a diagonal plus a rank-2 term.
    """
    m = g.shape[0]
    K_sym = np.broadcast_to([[0.0, 0.5], [0.5, 0.0]], (m, 2, 2))
    alpha = _min_eig_diag_plus_rank2(g, u, K_sym)
    # lambda_max(H^T H) = -lambda_min(-H^T H).
    neg_K_gram = np.zeros((m, 2, 2))
    neg_K_gram[:, 0, 0] = -np.einsum("km,km->k", u, u)
    neg_K_gram[:, 0, 1] = neg_K_gram[:, 1, 0] = -1.0
    lip2 = -_min_eig_diag_plus_rank2(-g * g, g * u, neg_K_gram)
    return float(alpha.min()), float(np.sqrt(max(lip2.max(), 0.0)))


def monotonicity_analysis(op: GameOperator, n_samples: int = 50,
                          seed: int = 0) -> MonotonicityReport:
    """Strong-monotonicity and Lipschitz constants of the mapping.

    Affine mappings get exact constants from the cost model.  Otherwise the
    constants are the worst case over sampled Jacobians: the minimum
    symmetrized eigenvalue and the maximum spectral norm, flagged as
    estimates, at points of ``default_sampler``.  Per sample they come
    exactly from the slot structure (see ``GameOperator.slot_terms``) at
    O(nM) cost.
    """
    game = op.game
    exact = game.cost.exact_constants(game.M, op.flavor == NASH)
    if exact is not None:
        return MonotonicityReport(*exact, exact=True, samples=0)
    if n_samples < 1:
        raise DimensionError("n_samples must be positive")
    sampler = default_sampler(game)
    rng = np.random.default_rng(seed)
    chunk = max(1, SAMPLE_CHUNK_ENTRIES // (game.M * game.n))
    alpha = np.inf
    lip = 0.0
    for start in range(0, n_samples, chunk):
        samples = np.stack([np.asarray(sampler(rng), dtype=float)
                            for _ in range(min(chunk, n_samples - start))])
        g, u = (np.reshape(a, (-1, game.M)) for a in op.slot_terms(samples))
        a, l = _slot_constants(g, u)
        alpha, lip = min(alpha, a), max(lip, l)
    return MonotonicityReport(float(alpha), float(lip), exact=False,
                              samples=n_samples)


def quadratic_monotonicity_conditions(Q, C, tol: float = 1e-10) -> dict:
    """Sufficient conditions for joint Nash/Wardrop strong monotonicity of
    a quadratic game at every population size.

    Condition 1: Q positive definite and C symmetric positive definite.
    Condition 2: Q positive definite and Q - C^T Q^{-1} C positive definite.
    """
    Q = np.asarray(Q, dtype=float)
    C = np.asarray(C, dtype=float)
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise DimensionError("Q must be symmetric")
    q_pd = float(np.min(np.linalg.eigvalsh(Q))) > tol
    which = None
    if q_pd and np.allclose(C, C.T, atol=tol):
        if float(np.min(np.linalg.eigvalsh(0.5 * (C + C.T)))) > tol:
            which = "symmetric_positive_definite_price"
    if which is None and q_pd:
        schur = Q - C.T @ np.linalg.solve(Q, C)
        if float(np.min(np.linalg.eigvalsh(0.5 * (schur + schur.T)))) > tol:
            which = "schur_complement"
    return {"holds": which is not None, "which_condition": which}
