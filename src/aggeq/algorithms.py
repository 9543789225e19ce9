"""Decentralized equilibrium-seeking schemes.

Three solvers share the interface game -> EquilibriumResult:

* ``two_level_wardrop``: inner averaged optimal-response loop driving the
  aggregate to a fixed point at frozen prices, outer projected dual ascent.
* ``asymmetric_projection``: single-timescale primal-dual projections with a
  lagged dual residual; works for both flavors.
* ``extragradient``: two-evaluation scheme on the primal-dual mapping,
  needing only plain monotonicity.

Each solver sets up its constants and step size, then hands a generator
of (x, lambda, primal updates) steps to one iteration loop, ``_drive``.
That loop owns the starting point, the divergence check, the stop test,
the trace (``TRACE_COLUMNS``; a row per outer two-level iteration, else
every 25 updates and at convergence) and the result.  The stop test is
max(primal step, dual step) <= tol, the inf-norm of successive (x, lambda)
iterates; the (M, n) primal step is taken only on a trace row or when the
(m,) dual step is within tol, which gives the same result.  The APA and
extragradient forward steps work in one (M, n) workspace per solve.
Iterates stay individually feasible (projections enforce it) and
multipliers nonnegative.  ``SOLVERS``, the one registry, maps each
algorithm name to its flavor and solver for the CLI and the tests.

The two-level scheme's optimal responses have one batched body,
``_batch_best_response``: the cost model's closed form where it has one,
else projected gradient with step 1 / (the cost's own-gradient Lipschitz
constant), computed once per call.  ``best_response`` is its row for one
agent.  Nothing here dispatches on the type of a cost model or a set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConvergenceError, DimensionError
from .game import AggregativeGame, StrategyProfile, aggregate_matrix
from .operators import (NASH, WARDROP, MonotonicityReport, build_operator,
                        monotonicity_analysis)
from .projection import ProfileProjector, projected_gradient

DIVERGENCE_FACTOR = 1e6
# Cap on the passes of each inner loop of the two-level scheme: the
# projected-gradient optimal responses and the averaging of the signal.
INNER_MAX_ITER = 100_000
# Their tolerance, tightened to 0.01 tol when the outer tol is below 1e-4.
INNER_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    tau: Optional[float] = None  # None = automatic from the step-size rule
    tol: float = 1e-4
    max_iter: int = 100_000
    seed: int = 0

    def __post_init__(self):
        given = ("tol",) + ("tau",) * (self.tau is not None)
        for name in given:  # a nan fails the comparison, as inf does
            if not 0 < getattr(self, name) < np.inf:
                raise DimensionError(f"{name} must be finite and positive")
        if self.max_iter < 1:
            raise DimensionError("max_iter must be at least 1")


@dataclass
class EquilibriumResult:
    x: StrategyProfile
    lam: np.ndarray
    flavor: str
    primal_updates: int
    dual_updates: int
    trace: list = field(default_factory=list)
    converged: bool = False

    def aggregate(self) -> np.ndarray:
        return self.x.aggregate()


def auto_step_size(alpha: float, l_f: float, a_norm: float,
                   scheme: str) -> float:
    """0.9 times the largest step size with a convergence guarantee.

    ``scheme``: "two-level" (dual ascent, needs alpha and the coupling
    norm), "apa" (primal-dual, needs all three constants; the vanishing
    coupling limit alpha / l_f**2 is used when a_norm is negligible) or
    "extragradient" (needs the Lipschitz constant of the extended mapping,
    bounded by l_f + a_norm).
    """
    if scheme == "two-level":
        if alpha <= 0 or a_norm <= 0:
            raise DimensionError("two-level step needs alpha > 0, |A| > 0")
        return 0.9 * 2.0 * alpha / a_norm**2
    if scheme == "apa":
        if alpha <= 0 or l_f <= 0:
            raise DimensionError("apa step needs alpha > 0 and l_f > 0")
        if a_norm < 1e-12:
            return 0.9 * alpha / l_f**2
        thr = (-l_f**2 + np.sqrt(l_f**4 + 4.0 * alpha**2 * a_norm**2)) \
            / (2.0 * alpha * a_norm**2)
        return 0.9 * thr
    if scheme == "extragradient":
        l_t = l_f + a_norm
        if l_t <= 0:
            raise DimensionError("extragradient needs a positive Lipschitz"
                                 " constant")
        return 0.9 / l_t
    raise DimensionError(f"unknown step-size scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Optimal responses
# ---------------------------------------------------------------------------


def _batch_best_response(game: AggregativeGame, proj: ProfileProjector,
                         X0: np.ndarray, z: np.ndarray, lam: np.ndarray,
                         inner_tol: float) -> np.ndarray:
    """All agents' minimizers over their sets of the cost at frozen average z
    plus the dual charge lam^T A_(:,i) x: the cost model's closed form where
    it has one, else projected gradient from X0."""
    cost = game.cost
    charge = game.coupling.adjoint_blocks(lam)
    X = cost.closed_form_response(z, charge, proj)
    if X is not None:
        return X
    L = cost.own_lipschitz()
    if L <= 0:
        raise ConvergenceError(
            "projected gradient needs positive own-cost curvature")
    return projected_gradient(lambda X: cost.grad_own_all(X, z) + charge,
                              proj, X0, 1.0 / L, inner_tol, INNER_MAX_ITER,
                              "optimal responses")


def best_response(game: AggregativeGame, i: int, z, lam,
                  inner_tol: float = INNER_TOL) -> np.ndarray:
    """Agent i's optimal response to (z, lam): row i of all agents'
    responses, ``_batch_best_response`` from the projected origin, so its
    cost is O(M)."""
    if not 0 <= i < game.M:
        raise IndexError(f"agent index {i} out of range [0, {game.M})")
    z = np.asarray(z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise DimensionError("multipliers must be nonnegative")
    proj = game.projector
    X0 = proj(np.zeros((game.M, game.n)))
    return _batch_best_response(game, proj, X0, z, lam, inner_tol)[i]


# ---------------------------------------------------------------------------
# The shared iteration loop
# ---------------------------------------------------------------------------

# Fields of a trace row, in the order trace.csv writes them.
TRACE_COLUMNS = ("k", "residual", "max_violation", "primal_updates",
                 "dual_updates")


def _constants(game: AggregativeGame, flavor: str,
               constants: Optional[MonotonicityReport], seed: int
               ) -> MonotonicityReport:
    if constants is not None:
        return constants
    return monotonicity_analysis(build_operator(game, flavor), seed=seed)


def _strong_monotonicity(rep: MonotonicityReport, scheme: str) -> float:
    """The usable strong-monotonicity constant; raise when it is zero."""
    alpha = rep.safe_alpha()
    if alpha <= 0:
        raise ConvergenceError(
            f"{scheme} needs a strongly monotone mapping, estimated"
            f" constant {rep.alpha:.3e}")
    return alpha


def _step_norm(new, old, work=None) -> float:
    """Inf-norm of new - old, formed in ``work`` when given."""
    diff = np.subtract(new, old, out=work)
    return float(np.abs(diff, out=diff).max(initial=0.0))


def _forward_step(op, proj, X, tau, Y, aY, lam, F):
    """proj(X - tau * (F(Y) + A^T lam)), with A^T lam passed to the mapping
    as its charge.  The mapping, its scaling by tau and the subtraction are
    all written into F, the solve's (M, n) workspace; the projection
    returns a new array, so F is free again when this returns.  aY = A y;
    under the per-component cap it is the aggregate F needs, and A^T lam is
    the row lam / M."""
    coupling = op.game.coupling
    if coupling.A is None:
        op.evaluate_blocks(Y, aY, lam / coupling.M, out=F)
    else:
        op.evaluate_blocks(Y, charge=coupling.adjoint_blocks(lam), out=F)
    F *= tau
    return proj(np.subtract(X, F, out=F))


def _check_divergence(X, radius, lam):
    """Raise when a multiplier exceeds DIVERGENCE_FACTOR * radius.  Only lam
    is tested: every primal iterate is a projection onto bounded sets inside
    game.bounding_box(), so max|X| <= radius and could never trip it."""
    if float(lam.max(initial=0.0)) > DIVERGENCE_FACTOR * radius:
        raise ConvergenceError(
            "iterates diverged; the step size is likely too large for the"
            " problem's constants", last=X)


def _drive(game: AggregativeGame, flavor: str, config: SolverConfig,
           steps, trace_every: int = 25) -> EquilibriumResult:
    """Run ``steps(proj, X, lam)``, a generator of (X, lam, primal updates)
    iterations, from the projected origin and zero multipliers.  Each
    iteration is one dual update, and config.max_iter >= 1 of them run at
    most."""
    proj = game.projector
    X = proj(np.zeros((game.M, game.n)))
    coupling = game.coupling
    lam = np.zeros(coupling.m)
    lo, hi = game.bounding_box()
    radius = float(max(np.max(np.abs(lo)), np.max(np.abs(hi)), 1.0))
    work = np.empty_like(X)  # the primal step's workspace
    primal, trace, converged = 0, [], False
    for k, (X_new, lam_new, updates) in zip(range(1, config.max_iter + 1),
                                            steps(proj, X, lam)):
        primal += updates
        _check_divergence(X_new, radius, lam_new)
        dual_step = _step_norm(lam_new, lam)
        X_old, X, lam = X, X_new, lam_new
        due = k % trace_every == 0
        # The residual is max(primal step, dual step).  The primal step
        # costs three (M, n) passes and the (m,) dual step one, so skip the
        # primal step when a cheap quantity already exceeds tol (the update
        # cannot converge) and no trace row is due.  A nan exceeds nothing.
        if dual_step > config.tol and not due:
            continue
        residual = max(_step_norm(X, X_old, work), dual_step)
        converged = residual <= config.tol
        if converged or due:
            # max(A x - b, 0): an exactly tight row reads 0.0, never -0.0.
            excess = coupling.apply(X) - coupling.b
            violation = float(excess.max(initial=0.0))
            trace.append(dict(zip(TRACE_COLUMNS,
                                  (k, residual, violation, primal, k))))
        if converged:
            break
    return EquilibriumResult(StrategyProfile.from_matrix(X), lam, flavor,
                             primal, k, trace, converged)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def two_level_wardrop(game: AggregativeGame, config: SolverConfig,
                      constants: Optional[MonotonicityReport] = None
                      ) -> EquilibriumResult:
    """Two-level scheme for a variational Wardrop equilibrium.

    Inner level: agents repeatedly best-respond to a frozen average signal
    which is updated by running averaging until it reaches a fixed point.
    Outer level: projected ascent on the coupling multipliers.
    """
    rep = _constants(game, WARDROP, constants, config.seed)
    alpha = _strong_monotonicity(rep, "two-level scheme")
    tau = config.tau
    if tau is None:
        tau = auto_step_size(alpha, rep.safe_lipschitz(),
                             game.coupling.norm(), "two-level")
    # The outer residual cannot drop below the inner solve's noise floor, so
    # the inner loops must run tighter than the outer tolerance.
    inner_tol = min(INNER_TOL, 0.01 * config.tol)

    def steps(proj, X, lam):
        while True:
            X, inner_steps = _inner_wardrop(game, proj, X, lam, inner_tol)
            lam = np.maximum(0.0, lam - tau * game.coupling.residual(X))
            yield X, lam, inner_steps

    return _drive(game, WARDROP, config, steps, trace_every=1)


def _inner_wardrop(game, proj, X, lam, inner_tol):
    """Averaged optimal-response loop at frozen multipliers.

    The averaging weight at pass h is 1/h, so the first pass simply adopts
    the responded aggregate as the signal.
    """
    z = aggregate_matrix(X)
    steps = 0
    for h in range(1, INNER_MAX_ITER + 1):
        X = _batch_best_response(game, proj, X, z, lam, inner_tol)
        steps += 1
        sigma = aggregate_matrix(X)
        z_new = sigma if h == 1 else (1.0 - 1.0 / h) * z + sigma / h
        if h > 1 and float(np.max(np.abs(z_new - z), initial=0.0)
                           ) <= inner_tol:
            return X, steps
        z = z_new
    raise ConvergenceError(
        "inner averaging loop did not converge; the frozen-average mapping"
        " may not admit a fixed point for this game", last=X)


def asymmetric_projection(game: AggregativeGame, flavor: str,
                          config: SolverConfig,
                          constants: Optional[MonotonicityReport] = None
                          ) -> EquilibriumResult:
    """Primal-dual projection scheme with a lagged dual residual.

    One projected primal step and one projected dual step per iteration;
    the dual step sees 2*A x_new - A x_old, which is what makes the single
    timescale convergent.
    """
    op = build_operator(game, flavor)
    rep = _constants(game, flavor, constants, config.seed)
    alpha = _strong_monotonicity(rep, "asymmetric projection scheme")
    l_f, a_norm = rep.safe_lipschitz(), game.coupling.norm()
    tau = config.tau
    if tau is None:
        tau = auto_step_size(alpha, l_f, a_norm, "apa")
    elif tau > auto_step_size(alpha, l_f, a_norm, "apa") / 0.9 + 1e-12:
        warnings.warn("supplied tau exceeds the convergence threshold",
                      RuntimeWarning, stacklevel=2)
    coupling = game.coupling

    def steps(proj, X, lam):
        F = np.empty_like(X)
        ax = coupling.apply(X)
        while True:
            X = _forward_step(op, proj, X, tau, X, ax, lam, F)
            ax0, ax = ax, coupling.apply(X)
            lam = np.maximum(0.0, lam - tau * (coupling.b - 2.0 * ax + ax0))
            yield X, lam, 1

    return _drive(game, flavor, config, steps)


def extragradient(game: AggregativeGame, flavor: str, config: SolverConfig,
                  constants: Optional[MonotonicityReport] = None
                  ) -> EquilibriumResult:
    """Extragradient on the primal-dual mapping; monotonicity suffices."""
    op = build_operator(game, flavor)
    rep = _constants(game, flavor, constants, config.seed)
    tau = config.tau
    if tau is None:
        tau = auto_step_size(rep.alpha, rep.safe_lipschitz(),
                             game.coupling.norm(), "extragradient")
    coupling = game.coupling

    def steps(proj, X, lam):
        F = np.empty_like(X)
        while True:
            ax = coupling.apply(X)
            X_half = _forward_step(op, proj, X, tau, X, ax, lam, F)
            lam_half = np.maximum(0.0, lam - tau * (coupling.b - ax))
            ax_half = coupling.apply(X_half)
            X = _forward_step(op, proj, X, tau, X_half, ax_half, lam_half, F)
            lam = np.maximum(0.0, lam - tau * (coupling.b - ax_half))
            yield X, lam, 1

    return _drive(game, flavor, config, steps)


class Solver(NamedTuple):
    """A registered scheme: the equilibrium it seeks, how to run it, and
    whether it needs a strongly monotone mapping (a positive safe alpha)."""
    flavor: str
    solve: Callable[..., EquilibriumResult]
    strongly_monotone: bool = True


# The one name-to-solver map, for the CLI and the tests.  Each entry looks
# its scheme up as a module attribute when called, so a wrapper installed
# on that attribute sees every solve; the game stays the first argument.
SOLVERS = {
    "two-level": Solver(WARDROP, lambda game, config, **kw:
                        two_level_wardrop(game, config, **kw)),
    "apa-nash": Solver(NASH, lambda game, config, **kw:
                       asymmetric_projection(game, NASH, config, **kw)),
    "apa-wardrop": Solver(WARDROP, lambda game, config, **kw:
                          asymmetric_projection(game, WARDROP, config, **kw)),
    "extragradient": Solver(WARDROP, lambda game, config, **kw:
                            extragradient(game, WARDROP, config, **kw),
                            False),
}
