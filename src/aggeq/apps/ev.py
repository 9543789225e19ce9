"""Overnight charging game.

A fleet of plug-in vehicles splits a required energy amount across time
slots inside an availability window.  The per-unit electricity price grows
with total per-capita consumption (base demand plus fleet average), and a
per-slot cap limits the fleet average.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import partial
from importlib import resources

import numpy as np

from ..errors import DimensionError, InfeasibleSetError
from ..game import (AggregativeGame, BoxFamily, CouplingConstraint,
                    DiagonalPrice, PriceTimesUsage, ZeroUtility,
                    grid_extremes, ordered_fill, sum_rounding_bound)

DEFAULT_PRICE_COEFF = 0.15
DEFAULT_KAPPA = 12.0
DEFAULT_CAP = 0.55


@dataclass(frozen=True)
class EvParams:
    """Population and market data of a charging game.

    theta[i] is agent i's required charge (desired minus initial state of
    charge, divided by the charging efficiency); xtilde[i] the per-slot
    charging caps (zero outside the agent's availability window); d the
    per-capita non-fleet demand; kappa the per-capita capacity; K the
    per-slot caps on the fleet average.
    """

    n: int
    M: int
    theta: np.ndarray  # (M,)
    xtilde: np.ndarray  # (M, n)
    d: np.ndarray  # (n,)
    kappa: np.ndarray  # (n,)
    K: np.ndarray  # (n,)

    def __post_init__(self):
        for name in ("theta", "xtilde", "d", "kappa", "K"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        theta, xtilde = self.theta, self.xtilde
        if xtilde.shape != (self.M, self.n):
            raise DimensionError("xtilde must be (M, n)")
        if theta.shape != (self.M,):
            raise DimensionError("theta must have one entry per agent")
        for name in ("d", "kappa", "K"):
            if getattr(self, name).shape != (self.n,):
                raise DimensionError(f"{name} must have one entry per slot")
        if np.any(theta < 0) or np.any(xtilde < 0):
            raise InfeasibleSetError("required charge and slot caps must be"
                                     " nonnegative")
        if np.any(xtilde.sum(axis=1) < theta - sum_rounding_bound(xtilde)):
            raise InfeasibleSetError(
                "some agent cannot meet its requirement inside its window")

    @property
    def xtilde0(self) -> float:
        """Largest per-slot cap across the population."""
        return float(np.max(self.xtilde))


def default_demand() -> np.ndarray:
    """Bundled 24-slot per-capita base demand profile (kW).

    Approximates a summer-day residential shape: overnight valley, evening
    peak.
    """
    ref = resources.files("aggeq").joinpath("data/demand.csv")
    with ref.open("r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    d = np.array([float(r["d_t"]) for r in rows])
    if d.size != 24:
        raise DimensionError("bundled demand profile must have 24 rows")
    return d


def sqrt_price(d, kappa, coeff: float = DEFAULT_PRICE_COEFF) -> DiagonalPrice:
    """Price p_t(z) = coeff * sqrt((d_t + z) / kappa_t), componentwise.

    Strictly increasing and concave in the fleet average z; the callables
    broadcast, so matrix-valued z evaluates row-wise.  |p'| and |p''| fall
    as z grows, so the price declares ``slopes_fall``.
    """
    d = np.asarray(d, dtype=float)
    kappa = np.asarray(kappa, dtype=float)

    def f(z):
        return coeff * np.sqrt((d + z) / kappa)

    def df(z):
        return 0.5 * coeff / np.sqrt(kappa * (d + z))

    def ddf(z):
        return -0.25 * coeff * kappa / (kappa * (d + z)) ** 1.5

    return DiagonalPrice(f, df, ddf, slopes_fall=True)


def generate_ev_params(M: int, seed: int = 0, n: int = 24,
                       kappa: float = DEFAULT_KAPPA,
                       K: float = DEFAULT_CAP) -> EvParams:
    """Randomized heterogeneous population at the default market data.

    Requirements are uniform on [0.5, 1.5].  Each agent charges inside a
    connected availability window whose left endpoint is uniform over the
    first half of the horizon and right endpoint uniform over the second
    half (the horizon starts at noon, so every session spans part of the
    night); with n = 1 the window is the one slot.  Inside the window
    the per-slot cap is constant, uniform on [1, 5].  Draws are resampled
    until the window can hold the requirement.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    d = default_demand()[:n] if n <= 24 else np.resize(default_demand(), n)
    theta = rng.uniform(0.5, 1.5, size=M)
    xtilde = np.zeros((M, n))
    half = max(1, n // 2)
    for i in range(M):
        for _ in range(1000):
            left = int(rng.integers(0, half))
            right = int(rng.integers(min(half, n - 1), n))
            cap = float(rng.uniform(1.0, 5.0))
            if cap * (right - left + 1) >= theta[i]:
                xtilde[i, :] = 0.0
                xtilde[i, left:right + 1] = cap
                break
        else:
            raise InfeasibleSetError("could not draw a feasible window")
    return EvParams(n=n, M=M, theta=theta, xtilde=xtilde, d=d,
                    kappa=np.full(n, float(kappa)), K=np.full(n, float(K)))


def _check_population(params: EvParams) -> None:
    """Raise InfeasibleSetError when the coupled set is provably empty:
    theta_i > sum_t min(xtilde_it, M K_t) for some agent i, or
    sum_i theta_i > sum_t min(M K_t, sum_i xtilde_it).  Else fill the
    requirements greedily, agent by agent, each into its slots' takes
    min(xtilde_it, remaining fleet room) largest first: success proves the
    set nonempty; failure proves nothing, so it only warns."""
    room = params.M * params.K
    own = np.minimum(params.xtilde, room)
    short = params.theta - own.sum(axis=1) > sum_rounding_bound(own)
    if np.any(short):
        raise InfeasibleSetError("per-slot caps leave no room for agent"
                                 f" {int(np.argmax(short))}'s requirement")
    fleet = np.minimum(room, params.xtilde.sum(axis=0))
    if params.theta.sum() - fleet.sum() \
            > sum_rounding_bound(np.r_[params.theta, fleet]):
        raise InfeasibleSetError(
            "per-slot caps leave no room for the fleet's requirements")
    # Agents fill at once up to the first one whose takes the room left by
    # the agents before it cuts; from there, one agent at a time.  left[i]
    # is the room agent i finds, in the loop's order of subtractions.
    left = np.subtract.accumulate(
        np.vstack([room, ordered_fill(own, params.theta, -own)]))
    cut = np.flatnonzero(np.any(left[1:-1] < own[1:], axis=1))
    first = cut[0] + 1 if cut.size else params.M
    missed = np.any(params.theta[:first] - own[:first].sum(axis=1) > 1e-12)
    room = left[first]
    for xtilde, need in zip(params.xtilde[first:], params.theta[first:]):
        if missed:
            break
        take = np.minimum(xtilde, room)[None, :]
        room = room - ordered_fill(take, np.reshape(need, 1), -take)[0]
        missed = need - take.sum() > 1e-12
    if missed:
        warnings.warn("a greedy fill does not certify that the charging"
                      " game's coupled set is nonempty", RuntimeWarning,
                      stacklevel=3)


def build_ev_game(params: EvParams) -> AggregativeGame:
    """Charging game: box-budget agents, per-slot fleet cap, sqrt price,
    and the bounds of ``_ev_bounds``."""
    _check_population(params)
    individual = BoxFamily(np.zeros_like(params.xtilde), params.xtilde,
                           params.theta)
    coupling = CouplingConstraint.per_component_cap(params.K, params.M)
    cost = PriceTimesUsage(
        utility=ZeroUtility(),
        price=sqrt_price(params.d, params.kappa),
        n=params.n)
    bounds = partial(_ev_bounds, params.n, params.xtilde0, params.M)
    return AggregativeGame(M=params.M, n=params.n, cost=cost,
                           individual=individual, coupling=coupling,
                           application_bounds=bounds)


def _ev_bounds(n, xtilde0, M, constants) -> dict:
    """The charging section's bounds: ``eps_ev`` = 2 n xtilde0^2 L_p / M on
    a Wardrop equilibrium's epsilon, and when alpha > 0 ``ev_sigma_bound``
    = xtilde0 sqrt(2 n L_p / (alpha M)) on the Nash/Wardrop average gap."""
    out = {"eps_ev": 2.0 * n * xtilde0 ** 2 * constants.L_p / M}
    if constants.alpha > 0:
        out["ev_sigma_bound"] = xtilde0 * float(np.sqrt(
            2.0 * n * constants.L_p / (constants.alpha * M)))
    return out


def ev_condition_check(params: EvParams, grid_step: float = 1e-4,
                       price: DiagonalPrice = None) -> dict:
    """Monotonicity condition for the charging game at every fleet size.

    Evaluates min over slots and z in [0, xtilde0] of
    p'_t(z) - xtilde0 * p''_t(z) / 8; a positive minimum certifies strong
    monotonicity of the Nash mapping for all M.  ``price`` overrides the
    default sqrt price derived from the params.
    """
    if price is None:
        price = sqrt_price(params.d, params.kappa)
    x0 = params.xtilde0
    min_value, = grid_extremes(
        np.arange(0.0, x0 + grid_step, grid_step), params.n,
        lambda Z: (price.diag(Z) - x0 * price.diag2(Z) / 8.0,), np.minimum)
    return {"holds": bool(min_value > 0.0), "min_value": min_value}
