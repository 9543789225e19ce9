"""Overnight charging game.

A fleet of plug-in vehicles splits a required energy amount across time
slots inside an availability window.  The per-unit electricity price grows
with total per-capita consumption (base demand plus fleet average), and a
per-slot cap limits the fleet average.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..errors import DimensionError, InfeasibleSetError
from ..game import (AggregativeGame, BoxFamily, CouplingConstraint,
                    DiagonalPrice, PriceTimesUsage, ZeroUtility,
                    sum_rounding_bound)

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
    efficiency: np.ndarray = None  # (M,), b^i > 0
    s_init: np.ndarray = None  # (M,) initial charge
    eta: np.ndarray = None  # (M,) desired charge
    price_coeff: float = DEFAULT_PRICE_COEFF

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        xtilde = np.asarray(self.xtilde, dtype=float)
        d = np.asarray(self.d, dtype=float)
        kappa = np.asarray(self.kappa, dtype=float)
        K = np.asarray(self.K, dtype=float)
        eff = (np.ones(self.M) if self.efficiency is None
               else np.asarray(self.efficiency, dtype=float))
        s_init = (np.zeros(self.M) if self.s_init is None
                  else np.asarray(self.s_init, dtype=float))
        eta = (s_init + eff * theta if self.eta is None
               else np.asarray(self.eta, dtype=float))
        if xtilde.shape != (self.M, self.n):
            raise DimensionError("xtilde must be (M, n)")
        for arr, name in ((theta, "theta"), (eff, "efficiency"),
                          (s_init, "s_init"), (eta, "eta")):
            if arr.shape != (self.M,):
                raise DimensionError(f"{name} must have one entry per agent")
        for arr, name in ((d, "d"), (kappa, "kappa"), (K, "K")):
            if arr.shape != (self.n,):
                raise DimensionError(f"{name} must have one entry per slot")
        if np.any(eff <= 0):
            raise InfeasibleSetError("efficiencies must be positive")
        if np.any(np.abs((eta - s_init) / eff - theta) > 1e-9):
            raise InfeasibleSetError(
                "theta must equal (eta - s_init) / efficiency")
        if np.any(theta < 0) or np.any(xtilde < 0):
            raise InfeasibleSetError("required charge and slot caps must be"
                                     " nonnegative")
        if np.any(xtilde.sum(axis=1) < theta - sum_rounding_bound(xtilde)):
            raise InfeasibleSetError(
                "some agent cannot meet its requirement inside its window")
        for name, val in (("theta", theta), ("xtilde", xtilde), ("d", d),
                          ("kappa", kappa), ("K", K),
                          ("efficiency", eff), ("s_init", s_init),
                          ("eta", eta)):
            object.__setattr__(self, name, val)

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
    broadcast, so matrix-valued z evaluates row-wise.
    """
    d = np.asarray(d, dtype=float)
    kappa = np.asarray(kappa, dtype=float)

    def f(z):
        return coeff * np.sqrt((d + z) / kappa)

    def df(z):
        return 0.5 * coeff / np.sqrt(kappa * (d + z))

    def ddf(z):
        return -0.25 * coeff * kappa / (kappa * (d + z)) ** 1.5

    return DiagonalPrice(f, df, ddf)


def generate_ev_params(M: int, seed: int = 0, n: int = 24,
                       kappa: float = DEFAULT_KAPPA,
                       K: float = DEFAULT_CAP,
                       d: np.ndarray = None,
                       rng: np.random.Generator = None) -> EvParams:
    """Randomized heterogeneous population at the default market data.

    Requirements are uniform on [0.5, 1.5].  Each agent charges inside a
    connected availability window whose left endpoint is uniform over the
    first half of the horizon and right endpoint uniform over the second
    half (the horizon starts at noon, so every session spans part of the
    night); inside the window the per-slot cap is constant, uniform on
    [1, 5].  Draws are resampled until the window can hold the
    requirement.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    if d is None:
        d = default_demand()[:n] if n <= 24 else np.resize(default_demand(), n)
    theta = rng.uniform(0.5, 1.5, size=M)
    xtilde = np.zeros((M, n))
    half = max(1, n // 2)
    for i in range(M):
        for _ in range(1000):
            left = int(rng.integers(0, half))
            right = int(rng.integers(half, n))
            cap = float(rng.uniform(1.0, 5.0))
            if cap * (right - left + 1) >= theta[i]:
                xtilde[i, :] = 0.0
                xtilde[i, left:right + 1] = cap
                break
        else:
            raise InfeasibleSetError("could not draw a feasible window")
    return EvParams(n=n, M=M, theta=theta, xtilde=xtilde, d=np.asarray(d),
                    kappa=np.full(n, float(kappa)), K=np.full(n, float(K)))


def _greedy_population_feasibility(params: EvParams):
    """Cheap certificate that the coupled set is nonempty.

    Assigns each agent's requirement greedily across its window subject to
    the remaining per-slot fleet capacity M * K_t.  Success proves
    nonemptiness; failure raises.
    """
    room = params.M * params.K.copy()
    for i in range(params.M):
        need = params.theta[i]
        take = np.minimum(params.xtilde[i], room)
        order = np.argsort(-take, kind="stable")
        for t in order:
            amt = min(take[t], need)
            room[t] -= amt
            need -= amt
            if need <= 1e-12:
                break
        if need > 1e-12:
            raise InfeasibleSetError(
                f"per-slot caps leave no room for agent {i}'s requirement")


def build_ev_game(params: EvParams) -> AggregativeGame:
    """Charging game: box-budget agents, per-slot fleet cap, sqrt price."""
    _greedy_population_feasibility(params)
    individual = BoxFamily(np.zeros_like(params.xtilde), params.xtilde,
                           params.theta)
    coupling = CouplingConstraint.per_component_cap(params.K, params.M)
    cost = PriceTimesUsage(
        utility=ZeroUtility(),
        price=sqrt_price(params.d, params.kappa, params.price_coeff),
        n=params.n)
    meta = {"xtilde0": params.xtilde0}
    return AggregativeGame(M=params.M, n=params.n, cost=cost,
                           individual=individual, coupling=coupling,
                           tag="ev", meta=meta)


def ev_condition_check(params: EvParams, grid_step: float = 1e-4,
                       price: DiagonalPrice = None) -> dict:
    """Monotonicity condition for the charging game at every fleet size.

    Evaluates min over slots and z in [0, xtilde0] of
    p'_t(z) - xtilde0 * p''_t(z) / 8; a positive minimum certifies strong
    monotonicity of the Nash mapping for all M.  ``price`` overrides the
    default sqrt price derived from the params.
    """
    if price is None:
        price = sqrt_price(params.d, params.kappa, params.price_coeff)
    x0 = params.xtilde0
    zs = np.arange(0.0, x0 + grid_step, grid_step)
    min_value = np.inf
    for chunk in np.array_split(zs, max(1, zs.size // 4096)):
        Z = chunk[:, None]  # broadcasts against the n slot parameters
        expr = price.diag(Z) - x0 * price.diag2(Z) / 8.0
        min_value = min(min_value, float(np.min(expr)))
    return {"holds": bool(min_value > 0.0), "min_value": float(min_value)}
