"""Synthetic quadratic benchmark games."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .game import (AggregativeGame, BoxFamily, CouplingConstraint,
                   QuadraticCost)


def build_quadratic_game(M: int, n: int = 24, q: float = 0.1,
                         c_low: float = -1.0, c_high: float = 0.0,
                         K: float = 0.3, seed: int = 0,
                         rng: Optional[np.random.Generator] = None
                         ) -> AggregativeGame:
    """Benchmark with cost 0.5 q |x|^2 + (z + c_i)^T x on unit boxes.

    Own curvature q I and identity aggregate coupling; per-component cap K
    on the average keeps the multipliers active for moderate K.  Offsets
    c_i are uniform on [c_low, c_high].
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    c = rng.uniform(c_low, c_high, size=(M, n))
    cost = QuadraticCost(Q=q * np.eye(n), C=np.eye(n), c=c)
    individual = BoxFamily.common(np.zeros(n), np.ones(n), M)
    coupling = CouplingConstraint.per_component_cap(np.full(n, K), M)
    return AggregativeGame(M=M, n=n, cost=cost, individual=individual,
                           coupling=coupling)
