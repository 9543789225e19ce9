"""Synthetic quadratic benchmark games."""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleSetError
from .game import (AggregativeGame, BoxFamily, CouplingConstraint,
                   QuadraticCost)


def build_quadratic_game(M: int, n: int = 24, q: float = 0.1,
                         K: float = 0.3, seed: int = 0) -> AggregativeGame:
    """Benchmark with cost 0.5 q |x|^2 + (z + c_i)^T x on unit boxes.

    Own curvature q I and identity aggregate coupling; per-component cap K
    on the average keeps the multipliers active for moderate K.  Offsets
    c_i are uniform on [-1, 0].  Raises InfeasibleSetError when K < 0:
    the boxes start at 0, so no profile meets the cap.
    """
    if K < 0:
        raise InfeasibleSetError(f"cap K = {K} < 0: the coupled set of"
                                 " profiles in [0, 1]^n is empty")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    c = rng.uniform(-1.0, 0.0, size=(M, n))
    cost = QuadraticCost(Q=q * np.eye(n), C=np.eye(n), c=c)
    individual = BoxFamily.common(np.zeros(n), np.ones(n), M)
    coupling = CouplingConstraint.per_component_cap(np.full(n, K), M)
    return AggregativeGame(M=M, n=n, cost=cost, individual=individual,
                           coupling=coupling)
