"""Dense (M*n) x (M*n) Jacobians of a game mapping, in agent-major order.

The library never forms one: an affine cost model states its constants
exactly, and a slot-separable one gives its slot terms.  The tests build
the dense matrix from that structure and by central differences, and
compare the two, or read constants off it.
"""

import numpy as np

from aggeq.game import QuadraticCost
from aggeq.operators import NASH


def fd_jacobian(op, X):
    """Central differences of ``op.evaluate_blocks`` at the profile X,
    with step 1e-6 (1 + max |x|)."""
    shape = (op.game.M, op.game.n)
    x = np.asarray(X, dtype=float).reshape(-1)
    h = 1e-6 * (1.0 + float(np.max(np.abs(x), initial=0.0)))
    J = np.empty((x.size, x.size))
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (op.evaluate_blocks(xp.reshape(shape))
                   - op.evaluate_blocks(xm.reshape(shape))).reshape(-1) \
            / (2.0 * h)
    return J


def dense_jacobian(op, X):
    """The analytic Jacobian at the profile X: the Kronecker form of a
    ``QuadraticCost``'s Q and C, the same at every point, or else
    ``op.slot_blocks(X)`` assembled."""
    game = op.game
    M, n = game.M, game.n
    cost = game.cost
    if isinstance(cost, QuadraticCost):
        P = np.full((M, M), 1.0 / M)
        J = np.kron(np.eye(M), cost.Q) + np.kron(P, cost.C)
        if op.flavor == NASH:
            J = J + np.kron(np.eye(M), cost.C.T) / M
        return J
    blocks = op.slot_blocks(np.asarray(X, dtype=float).reshape(M, n))
    J = np.zeros((M * n, M * n))
    for t in range(n):
        J[t::n, t::n] = blocks[t]
    return J
