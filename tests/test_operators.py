import numpy as np
import pytest

from aggeq import operators
from aggeq.apps.ev import build_ev_game, generate_ev_params
from aggeq.apps.traffic import build_network, build_route_choice_game
from aggeq.errors import DimensionError, InfeasibleSetError
from aggeq.game import (AggregativeGame, BoxFamily, CouplingConstraint,
                        DiagonalPrice, PriceTimesUsage, QuadraticCost,
                        QuadraticTracking, ZeroUtility, aggregate_matrix)
from aggeq.operators import (NASH, WARDROP, _min_eig_diag_plus_rank2,
                             build_operator, default_sampler,
                             monotonicity_analysis, operator_gap,
                             quadratic_monotonicity_conditions)
from aggeq.projection import ProfileProjector
from aggeq.synthetic import build_quadratic_game
from jacobians import dense_jacobian, fd_jacobian


def quadratic_game(M=2, n=1, q=1.0, C=None, c=None, K=10.0):
    C = np.eye(n) if C is None else np.asarray(C, dtype=float)
    c = np.zeros((M, n)) if c is None else np.asarray(c, dtype=float)
    cost = QuadraticCost(Q=q * np.eye(n), C=C, c=c)
    individual = BoxFamily.common(np.zeros(n), np.ones(n), M)
    coupling = CouplingConstraint.per_component_cap(np.full(n, K), M)
    return AggregativeGame(M=M, n=n, cost=cost, individual=individual,
                           coupling=coupling)


def sqrt_price_game(M=3, n=4, seed=0, utility=None):
    rng = np.random.default_rng(seed)
    d = rng.uniform(1.0, 3.0, size=n)
    price = DiagonalPrice(lambda z: np.sqrt(d + z),
                          lambda z: 0.5 / np.sqrt(d + z),
                          lambda z: -0.25 * (d + z) ** -1.5)
    if utility is None:
        utility = QuadraticTracking(rng.uniform(0.5, 2.0, size=M),
                                    rng.uniform(size=(M, n)))
    cost = PriceTimesUsage(utility=utility, price=price, n=n)
    individual = BoxFamily.common(np.zeros(n), np.ones(n), M)
    coupling = CouplingConstraint.per_component_cap(np.ones(n), M)
    return AggregativeGame(M=M, n=n, cost=cost, individual=individual,
                           coupling=coupling)


class TestEvaluation:
    def test_quadratic_two_agent_values(self):
        game = quadratic_game()
        X = np.array([[1.0], [0.0]])
        f_w = build_operator(game, WARDROP).evaluate_blocks(X).reshape(-1)
        f_n = build_operator(game, NASH).evaluate_blocks(X).reshape(-1)
        assert np.allclose(f_w, [1.5, 0.5], atol=1e-12)
        assert np.allclose(f_n, [2.0, 0.5], atol=1e-12)

    def test_no_aggregate_coupling_flavors_coincide(self):
        game = quadratic_game(C=np.zeros((1, 1)), c=[[0.3], [0.7]])
        rng = np.random.default_rng(0)
        for _ in range(10):
            X = rng.normal(size=(2, 1))
            f_w = build_operator(game, WARDROP).evaluate_blocks(X)
            f_n = build_operator(game, NASH).evaluate_blocks(X)
            assert np.allclose(f_w, f_n, atol=0.0)
            assert np.allclose(f_w, X @ game.cost.Q.T + game.cost.c,
                               atol=1e-12)

    def test_identity_price_single_agent(self):
        price = DiagonalPrice(lambda z: z, lambda z: np.ones_like(z),
                              lambda z: np.zeros_like(z))
        cost = PriceTimesUsage(utility=ZeroUtility(), price=price, n=1)
        game = AggregativeGame(
            M=1, n=1, cost=cost, individual=BoxFamily.common([0.0], [10.0], 1),
            coupling=CouplingConstraint.per_component_cap([10.0], 1))
        X = np.array([[2.0]])
        assert np.allclose(build_operator(game, WARDROP).evaluate_blocks(X),
                           [[2.0]])
        assert np.allclose(build_operator(game, NASH).evaluate_blocks(X),
                           [[4.0]])

    def test_quadratic_closed_form_matches_chain_rule(self):
        rng = np.random.default_rng(1)
        M, n = 3, 4
        Q = rng.normal(size=(n, n))
        Q = Q @ Q.T
        C = rng.normal(size=(n, n))
        c = rng.normal(size=(M, n))
        game = quadratic_game(M=M, n=n)
        cost = QuadraticCost(Q=Q, C=C, c=c)
        game = AggregativeGame(M=M, n=n, cost=cost,
                               individual=game.individual,
                               coupling=game.coupling)
        P = np.full((M, M), 1.0 / M)
        H_w = np.kron(np.eye(M), Q) + np.kron(P, C)
        H_n = H_w + np.kron(np.eye(M), C.T) / M
        for _ in range(10):
            X = rng.normal(size=(M, n))
            x, cc = X.reshape(-1), c.reshape(-1)
            f_w = build_operator(game, WARDROP).evaluate_blocks(X)
            f_n = build_operator(game, NASH).evaluate_blocks(X)
            assert np.max(np.abs(f_w.reshape(-1) - (H_w @ x + cc))) <= 1e-12
            assert np.max(np.abs(f_n.reshape(-1) - (H_n @ x + cc))) <= 1e-12


def scalar_structure_game(case, M=7, n=5):
    """A quadratic game for one case of the scalar Q/C test."""
    if case == "builder":
        return build_quadratic_game(M, n=n, seed=3)
    rng = np.random.default_rng(4)
    if case == "zero-C":
        Q, C = 0.3 * np.eye(n), np.zeros((n, n))
    elif case == "general":
        Q = rng.normal(size=(n, n))
        Q, C = Q @ Q.T, rng.normal(size=(n, n))
    else:  # tiny-off-diagonal
        Q, C = 0.3 * np.eye(n), np.eye(n)
        Q[0, 1] = 1e-300
    game = quadratic_game(M=M, n=n)
    cost = QuadraticCost(Q=Q, C=C, c=rng.uniform(-1.0, 0.0, size=(M, n)))
    return AggregativeGame(M=M, n=n, cost=cost, individual=game.individual,
                           coupling=game.coupling)


class TestScalarQuadratic:
    """A Q or C that is exactly sI multiplies by s; the dense product it
    replaces adds only exact zeros, so the bits are the same.  The dense
    formula is the mapping's affine form X P + c + C z, with one
    coefficient P = Q^T + C/M (Nash) or Q^T (Wardrop) on X."""

    @pytest.mark.parametrize("case, q_scalar, c_scalar", [
        ("builder", True, True), ("zero-C", True, True),
        ("general", False, False), ("tiny-off-diagonal", False, True)])
    def test_evaluate_blocks_equals_dense_formula(self, case, q_scalar,
                                                  c_scalar):
        game = scalar_structure_game(case)
        cost = game.cost
        assert (cost.q_scale is not None, cost.c_scale is not None) == \
            (q_scalar, c_scalar)
        X = np.random.default_rng(5).uniform(-0.5, 1.5, size=(game.M, game.n))
        z = aggregate_matrix(X)
        wardrop = X @ cost.Q.T + cost.c + cost.C @ z
        nash = X @ (cost.Q.T + cost.C / game.M) + cost.c + cost.C @ z
        for flavor, expected in ((WARDROP, wardrop), (NASH, nash)):
            got = build_operator(game, flavor).evaluate_blocks(X)
            assert np.array_equal(got, expected), flavor


def dual_charge(shape, M, n):
    """A dual charge A^T lam of either shape the solvers pass: the (n,) row
    lam / M of a per-component cap, or the (M, n) blocks of a dense A."""
    rng = np.random.default_rng(7)
    return rng.uniform(0.0, 2.0, size=n if shape == "row" else (M, n))


class TestMappingCharge:
    """``evaluate_blocks(X, z, charge)`` against the quadratic mapping's
    formula before the Nash term was folded into one coefficient,
    X Q^T + C z + c [+ X C / M] + charge.  The folded sum rounds
    differently, so the check takes a tolerance fixed from the dtype:
    64 eps max(1, max |F_old|)."""

    @staticmethod
    def unfolded(game, flavor, X, charge):
        cost = game.cost
        old = X @ cost.Q.T + cost.C @ aggregate_matrix(X) + cost.c
        if flavor == NASH:
            old = old + (X @ cost.C) / game.M
        return old + charge

    @staticmethod
    def assert_close(got, old):
        tol = 64 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(old))))
        assert float(np.max(np.abs(got - old))) <= tol

    @pytest.mark.parametrize("shape", ["row", "blocks"])
    @pytest.mark.parametrize("flavor", [NASH, WARDROP])
    @pytest.mark.parametrize("case", ["builder", "zero-C", "general",
                                      "tiny-off-diagonal"])
    def test_quadratic_matches_the_unfolded_formula(self, case, flavor,
                                                    shape):
        game = scalar_structure_game(case)
        X = np.random.default_rng(5).uniform(-0.5, 1.5, size=(game.M, game.n))
        charge = dual_charge(shape, game.M, game.n)
        got = build_operator(game, flavor).evaluate_blocks(
            X, aggregate_matrix(X), charge)
        self.assert_close(got, self.unfolded(game, flavor, X, charge))

    @pytest.mark.parametrize("flavor", [NASH, WARDROP])
    def test_one_offset_row_takes_m_from_the_game(self, flavor):
        """An offset c given as one row broadcasts over the M agents; the
        folded coefficient C / M still divides by the game's M."""
        M, n = 6, 3
        base = quadratic_game(M=M, n=n)
        cost = QuadraticCost(Q=0.5 * np.eye(n), C=np.eye(n),
                             c=np.array([[-1.0, 0.2, 0.4]]))
        game = AggregativeGame(M=M, n=n, cost=cost,
                               individual=base.individual,
                               coupling=base.coupling)
        X = np.random.default_rng(8).uniform(size=(M, n))
        got = build_operator(game, flavor).evaluate_blocks(X)
        self.assert_close(got, self.unfolded(game, flavor, X, 0.0))

    @pytest.mark.parametrize("shape", ["row", "blocks"])
    @pytest.mark.parametrize("flavor", [NASH, WARDROP])
    def test_price_times_usage_adds_the_charge_last(self, flavor, shape):
        game = build_ev_game(generate_ev_params(9, seed=2))
        rng = np.random.default_rng(9)
        X = default_sampler(game)(rng)
        z = aggregate_matrix(X)
        charge = dual_charge(shape, game.M, game.n)
        op = build_operator(game, flavor)
        assert op.evaluate_blocks(X, z, charge).tobytes() \
            == (op.evaluate_blocks(X, z) + charge).tobytes()

    @pytest.mark.parametrize("shape", ["row", "blocks"])
    @pytest.mark.parametrize("flavor", [NASH, WARDROP])
    @pytest.mark.parametrize("case", ["builder", "general", "ev"])
    def test_out_gets_the_fresh_bytes(self, case, flavor, shape):
        """The solvers' workspace: ``out`` is written over and returned,
        with the bytes of a fresh evaluation."""
        if case == "ev":
            game = build_ev_game(generate_ev_params(9, seed=2))
            X = default_sampler(game)(np.random.default_rng(9))
        else:
            game = scalar_structure_game(case)
            X = np.random.default_rng(5).uniform(-0.5, 1.5,
                                                 size=(game.M, game.n))
        charge = dual_charge(shape, game.M, game.n)
        op = build_operator(game, flavor)
        out = np.full((game.M, game.n), np.nan)
        assert op.evaluate_blocks(X, None, charge, out=out) is out
        assert out.tobytes() == op.evaluate_blocks(X, None, charge).tobytes()


class TestJacobians:
    @pytest.mark.parametrize("flavor", [NASH, WARDROP])
    def test_quadratic_jacobian_matches_fd(self, flavor):
        rng = np.random.default_rng(2)
        M, n = 3, 2
        Q = rng.normal(size=(n, n))
        Q = Q @ Q.T
        cost = QuadraticCost(Q=Q, C=rng.normal(size=(n, n)),
                             c=rng.normal(size=(M, n)))
        base = quadratic_game(M=M, n=n)
        game = AggregativeGame(M=M, n=n, cost=cost,
                               individual=base.individual,
                               coupling=base.coupling)
        op = build_operator(game, flavor)
        X = rng.uniform(size=(M, n))
        J = dense_jacobian(op, X)
        J_fd = fd_jacobian(op, X)
        rel = np.max(np.abs(J - J_fd)) / (1.0 + np.max(np.abs(J)))
        assert rel <= 1e-4

    @pytest.mark.parametrize("flavor", [NASH, WARDROP])
    def test_diagonal_price_jacobian_matches_fd(self, flavor):
        game = sqrt_price_game()
        op = build_operator(game, flavor)
        rng = np.random.default_rng(3)
        X = rng.uniform(0.1, 0.9, size=(game.M, game.n))
        J = dense_jacobian(op, X)
        J_fd = fd_jacobian(op, X)
        rel = np.max(np.abs(J - J_fd)) / (1.0 + np.max(np.abs(J)))
        assert rel <= 1e-4

    def test_slot_blocks_assemble_consistently(self):
        game = sqrt_price_game()
        op = build_operator(game, NASH)
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(game.M, game.n))
        blocks = op.slot_blocks(X)
        assert blocks is not None and blocks.shape == (game.n, game.M,
                                                       game.M)
        J = dense_jacobian(op, X)
        for t in range(game.n):
            assert np.allclose(J[t::game.n, t::game.n], blocks[t],
                               atol=1e-12)


def dense_slot_blocks(game, flavor, X):
    """(n, M, M) Jacobian blocks assembled entry by entry from the price
    derivatives, independently of ``GameOperator.slot_terms``."""
    M, n = game.M, game.n
    cost = game.cost
    z = X.mean(axis=0)
    dp, ddp = cost.price.diag(z), cost.price.diag2(z)
    gamma = getattr(cost.utility, "gamma", np.zeros(M))
    blocks = np.empty((n, M, M))
    for t in range(n):
        H = (dp[t] / M) * np.ones((M, M)) + np.diag(gamma)
        if flavor == NASH:
            H = H + (dp[t] / M) * np.eye(M) + (ddp[t] / M**2) * np.outer(
                X[:, t], np.ones(M))
        blocks[t] = H
    return blocks


def dense_slot_constants(blocks):
    """(alpha, L_F) from dense eigenproblems on each slot block: the
    reference for the structured constants."""
    alpha = np.inf
    lip = 0.0
    for H in blocks:
        S = 0.5 * (H + H.T)
        alpha = min(alpha, float(np.min(np.linalg.eigvalsh(S))))
        lip = max(lip, float(np.linalg.norm(H, 2)))
    return float(alpha), float(lip)


def route_choice_game(M):
    # Two parallel routes each way; f and h put sampled edge loads where
    # the travel-time curve bends, so p'' is not zero.
    edges = [(0, 1, 1.0, 1.0), (1, 0, 1.0, 1.0),
             (0, 1, 2.0, 2.0), (1, 0, 2.0, 2.0)]
    net = build_network([0, 1], edges, f=0.3, h=2.0)
    od_pairs = [((0, 1), (1, 0))[i % 2] for i in range(M)]
    return build_route_choice_game(net, od_pairs=od_pairs, seed=M)


def sqrt_price_gammas(gamma, n=4, seed=0):
    M = len(gamma)
    ref = np.random.default_rng(seed).uniform(size=(M, n))
    return sqrt_price_game(M=M, n=n, seed=seed,
                           utility=QuadraticTracking(np.asarray(gamma), ref))


STRUCTURED_CASES = {
    # Uniform diagonal (gamma = 0); under Wardrop u is parallel to 1.
    "ev-M1": lambda: build_ev_game(generate_ev_params(1, seed=0)),
    "ev-M2": lambda: build_ev_game(generate_ev_params(2, seed=0)),
    "ev-M3": lambda: build_ev_game(generate_ev_params(3, seed=0)),
    "ev-M50": lambda: build_ev_game(generate_ev_params(50, seed=0)),
    # Heterogeneous gamma.
    "route-M1": lambda: route_choice_game(1),
    "route-M2": lambda: route_choice_game(2),
    "route-M3": lambda: route_choice_game(3),
    "route-M50": lambda: route_choice_game(50),
    "sqrt-M1": lambda: sqrt_price_game(M=1),
    "sqrt-M2": lambda: sqrt_price_game(M=2),
    "sqrt-M3": lambda: sqrt_price_game(M=3),
    "sqrt-M50": lambda: sqrt_price_game(M=50),
    # Uniform gamma > 0, so under Wardrop rank [1, u] = 1; and repeated
    # gamma values, so probes meet repeated poles.
    "sqrt-uniform-gamma": lambda: sqrt_price_gammas(np.full(5, 1.3)),
    "sqrt-repeated-gamma": lambda: sqrt_price_gammas([1.0, 1.0, 2.0, 2.0,
                                                      2.0, 0.5]),
}


class TestStructuredConstants:
    """Constants from the slot blocks' diagonal-plus-rank-2 structure
    against dense eigenproblems on the same sampled points."""

    @pytest.mark.parametrize("flavor", [NASH, WARDROP])
    @pytest.mark.parametrize("case", sorted(STRUCTURED_CASES))
    def test_matches_dense_oracle(self, case, flavor):
        game = STRUCTURED_CASES[case]()
        op = build_operator(game, flavor)
        n_samples = 4
        rep = monotonicity_analysis(op, n_samples=n_samples, seed=3)
        sampler = default_sampler(game)
        rng = np.random.default_rng(3)
        alpha, lip = np.inf, 0.0
        for _ in range(n_samples):
            X = sampler(rng)
            blocks = dense_slot_blocks(game, flavor, X)
            assert np.allclose(op.slot_blocks(X), blocks, rtol=1e-12,
                               atol=0.0)
            a, l = dense_slot_constants(blocks)
            alpha, lip = min(alpha, a), max(lip, l)
        assert not rep.exact and rep.samples == n_samples
        assert abs(rep.lipschitz - lip) <= 1e-10 * lip
        # alpha is 0 in exact arithmetic for the EV Wardrop map, so it is
        # compared on the scale of the blocks.
        assert abs(rep.alpha - alpha) <= 1e-10 * max(abs(alpha), lip)

    @pytest.mark.parametrize("case", ["route-M3", "ev-M3"])
    def test_chunks_cover_every_sample(self, case, monkeypatch):
        game = STRUCTURED_CASES[case]()
        op = build_operator(game, NASH)
        whole = monotonicity_analysis(op, n_samples=5, seed=1)
        calls = []
        sampler = default_sampler(game)
        monkeypatch.setattr(operators, "SAMPLE_CHUNK_ENTRIES",
                            2 * game.M * game.n)
        monkeypatch.setattr(operators, "default_sampler", lambda game: (
            lambda rng: calls.append(1) or sampler(rng)))
        split = monotonicity_analysis(op, n_samples=5, seed=1)
        assert len(calls) == 5 and split.samples == 5
        assert split.alpha == pytest.approx(whole.alpha, rel=1e-13)
        assert split.lipschitz == pytest.approx(whole.lipschitz, rel=1e-13)

    @pytest.mark.parametrize("M", [1, 2, 3, 7])
    def test_min_eig_helper_matches_eigvalsh(self, M):
        rng = np.random.default_rng(M)
        m = 40
        D = rng.normal(size=(m, M))
        D[::2] = D[::2, :1]  # every other row has a uniform diagonal
        D[1::4, : M // 2] = D[1::4, -1:]  # repeated entries
        v = rng.normal(size=(m, M))
        v[::3] = 0.7  # rank-1 updates
        K = rng.normal(size=(m, 2, 2))
        K = K + np.swapaxes(K, 1, 2)
        W = np.stack([np.ones((m, M)), v], axis=2)
        dense = np.linalg.eigvalsh(
            D[:, :, None] * np.eye(M) + W @ K @ np.swapaxes(W, 1, 2))
        got = _min_eig_diag_plus_rank2(D, v, K)
        scale = np.abs(dense).max(axis=1)
        assert np.all(np.abs(got - dense[:, 0]) <= 1e-12 * scale)

    def test_min_eig_helper_probe_on_pole(self):
        # diag(0, 4) + W K W^T = [[0, 2], [2, 4]].  The update has the
        # eigenvalues -2 and 2, so the Weyl bracket is [-2, 2] and the
        # first probe lands on the pole D_0 = 0.
        got = _min_eig_diag_plus_rank2(np.array([[0.0, 4.0]]),
                                       np.array([[1.0, -1.0]]),
                                       np.diag([1.0, -1.0])[None])
        assert got[0] == pytest.approx(2.0 - 2.0 * np.sqrt(2.0), abs=1e-14)


class TestNoFiniteDifferences:
    """The library's constants come from the cost models' structure, which
    each builder's game has; finite differences serve only as a test
    reference (``jacobians.fd_jacobian``)."""

    @pytest.mark.parametrize("make_game", [
        lambda: build_quadratic_game(M=4, n=3, seed=0),
        lambda: build_ev_game(generate_ev_params(4, seed=0)),
        lambda: route_choice_game(4),
    ], ids=["quadratic", "ev", "route-choice"])
    @pytest.mark.parametrize("flavor", [NASH, WARDROP])
    def test_builders_never_reach_finite_differences(self, make_game,
                                                     flavor):
        game = make_game()
        op = build_operator(game, flavor)
        rep = monotonicity_analysis(op, n_samples=3)
        assert np.isfinite(rep.alpha) and rep.lipschitz > 0
        X = default_sampler(game)(np.random.default_rng(0))
        J = dense_jacobian(op, X)
        assert J.shape == (game.M * game.n, game.M * game.n)


class TestOperatorGap:
    def test_zero_gap_without_coupling(self):
        game = quadratic_game(C=np.zeros((1, 1)))
        gap, bound = operator_gap(game, np.array([0.7, 0.2]))
        assert gap == 0.0

    def test_hand_computed_gap(self):
        game = quadratic_game()
        gap, _ = operator_gap(game, np.array([1.0, 0.0]))
        assert gap == pytest.approx(0.5, abs=1e-12)

    def test_gap_scales_inversely_with_m(self):
        x_small = np.tile([1.0, 0.0], 2)  # M=4 pattern replicated
        game4 = quadratic_game(M=4)
        game16 = quadratic_game(M=16)
        gap4, _ = operator_gap(game4, x_small)
        gap16, _ = operator_gap(game16, np.tile([1.0, 0.0], 8))
        assert gap4 / gap16 == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("make_game", [
        lambda: build_quadratic_game(M=5, n=6, seed=0),
        lambda: sqrt_price_game(M=4, n=3),
    ])
    def test_gap_bound_on_random_feasible_points(self, make_game):
        game = make_game()
        sampler = default_sampler(game)
        rng = np.random.default_rng(5)
        for _ in range(100):
            X = sampler(rng)
            gap, bound = operator_gap(game, X.reshape(-1))
            assert gap <= bound + 1e-9


    def test_bound_needs_no_monotonicity_sampling(self, monkeypatch):
        from aggeq import analysis
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return operators.monotonicity_analysis(*args, **kwargs)

        monkeypatch.setattr(analysis, "monotonicity_analysis", counting)
        game = sqrt_price_game(M=4, n=3)
        X = default_sampler(game)(np.random.default_rng(2))
        gap, bound = operator_gap(game, X.reshape(-1))
        assert calls == []
        est = analysis.estimate_constants(game)
        assert len(calls) == 1
        assert bound == est.L2 / np.sqrt(game.M)
        assert gap <= bound


class TestMonotonicity:
    def test_identity_quadratic_exact(self):
        game = quadratic_game(M=3, n=2, q=1.0, C=np.zeros((2, 2)))
        rep = monotonicity_analysis(build_operator(game, NASH))
        assert rep.exact
        assert rep.alpha == pytest.approx(1.0, abs=1e-12)
        assert rep.lipschitz == pytest.approx(1.0, abs=1e-12)
        assert rep.safe_alpha() == rep.alpha

    def test_two_agent_nash_alpha(self):
        game = quadratic_game(M=2, n=1, q=0.1)
        rep = monotonicity_analysis(build_operator(game, NASH))
        assert rep.exact
        assert rep.alpha == pytest.approx(0.6, abs=1e-12)

    def test_exact_constants_match_dense_jacobian(self):
        rng = np.random.default_rng(6)
        for flavor in (NASH, WARDROP):
            for M in (1, 2, 5):
                n = 3
                Q = rng.normal(size=(n, n))
                Q = Q @ Q.T + 2 * np.eye(n)
                C = rng.normal(size=(n, n))
                base = quadratic_game(M=M, n=n)
                game = AggregativeGame(
                    M=M, n=n,
                    cost=QuadraticCost(Q=Q, C=C, c=np.zeros((M, n))),
                    individual=base.individual, coupling=base.coupling)
                op = build_operator(game, flavor)
                rep = monotonicity_analysis(op)
                J = dense_jacobian(op, np.zeros((M, n)))
                alpha_dense = float(np.min(np.linalg.eigvalsh(
                    0.5 * (J + J.T))))
                lip_dense = float(np.linalg.norm(J, 2))
                assert rep.alpha == pytest.approx(alpha_dense, abs=1e-9)
                assert rep.lipschitz == pytest.approx(lip_dense, abs=1e-9)

    def test_sampled_alpha_certifies_monotonicity(self):
        game = sqrt_price_game(M=3, n=3)
        op = build_operator(game, WARDROP)
        rep = monotonicity_analysis(op)
        assert not rep.exact and rep.samples > 0
        assert rep.safe_alpha() == pytest.approx(0.9 * rep.alpha)
        assert rep.safe_lipschitz() == pytest.approx(1.1 * rep.lipschitz)
        sampler = default_sampler(game)
        rng = np.random.default_rng(7)
        for _ in range(200):
            X1 = sampler(rng)
            X2 = sampler(rng)
            d = (X1 - X2).reshape(-1)
            inc = (op.evaluate_blocks(X1)
                   - op.evaluate_blocks(X2)).reshape(-1)
            assert float(inc @ d) >= (rep.alpha - 1e-7) * float(d @ d)

    def test_sampled_constants_need_a_sample(self):
        op = build_operator(sqrt_price_game(), NASH)
        with pytest.raises(DimensionError):
            monotonicity_analysis(op, n_samples=0)

    def test_monotone_price_gives_monotone_wardrop(self):
        game = sqrt_price_game(M=3, n=3, utility=ZeroUtility())
        rep = monotonicity_analysis(build_operator(game, WARDROP))
        assert rep.alpha >= -1e-7


class TestQuadraticConditions:
    def test_benchmark_matrices_hold(self):
        out = quadratic_monotonicity_conditions(0.1 * np.eye(3), np.eye(3))
        assert out["holds"]
        assert out["which_condition"] == "symmetric_positive_definite_price"

    def test_zero_price_schur(self):
        out = quadratic_monotonicity_conditions(np.eye(3), np.zeros((3, 3)))
        assert out["holds"]
        assert out["which_condition"] == "schur_complement"

    def test_large_nonsymmetric_price_fails(self):
        C = 10.0 * np.eye(2)
        C[0, 1] = 1.0
        out = quadratic_monotonicity_conditions(0.1 * np.eye(2), C)
        assert not out["holds"]
        assert out["which_condition"] is None


class TestDefaultSampler:
    """A draw is lo + (hi - lo) * rng.random(shape), with the bytes of
    ``rng.uniform(lo, hi)``: numpy computes that as lower + range * u in C.
    A numpy build whose compiler fuses it into an FMA (e.g. aarch64 GCC)
    could round differently, and this test is where that would show."""

    @pytest.mark.parametrize("make_game", [
        lambda: build_ev_game(generate_ev_params(M=9, seed=4)),
        lambda: build_quadratic_game(M=9, n=6, seed=4),
    ], ids=["ev", "quadratic"])
    def test_draws_match_uniform_then_projection(self, make_game):
        game = make_game()
        proj = ProfileProjector(game.individual)
        lo, hi = game.individual.bounds()
        sample = default_sampler(game)
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(4):
            got = sample(rng)
            want = proj(ref.uniform(lo, hi))
            assert got.shape == want.shape == (game.M, game.n)
            assert got.tobytes() == want.tobytes()

    def test_unbounded_set_is_refused(self):
        game = quadratic_game()
        game = AggregativeGame(
            M=2, n=1, cost=game.cost, coupling=game.coupling,
            individual=BoxFamily([[0.0], [0.0]], [[1.0], [np.inf]]))
        with pytest.raises(InfeasibleSetError):
            default_sampler(game)
