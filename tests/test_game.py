import numpy as np
import pytest

from aggeq.errors import DimensionError, InfeasibleSetError
from aggeq.game import (AggregativeGame, BoxFamily, CouplingConstraint,
                        DiagonalPrice, FlowFamily, PriceTimesUsage,
                        QuadraticCost, QuadraticTracking, StrategyProfile,
                        ZeroUtility, aggregate_matrix, cost_value,
                        feasibility_report)


def make_quadratic_game(M=2, n=1, q=1.0, c_mat=None, K=10.0, lo=0.0, hi=1.0):
    c = np.zeros((M, n)) if c_mat is None else np.asarray(c_mat, dtype=float)
    cost = QuadraticCost(Q=q * np.eye(n), C=np.eye(n), c=c)
    individual = BoxFamily.common(np.full(n, lo), np.full(n, hi), M)
    coupling = CouplingConstraint.per_component_cap(np.full(n, K), M)
    return AggregativeGame(M=M, n=n, cost=cost, individual=individual,
                           coupling=coupling)


class TestStrategyProfile:
    def test_aggregate_mean(self):
        p = StrategyProfile(np.array([1.0, 3.0]), 2, 1)
        assert np.allclose(p.aggregate(), [2.0])

    def test_aggregate_single_agent_identity(self):
        x = np.array([0.3, -1.2, 4.0])
        p = StrategyProfile(x, 1, 3)
        assert np.allclose(p.aggregate(), x)

    def test_aggregate_hand_sum(self):
        p = StrategyProfile(np.array([1.0, 0, 0, 1, 2, 2]), 3, 2)
        assert np.allclose(p.aggregate(), [1.0, 1.0])

    def test_agent_views(self):
        p = StrategyProfile(np.arange(6.0), 3, 2)
        assert np.allclose(p.agent(1), [2.0, 3.0])
        with pytest.raises(IndexError):
            p.agent(3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            StrategyProfile(np.zeros(5), 2, 3)

    def test_entries_read_only(self):
        p = StrategyProfile(np.zeros(2), 2, 1)
        with pytest.raises(ValueError):
            p.entries[0] = 1.0

    def test_aggregate_linear(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=(4, 3))
            y = rng.normal(size=(4, 3))
            a, b = rng.normal(size=2)
            lhs = aggregate_matrix(a * x + b * y)
            rhs = a * aggregate_matrix(x) + b * aggregate_matrix(y)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def sum_input(rng, M, n, specials=(np.inf, -np.inf, -0.0)):
    """An (M, n) matrix of entries spread over 17 decades, so summation
    order shows in the last bits; in every even column a few entries are
    drawn from specials, and when n >= 3 the last column is all -0.0."""
    X = rng.standard_normal((M, n)) * 10.0 ** rng.integers(-8, 9, (M, n))
    special = rng.random((M, n)) < 0.02
    special[:, 1::2] = False
    X[special] = rng.choice(specials, size=int(special.sum()))
    if n >= 3:
        X[:, -1] = -0.0
    return X


def reduce_mean(X):
    with np.errstate(invalid="ignore"):  # inf - inf in a column
        return np.add.reduce(X, axis=0) / X.shape[0]


class TestAggregateMatrix:
    """``aggregate_matrix`` gives the bytes of np.add.reduce(X, axis=0) / M
    on every layout: through einsum on C-contiguous X with n >= 2, through
    add.reduce itself on the rest.  The one exception is the sign of a nan
    sum where a nan entry meets the nan of inf - inf."""

    @pytest.mark.parametrize("M", [1, 2, 3, 8, 9, 150, 1000])
    @pytest.mark.parametrize("n", [2, 3, 5, 24, 213])
    def test_c_contiguous_bytes(self, M, n):
        rng = np.random.default_rng(M * 1000 + n)
        for _ in range(3):
            X = sum_input(rng, M, n)
            assert aggregate_matrix(X).tobytes() == reduce_mean(X).tobytes()

    def test_c_contiguous_bytes_at_ten_thousand_agents(self):
        X = sum_input(np.random.default_rng(10), 10_000, 24)
        assert aggregate_matrix(X).tobytes() == reduce_mean(X).tobytes()

    @pytest.mark.parametrize("M, n", [(9, 3), (150, 24), (1000, 24)])
    def test_nan_entries_give_nan_in_the_same_columns(self, M, n):
        rng = np.random.default_rng(M + n)
        X = sum_input(rng, M, n, (np.inf, -np.inf, np.nan, -0.0))
        got, want = aggregate_matrix(X), reduce_mean(X)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert got[~np.isnan(got)].tobytes() \
            == want[~np.isnan(want)].tobytes()

    def test_other_layouts_keep_add_reduce(self):
        rng = np.random.default_rng(11)
        X = sum_input(rng, 1000, 24)
        layouts = [sum_input(rng, 1000, 1), np.asfortranarray(X),
                   X[::3], X[:, ::2], sum_input(rng, 24, 1000).T]
        moved = 0
        for Y in layouts:
            assert not (Y.flags.c_contiguous and Y.shape[1] >= 2)
            with np.errstate(invalid="ignore"):
                got = aggregate_matrix(Y)
            assert got.tobytes() == reduce_mean(Y).tobytes()
            moved += (np.einsum("ij->j", Y) / Y.shape[0]).tobytes() \
                != reduce_mean(Y).tobytes()
        # einsum itself would move bytes on some of them: numpy sums those
        # layouts pairwise.
        assert moved > 0


class TestCostValue:
    def test_quadratic_substitution(self):
        game = make_quadratic_game()
        assert cost_value(game, 0, [1.0], [2.0]) == pytest.approx(2.5)

    def test_zero_strategy(self):
        game = make_quadratic_game()
        for z in ([0.0], [1.0], [-3.0]):
            assert cost_value(game, 0, [0.0], z) == 0.0

    def test_price_times_usage_linear(self):
        cost = PriceTimesUsage(
            utility=ZeroUtility(),
            price=DiagonalPrice(lambda z: z, lambda z: np.ones_like(z),
                                lambda z: np.zeros_like(z)),
            n=1)
        game = AggregativeGame(
            M=1, n=1, cost=cost, individual=BoxFamily.common([0.0], [10.0], 1),
            coupling=CouplingConstraint.per_component_cap([10.0], 1))
        assert cost_value(game, 0, [2.0], [3.0]) == pytest.approx(6.0)

    def test_index_out_of_range(self):
        game = make_quadratic_game()
        with pytest.raises(IndexError):
            cost_value(game, 2, [1.0], [1.0])

    def test_quadratic_value_matches_matrix_arithmetic(self):
        rng = np.random.default_rng(1)
        n = 4
        Q = rng.normal(size=(n, n))
        Q = Q @ Q.T + np.eye(n)
        C = rng.normal(size=(n, n))
        c = rng.normal(size=(3, n))
        cost = QuadraticCost(Q=Q, C=C, c=c)
        for _ in range(10):
            X = rng.normal(size=(3, n))
            z = rng.normal(size=n)
            vals = cost.value_all(X, z)
            for i, x in enumerate(X):
                want = 0.5 * x @ Q @ x + (C @ z + c[i]) @ x
                assert vals[i] == pytest.approx(want, abs=1e-12)


class TestGradients:
    def test_quadratic_grad_own_exact(self):
        rng = np.random.default_rng(2)
        n = 5
        Q = rng.normal(size=(n, n))
        Q = 0.5 * (Q + Q.T)
        C = rng.normal(size=(n, n))
        c = rng.normal(size=(2, n))
        cost = QuadraticCost(Q=Q, C=C, c=c)
        X = rng.normal(size=(2, n))
        z = rng.normal(size=n)
        own = cost.grad_own_all(X, z)
        for i in range(2):
            assert np.allclose(own[i], Q @ X[i] + C @ z + c[i], atol=1e-14)

    @pytest.mark.parametrize("variant", ["quadratic", "price"])
    def test_gradients_match_finite_differences(self, variant):
        rng = np.random.default_rng(3)
        n = 3
        if variant == "quadratic":
            Q = rng.normal(size=(n, n))
            Q = Q @ Q.T + np.eye(n)
            cost = QuadraticCost(Q=Q, C=rng.normal(size=(n, n)),
                                 c=rng.normal(size=(2, n)))
        else:
            gamma = np.array([0.7, 1.3])
            ref = rng.uniform(size=(2, n))
            cost = PriceTimesUsage(
                utility=QuadraticTracking(gamma, ref),
                price=DiagonalPrice(
                    lambda z: np.sqrt(1.0 + z),
                    lambda z: 0.5 / np.sqrt(1.0 + z),
                    lambda z: -0.25 * (1.0 + z) ** -1.5),
                n=n)
        # Row i of value_all depends only on X[i] and z, so shifting every
        # row by e differentiates every row at once.
        h = 1e-6
        X = rng.uniform(0.1, 0.9, size=(2, n))
        z = rng.uniform(0.1, 0.9, size=n)
        g_own = cost.grad_own_all(X, z)
        g_agg = cost.grad_agg_all(X, z)
        for t in range(n):
            e = np.zeros(n)
            e[t] = h
            fd_own = (cost.value_all(X + e, z)
                      - cost.value_all(X - e, z)) / (2 * h)
            fd_agg = (cost.value_all(X, z + e)
                      - cost.value_all(X, z - e)) / (2 * h)
            assert g_own[:, t] == pytest.approx(fd_own, rel=1e-4, abs=1e-8)
            assert g_agg[:, t] == pytest.approx(fd_agg, rel=1e-4, abs=1e-8)

    def test_vectorized_grads_match_per_agent(self):
        rng = np.random.default_rng(4)
        n, M = 4, 3
        Q = rng.normal(size=(n, n))
        Q = Q @ Q.T
        cost = QuadraticCost(Q=Q, C=rng.normal(size=(n, n)),
                             c=rng.normal(size=(M, n)))
        # One average per agent: row i is the row of a common-average call
        # at agent i's average, and the formula of agent i.
        X = rng.normal(size=(M, n))
        Z = rng.normal(size=(M, n))
        own = cost.grad_own_all(X, Z)
        agg = cost.grad_agg_all(X, Z)
        vals = cost.value_all(X, Z)
        for i in range(M):
            assert np.allclose(own[i], cost.grad_own_all(X, Z[i])[i],
                               atol=1e-12)
            assert np.allclose(agg[i], cost.grad_agg_all(X, Z[i])[i],
                               atol=1e-12)
            assert vals[i] == pytest.approx(cost.value_all(X, Z[i])[i],
                                            abs=1e-12)
            assert np.allclose(own[i], Q @ X[i] + cost.C @ Z[i] + cost.c[i],
                               atol=1e-12)
            assert np.allclose(agg[i], cost.C.T @ X[i], atol=1e-12)


class TestCouplingConstraint:
    def test_structured_matches_dense(self):
        rng = np.random.default_rng(5)
        M, n = 4, 3
        K = rng.uniform(0.2, 1.0, size=n)
        cap = CouplingConstraint.per_component_cap(K, M)
        dense = CouplingConstraint.dense(cap.matrix(), K, M, n)
        for _ in range(20):
            X = rng.normal(size=(M, n))
            assert np.max(np.abs(cap.apply(X) - dense.apply(X))) <= 1e-12
            assert np.max(np.abs(cap.residual(X)
                                 - dense.residual(X))) <= 1e-12
        lam = rng.uniform(size=n)
        assert np.allclose(cap.adjoint_blocks(lam),
                           dense.adjoint_blocks(lam), atol=1e-12)
        assert cap.norm() == pytest.approx(dense.norm(), abs=1e-12)

    def test_cap_adjoint_is_a_read_only_view(self):
        rng = np.random.default_rng(6)
        M, n = 5, 3
        cap = CouplingConstraint.per_component_cap(np.ones(n), M)
        dense = CouplingConstraint.dense(cap.matrix(), np.ones(n), M, n)
        lam = rng.uniform(size=n)
        view = cap.adjoint_blocks(lam)
        assert view.shape == (M, n)
        assert np.allclose(view, dense.adjoint_blocks(lam), rtol=0.0,
                           atol=1e-15)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 1.0

    def test_cap_norm_value(self):
        cap = CouplingConstraint.per_component_cap(np.ones(3), 9)
        assert cap.norm() == pytest.approx(1.0 / 3.0)

    def test_dense_shape_check(self):
        with pytest.raises(DimensionError):
            CouplingConstraint.dense(np.zeros((1, 3)), [1.0], 2, 2)


class TestIndividualSets:
    def test_box_requires_ordered_bounds(self):
        with pytest.raises(InfeasibleSetError):
            BoxFamily([[1.0]], [[0.0]])

    def test_box_budget_requires_attainable_theta(self):
        with pytest.raises(InfeasibleSetError):
            BoxFamily([[0.0, 0.0]], [[1.0, 1.0]], [3.0])
        with pytest.raises(InfeasibleSetError):
            BoxFamily(np.zeros((2, 2)), np.ones((2, 2)), [1.0, 3.0])
        with pytest.raises(InfeasibleSetError):
            BoxFamily(np.ones((2, 1)), np.zeros((2, 1)))

    def test_flow_polytope_bod_validation(self):
        B = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(InfeasibleSetError):
            FlowFamily(B, [[0.5, -0.5]])
        with pytest.raises(InfeasibleSetError):
            FlowFamily(B, [[1.0, 1.0]])

    def test_flow_polytope_rejects_unreachable_destination(self):
        # Edges 0 -> 1 and 2 -> 3: the origin and the destination lie in
        # different components, so no flow conserves at every node.
        B = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
        with pytest.raises(InfeasibleSetError, match="inconsistent"):
            FlowFamily(B, [[-1.0, 0.0, 0.0, 1.0]])
        FlowFamily(B, [[-1.0, 1.0, 0.0, 0.0]])
        # A family checks each distinct row once, and every row it holds.
        with pytest.raises(InfeasibleSetError, match="inconsistent"):
            FlowFamily(B, [[-1.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 1.0]])
        family = FlowFamily(B, [[-1.0, 1.0, 0.0, 0.0]] * 3)
        assert len(family) == 3 and not family.B.flags.writeable

    def test_flow_family_refuses_a_reversed_edge(self):
        # B x = b_od holds over the reals at x = -1, but the one edge runs
        # from node 0 to node 1, so no flow leaves node 1.
        with pytest.raises(InfeasibleSetError, match="inconsistent"):
            FlowFamily([[-1.0], [1.0]], [[1.0, -1.0]])

    def test_flow_family_refuses_two_origins(self):
        # A 4-cycle: the row sums to zero and B x = b_od is consistent.
        B = np.array([[-1.0, 0.0, 0.0, 1.0], [1.0, -1.0, 0.0, 0.0],
                      [0.0, 1.0, -1.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        with pytest.raises(InfeasibleSetError, match="e_d - e_o"):
            FlowFamily(B, [[-1.0, -1.0, 1.0, 1.0]])

    def test_flow_family_refuses_a_non_incidence_matrix(self):
        # x = 0.5 meets 2 x = 1, but an edge's column holds -1 and +1.
        with pytest.raises(DimensionError, match="incidence"):
            FlowFamily([[-2.0], [2.0]], [[-1.0, 1.0]])

    def test_flow_family_graph(self):
        # Edges 0 -> 1, 1 -> 0, 0 -> 1; a zero row routes node 0 to itself.
        family = FlowFamily([[-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]],
                            [[-1.0, 1.0], [1.0, -1.0], [0.0, 0.0]])
        assert family.out_edges == [[(0, 1), (2, 1)], [(1, 0)]]
        assert family.ods == [(0, 1), (1, 0), (0, 0)]

    def test_violation_values(self):
        box = BoxFamily([[0.0]], [[1.0]])
        assert box.violation(np.array([[1.1]]))[0] == pytest.approx(0.1)
        assert box.violation(np.array([[0.5]]))[0] == 0.0
        bb = BoxFamily([[0.0, 0.0]], [[1.0, 1.0]], [1.5])
        assert bb.violation(np.array([[0.5, 0.5]]))[0] == pytest.approx(0.5)
        # One row per agent: agent 0 has no budget, agent 1 misses its own.
        family = BoxFamily([[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]],
                           [-np.inf, 1.5])
        X = np.array([[1.2, 0.5], [0.5, 0.5]])
        assert family.violation(X) == pytest.approx([0.2, 0.5])
        assert family.theta[0] == -np.inf and family.theta[1] == 1.5


class TestFeasibilityReport:
    def test_feasible_interior(self):
        game = make_quadratic_game(K=10.0)
        rep = feasibility_report(game, np.array([0.5, 0.5]))
        assert rep.feasible
        assert np.max(rep.individual_violations) == 0.0

    def test_box_breach_reported(self):
        game = make_quadratic_game(K=10.0)
        rep = feasibility_report(game, np.array([1.1, 0.5]), tol=1e-6)
        assert not rep.feasible
        assert rep.individual_violations[0] == pytest.approx(0.1)

    def test_coupling_breach_reported(self):
        game = make_quadratic_game(K=0.5)
        rep = feasibility_report(game, np.array([0.6, 0.6]))
        assert not rep.feasible
        assert rep.coupling_residual[0] == pytest.approx(-0.1)


class TestGameConstruction:
    def test_profile_refuses_a_matrix_of_another_shape(self):
        game = make_quadratic_game(M=4, n=2)
        for shape in ((6, 2), (2, 4)):
            for x in (np.zeros(shape), StrategyProfile.from_matrix(
                    np.zeros(shape))):
                with pytest.raises(DimensionError, match=r"shape \(4, 2\)"):
                    game.profile(x)
        X = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(game.profile(X).as_matrix(), X)
        assert np.array_equal(game.profile(X.reshape(-1)).as_matrix(), X)

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(DimensionError):
            make_quadratic_game(M=0)

    def test_rejects_wrong_individual_count(self):
        cost = QuadraticCost(Q=np.eye(1), C=np.eye(1), c=np.zeros((2, 1)))
        with pytest.raises(DimensionError):
            AggregativeGame(
                M=2, n=1, cost=cost,
                individual=BoxFamily.common([0.0], [1.0], 1),
                coupling=CouplingConstraint.per_component_cap([1.0], 2))

    def test_rejects_dimension_mismatch(self):
        cost = QuadraticCost(Q=np.eye(2), C=np.eye(2), c=np.zeros((1, 2)))
        with pytest.raises(DimensionError):
            AggregativeGame(
                M=1, n=2, cost=cost,
                individual=BoxFamily.common([0.0], [1.0], 1),
                coupling=CouplingConstraint.per_component_cap([1.0, 1.0], 1))
