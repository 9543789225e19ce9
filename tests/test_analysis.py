from types import SimpleNamespace

import time

import numpy as np
import pytest

from aggeq import analysis
from aggeq.algorithms import SolverConfig, asymmetric_projection, extragradient
from aggeq.analysis import (ConstantsEstimate, VerificationReport,
                            distance_bounds, epsilon_nash, estimate_constants,
                            ev_dual_uniqueness, kkt_residual,
                            outer_sum_eigenvalue_check, verify_equilibrium,
                            vi_gap_sampled, wardrop_epsilon_bound)
from aggeq.errors import DimensionError, InfeasibleSetError
from aggeq.apps.ev import build_ev_game, generate_ev_params
from aggeq.apps.traffic import build_network, build_route_choice_game
from aggeq.game import (AggregativeGame, Box, BoxBudget, CouplingConstraint,
                        FlowPolytope, HalfspaceIntersection, QuadraticCost,
                        aggregate_matrix)
from aggeq.operators import NASH, WARDROP, default_sampler
from aggeq.synthetic import build_quadratic_game


def single_agent_game(K=1.0, hi=3.0):
    cost = QuadraticCost(Q=np.eye(1), C=np.zeros((1, 1)),
                         c=np.array([[-2.0]]))
    return AggregativeGame(
        M=1, n=1, cost=cost, individual=(Box([0.0], [hi]),),
        coupling=CouplingConstraint.per_component_cap([K], 1))


class TestOuterSumEigenvalue:
    @pytest.mark.parametrize("M", range(1, 13))
    def test_bound_holds_with_vertices_and_samples(self, M):
        out = outer_sum_eigenvalue_check(M, n_random=10_000, seed=0)
        assert out["pass"]
        assert out["min_found"] >= out["bound"] - 1e-9

    def test_equality_at_single_unit_entry_m4(self):
        y = np.zeros(4)
        y[0] = 1.0
        from aggeq.analysis import _outer_sum_min_eig
        assert abs(_outer_sum_min_eig(y) - (-1.0)) <= 1e-9
        out = outer_sum_eigenvalue_check(4)
        assert abs(out["min_found"] - out["bound"]) <= 1e-9

    def test_single_agent_nonnegative(self):
        out = outer_sum_eigenvalue_check(1)
        assert out["min_found"] >= 0.0

    def test_closed_form_matches_dense_eig(self):
        from aggeq.analysis import _outer_sum_min_eig
        rng = np.random.default_rng(0)
        for M in (2, 3, 7):
            for _ in range(50):
                y = rng.uniform(size=M)
                A = np.outer(y, np.ones(M)) + np.outer(np.ones(M), y)
                dense = float(np.min(np.linalg.eigvalsh(A)))
                assert _outer_sum_min_eig(y) == pytest.approx(dense,
                                                              abs=1e-10)

    def test_rejects_bad_m(self):
        with pytest.raises(DimensionError):
            outer_sum_eigenvalue_check(0)


def active_rows_loop_oracle(cs, x, tol):
    """Test oracle: the per-component loop that found the active rows
    before the constraint sets owned ``active_rows``."""
    n = x.size
    ineq = []
    eq = []
    if isinstance(cs, (Box, BoxBudget)):
        lo, hi = cs.lo, cs.hi
        for t in range(n):
            if x[t] <= lo[t] + tol:
                row = np.zeros(n)
                row[t] = -1.0
                ineq.append(row)
            if x[t] >= hi[t] - tol:
                row = np.zeros(n)
                row[t] = 1.0
                ineq.append(row)
        if isinstance(cs, BoxBudget) and float(np.sum(x)) <= cs.theta + tol:
            ineq.append(-np.ones(n))
    elif isinstance(cs, FlowPolytope):
        for t in range(n):
            if x[t] <= tol:
                row = np.zeros(n)
                row[t] = -1.0
                ineq.append(row)
            if x[t] >= 1.0 - tol:
                row = np.zeros(n)
                row[t] = 1.0
                ineq.append(row)
        eq.extend(np.asarray(cs.B, dtype=float))
    elif isinstance(cs, HalfspaceIntersection):
        for a, beta in zip(cs.normals, cs.offsets):
            if float(a @ x) >= beta - tol:
                ineq.append(np.asarray(a, dtype=float))
        if cs.box is not None:
            sub_i, _ = active_rows_loop_oracle(cs.box, x, tol)
            ineq.extend(sub_i)
    return ineq, eq


def deviation_loop_oracle(game, X, S):
    """Test oracle: the per-agent deviation objective, agent i's cost at
    X[i] with the average (X[i] + S[i]) / M, and its gradient."""
    M = game.M
    cost = game.cost
    vals = np.empty(M)
    grads = np.empty_like(X)
    for i in range(M):
        z = (X[i] + S[i]) / M
        vals[i] = cost.value(i, X[i], z)
        grads[i] = cost.grad_own(i, X[i], z) + cost.grad_agg(i, X[i], z) / M
    return vals, grads


def two_way_grid_network():
    edges = []
    for a, b, length in ((0, 1, 1.0), (1, 2, 1.5), (3, 4, 1.2), (4, 5, 1.0),
                         (0, 3, 2.0), (1, 4, 1.0), (2, 5, 1.3)):
        edges += [(a, b, length, length), (b, a, length, length)]
    return build_network(list(range(6)), edges, f=0.15, h=2.0, K=0.4)


class TestActiveRows:
    """Each set's active_rows matches the loop oracle row for row, with
    +0.0 off the active entries."""

    def assert_matches_oracle(self, cs, x, tol=1e-6):
        ineq, eq = cs.active_rows(x, tol)
        o_ineq, o_eq = active_rows_loop_oracle(cs, x, tol)
        for got, want in ((ineq, o_ineq), (eq, o_eq)):
            want = np.array(want, dtype=float).reshape(-1, x.size)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        return ineq, eq

    def test_box_at_lo_and_hi(self):
        cs = Box([0.0, 0.0, 0.5, 0.0, 1.0], [1.0, 2.0, 0.5, 1.0, 3.0])
        x = np.array([0.0, 2.0, 0.5, 1.0 - 1e-8, 2.0])
        ineq, _ = self.assert_matches_oracle(cs, x)
        # Component 2 is pinned (lo = hi): its lo row precedes its hi row.
        t, col = np.nonzero(ineq)
        assert list(col) == [0, 1, 2, 2, 3]
        assert list(ineq[t, col]) == [-1.0, 1.0, -1.0, 1.0, 1.0]

    def test_box_budget_on_the_budget(self):
        cs = BoxBudget(np.zeros(4), np.ones(4), 1.5)
        for x in (np.array([0.0, 1.0, 0.5, 0.0]),   # on the budget
                  np.array([0.0, 1.0, 1.0, 0.3]),   # budget slack
                  np.array([0.2, 0.4, 0.5, 0.4])):  # only the budget
            self.assert_matches_oracle(cs, x)

    def test_flow_polytope(self):
        net = two_way_grid_network()
        game = build_route_choice_game(net, M=3, seed=0)
        X = game.cost.utility.ref
        for cs, x in zip(game.individual, X):
            _, eq = self.assert_matches_oracle(cs, x)
            assert eq.shape == cs.B.shape
        self.assert_matches_oracle(game.individual[0], np.full(X.shape[1],
                                                               0.5))

    @pytest.mark.parametrize("with_box", [False, True])
    def test_halfspace_intersection(self, with_box):
        normals = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0],
                            [1.0, 0.0, 1.0]])
        offsets = np.array([1.0, 0.0, 5.0])
        box = Box(np.zeros(3), np.array([1.0, 0.5, 1.0])) if with_box \
            else None
        cs = HalfspaceIntersection(normals, offsets, box)
        for x in (np.array([0.5, 0.5, 0.5]), np.array([0.0, 0.2, 1.0]),
                  np.array([0.3, 0.1, 0.9])):
            self.assert_matches_oracle(cs, x)


class TestDeviationValueGrad:
    @pytest.mark.parametrize("kind", ["quadratic", "ev", "route"])
    def test_matches_per_agent_oracle(self, kind):
        game = {
            "quadratic": lambda: build_quadratic_game(M=7, n=5, seed=2),
            "ev": lambda: build_ev_game(generate_ev_params(M=7, seed=2)),
            "route": lambda: build_route_choice_game(
                two_way_grid_network(), M=7, seed=2),
        }[kind]()
        sample = default_sampler(game)
        rng = np.random.default_rng(0)
        X_bar, X = sample(rng), sample(rng)
        S = game.M * aggregate_matrix(X_bar)[None, :] - X_bar
        vals, grads = game.cost.deviation_value_grad(X, (X + S) / game.M,
                                                     game.M)
        o_vals, o_grads = deviation_loop_oracle(game, X, S)
        assert np.max(np.abs(vals - o_vals)) <= 1e-12
        assert np.max(np.abs(grads - o_grads)) <= 1e-12


class TestKktResidual:
    def test_hand_solved_pair_is_stationary(self):
        game = single_agent_game()
        out = kkt_residual(game, NASH, np.array([1.0]), np.array([1.0]))
        assert out["stationarity"] <= 1e-12
        assert out["complementarity"] <= 1e-12
        assert out["dual_feasibility"] == 0.0

    def test_perturbation_detected(self):
        game = single_agent_game()
        out = kkt_residual(game, NASH, np.array([1.1]), np.array([1.0]))
        assert out["stationarity"] >= 0.05

    def test_interior_optimum_all_zero(self):
        game = single_agent_game(K=10.0)
        out = kkt_residual(game, NASH, np.array([2.0]), np.zeros(1))
        assert out["stationarity"] <= 1e-12
        assert out["complementarity"] <= 1e-12
        assert out["min_mu"] == 0.0
        assert not out["degenerate_active_set"]

    def test_active_box_face_fits_multiplier(self):
        # Cap at 0.5 never binds; the box face x = 3 is active instead.
        cost = QuadraticCost(Q=np.eye(1), C=np.zeros((1, 1)),
                             c=np.array([[-5.0]]))
        game = AggregativeGame(
            M=1, n=1, cost=cost, individual=(Box([0.0], [3.0]),),
            coupling=CouplingConstraint.per_component_cap([10.0], 1))
        out = kkt_residual(game, NASH, np.array([3.0]), np.zeros(1))
        assert out["stationarity"] <= 1e-9
        assert out["min_mu"] == pytest.approx(2.0, abs=1e-9)

    def test_flow_agent_with_degenerate_active_set(self):
        # Two parallel 0 -> 1 edges (0 and 2) and their reverses (1 and 3).
        # The agent routes on edge 0 while edge 2 costs 2 less.  Every bound
        # is active and the conservation rows are rank-deficient (they sum
        # to zero), so the active set is degenerate.  Only edge 0's upper
        # bound and edge 2's lower bound disagree with the costs: a shift t
        # along the conservation direction leaves residuals 1 + t and t - 1,
        # at best 1 and -1, with zero multipliers on both bounds.
        B = np.array([[-1.0, 1.0, -1.0, 1.0], [1.0, -1.0, 1.0, -1.0]])
        cost = QuadraticCost(Q=np.zeros((4, 4)), C=np.zeros((4, 4)),
                             c=np.array([[1.0, 2.0, -1.0, 3.0]]))
        game = AggregativeGame(
            M=1, n=4, cost=cost,
            individual=(FlowPolytope(B, np.array([-1.0, 1.0])),),
            coupling=CouplingConstraint.per_component_cap(np.full(4, 10.0),
                                                          1))
        start = time.perf_counter()
        out = kkt_residual(game, NASH, np.array([1.0, 0.0, 0.0, 0.0]),
                           np.zeros(4))
        assert time.perf_counter() - start < 1.0
        assert out["degenerate_active_set"]
        assert out["stationarity"] == pytest.approx(1.0, abs=1e-12)
        assert out["min_mu"] == pytest.approx(0.0, abs=1e-12)


class TestEpsilonNash:
    def test_zero_at_nash_solution(self):
        game = build_quadratic_game(M=5, n=3, seed=0)
        res = extragradient(game, NASH, SolverConfig(tol=1e-7))
        assert res.converged
        assert epsilon_nash(game, res.x.entries) <= 1e-4

    def test_zero_without_aggregate_coupling(self):
        M, n = 3, 2
        cost = QuadraticCost(Q=np.eye(n), C=np.zeros((n, n)),
                             c=np.full((M, n), -0.5))
        game = AggregativeGame(
            M=M, n=n, cost=cost,
            individual=tuple(Box(np.zeros(n), np.ones(n)) for _ in range(M)),
            coupling=CouplingConstraint.per_component_cap(np.ones(n), M))
        res = extragradient(game, WARDROP, SolverConfig(tol=1e-8))
        assert res.converged
        assert epsilon_nash(game, res.x.entries) <= 1e-6

    def test_positive_off_equilibrium(self):
        game = single_agent_game(K=10.0)
        # x = 0 is far from the tracking target 2; deviating to 2 saves 2.
        assert epsilon_nash(game, np.zeros(1)) == pytest.approx(2.0,
                                                                abs=1e-5)

    def test_mixed_box_and_budget_agents_keep_their_budgets(self):
        # Each agent wants x = -1: agent 0 stops at its box, agent 1 at its
        # budget 0.5.  Deviations must respect the budget, so nobody gains;
        # a box-only deviation set would let agent 1 save 0.625.
        cost = QuadraticCost(Q=np.eye(1), C=np.zeros((1, 1)),
                             c=np.ones((2, 1)))
        game = AggregativeGame(
            M=2, n=1, cost=cost,
            individual=(Box([0.0], [1.0]), BoxBudget([0.0], [1.0], 0.5)),
            coupling=CouplingConstraint.per_component_cap([10.0], 2))
        assert epsilon_nash(game, np.array([[0.0], [0.5]])) <= 1e-9


class TestViGap:
    def test_nonnegative_at_solution(self):
        game = build_quadratic_game(M=4, n=3, seed=1)
        res = extragradient(game, WARDROP, SolverConfig(tol=1e-8))
        assert res.converged
        gap = vi_gap_sampled(game, WARDROP, res.x.entries, n_samples=500)
        assert gap >= -1e-6

    def test_negative_off_equilibrium(self):
        game = single_agent_game(K=10.0)
        gap = vi_gap_sampled(game, NASH, np.array([0.5]), n_samples=200)
        assert gap < -0.01

    def test_rejects_infeasible_candidate(self):
        game = single_agent_game()
        with pytest.raises(InfeasibleSetError):
            vi_gap_sampled(game, NASH, np.array([2.5]))


class TestBounds:
    def test_epsilon_bound_substitution(self):
        consts = ConstantsEstimate(R=1.0, L2=2.0, alpha=1.0, source="exact")
        assert wardrop_epsilon_bound(consts, 100)["generic"] \
            == pytest.approx(0.04)

    def test_distance_bound_substitution(self):
        consts = ConstantsEstimate(R=1.0, L2=1.0, alpha=0.5, source="exact")
        out = distance_bounds(consts, 100)
        assert out["strategy_bound"] == pytest.approx(0.2)
        assert out["sigma_bound"] == pytest.approx(np.sqrt(2.0 / 50.0))

    def test_distance_bound_needs_positive_alpha(self):
        consts = ConstantsEstimate(R=1.0, L2=1.0, alpha=0.0, source="exact")
        with pytest.raises(DimensionError):
            distance_bounds(consts, 10)

    def test_traffic_sigma_bound_substitution(self):
        consts = ConstantsEstimate(
            R=1.0, L2=1.0, alpha=0.5, source="exact",
            extras={"E": 20, "f_min": 4e-3, "gamma_hat": 0.5})
        out = distance_bounds(consts, 60, tag="traffic")
        want = np.sqrt(20.0) / (2.0 * 4e-3 * 0.5 * np.sqrt(60.0))
        assert out["traffic_sigma_bound"] == pytest.approx(want)
        assert out["traffic_sigma_bound"] == pytest.approx(144.3, abs=0.1)

    def test_estimate_constants_quadratic(self):
        game = build_quadratic_game(M=4, n=6, seed=2)
        consts = estimate_constants(game)
        assert consts.L_p == pytest.approx(
            np.linalg.norm(game.cost.C, 2), abs=1e-12)
        assert consts.R == pytest.approx(np.sqrt(game.n), abs=1e-12)
        assert consts.L2 == pytest.approx(consts.R * consts.L_p, abs=1e-12)
        assert consts.alpha > 0

    def test_estimate_constants_traffic_radius(self):
        from aggeq.apps.traffic import build_network, build_route_choice_game
        edges = [(0, 1, 1.0, 1.0), (1, 0, 1.0, 1.0),
                 (0, 1, 2.0, 2.0), (1, 0, 2.0, 2.0)]
        net = build_network([0, 1], edges, f=0.15, h=2.0)
        game = build_route_choice_game(net, od_pairs=[(0, 1)] * 4, M=4,
                                       seed=0)
        consts = estimate_constants(game, alpha=0.5)
        assert consts.R == pytest.approx(np.sqrt(net.n_edges), abs=1e-12)
        assert consts.extras["E"] == net.n_edges


class TestScalingInvariance:
    def test_coupling_row_scaling(self):
        M, n, K = 2, 1, 0.5
        cost = QuadraticCost(Q=np.eye(1), C=np.eye(1),
                             c=np.full((M, n), -2.0))
        individual = tuple(Box([0.0], [2.0]) for _ in range(M))
        A = np.full((1, M * n), 1.0 / M)
        results = {}
        for gamma in (1.0, 4.0):
            coupling = CouplingConstraint.dense(gamma * A, [gamma * K], M, n)
            game = AggregativeGame(M=M, n=n, cost=cost,
                                   individual=individual, coupling=coupling)
            results[gamma] = asymmetric_projection(
                game, NASH, SolverConfig(tol=1e-7))
        r1, r4 = results[1.0], results[4.0]
        assert r1.converged and r4.converged
        assert np.max(np.abs(r1.x.entries - r4.x.entries)) <= 1e-5
        assert r4.lam[0] == pytest.approx(r1.lam[0] / 4.0, abs=1e-4)
        assert r1.lam[0] > 0.1  # the cap actually binds here


class TestEvDualUniqueness:
    def _params(self, xtilde, K):
        return SimpleNamespace(xtilde=np.asarray(xtilde, dtype=float),
                               K=np.asarray(K, dtype=float))

    def test_no_tight_slots_unique(self):
        params = self._params(np.ones((3, 4)), np.full(4, 0.9))
        X = np.full((3, 4), 0.2)
        out = ev_dual_uniqueness(X, params, np.zeros(4))
        assert out["unique"] and out["witness_agent"] is None
        assert out["tight_slots"].size == 0

    def test_interior_witness_found(self):
        params = self._params(np.ones((3, 4)), np.full(4, 0.5))
        X = np.full((3, 4), 0.2)
        X[:, 0] = 0.5  # slot 0 tight, everyone interior there
        out = ev_dual_uniqueness(X, params, np.zeros(4))
        assert out["unique"]
        assert out["witness_agent"] == 0
        assert list(out["tight_slots"]) == [0]

    def test_saturated_agents_not_unique(self):
        params = self._params(np.ones((2, 3)), np.full(3, 0.5))
        X = np.zeros((2, 3))
        X[0, 0], X[1, 0] = 1.0, 0.0  # tight slot 0, both at their limits
        out = ev_dual_uniqueness(X, params, np.zeros(3))
        assert not out["unique"]
        assert out["witness_agent"] is None


class TestVerifyEquilibrium:
    def test_report_row_keys(self):
        game = build_quadratic_game(M=3, n=2, seed=4)
        res = extragradient(game, NASH, SolverConfig(tol=1e-7))
        report = verify_equilibrium(game, NASH, res.x.entries, res.lam,
                                    n_samples=100)
        assert isinstance(report, VerificationReport)
        row = report.as_row()
        for key in ("kkt_stationarity", "complementarity_gap",
                    "vi_gap_sampled", "feasible", "epsilon_nash",
                    "bound_eps_generic", "bound_strategy_bound",
                    "bound_sigma_bound"):
            assert key in row
        assert row["feasible"] == 1
        assert row["epsilon_nash"] >= 0.0
        assert row["kkt_stationarity"] <= 1e-3

    def test_infeasible_point_fails_before_kkt_work(self, monkeypatch):
        game = single_agent_game()
        calls = []
        kkt = analysis.kkt_residual

        def counting_kkt(*args, **kwargs):
            calls.append(args)
            return kkt(*args, **kwargs)

        monkeypatch.setattr(analysis, "kkt_residual", counting_kkt)
        with pytest.raises(InfeasibleSetError,
                           match=r"^x_bar is not feasible within 1e-06$"):
            verify_equilibrium(game, NASH, np.array([2.5]), np.zeros(1))
        assert calls == []
        verify_equilibrium(game, NASH, np.array([1.0]), np.ones(1),
                           n_samples=10)
        assert len(calls) == 1
