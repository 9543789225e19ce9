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
from aggeq.game import (AggregativeGame, Box, CouplingConstraint,
                        FlowPolytope, QuadraticCost)
from aggeq.operators import NASH, WARDROP
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
