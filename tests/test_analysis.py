import dataclasses
import warnings
from types import SimpleNamespace

import time

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from aggeq import analysis, projection
from aggeq.algorithms import SolverConfig, asymmetric_projection, extragradient
from aggeq.analysis import (ConstantsEstimate, VerificationReport,
                            distance_bounds, epsilon_nash,
                            equilibrium_bounds, estimate_constants,
                            ev_dual_uniqueness, kkt_residual,
                            outer_sum_eigenvalue_check, verify_equilibrium,
                            vi_gap_bound, vi_gap_sampled,
                            wardrop_epsilon_bound)
from aggeq.errors import DimensionError, InfeasibleSetError
from aggeq.apps.ev import build_ev_game, generate_ev_params
from aggeq.apps.traffic import (build_network, build_route_choice_game,
                                shortest_path)
from aggeq.game import (AggregativeGame, BoxFamily, CouplingConstraint,
                        FlowFamily, QuadraticCost, aggregate_matrix)
from aggeq.operators import NASH, WARDROP, build_operator, default_sampler
from aggeq.projection import ProfileProjector
from aggeq.synthetic import build_quadratic_game


def single_agent_game(K=1.0, hi=3.0):
    cost = QuadraticCost(Q=np.eye(1), C=np.zeros((1, 1)),
                         c=np.array([[-2.0]]))
    return AggregativeGame(
        M=1, n=1, cost=cost, individual=BoxFamily.common([0.0], [hi], 1),
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


def active_rows_loop_oracle(family, i, x, tol):
    """Test oracle: agent i's active rows at x, one loop per component:
    (inequality, equality) gradient rows, with a pinned component
    (lo == hi) as one equality row."""
    n = x.size
    ineq = []
    eq = []
    if isinstance(family, BoxFamily):
        lo, hi = family.lo[i], family.hi[i]
        for t in range(n):
            if lo[t] == hi[t]:
                eq.append(np.eye(n)[t])
                continue
            if x[t] <= lo[t] + tol:
                row = np.zeros(n)
                row[t] = -1.0
                ineq.append(row)
            if x[t] >= hi[t] - tol:
                row = np.zeros(n)
                row[t] = 1.0
                ineq.append(row)
        if float(np.sum(x)) <= family.theta[i] + tol:
            ineq.append(-np.ones(n))
    else:
        for t in range(n):
            if x[t] <= tol:
                row = np.zeros(n)
                row[t] = -1.0
                ineq.append(row)
            if x[t] >= 1.0 - tol:
                row = np.zeros(n)
                row[t] = 1.0
                ineq.append(row)
        # The rows of B sum to zero, so one is redundant; BVLS can miss the
        # least residual when given all of them.
        eq.extend(np.asarray(family.B, dtype=float)[:-1])
    return (np.array(ineq, dtype=float).reshape(-1, n),
            np.array(eq, dtype=float).reshape(-1, n))


def deviation_loop_oracle(game, X, S):
    """Test oracle: the per-agent deviation objective, agent i's cost at
    X[i] with the average (X[i] + S[i]) / M, and its gradient, each agent's
    row of one common-average call at that agent's average."""
    M = game.M
    nash = build_operator(game, NASH)
    vals = np.empty(M)
    grads = np.empty_like(X)
    for i in range(M):
        z = (X[i] + S[i]) / M
        vals[i] = game.cost.value_all(X, z)[i]
        grads[i] = nash.evaluate_blocks(X, z)[i]
    return vals, grads


def two_way_grid_network():
    edges = []
    for a, b, length in ((0, 1, 1.0), (1, 2, 1.5), (3, 4, 1.2), (4, 5, 1.0),
                         (0, 3, 2.0), (1, 4, 1.0), (2, 5, 1.3)):
        edges += [(a, b, length, length), (b, a, length, length)]
    return build_network(list(range(6)), edges, f=0.15, h=2.0, K=0.4)


def street_grid_network(rows, cols):
    """rows x cols street grid with unit edges in both directions."""
    nodes = [(r, c) for r in range(rows) for c in range(cols)]
    edges = []
    for r, c in nodes:
        for nb in ((r, c + 1), (r + 1, c)):
            if nb in nodes:
                edges += [((r, c), nb, 1.0, 1.0), (nb, (r, c), 1.0, 1.0)]
    return build_network(nodes, edges, f=0.15, h=2.0, K=0.4)


def bvls_kkt_oracle(game, flavor, X, lam, tol=analysis.ACTIVE_TOL):
    """Test oracle: the per-agent BVLS fit of min |G + Gamma^T mu| over the
    active rows Gamma (inequality entries of mu >= 0), which kkt_residual
    made before the tangent-cone projection, with a rank test and pinned
    components as equality rows.  Returns G and,
    per agent, the stationarity residual, the smallest inequality
    multiplier (nan without one) and whether the active rows are
    rank-deficient."""
    G = (build_operator(game, flavor).evaluate_blocks(X)
         + game.coupling.adjoint_blocks(lam))
    stat = np.empty(game.M)
    mu = np.full(game.M, np.nan)
    degenerate = np.zeros(game.M, dtype=bool)
    for i in range(game.M):
        ineq, eq = active_rows_loop_oracle(game.individual, i, X[i], tol)
        Gamma = np.vstack([ineq, eq])
        if not len(Gamma):
            stat[i] = np.max(np.abs(G[i]))
            continue
        degenerate[i] = np.linalg.matrix_rank(Gamma) < Gamma.shape[0]
        lb = np.concatenate([np.zeros(len(ineq)),
                             np.full(len(eq), -np.inf)])
        sol = lsq_linear(Gamma.T, -G[i],
                         bounds=(lb, np.full(len(Gamma), np.inf)),
                         method="bvls")
        stat[i] = np.max(np.abs(G[i] + Gamma.T @ sol.x))
        if len(ineq):
            mu[i] = np.min(sol.x[:len(ineq)])
    return G, stat, mu, degenerate


def vi_gap_loop_oracle(game, flavor, x_bar, n_samples, seed):
    """Test oracle: the sampled VI gap written out on its own, one sample
    drawn, projected and pulled back at a time, with x_bar's slack clipped
    at 0.  Returns the gap and the number of samples pulled back."""
    X_bar = game.profile(x_bar).as_matrix()
    F = build_operator(game, flavor).evaluate_blocks(X_bar).reshape(-1)
    sampler = default_sampler(game)
    rng = np.random.default_rng(seed)
    gap = np.inf
    pulled = 0
    for _ in range(n_samples):
        X = sampler(rng)
        resid = game.coupling.residual(X)
        if np.min(resid, initial=0.0) < 0.0:
            pulled += 1
            D = X - X_bar
            d_resid = game.coupling.residual(X_bar) - resid
            base = np.maximum(game.coupling.residual(X_bar), 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(d_resid > 1e-15, base / d_resid, np.inf)
            theta = float(min(1.0, np.min(ratios, initial=1.0)))
            X = X_bar + theta * D
        gap = min(gap, float(F @ (X - X_bar).reshape(-1)))
    return float(gap), pulled


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
        Z = (X + S) / game.M
        vals = game.cost.value_all(X, Z)
        grads = build_operator(game, NASH).evaluate_blocks(X, Z)
        o_vals, o_grads = deviation_loop_oracle(game, X, S)
        assert np.max(np.abs(vals - o_vals)) <= 1e-12
        assert np.max(np.abs(grads - o_grads)) <= 1e-12


class TestKktResidual:
    def test_hand_solved_pair_is_stationary(self):
        game = single_agent_game()
        out = kkt_residual(game, NASH, np.array([1.0]), np.array([1.0]))
        assert out["stationarity"] <= 1e-12
        assert out["complementarity"] <= 1e-12

    def test_perturbation_detected(self):
        game = single_agent_game()
        out = kkt_residual(game, NASH, np.array([1.1]), np.array([1.0]))
        assert out["stationarity"] >= 0.05

    def test_interior_optimum_all_zero(self):
        game = single_agent_game(K=10.0)
        out = kkt_residual(game, NASH, np.array([2.0]), np.zeros(1))
        assert out["stationarity"] <= 1e-12
        assert out["complementarity"] <= 1e-12

    def test_active_box_face_fits_multiplier(self):
        # Cap at 0.5 never binds; the box face x = 3 is active instead.
        cost = QuadraticCost(Q=np.eye(1), C=np.zeros((1, 1)),
                             c=np.array([[-5.0]]))
        game = AggregativeGame(
            M=1, n=1, cost=cost, individual=BoxFamily.common([0.0], [3.0], 1),
            coupling=CouplingConstraint.per_component_cap([10.0], 1))
        out = kkt_residual(game, NASH, np.array([3.0]), np.zeros(1))
        assert out["stationarity"] <= 1e-9

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
            individual=FlowFamily(B, [[-1.0, 1.0]]),
            coupling=CouplingConstraint.per_component_cap(np.full(4, 10.0),
                                                          1))
        start = time.perf_counter()
        out = kkt_residual(game, NASH, np.array([1.0, 0.0, 0.0, 0.0]),
                           np.zeros(4))
        assert time.perf_counter() - start < 1.0
        assert out["stationarity"] == pytest.approx(1.0, abs=1e-12)

    def test_complementarity_skips_rows_without_a_multiplier(self):
        # An uncoupled game encodes "no coupling" as a cap of +inf, whose
        # slack is +inf: 0 * inf must not turn the gap into nan.
        cost = QuadraticCost(Q=np.eye(2), C=0.5 * np.eye(2),
                             c=np.array([[-0.5, 0.2], [0.1, -0.3]]))
        game = AggregativeGame(
            M=2, n=2, cost=cost,
            individual=BoxFamily.common(np.zeros(2), np.ones(2), 2),
            coupling=CouplingConstraint.per_component_cap(
                [np.inf, 0.5], 2))
        X = np.array([[0.5, 0.0], [0.0, 0.4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = kkt_residual(game, NASH, X, np.zeros(2))
            assert out["complementarity"] == 0.0
            # A positive multiplier on the finite row still counts.
            out = kkt_residual(game, NASH, X, np.array([0.0, 2.0]))
        assert out["complementarity"] == pytest.approx(2.0 * 0.3, abs=1e-15)

    def test_pinned_slots_are_equality_rows_on_ev_games(self):
        game = build_ev_game(generate_ev_params(M=150, seed=5))
        family = game.individual
        res = extragradient(game, WARDROP, SolverConfig())
        assert res.converged
        # Every agent has a slot outside its window, where lo == hi == 0.
        pinned = family.lo == family.hi
        assert np.all(np.any(pinned, axis=1))
        X = res.x.as_matrix()
        out = kkt_residual(game, WARDROP, X, res.lam)
        assert out["stationarity"] <= 1e-4
        # Its tangent cone holds only 0 there, so the sign of G there does
        # not matter.
        G = (build_operator(game, WARDROP).evaluate_blocks(X)
             + game.coupling.adjoint_blocks(res.lam))
        flipped = np.where(pinned, -G, G)
        R = game.projector.tangent_residual(X, G, analysis.ACTIVE_TOL)
        assert np.all(R[pinned] == 0.0)
        assert np.array_equal(R, game.projector.tangent_residual(
            X, flipped, analysis.ACTIVE_TOL))


def open_window_ev_game(M, seed):
    """Charging game whose caps are positive in every slot, so no slot has
    lo == hi and most active sets are not degenerate."""
    params = generate_ev_params(M=M, seed=seed)
    rng = np.random.default_rng(seed)
    xtilde = np.where(params.xtilde > 0.0, params.xtilde,
                      rng.uniform(0.5, 2.0, size=params.xtilde.shape))
    return build_ev_game(dataclasses.replace(params, xtilde=xtilde))


def kkt_points(game, flavor, seed):
    """Solver output, then sampled points and the solver output nudged and
    projected back, each with the solver's and with random multipliers."""
    res = extragradient(game, flavor, SolverConfig(tol=1e-6, max_iter=5000))
    X0 = res.x.as_matrix()
    rng = np.random.default_rng(seed)
    sample = default_sampler(game)
    proj = game.projector
    points = [X0]
    for _ in range(6):
        points.append(sample(rng))
        points.append(proj(X0 + rng.normal(scale=0.05, size=X0.shape)))
    for X in points:
        yield X, res.lam
        yield X, rng.uniform(0.0, 2.0, size=res.lam.shape)


class TestKktTangentCone:
    """Stationarity is -P_T(-G): it agrees with the per-agent BVLS oracle,
    to 1e-12 on box families and to the flow projection's tolerance on
    flow families."""

    def assert_matches_bvls(self, game, flavor, X, lam):
        out = kkt_residual(game, flavor, X, lam)
        G, stat, mu, degenerate = bvls_kkt_oracle(game, flavor, X, lam)
        scale = max(1.0, float(np.max(np.abs(G))))
        tol = 1e-12 if isinstance(game.individual, BoxFamily) else 1e-10
        assert abs(out["stationarity"] - np.max(stat)) <= tol * scale
        return G, mu, degenerate

    @pytest.mark.parametrize("kind", ["ev", "open-ev", "quadratic",
                                      "route"])
    def test_matches_bvls_at_solver_and_perturbed_points(self, kind):
        game, flavor = {
            "ev": lambda: (build_ev_game(generate_ev_params(M=8, seed=4)),
                           NASH),
            "open-ev": lambda: (open_window_ev_game(8, 5), NASH),
            "quadratic": lambda: (build_quadratic_game(M=8, n=5, seed=2),
                                  WARDROP),
            "route": lambda: (build_route_choice_game(
                street_grid_network(3, 3), M=6, seed=3), WARDROP),
        }[kind]()
        seen = {"degenerate": 0, "regular": 0}
        for X, lam in kkt_points(game, flavor, seed=7):
            _, mu, degenerate = self.assert_matches_bvls(game, flavor, X,
                                                         lam)
            seen["degenerate"] += int(np.sum(degenerate))
            seen["regular"] += int(np.sum(~degenerate & ~np.isnan(mu)))
        # The EV windows pin the slots outside them (lo == hi == 0): one
        # equality row each, which leaves the active sets regular.
        assert seen["regular"] > 0

    def test_budget_cases_one_by_one(self):
        # Agent 0: slot 1 pinned (lo == hi, one equality row), budget
        # slack.  Agent 1: budget
        # active, every slot at a bound.  Agent 2: budget active with free
        # slots and one at lo.  Agent 3: interior.  Agent 4: budget active
        # alone.
        lo = np.zeros((5, 3))
        hi = np.ones((5, 3))
        hi[0, 1] = 0.0
        theta = np.array([0.5, 1.0, 1.0, 0.5, 1.5])
        X = np.array([[0.3, 0.0, 0.7], [0.0, 1.0, 0.0], [0.0, 0.4, 0.6],
                      [0.3, 0.2, 0.4], [0.5, 0.5, 0.5]])
        rng = np.random.default_rng(3)
        cost = QuadraticCost(Q=np.eye(3), C=0.5 * np.eye(3),
                             c=rng.normal(size=(5, 3)))
        game = AggregativeGame(
            M=5, n=3, cost=cost,
            individual=BoxFamily(lo, hi, theta),
            coupling=CouplingConstraint.per_component_cap(np.full(3, 2.0),
                                                          5))
        for lam in (np.zeros(3), rng.uniform(0.0, 3.0, size=3)):
            _, mu, degenerate = self.assert_matches_bvls(game, NASH, X, lam)
            assert list(degenerate) == [False, True, False, False, False]
            assert np.isnan(mu[3]) and not np.isnan(mu[2])

    def test_bvls_runs_only_for_flow_and_halfspace_sets(self, monkeypatch):
        """Flow sets were the last family that verification fitted with
        BVLS, one agent at a time.  Now no family calls it: a box family's
        stationarity is one batched projection per profile, and a flow
        family's is one exact tangent-cone projection per agent."""
        calls, flow_calls = [], []

        def counting_lsq(*args, **kwargs):
            calls.append(args)
            return lsq_linear(*args, **kwargs)

        def counting_flow(*args):
            flow_calls.append(args)
            return project_flow(*args)

        project_flow = projection._project_flow
        monkeypatch.setattr("scipy.optimize.lsq_linear", counting_lsq)
        monkeypatch.setattr(projection, "_project_flow", counting_flow)
        consts = ConstantsEstimate(R=1.0, L_p=1.0, alpha=0.0)
        game = build_ev_game(generate_ev_params(M=6, seed=1))
        res = extragradient(game, NASH, SolverConfig(tol=1e-5))
        verify_equilibrium(game, NASH, res.x.entries, res.lam,
                           constants=consts, compute_epsilon=False)
        assert calls == [] and flow_calls == []
        game = build_route_choice_game(two_way_grid_network(), M=3, seed=0)
        X = game.cost.utility.ref
        lam = np.zeros(game.coupling.m)
        verify_equilibrium(game, WARDROP, X, lam, constants=consts,
                           compute_epsilon=False)
        assert calls == []
        flow_calls.clear()
        kkt_residual(game, WARDROP, X, lam)
        assert len(flow_calls) == game.M


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
            individual=BoxFamily.common(np.zeros(n), np.ones(n), M),
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
            individual=BoxFamily([[0.0], [0.0]], [[1.0], [1.0]],
                                 [-np.inf, 0.5]),
            coupling=CouplingConstraint.per_component_cap([10.0], 2))
        assert epsilon_nash(game, np.array([[0.0], [0.5]])) <= 1e-9

    def test_a_coupling_row_an_agent_cannot_move_leaves_its_set(self):
        # x_bar exceeds the row, which only agent 0's block meets, by 1e-9
        # (within verification's feas_tol): agents 1 and 2 ignore the row
        # where they raised ZeroDivisionError on a halfspace 0^T v <= -1e-9.
        game = build_quadratic_game(M=3, n=2, seed=0)
        x_bar = np.full(6, 0.5)
        A = np.array([[1.0, 1.0, 0.0, 0.0, 0.0, 0.0]])
        eps = [epsilon_nash(dataclasses.replace(
            game, coupling=CouplingConstraint.dense(A, [b], 3, 2)), x_bar)
            for b in (1.0, 1.0 - 1e-9)]
        assert eps[0] > 0.2
        assert eps[1] == pytest.approx(eps[0], abs=1e-8)

    def test_an_exceeded_dense_row_leaves_every_deviation_set_nonempty(self):
        # x_bar exceeds the row by 1e-9.  Agent 1 sits at its box's corner
        # 0, so its offset 0 - 1e-9 lies below min over the box of
        # v_1 + v_2 = 0.  Unclipped, its deviation set would be empty and
        # Dykstra would not converge (gap 5e-10).
        game = build_quadratic_game(M=3, n=2, seed=0)
        x_bar = np.array([0.5, 0.5, 0.0, 0.0, 0.5, 0.5])
        A = np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])
        eps = [epsilon_nash(dataclasses.replace(
            game, coupling=CouplingConstraint.dense(A, [b], 3, 2)), x_bar)
            for b in (1.0, 1.0 - 1e-9)]
        assert eps[0] > 0.1
        assert eps[1] == pytest.approx(eps[0], abs=1e-8)

    def test_ev_deviations_reuse_the_last_partitions(self, monkeypatch):
        # The capped deviation projector warm-starts its breakpoint search;
        # clearing its cache before every call changes no byte.
        game = build_ev_game(generate_ev_params(M=30, seed=2))
        x = extragradient(game, NASH, SolverConfig()).x.entries
        counts = {"sorted": 0}
        sort, body = projection._sort_partition, projection._box_budget_rows

        def counting(y, *args):
            counts["sorted"] += len(y)
            return sort(y, *args)

        monkeypatch.setattr(projection, "_sort_partition", counting)
        warm, warm_sorted = epsilon_nash(game, x), counts["sorted"]

        def cleared(Y, lo, hi, theta=None, hint=None):
            if hint is not None:
                hint[0][:] = False
                hint[1][:] = False
            return body(Y, lo, hi, theta, hint)

        monkeypatch.setattr(projection, "_box_budget_rows", cleared)
        counts["sorted"] = 0
        cold = epsilon_nash(game, x)
        assert np.float64(cold).tobytes() == np.float64(warm).tobytes()
        assert warm_sorted < 0.5 * counts["sorted"]


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

    def test_pulled_back_samples_stay_in_the_individual_sets(self,
                                                             monkeypatch):
        # Extragradient at tol 1e-4 exceeds a cap by 7.7e-7, within
        # feas_tol.  Unclipped, that row's negative slack would give a
        # negative pull-back step, reflecting samples through x_bar and out
        # of the individual sets.
        game = build_ev_game(generate_ev_params(M=150, seed=5))
        res = extragradient(game, WARDROP, SolverConfig(tol=1e-4))
        X = res.x.as_matrix()
        excess = float(np.max(-game.coupling.residual(X)))
        assert 0.0 < excess < 1e-6
        stacks = []

        def recording(game):
            sample = default_sampler(game)

            def draw(rng):
                stacks.append(sample(rng))
                return stacks[-1]
            return draw

        monkeypatch.setattr(analysis, "default_sampler", recording)
        gap = vi_gap_sampled(game, WARDROP, X, n_samples=40)
        samples = np.stack(stacks)  # pulled back in place
        assert len(samples) == 40
        assert np.max(game.individual.violation(samples)) <= 1e-12
        # Within the excess, every sample meets the coupling, so the
        # certified lower bound holds for them.
        assert gap >= vi_gap_bound(game, WARDROP, X, res.lam) \
            - np.sum(res.lam) * excess


class TestViGapChunks:
    """The sampled VI gap keeps the bytes of the one-sample-at-a-time loop
    of the test oracle."""

    @pytest.fixture(scope="class")
    def cases(self):
        ev = build_ev_game(generate_ev_params(M=12, seed=3))
        quad = build_quadratic_game(M=10, n=5, seed=2)
        route = build_route_choice_game(street_grid_network(3, 3), M=3,
                                        seed=0)
        return {
            "ev": (ev, NASH, extragradient(ev, NASH, SolverConfig(
                tol=1e-6)).x.as_matrix(), 60),
            "quadratic": (quad, WARDROP, extragradient(
                quad, WARDROP, SolverConfig(tol=1e-8)).x.as_matrix(), 60),
            "route": (route, WARDROP, route.cost.utility.ref, 7),
        }

    @pytest.mark.parametrize("kind", ["ev", "quadratic", "route"])
    @pytest.mark.parametrize("count", [None, 1, 4])
    def test_bytes_match_per_sample_loop(self, cases, kind, count):
        # count None is the case's own sample count, under which some
        # samples are pulled back; 1 and 4 compare the first draws alone.
        game, flavor, X, n_samples = cases[kind]
        n_samples = n_samples if count is None else count
        want, pulled = vi_gap_loop_oracle(game, flavor, X, n_samples, seed=5)
        got = vi_gap_sampled(game, flavor, X, n_samples=n_samples, seed=5)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert count is not None or 0 < pulled

    def test_given_feasibility_report_is_used(self, monkeypatch):
        game = build_quadratic_game(M=4, n=3, seed=1)
        X = extragradient(game, WARDROP,
                          SolverConfig(tol=1e-8)).x.as_matrix()
        calls = []
        real = analysis.feasibility_report

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "feasibility_report", counting)
        verify_equilibrium(game, WARDROP, X, np.zeros(game.coupling.m),
                           compute_epsilon=False)
        assert len(calls) == 1


def lp_vi_gap(game, F, X):
    """Test oracle: the exact minimum of F^T (y - X) over the coupled
    feasible set, by scipy's linprog."""
    from scipy.optimize import linprog

    M, n = game.M, game.n
    family = game.individual
    finite = np.isfinite(game.coupling.b)
    A_ub, b_ub = game.coupling.matrix()[finite], game.coupling.b[finite]
    A_eq = b_eq = None
    if isinstance(family, FlowFamily):
        A_eq, b_eq = np.kron(np.eye(M), family.B), family.b_ods.reshape(-1)
        bounds = [(0.0, 1.0)] * (M * n)
    else:
        bounds = list(zip(family.lo.reshape(-1), family.hi.reshape(-1)))
        budget = np.isfinite(family.theta)
        A_ub = np.vstack([A_ub, -np.kron(np.eye(M), np.ones(n))[budget]])
        b_ub = np.concatenate([b_ub, -family.theta[budget]])
    c = F.reshape(-1)
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.fun - c @ X.reshape(-1)


TWO_ROUTES = [(0, 1, 1.0, 1.0), (1, 0, 1.0, 1.0), (0, 1, 2.0, 2.0),
              (1, 0, 2.0, 2.0)]


class TestViGapBound:
    """The certificate: a lower bound on the VI gap from one linear
    minimization over the individual sets."""

    @pytest.mark.parametrize("kind", ["quadratic", "ev", "dense", "route"])
    def test_never_above_the_exact_lp_minimum(self, kind):
        rng = np.random.default_rng(4)
        if kind == "route":
            game = build_route_choice_game(two_way_grid_network(), M=3,
                                           seed=0)
            sample = default_sampler(game)
            points = [game.cost.utility.ref] + [sample(rng) for _ in range(3)]
        else:
            game = {
                "quadratic": lambda: build_quadratic_game(M=4, n=3, seed=1),
                "ev": lambda: build_ev_game(generate_ev_params(M=6, seed=1)),
                "dense": lambda: dataclasses.replace(
                    build_quadratic_game(M=3, n=2, seed=0),
                    coupling=CouplingConstraint.dense(
                        rng.uniform(0.0, 1.0, (2, 6)), [0.6, 0.8], 3, 2)),
            }[kind]()
            res = extragradient(game, WARDROP, SolverConfig(tol=1e-6))
            sample = default_sampler(game)
            points = [res.x.as_matrix()] + [sample(rng) for _ in range(3)]
        for flavor in (NASH, WARDROP):
            for X in points:
                F = build_operator(game, flavor).evaluate_blocks(X)
                exact = lp_vi_gap(game, F, X)
                for lam in (np.zeros(game.coupling.m),
                            rng.uniform(0.0, 2.0, game.coupling.m)):
                    assert vi_gap_bound(game, flavor, X, lam) \
                        <= exact + 1e-9

    @pytest.mark.parametrize("kind", ["ev", "quadratic", "route"])
    def test_shrinks_in_proportion_to_tol(self, kind):
        if kind == "ev":
            game = build_ev_game(generate_ev_params(M=20, seed=3))
            flavor = NASH
        elif kind == "quadratic":
            game, flavor = build_quadratic_game(M=10, n=5, seed=2), WARDROP
        else:
            net = build_network([0, 1], TWO_ROUTES, f=0.15, h=2.0)
            game = build_route_choice_game(net, od_pairs=[(0, 1)] * 5,
                                           seed=0)
            flavor = WARDROP
        cert = []
        for tol in (1e-4, 1e-6):
            res = extragradient(game, flavor, SolverConfig(tol=tol))
            assert res.converged
            cert.append(abs(vi_gap_bound(game, flavor, res.x, res.lam)))
            assert cert[-1] <= 20.0 * tol
        assert cert[1] <= 0.05 * cert[0]

    def test_clearly_negative_off_equilibrium(self):
        game = build_ev_game(generate_ev_params(M=150, seed=161))
        X = game.projector(np.zeros((game.M, game.n)))
        cert = vi_gap_bound(game, WARDROP, X, np.zeros(game.coupling.m))
        assert cert == pytest.approx(-4.2, abs=0.01)

    def test_zero_at_a_kkt_pair(self):
        # x = 1 at the cap K = 1 with lam = 1 balances the gradient x - 2.
        game = single_agent_game(K=1.0)
        assert vi_gap_bound(game, NASH, np.array([1.0]), np.ones(1)) == 0.0
        assert vi_gap_bound(game, NASH, np.array([0.5]), np.zeros(1)) < 0.0

    def test_verification_draws_no_samples(self, monkeypatch):
        game = build_ev_game(generate_ev_params(M=6, seed=1))
        res = extragradient(game, NASH, SolverConfig(tol=1e-6))
        calls = []
        monkeypatch.setattr(analysis, "vi_gap_sampled",
                            lambda *a, **k: calls.append(a))
        report = verify_equilibrium(game, NASH, res.x, res.lam,
                                    compute_epsilon=False)
        assert calls == []
        assert report.vi_gap_bound == vi_gap_bound(game, NASH, res.x,
                                                   res.lam)

    def test_unbounded_sets_raise(self):
        game = single_agent_game(hi=np.inf)
        with pytest.raises(InfeasibleSetError,
                           match=r"^unbounded individual sets$"):
            vi_gap_bound(game, NASH, np.array([0.5]), np.zeros(1))


class TestFlowMinimizer:
    """A flow family's linear minimizer is one shortest path per agent."""

    def test_returns_shortest_path_edges_ties_included(self):
        # Unit edges make many equal-cost paths; integer weights keep ties.
        # An agent with o == d has a zero b_od and routes nothing.
        net = street_grid_network(3, 3)
        V = net.n_nodes
        pairs = [(o, d) for o in range(V) for d in range(V)]
        b_ods = np.zeros((len(pairs), V))
        for i, (o, d) in enumerate(pairs):
            if o != d:
                b_ods[i, o], b_ods[i, d] = -1.0, 1.0
        proj = ProfileProjector(FlowFamily(net.B, b_ods))
        rng = np.random.default_rng(0)
        for W in (np.tile(net.t_free, (len(pairs), 1)),
                  rng.integers(1, 4, (len(pairs), net.n_edges)) * 1.0):
            want = np.stack([shortest_path(net, o, d, weights=w)
                             for (o, d), w in zip(pairs, W)])
            assert np.array_equal(proj.minimize_linear(W), want)

    def test_negative_cost_raises(self):
        net = street_grid_network(2, 2)
        game = build_route_choice_game(net, M=2, seed=0)
        W = np.ones((2, net.n_edges))
        W[1, 0] = -1e-3
        with pytest.raises(InfeasibleSetError, match="nonnegative"):
            game.projector.minimize_linear(W)


class TestBounds:
    def test_epsilon_bound_substitution(self):
        consts = ConstantsEstimate(R=1.0, L_p=2.0, alpha=1.0)
        assert wardrop_epsilon_bound(consts, 100) == pytest.approx(0.04)

    def test_distance_bound_substitution(self):
        consts = ConstantsEstimate(R=1.0, L_p=1.0, alpha=0.5)
        out = distance_bounds(consts, 100)
        assert out["strategy_bound"] == pytest.approx(0.2)
        assert out["sigma_bound"] == pytest.approx(np.sqrt(2.0 / 50.0))

    def test_distance_bound_needs_positive_alpha(self):
        consts = ConstantsEstimate(R=1.0, L_p=1.0, alpha=0.0)
        with pytest.raises(DimensionError):
            distance_bounds(consts, 10)

    def test_l2_is_r_times_l_p(self):
        assert ConstantsEstimate(R=3.0, L_p=0.1, alpha=0.0).L2 == 3.0 * 0.1

    def test_traffic_sigma_bound_substitution(self):
        # 20 edges of capacity 4e-3, gamma_hat = 0.5, M = 60.
        edges = [(0, 1, 1.0, 1.0), (1, 0, 1.0, 1.0)] * 10
        net = build_network([0, 1], edges, f=4e-3, h=7200.0)
        game = build_route_choice_game(net, od_pairs=[(0, 1)] * 60, M=60,
                                       gamma_range=(0.5, 3.5), seed=0)
        out = game.application_bounds(
            ConstantsEstimate(R=1.0, L_p=1.0, alpha=0.5))
        want = np.sqrt(20.0) / (2.0 * 4e-3 * 0.5 * np.sqrt(60.0))
        assert out["traffic_sigma_bound"] == pytest.approx(want)
        assert out["traffic_sigma_bound"] == pytest.approx(144.3, abs=0.1)

    def test_equilibrium_bounds_join_generic_and_application(self):
        consts = ConstantsEstimate(R=2.0, L_p=0.5, alpha=0.25)
        game = build_quadratic_game(M=4, n=3, seed=0)
        generic = {"eps_generic": 2.0 * 2.0 * 1.0 / 4,
                   **distance_bounds(consts, 4)}
        assert equilibrium_bounds(game, consts) == generic
        ev = build_ev_game(generate_ev_params(M=4, seed=0, n=6))
        assert equilibrium_bounds(ev, consts) \
            == {**generic, **ev.application_bounds(consts)}
        flat = ConstantsEstimate(R=2.0, L_p=0.5, alpha=0.0)
        assert equilibrium_bounds(ev, flat).keys() \
            == {"eps_generic", "eps_ev"}

    def test_estimate_constants_quadratic(self):
        game = build_quadratic_game(M=4, n=6, seed=2)
        consts = estimate_constants(game)
        assert consts.L_p == pytest.approx(
            np.linalg.norm(game.cost.C, 2), abs=1e-12)
        assert consts.R == pytest.approx(np.sqrt(game.n), abs=1e-12)
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


class TestScalingInvariance:
    def test_coupling_row_scaling(self):
        M, n, K = 2, 1, 0.5
        cost = QuadraticCost(Q=np.eye(1), C=np.eye(1),
                             c=np.full((M, n), -2.0))
        individual = BoxFamily.common([0.0], [2.0], M)
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
        out = ev_dual_uniqueness(X, params)
        assert out["unique"] and out["witness_agent"] is None
        assert out["tight_slots"].size == 0

    def test_interior_witness_found(self):
        params = self._params(np.ones((3, 4)), np.full(4, 0.5))
        X = np.full((3, 4), 0.2)
        X[:, 0] = 0.5  # slot 0 tight, everyone interior there
        out = ev_dual_uniqueness(X, params)
        assert out["unique"]
        assert out["witness_agent"] == 0
        assert list(out["tight_slots"]) == [0]

    def test_saturated_agents_not_unique(self):
        params = self._params(np.ones((2, 3)), np.full(3, 0.5))
        X = np.zeros((2, 3))
        X[0, 0], X[1, 0] = 1.0, 0.0  # tight slot 0, both at their limits
        out = ev_dual_uniqueness(X, params)
        assert not out["unique"]
        assert out["witness_agent"] is None


class TestVerifyEquilibrium:
    def test_report_row_keys(self):
        game = build_quadratic_game(M=3, n=2, seed=4)
        res = extragradient(game, NASH, SolverConfig(tol=1e-7))
        report = verify_equilibrium(game, NASH, res.x.entries, res.lam)
        assert isinstance(report, VerificationReport)
        row = report.as_row()
        for key in ("kkt_stationarity", "complementarity_gap",
                    "vi_gap_bound", "feasible", "epsilon_nash",
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
        verify_equilibrium(game, NASH, np.array([1.0]), np.ones(1))
        assert len(calls) == 1
