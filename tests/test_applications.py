import warnings

import numpy as np
import pytest

from aggeq import algorithms, game as game_module, projection
from aggeq.algorithms import (SolverConfig, best_response, extragradient,
                              two_level_wardrop)
from aggeq.apps.ev import (EvParams, _check_population, build_ev_game,
                           default_demand,
                           ev_condition_check, generate_ev_params, sqrt_price)
from aggeq.apps.traffic import (_edge_price, build_network,
                                build_route_choice_game, load_network,
                                queue_consistency_check,
                                shortest_path, smoothing_constants,
                                traffic_bounds, travel_time,
                                travel_time_derivative,
                                travel_time_second_derivative)
from aggeq.analysis import ConstantsEstimate, verify_equilibrium
from aggeq.errors import ConfigError, DimensionError, InfeasibleSetError
from aggeq.cli import ExperimentConfig, build_game
from aggeq.game import DiagonalPrice, feasibility_report, grid_extremes
from aggeq.operators import (NASH, WARDROP, build_operator, default_sampler,
                             monotonicity_analysis)
from aggeq.synthetic import build_quadratic_game
from jacobians import dense_jacobian

TWO_ROUTE_EDGES = [(0, 1, 1.0, 1.0), (1, 0, 1.0, 1.0),
                   (0, 1, 2.0, 2.0), (1, 0, 2.0, 2.0)]


# ---------------------------------------------------------------------------
# Projection paths the builders reach
# ---------------------------------------------------------------------------


def custom_file_game(tmp_path, M=5, n=3):
    """A game through the custom-file builder: general Q and C, a common
    box and no coupling."""
    rng = np.random.default_rng(0)
    L = rng.normal(size=(n, n))
    path = tmp_path / "game.npz"
    np.savez(path, Q=L @ L.T + n * np.eye(n), C=0.5 * np.eye(n),
             c=rng.normal(size=(M, n)), lo=np.zeros(n), hi=np.ones(n))
    return build_game(ExperimentConfig(
        kind="custom-file", seed=0, sections={"custom": {"file": str(path)}}))


@pytest.fixture
def per_agent_calls(monkeypatch):
    """Rows handed to project_individual, counted through the name the
    profile projector calls it by."""
    calls = []
    real = projection.project_individual

    def counting(family, i, y):
        calls.append(len(y))
        return real(family, i, y)

    monkeypatch.setattr(projection, "project_individual", counting)
    return calls


class TestBuilderProjectionPaths:
    """Box families from the builders take the batched path, whatever
    their budgets; a route-choice game projects one row at a time."""

    @pytest.mark.parametrize("kind", ["quadratic", "ev", "custom-file"])
    def test_box_families_never_project_per_agent(self, kind, tmp_path,
                                                  per_agent_calls):
        game = {
            "quadratic": lambda: build_quadratic_game(M=12, n=5, seed=1),
            "ev": lambda: build_ev_game(generate_ev_params(M=30, seed=2)),
            "custom-file": lambda: custom_file_game(tmp_path),
        }[kind]()
        res = extragradient(game, WARDROP, SolverConfig(max_iter=5))
        Y = np.random.default_rng(3).normal(size=(game.M, game.n))
        X = game.projector(Y)
        assert res.primal_updates == 5 and X.shape == Y.shape
        assert per_agent_calls == []

    def test_ev_forward_steps_reuse_the_last_partitions(self, monkeypatch):
        # At least 90% of an EV solve's forward-step rows keep the partition
        # of the previous call and skip the breakpoint sort; clearing that
        # cache before every call changes no byte and no count.
        params = generate_ev_params(M=30, seed=2)
        game = build_ev_game(params)
        counts = {"step": False, "rows": 0, "sorted": 0}
        sort, step = projection._sort_partition, algorithms._forward_step

        def counting_sort(y, *args):
            counts["sorted"] += counts["step"] * len(y)
            return sort(y, *args)

        def counting_step(op, proj, X, *args):
            counts["step"] = True
            counts["rows"] += len(X)
            try:
                return step(op, proj, X, *args)
            finally:
                counts["step"] = False

        monkeypatch.setattr(projection, "_sort_partition", counting_sort)
        monkeypatch.setattr(algorithms, "_forward_step", counting_step)
        warm = extragradient(game, NASH, SolverConfig())
        assert counts["rows"] == 2 * game.M * warm.primal_updates
        assert counts["sorted"] <= 0.1 * counts["rows"]

        cached = projection.ProfileProjector.__call__

        def cleared(self, Y):
            self._hint[0][:] = False
            self._hint[1][:] = False
            return cached(self, Y)

        monkeypatch.setattr(projection.ProfileProjector, "__call__", cleared)
        counts.update(rows=0, sorted=0)
        cold = extragradient(build_ev_game(params), NASH, SolverConfig())
        assert counts["sorted"] >= 0.9 * counts["rows"]
        assert cold.x.as_matrix().tobytes() == warm.x.as_matrix().tobytes()
        assert cold.lam.tobytes() == warm.lam.tobytes()
        assert (cold.primal_updates, cold.dual_updates, cold.trace) \
            == (warm.primal_updates, warm.dual_updates, warm.trace)

    def test_route_choice_projects_once_per_row(self, per_agent_calls):
        net = build_network([0, 1], TWO_ROUTE_EDGES, f=0.15, h=2.0)
        game = build_route_choice_game(net, M=3, seed=0)
        rng = np.random.default_rng(4)
        game.projector(rng.normal(size=(game.M, game.n)))
        assert per_agent_calls == [game.n] * game.M


# ---------------------------------------------------------------------------
# EV charging
# ---------------------------------------------------------------------------


class TestEvBuilder:
    def test_default_population_builds(self):
        params = generate_ev_params(M=100, seed=0)
        game = build_ev_game(params)
        assert game.M == 100 and game.n == 24
        consts = ConstantsEstimate(R=2.0, L_p=0.3, alpha=0.5)
        x0 = params.xtilde0
        assert game.application_bounds(consts) == {
            "eps_ev": 2.0 * 24 * x0 ** 2 * 0.3 / 100,
            "ev_sigma_bound": x0 * float(np.sqrt(2.0 * 24 * 0.3
                                                 / (0.5 * 100)))}
        assert game.application_bounds(
            ConstantsEstimate(R=2.0, L_p=0.3, alpha=0.0)).keys() \
            == {"eps_ev"}
        assert game.coupling.A is None
        assert np.allclose(game.coupling.b, 0.55)

    def test_generated_population_properties(self):
        params = generate_ev_params(M=50, seed=1)
        assert params.theta.shape == (50,)
        assert np.all(params.theta >= 0.5) and np.all(params.theta <= 1.5)
        for i in range(50):
            row = params.xtilde[i]
            support = np.nonzero(row)[0]
            assert support.size > 0
            # connected window with a constant in-window cap
            assert np.all(np.diff(support) == 1)
            caps = row[support]
            assert np.all(caps == caps[0])
            assert 1.0 <= caps[0] <= 5.0
            assert row.sum() >= params.theta[i]

    def test_zero_requirement_agent_charges_nothing(self):
        xtilde = np.ones((2, 4))
        params = EvParams(n=4, M=2, theta=np.array([0.0, 1.0]),
                          xtilde=xtilde, d=np.full(4, 2.0),
                          kappa=np.full(4, 12.0), K=np.full(4, 0.8))
        game = build_ev_game(params)
        out = best_response(game, 0, z=np.zeros(4), lam=np.zeros(4))
        assert np.max(out) == 0.0

    def test_two_agent_toy_builds(self):
        params = EvParams(n=2, M=2, theta=np.array([1.0, 1.0]),
                          xtilde=np.ones((2, 2)), d=np.full(2, 2.0),
                          kappa=np.full(2, 12.0), K=np.full(2, 0.5))
        game = build_ev_game(params)
        assert game.M == 2

    def test_feasible_population_the_greedy_fill_misses(self):
        # Only x^1 = (0, 1), x^2 = (1, 0) meets every constraint; filling
        # agent 1 first takes slot 0 and leaves agent 2 no room.
        params = EvParams(n=2, M=2, theta=np.array([1.0, 1.0]),
                          xtilde=np.array([[1.0, 1.0], [1.0, 0.0]]),
                          d=np.ones(2), kappa=np.ones(2), K=np.full(2, 0.5))
        with pytest.warns(RuntimeWarning, match="not certify"):
            game = build_ev_game(params)
        res = extragradient(game, NASH, SolverConfig(tol=1e-6))
        assert res.converged
        assert feasibility_report(game, res.x, tol=1e-5).feasible
        assert np.max(np.abs(res.x.as_matrix() - [[0.0, 1.0], [1.0, 0.0]])) \
            <= 1e-5

    def test_greedy_fill_matches_a_slot_by_slot_loop(self):
        # The batched fill and its per-agent fallback give the outcome of a
        # loop that fills each agent's slots one at a time, largest take
        # first, on random populations that raise, warn and pass.
        def slot_loop(params):
            room = params.M * params.K
            for i in range(params.M):
                need = params.theta[i]
                take = np.minimum(params.xtilde[i], room)
                for t in np.argsort(-take, kind="stable"):
                    amt = min(take[t], need)
                    room[t] -= amt
                    need -= amt
                    if need <= 1e-12:
                        break
                if need > 1e-12:
                    return "warn"
            return "pass"

        def outcome(params):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    _check_population(params)
                except InfeasibleSetError:
                    return "raise"
            return "warn" if caught else "pass"

        # All agents filled at once would fit the room here, but agent 1's
        # fill cuts agent 2's take of slot 1, and agent 3 finds no room.
        params = EvParams(n=2, M=3, theta=np.array([2.0, 1.0, 3.0]),
                          xtilde=np.array([[0.0, 2.0], [2.0, 3.0],
                                           [3.0, 0.0]]),
                          d=np.ones(2), kappa=np.ones(2), K=np.ones(2))
        assert outcome(params) == slot_loop(params) == "warn"
        rng = np.random.default_rng(8)
        seen = set()
        for _ in range(600):
            M, n = int(rng.integers(1, 10)), int(rng.integers(1, 5))
            xtilde = np.round(rng.uniform(0.0, 2.0, size=(M, n)), 1)
            xtilde[rng.random((M, n)) < 0.3] = 0.0
            theta = np.round(rng.random(M) * xtilde.sum(axis=1), 1)
            params = EvParams(n=n, M=M, theta=theta, xtilde=xtilde,
                              d=np.ones(n), kappa=np.ones(n),
                              K=np.round(rng.uniform(0.0, 1.5, size=n), 1))
            got = outcome(params)
            if got != "raise":
                assert got == slot_loop(params)
            seen.add(got)
        assert seen == {"raise", "warn", "pass"}

    def test_one_agent_without_room_rejected(self):
        params = EvParams(n=2, M=2, theta=np.array([0.2, 1.5]),
                          xtilde=np.array([[1.0, 1.0], [2.0, 0.0]]),
                          d=np.ones(2), kappa=np.ones(2), K=np.full(2, 0.5))
        with pytest.raises(InfeasibleSetError, match="agent 1"):
            build_ev_game(params)

    def test_infeasible_population_rejected(self):
        params = EvParams(n=2, M=2, theta=np.array([1.0, 1.0]),
                          xtilde=np.ones((2, 2)), d=np.full(2, 2.0),
                          kappa=np.full(2, 12.0), K=np.full(2, 0.2))
        with pytest.raises(InfeasibleSetError):
            build_ev_game(params)

    def test_requirement_window_mismatch_rejected(self):
        with pytest.raises(InfeasibleSetError):
            EvParams(n=2, M=1, theta=np.array([3.0]),
                     xtilde=np.ones((1, 2)), d=np.full(2, 2.0),
                     kappa=np.full(2, 12.0), K=np.full(2, 0.5))

    def test_default_demand_profile(self):
        d = default_demand()
        assert d.shape == (24,)
        assert np.all(d > 0)

    def test_aggregate_lipschitz_is_the_max_over_the_whole_grid(self):
        # Scanned in chunks, the max is exact: one pass over the grid gives
        # the same value.
        game = build_ev_game(generate_ev_params(M=20, seed=1))
        hi = game.bounding_box()[1]
        grid = np.arange(0.0, float(np.max(hi)) + 1e-4, 1e-4)
        Z = np.broadcast_to(grid[:, None], (grid.size, game.n))
        want = float(np.max(np.abs(game.cost.price.diag(Z))))
        assert game.cost.aggregate_lipschitz(hi) == want

    @pytest.mark.parametrize("seed, n, kappa", [
        (0, 24, 12.0), (3, 6, 3.0), (7, 12, 0.5), (11, 48, 40.0)])
    def test_slope_maxima_are_the_grids_maxima(self, seed, n, kappa):
        # The sqrt price's slopes fall, so both constants are read at z = 0;
        # they are the maxima over the grids that reading replaces.
        M = 20
        game = build_ev_game(generate_ev_params(M, seed=seed, n=n,
                                                kappa=kappa))
        price = game.cost.price
        assert price.slopes_fall
        hi = game.bounding_box()[1]
        top = float(np.max(hi))
        dmax, = grid_extremes(np.arange(0.0, top + 1e-4, 1e-4), n,
                              lambda Z: (np.abs(price.diag(Z)),))
        assert game.cost.aggregate_lipschitz(hi) == dmax
        dmax, ddmax = grid_extremes(
            np.linspace(0.0, top, 2049), n,
            lambda Z: (np.abs(price.diag(Z)), np.abs(price.diag2(Z))))
        assert game.cost.deviation_lipschitz(M, hi) \
            == 0.0 + 2.0 * dmax / M + ddmax * top / M**2

    def test_one_slot_population_has_one_slot_windows(self):
        params = generate_ev_params(M=8, seed=0, n=1, K=2.0)
        assert params.xtilde.shape == (8, 1)
        assert np.all(params.xtilde >= 1.0)
        assert np.all(params.xtilde[:, 0] >= params.theta)
        build_ev_game(params)


@pytest.fixture
def grid_extremes_calls(monkeypatch):
    """Calls of grid_extremes through the name the cost models call it by."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].size)
        return grid_extremes(*args, **kwargs)

    monkeypatch.setattr(game_module, "grid_extremes", counting)
    return calls


class TestSlopeScans:
    def test_ev_verification_scans_no_grid(self, grid_extremes_calls):
        game = build_ev_game(generate_ev_params(5, seed=0, n=6))
        res = extragradient(game, NASH, SolverConfig(tol=1e-6))
        assert res.converged
        verify_equilibrium(game, NASH, res.x, res.lam)
        assert grid_extremes_calls == []

    def test_route_choice_verification_keeps_its_grids(
            self, grid_extremes_calls):
        net = build_network([0, 1], TWO_ROUTE_EDGES, f=0.15, h=2.0)
        game = build_route_choice_game(net, od_pairs=[(0, 1)] * 3, M=3,
                                       seed=0)
        assert not game.cost.price.slopes_fall
        res = two_level_wardrop(game, SolverConfig(tol=1e-6))
        assert res.converged
        verify_equilibrium(game, WARDROP, res.x, res.lam)
        assert len(grid_extremes_calls) >= 1


class TestEvCondition:
    def test_default_sqrt_price_holds(self):
        params = generate_ev_params(M=20, seed=0)
        out = ev_condition_check(params)
        assert out["holds"]
        assert out["min_value"] > 0.0

    def test_affine_increasing_price_holds(self):
        params = generate_ev_params(M=5, seed=0)
        price = DiagonalPrice(lambda z: 0.1 * z + 1.0,
                              lambda z: np.full_like(np.asarray(z, float),
                                                     0.1),
                              lambda z: np.zeros_like(np.asarray(z, float)))
        out = ev_condition_check(params, grid_step=1e-3, price=price)
        assert out["holds"]
        assert out["min_value"] == pytest.approx(0.1)

    def test_convex_kink_fails(self):
        # p'' grows much faster than p', turning the expression negative.
        params = EvParams(n=2, M=1, theta=np.array([1.0]),
                          xtilde=np.full((1, 2), 4.0), d=np.full(2, 2.0),
                          kappa=np.full(2, 12.0), K=np.full(2, 4.0))
        z3 = DiagonalPrice(lambda z: np.asarray(z, float) ** 3,
                           lambda z: 3.0 * np.asarray(z, float) ** 2,
                           lambda z: 6.0 * np.asarray(z, float))
        out = ev_condition_check(params, grid_step=1e-3, price=z3)
        assert not out["holds"]
        assert out["min_value"] < -0.5

    def test_sqrt_price_values(self):
        price = sqrt_price(np.array([3.0]), np.array([12.0]), coeff=0.15)
        assert price.value(np.array([1.0]))[0] \
            == pytest.approx(0.15 * np.sqrt(4.0 / 12.0))
        assert price.diag(np.array([1.0]))[0] > 0
        assert price.diag2(np.array([1.0]))[0] < 0


# ---------------------------------------------------------------------------
# Travel-time smoothing and queuing
# ---------------------------------------------------------------------------


class TestSmoothing:
    def test_delta_at_paper_scale(self):
        curve = smoothing_constants(4e-3, 7200.0, 60.0)
        assert curve.Delta == pytest.approx(0.96750, abs=1e-4)

    def test_delta_at_congested_scale(self):
        curve = smoothing_constants(0.15, 2.0, 1.0)
        want = 0.5 * (np.sqrt(0.3 ** 2 + 4.0 * 0.3) - 0.3)
        assert curve.Delta == pytest.approx(want, abs=1e-12)
        assert curve.Delta == pytest.approx(0.4179, abs=1e-3)

    def test_free_flow_branch_exact(self):
        # At the wide-capacity scale the whole [0, 1] flow range sits on
        # the free-flow branch.
        curve = smoothing_constants(4e-3, 7200.0, 1.5)
        fh = curve.f * curve.h
        for s in (0.0, 0.5, 1.0, fh - curve.Delta):
            assert travel_time(curve, s) == pytest.approx(1.5, abs=1e-12)

    def test_right_junction_branch_agreement(self):
        curve = smoothing_constants(0.15, 2.0, 1.0)
        s = curve.f * curve.h + curve.Delta
        want = curve.t_free + curve.Delta / (2.0 * curve.f)
        assert travel_time(curve, s) == pytest.approx(want, abs=1e-9)
        mid = curve.a * s * s + curve.b * s + curve.c
        assert curve.t_free + mid == pytest.approx(want, abs=1e-9)

    def test_c1_continuity_at_junctions(self):
        curve = smoothing_constants(0.15, 2.0, 1.0)
        fh = curve.f * curve.h
        h = 1e-7
        for s in (fh - curve.Delta, fh + curve.Delta):
            left = travel_time(curve, s - h)
            right = travel_time(curve, s + h)
            assert abs(right - left) <= 1e-6
            num = (right - left) / (2.0 * h)
            assert num == pytest.approx(travel_time_derivative(curve, s),
                                        abs=1e-5)

    def test_branch_derivatives(self):
        curve = smoothing_constants(0.15, 2.0, 1.0)
        fh = curve.f * curve.h
        assert travel_time_derivative(curve, fh - curve.Delta) \
            == pytest.approx(0.0, abs=1e-9)
        assert travel_time_derivative(curve, fh + curve.Delta) \
            == pytest.approx(1.0 / (2.0 * curve.f), abs=1e-9)

    def test_middle_curvature(self):
        curve = smoothing_constants(0.15, 2.0, 1.0)
        fh = curve.f * curve.h
        want = 1.0 / (4.0 * curve.f * curve.Delta)
        assert 2.0 * curve.a == pytest.approx(want, abs=1e-12)
        assert travel_time_second_derivative(curve, fh) \
            == pytest.approx(want, abs=1e-12)
        h = 1e-4
        second_diff = (travel_time(curve, fh + h)
                       - 2.0 * travel_time(curve, fh)
                       + travel_time(curve, fh - h)) / h ** 2
        assert second_diff == pytest.approx(want, rel=1e-4)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DimensionError):
            smoothing_constants(0.0, 1.0, 1.0)


def per_edge_price(network):
    """Test oracle: the edge price as closures over per-edge coefficient
    arrays, built from one scalar curve per edge, as the route-choice
    builder had it before it called the travel-time functions."""
    curves = [smoothing_constants(network.f[e], network.h,
                                  network.edges[e][3])
              for e in range(network.n_edges)]
    t_free = np.array([c.t_free for c in curves])
    fh = np.array([c.f * c.h for c in curves])
    Delta = np.array([c.Delta for c in curves])
    a = np.array([c.a for c in curves])
    b = np.array([c.b for c in curves])
    c_arr = np.array([c.c for c in curves])
    f = np.array([c.f for c in curves])

    def value(s):
        mid = a * s * s + b * s + c_arr
        cong = (s - fh) / (2.0 * f)
        return t_free + np.where(s <= fh - Delta, 0.0,
                                 np.where(s >= fh + Delta, cong, mid))

    def deriv(s):
        return np.where(s <= fh - Delta, 0.0,
                        np.where(s >= fh + Delta, 1.0 / (2.0 * f),
                                 2.0 * a * s + b))

    def deriv2(s):
        inside = (s > fh - Delta) & (s < fh + Delta)
        return np.where(inside, 2.0 * a, 0.0)

    return DiagonalPrice(value, deriv, deriv2), fh, Delta


class TestEdgePrice:
    """The per-edge curve through the travel-time functions against the
    per-edge closures, byte for byte."""

    def network(self):
        edges = [(0, 1, 1.0, 1.0), (1, 0, 1.0, 1.5), (1, 2, 1.0, 0.7),
                 (2, 1, 1.0, 2.0), (2, 0, 1.0, 1.2), (0, 2, 1.0, 3.0)]
        return build_network([0, 1, 2], edges,
                             f=[0.05, 0.1, 0.15, 0.2, 0.3, 0.4], h=2.0)

    def test_values_and_derivatives_are_byte_identical(self):
        net = self.network()
        got = _edge_price(net)
        want, fh, Delta = per_edge_price(net)
        E = net.n_edges
        junctions = np.stack([fh - Delta, fh + Delta, fh,
                              np.nextafter(fh - Delta, -np.inf),
                              np.nextafter(fh + Delta, np.inf),
                              np.zeros(E), np.ones(E)])
        loads = np.random.default_rng(16).uniform(0.0, 1.5, size=(200, E))
        for S in (junctions, loads):
            below, above = S <= fh - Delta, S >= fh + Delta
            assert below.any() and above.any() and (~below & ~above).any()
            for name in ("value", "diag", "diag2"):
                for z in (S, S[0]):
                    assert getattr(got, name)(z).tobytes() \
                        == getattr(want, name)(z).tobytes(), name

    def test_array_curve_fields_match_scalar_curves(self):
        net = self.network()
        curve = smoothing_constants(net.f, net.h, net.t_free)
        for e in range(net.n_edges):
            one = smoothing_constants(net.f[e], net.h, net.edges[e][3])
            for field in ("t_free", "f", "Delta", "a", "b", "c"):
                assert getattr(curve, field)[e] == getattr(one, field)
        threshold = float(np.max(1.0 / (32.0 * net.f * curve.Delta * 0.5)))
        assert traffic_bounds(net, 0.5, 10)["M_threshold"] == threshold


class TestQueueCheck:
    def test_triangle_area_hand_case(self):
        out = queue_consistency_check(2.0, 1.0, 1.0)
        assert out["queuing_time"] == pytest.approx(1.0)
        assert out["per_vehicle"] == pytest.approx(0.5)
        assert out["integral_match"]

    def test_boundary_no_queue(self):
        out = queue_consistency_check(2.0, 1.0, 2.0)
        assert out["queuing_time"] == 0.0
        assert out["integral_match"]

    def test_second_hand_case(self):
        out = queue_consistency_check(3.0, 1.0, 2.0)
        assert out["queuing_time"] == pytest.approx(1.5)
        assert out["integral_match"]


# ---------------------------------------------------------------------------
# Network construction and shortest paths
# ---------------------------------------------------------------------------


class TestNetwork:
    def test_build_two_route(self):
        net = build_network([0, 1], TWO_ROUTE_EDGES, f=0.15, h=2.0)
        assert net.n_nodes == 2 and net.n_edges == 4
        assert np.max(np.abs(net.B.sum(axis=0))) == 0.0

    def test_disconnected_rejected(self):
        with pytest.raises(InfeasibleSetError):
            build_network([0, 1], [(0, 1, 1.0, 1.0)])

    @pytest.mark.parametrize("f, K", [([0.1] * 3, None), (0.1, [1.0] * 5)])
    def test_per_edge_arrays_of_another_length_rejected(self, f, K):
        with pytest.raises(DimensionError):
            build_network([0, 1], TWO_ROUTE_EDGES, f=f, K=K)

    @pytest.mark.parametrize("K", [-1.0, [np.nan] * 4, [1.0, 1.0, -0.1, 1.0]])
    def test_negative_or_nan_cap_rejected(self, K):
        with pytest.raises(InfeasibleSetError):
            build_network([0, 1], TWO_ROUTE_EDGES, K=K)

    def test_shortest_path_is_binary_flow(self):
        net = build_network([0, 1], TWO_ROUTE_EDGES)
        x = shortest_path(net, 0, 1)
        assert set(np.unique(x)) <= {0.0, 1.0}
        b_od = np.array([-1.0, 1.0])
        assert np.allclose(net.B @ x, b_od)
        assert x[0] == 1.0 and x[2] == 0.0  # faster parallel edge wins

    def test_dijkstra_matches_exhaustive_enumeration(self):
        # Three tied 0 -> 3 routes; the lexicographically smallest edge
        # sequence must win.
        fwd = [(0, 1, 1.0, 1.0), (1, 3, 1.0, 1.0), (0, 2, 1.0, 1.0),
               (2, 3, 1.0, 1.0), (0, 3, 2.0, 2.0)]
        edges = fwd + [(h, t, ln, tf) for (t, h, ln, tf) in fwd]
        net = build_network([0, 1, 2, 3], edges)
        w = net.t_free

        def enumerate_paths(o, d):
            out_edges = [[] for _ in range(net.n_nodes)]
            for e, (tail, head, *_rest) in enumerate(net.edges):
                out_edges[tail].append((e, head))
            best = None
            stack = [(o, (), {o})]
            while stack:
                u, path, seen = stack.pop()
                if u == d:
                    key = (sum(w[e] for e in path), path)
                    if best is None or key < best:
                        best = key
                    continue
                for e, v in out_edges[u]:
                    if v not in seen:
                        stack.append((v, path + (e,), seen | {v}))
            return best

        for o in range(4):
            for d in range(4):
                if o == d:
                    continue
                x = shortest_path(net, o, d)
                _, path = enumerate_paths(o, d)
                want = np.zeros(net.n_edges)
                want[list(path)] = 1.0
                assert np.array_equal(x, want), (o, d)

    def test_load_network_synthetic_csvs(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        edges = tmp_path / "edges.csv"
        nodes.write_text("id,x,y\na,0,0\nb,1,0\n", encoding="utf-8")
        edges.write_text(
            "id,from,to,length_m,road_class\n"
            "e1,a,b,1000,main\n"
            "e2,a,b,2000,secondary\n", encoding="utf-8")
        net = load_network(nodes, edges)
        assert net.n_nodes == 2
        assert net.n_edges == 4  # each undirected edge becomes two
        t_main = 1000.0 / (50.0 / 3.6)
        assert any(abs(e[3] - t_main) < 1e-9 for e in net.edges)

    def test_load_network_bbox_excluding_all(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        edges = tmp_path / "edges.csv"
        nodes.write_text("id,x,y\na,0,0\nb,1,0\n", encoding="utf-8")
        edges.write_text("id,from,to,length_m,road_class\n"
                         "e1,a,b,1000,main\n", encoding="utf-8")
        with pytest.raises(InfeasibleSetError):
            load_network(nodes, edges, bbox=(10.0, 20.0, 10.0, 20.0))

    def test_load_network_missing_columns(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        edges = tmp_path / "edges.csv"
        nodes.write_text("id,x\na,0\n", encoding="utf-8")
        edges.write_text("id,from,to,length_m,road_class\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=":1:"):
            load_network(nodes, edges)

    def test_load_network_bad_row_line_number(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        edges = tmp_path / "edges.csv"
        nodes.write_text("id,x,y\na,0,0\nb,oops,0\n", encoding="utf-8")
        edges.write_text("id,from,to,length_m,road_class\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=":3:"):
            load_network(nodes, edges)


# ---------------------------------------------------------------------------
# Route-choice game
# ---------------------------------------------------------------------------


class TestRouteChoiceGame:
    def gentle_game(self, M=4, gamma_range=(0.5, 3.5), K=None, seed=0):
        net = build_network([0, 1], TWO_ROUTE_EDGES, f=0.15, h=2.0, K=K)
        return net, build_route_choice_game(
            net, od_pairs=[(0, 1)] * M, M=M, gamma_range=gamma_range,
            seed=seed)

    def test_builder_metadata(self):
        # E = 4 edges, f_min = 0.15, gamma_hat = 0.5, M = 4.
        net, game = self.gentle_game()
        out = game.application_bounds(
            ConstantsEstimate(R=2.0, L_p=1.0, alpha=0.5))
        assert out == {
            "eps_traffic": 4 / (4 * 0.15),
            "traffic_sigma_bound": float(
                np.sqrt(4) / (2.0 * 0.15 * 0.5 * np.sqrt(4)))}
        assert game.application_bounds(
            ConstantsEstimate(R=2.0, L_p=1.0, alpha=0.0)) \
            == {"eps_traffic": out["eps_traffic"]}
        assert len(game.individual) == game.M

    def test_vacuous_caps_leave_duals_zero(self):
        net, game = self.gentle_game(M=5)
        res = two_level_wardrop(game, SolverConfig(tol=1e-4))
        assert res.converged
        assert np.max(res.lam) <= 1e-8

    def test_large_gamma_tracks_preferred_route(self):
        net, game = self.gentle_game(M=1, gamma_range=(1e6, 1e6))
        res = two_level_wardrop(game, SolverConfig(tol=1e-6))
        assert res.converged
        ref = game.cost.utility.ref[0]
        assert np.max(np.abs(res.x.entries - ref)) <= 1e-4

    def test_tiny_gamma_routes_on_faster_edge(self):
        # Free-flow regime: the price is just t_free, so cost-minimizing
        # flow concentrates on the shorter parallel edge.
        net = build_network([0, 1], TWO_ROUTE_EDGES, f=100.0, h=2.0)
        game = build_route_choice_game(net, od_pairs=[(0, 1)] * 2, M=2,
                                       gamma_range=(1e-3, 1e-3), seed=0)
        res = two_level_wardrop(game, SolverConfig(tol=1e-6))
        sigma = res.aggregate()
        assert sigma[0] == pytest.approx(1.0, abs=1e-4)
        assert sigma[2] == pytest.approx(0.0, abs=1e-4)

    def test_wardrop_jacobian_symmetric_nash_not(self):
        net, game = self.gentle_game(M=3)
        sampler = default_sampler(game)
        rng = np.random.default_rng(0)
        op_w = build_operator(game, WARDROP)
        op_n = build_operator(game, NASH)
        for _ in range(5):
            X = sampler(rng)
            J_w = dense_jacobian(op_w, X)
            J_n = dense_jacobian(op_n, X)
            assert np.max(np.abs(J_w - J_w.T)) <= 1e-6
            assert np.max(np.abs(J_n - J_n.T)) > 1e-3

    def test_wardrop_strongly_monotone_above_gamma_hat(self):
        net, game = self.gentle_game(M=3)
        rep = monotonicity_analysis(build_operator(game, WARDROP))
        assert rep.alpha >= 0.5 - 1e-6  # gamma_hat, the least weight

    def test_bad_od_pair_rejected(self):
        net = build_network([0, 1], TWO_ROUTE_EDGES)
        with pytest.raises(DimensionError):
            build_route_choice_game(net, od_pairs=[(0, 0)], M=1)


class TestTrafficBounds:
    def test_paper_scale_threshold(self):
        net = build_network([0, 1], TWO_ROUTE_EDGES, f=4e-3, h=7200.0)
        out = traffic_bounds(net, gamma_hat=0.5, M=60)
        assert 16.09 <= out["M_threshold"] <= 16.20

    def test_threshold_halves_when_gamma_doubles(self):
        net = build_network([0, 1], TWO_ROUTE_EDGES, f=4e-3, h=7200.0)
        t1 = traffic_bounds(net, 0.5, 60)["M_threshold"]
        t2 = traffic_bounds(net, 1.0, 60)["M_threshold"]
        assert t2 == pytest.approx(t1 / 2.0)

    def test_distance_and_eps_formulas(self):
        net = build_network([0, 1], TWO_ROUTE_EDGES, f=4e-3, h=7200.0)
        out = traffic_bounds(net, 0.5, 60)
        E, f_min = 4, 4e-3
        assert out["distance_bound"] == pytest.approx(
            np.sqrt(E) / (2.0 * f_min * 0.5 * np.sqrt(60.0)))
        assert out["eps"] == pytest.approx(E / (60 * f_min))

    def test_verified_game_reports_the_section_bounds(self):
        # E = 4 edges of capacity f = 0.15, weights from gamma_hat = 0.5,
        # M = 5 agents.
        net = build_network([0, 1], TWO_ROUTE_EDGES, f=0.15, h=2.0)
        game = build_route_choice_game(net, od_pairs=[(0, 1)] * 5, M=5,
                                       gamma_range=(0.5, 3.5), seed=0)
        res = two_level_wardrop(game, SolverConfig(tol=1e-6))
        assert res.converged
        row = verify_equilibrium(game, WARDROP, res.x, res.lam).as_row()
        eps = 4 / (5 * 0.15)
        sigma = float(np.sqrt(4) / (2.0 * 0.15 * 0.5 * np.sqrt(5)))
        assert row["bound_eps_traffic"] == eps
        assert row["bound_traffic_sigma_bound"] == sigma
        out = traffic_bounds(net, 0.5, 5)
        assert (out["eps"], out["distance_bound"]) == (eps, sigma)

    def test_rejects_bad_gamma(self):
        net = build_network([0, 1], TWO_ROUTE_EDGES)
        with pytest.raises(DimensionError):
            traffic_bounds(net, 0.0, 10)
