import numpy as np
import pytest

from aggeq import projection
from aggeq.apps.ev import build_ev_game, generate_ev_params
from aggeq.apps.traffic import build_network
from aggeq.errors import (ConvergenceError, DimensionError,
                          InfeasibleSetError)
from aggeq.game import BoxFamily, FlowFamily
from aggeq.projection import (ProfileProjector, dykstra,
                              project_box_budget, project_box_budget_batch,
                              project_flow_polytope, project_halfspace,
                              project_individual)

TWO_NODE_B = np.array([[-1.0, -1.0], [1.0, 1.0]])  # two parallel edges


def bisection_box_budget_batch(Y, lo, hi, theta):
    """Test oracle: the dual bisection that project_box_budget_batch used
    before the breakpoint search, up to 200 passes on the multiplier."""
    Y = np.asarray(Y, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), Y.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), Y.shape)
    theta = np.asarray(theta, dtype=float)
    X = np.clip(Y, lo, hi)
    need = X.sum(axis=1) < theta - 1e-12
    if not np.any(need):
        return X
    Yn, lon, hin, tn = Y[need], lo[need], hi[need], theta[need]
    mu_lo = np.zeros(len(tn))
    mu_hi = (tn + np.abs(Yn).max(axis=1) * Y.shape[1]
             + np.abs(lon).max(axis=1) + np.abs(hin).max(axis=1) + 1.0)
    for _ in range(200):
        mu = 0.5 * (mu_lo + mu_hi)
        s = np.clip(Yn + mu[:, None], lon, hin).sum(axis=1)
        low = s < tn
        mu_lo = np.where(low, mu, mu_lo)
        mu_hi = np.where(low, mu_hi, mu)
        if np.max(mu_hi - mu_lo) < 1e-14:
            break
    X[need] = np.clip(Yn + mu_hi[:, None], lon, hin)
    return X


def hard_box_budget_batch(rng, m, n):
    """Random rows with ties among the breakpoints, components with
    lo == hi, budgets equal to sum(hi) and rows the clip already meets."""
    lo = np.round(rng.uniform(-1.0, 1.0, size=(m, n)), 1)
    hi = lo + np.round(rng.uniform(0.0, 2.0, size=(m, n)), 1)
    fixed = rng.random((m, n)) < 0.2
    hi[fixed] = lo[fixed]
    Y = np.round(rng.uniform(-3.0, 3.0, size=(m, n)), 1)
    frac = rng.uniform(0.0, 1.0, size=m)
    theta = lo.sum(axis=1) + frac * (hi.sum(axis=1) - lo.sum(axis=1))
    full = rng.random(m) < 0.15
    theta[full] = hi[full].sum(axis=1)
    return Y, lo, hi, theta


class TestClosedFormProjectors:
    """A box without a budget (theta = -inf) is the componentwise clamp."""

    def test_box_clamp(self):
        out = project_box_budget([1.5, -0.2], [0, 0], [1, 1], -np.inf)
        assert out.tobytes() == np.array([1.0, 0.0]).tobytes()

    def test_box_interior_fixed(self):
        assert np.allclose(project_box_budget([0.3], [0.0], [1.0], -np.inf),
                           [0.3])

    def test_box_rejects_bad_bounds(self):
        with pytest.raises(InfeasibleSetError):
            project_box_budget([0.0], [1.0], [0.0], -np.inf)

    def test_halfspace(self):
        a = np.array([1.0, 0.0])
        assert np.allclose(project_halfspace([2.0, 3.0], a, 1.0), [1.0, 3.0])
        y = np.array([0.5, 3.0])
        assert np.allclose(project_halfspace(y, a, 1.0), y)


class TestBoxBudget:
    def test_symmetric_split(self):
        out = project_box_budget([0.2, 0.2], [0, 0], [1, 1], 1.0)
        assert np.allclose(out, [0.5, 0.5])

    def test_already_feasible(self):
        out = project_box_budget([0.8, 0.8], [0, 0], [1, 1], 1.0)
        assert np.allclose(out, [0.8, 0.8])

    def test_dual_bisection_hand_check(self):
        out = project_box_budget([0.0, 1.5], [0, 0], [1, 1], 1.2)
        assert np.allclose(out, [0.2, 1.0], atol=1e-9)

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleSetError):
            project_box_budget([0.0], [0.0], [1.0], 2.0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        n, m = 6, 40
        lo = np.zeros((m, n))
        hi = rng.uniform(0.5, 2.0, size=(m, n))
        theta = rng.uniform(0.2, 0.8, size=m) * hi.sum(axis=1)
        Y = rng.uniform(-1.0, 2.5, size=(m, n))
        batch = project_box_budget_batch(Y, lo, hi, theta)
        for i in range(m):
            single = project_box_budget(Y[i], lo[i], hi[i], theta[i])
            assert np.max(np.abs(batch[i] - single)) <= 1e-9

    def test_agrees_with_dykstra(self):
        rng = np.random.default_rng(1)
        n = 5
        for _ in range(50):
            lo = np.zeros(n)
            hi = rng.uniform(0.5, 2.0, size=n)
            theta = rng.uniform(0.2, 0.8) * float(hi.sum())
            y = rng.uniform(-1.0, 2.5, size=n)
            direct = project_box_budget(y, lo, hi, theta)
            via_dykstra = dykstra(y, [
                lambda v: np.clip(v, lo, hi),
                lambda v: project_halfspace(v, -np.ones(n), -theta),
            ])
            assert np.max(np.abs(direct - via_dykstra)) <= 1e-6


class TestBreakpointSearch:
    """project_box_budget_batch against the bisection it replaced, and the
    KKT conditions of its output checked directly."""

    @pytest.mark.parametrize("n", [1, 2, 7, 24])
    def test_matches_bisection_on_hard_batches(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            Y, lo, hi, theta = hard_box_budget_batch(rng, 60, n)
            X = project_box_budget_batch(Y, lo, hi, theta)
            oracle = bisection_box_budget_batch(Y, lo, hi, theta)
            assert np.max(np.abs(X - oracle)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 3, 24])
    def test_kkt_conditions(self, n):
        rng = np.random.default_rng(100 + n)
        tol = 1e-12
        for _ in range(10):
            Y, lo, hi, theta = hard_box_budget_batch(rng, 100, n)
            X = project_box_budget_batch(Y, lo, hi, theta)
            missed = np.clip(Y, lo, hi).sum(axis=1) < theta - 1e-12
            assert np.all(X.sum(axis=1)[missed] >= theta[missed])
            assert np.all(X >= lo) and np.all(X <= hi)
            for y, x, l, h, t in zip(Y, X, lo, hi, theta):
                # The mu with x = clip(y + mu, lo, hi) form an interval:
                # a free component pins mu, one at hi bounds it below, one
                # at lo bounds it above, and lo == hi leaves it open.
                at_hi = (x == h) & (l < h)
                at_lo = (x == l) & (l < h)
                free = (x > l) & (x < h)
                mu_lo = max([0.0, *(h - y)[at_hi], *(x - y)[free]])
                mu_hi = min([np.inf, *(l - y)[at_lo], *(x - y)[free]])
                assert mu_lo <= mu_hi + tol
                if x.sum() > t + 1e-9:
                    # complementarity: a slack budget admits mu = 0
                    assert mu_lo <= tol

    def test_infeasible_row_raises(self):
        lo = np.zeros((4, 3))
        hi = np.ones((4, 3))
        theta = np.array([1.0, 2.0, 3.5, 0.5])
        Y = np.zeros((4, 3))
        # The bisection returned row 2 short of its budget without a word.
        short = bisection_box_budget_batch(Y, lo, hi, theta)
        assert short[2].sum() < theta[2]
        with pytest.raises(InfeasibleSetError):
            project_box_budget_batch(Y, lo, hi, theta)

    def test_budget_tolerance_scales_with_the_bounds(self):
        # Entries near 1e3 and budgets equal to sum(hi) through another
        # summation order: theta exceeds the row sum by a few ulps of it,
        # far more than 1e-12, and the set is still feasible.
        rng = np.random.default_rng(7)
        m, n = 2000, 24
        lo = 1e3 * rng.uniform(-1.0, 1.0, size=(m, n))
        hi = lo + 1e3 * rng.uniform(0.0, 2.0, size=(m, n))
        Y = 1e3 * rng.uniform(-3.0, 3.0, size=(m, n))
        theta = lo.sum(axis=1) + 1.0 * (hi.sum(axis=1) - lo.sum(axis=1))
        assert np.any(theta > hi.sum(axis=1) + 1e-12)
        BoxFamily(lo, hi, theta)
        X = project_box_budget_batch(Y, lo, hi, theta)
        assert np.all(X >= lo) and np.all(X <= hi)
        clip_sum = np.clip(Y, lo, hi).sum(axis=1)
        rounding = n * np.finfo(float).eps * np.abs(hi).sum(axis=1)
        assert np.all(X.sum(axis=1) >= theta - rounding)
        missed = (clip_sum < theta - rounding) & (theta <= hi.sum(axis=1))
        assert np.count_nonzero(missed) > m // 2
        assert np.all(X.sum(axis=1)[missed] >= theta[missed])
        # A budget clearly above sum(hi) is still rejected.
        over = theta + 1e-9 * np.abs(hi).sum(axis=1)
        with pytest.raises(InfeasibleSetError):
            BoxFamily(lo[:1], hi[:1], over[:1])
        with pytest.raises(InfeasibleSetError):
            project_box_budget_batch(Y, lo, hi, np.where(
                np.arange(m) == 5, over, theta))

    def test_rejects_bad_bounds(self):
        with pytest.raises(InfeasibleSetError):
            project_box_budget_batch(np.zeros((2, 2)), [[0, 0], [1, 0]],
                                     np.zeros((2, 2)), [0.0, 0.0])


def onto_sum_one(v):
    """Projection onto the line x_1 + x_2 = 1."""
    return v - (v[0] + v[1] - 1.0) / 2.0


class TestDykstra:
    def test_box_affine_intersection(self):
        out = dykstra([1.0, 1.0], [
            lambda v: np.clip(v, 0.0, 1.0),
            onto_sum_one,
        ])
        assert np.allclose(out, [0.5, 0.5], atol=1e-9)

    def test_point_in_intersection_fixed(self):
        y = np.array([0.3, 0.7])
        out = dykstra(y, [
            lambda v: np.clip(v, 0.0, 1.0),
            onto_sum_one,
        ])
        assert np.max(np.abs(out - y)) <= 1e-9

    def test_against_segment_grid_oracle(self):
        y = np.array([2.0, -1.0])
        out = dykstra(y, [
            lambda v: np.clip(v, 0.0, 1.0),
            onto_sum_one,
        ])
        t = np.linspace(0.0, 1.0, 10001)
        pts = np.stack([t, 1.0 - t], axis=1)
        best = pts[np.argmin(np.sum((pts - y) ** 2, axis=1))]
        assert np.max(np.abs(out - best)) <= 1e-4

    def test_max_iter_error_carries_state(self, monkeypatch):
        # Slightly separated sets have no intersection; Dykstra cannot stop.
        monkeypatch.setattr(projection, "DYKSTRA_MAX_ITER", 50)
        with pytest.raises(ConvergenceError, match="in 50 sweeps") as err:
            dykstra([0.0], [
                lambda v: np.clip(v, 0.0, 1.0),
                lambda v: np.clip(v, 2.0, 3.0),
            ])
        assert err.value.last is not None
        assert err.value.gap is not None and err.value.gap > 0


class TestDispatch:
    def test_box_dispatch(self):
        cs = BoxFamily(np.zeros((1, 2)), np.ones((1, 2)))
        y = np.array([1.5, -0.2])
        assert (project_individual(cs, 0, y).tobytes()
                == np.clip(y, cs.lo[0], cs.hi[0]).tobytes())

    def test_box_budget_dispatch(self):
        cs = BoxFamily(np.zeros((1, 2)), np.ones((1, 2)), [1.0])
        y = np.array([0.2, 0.2])
        assert np.allclose(project_individual(cs, 0, y),
                           project_box_budget(y, cs.lo[0], cs.hi[0],
                                              cs.theta[0]))

    def test_flow_polytope_parallel_edges(self):
        cs = FlowFamily(TWO_NODE_B, [[-1.0, 1.0]])
        out = project_individual(cs, 0, [0.8, 0.8])
        assert np.allclose(out, [0.5, 0.5], atol=1e-8)

    def test_flow_polytope_far_point_feasible(self):
        cs = FlowFamily(TWO_NODE_B, [[-1.0, 1.0]])
        out = project_individual(cs, 0, [-300.0, -400.0])
        assert cs.violation(out[None])[0] <= 1e-8


def _random_projector_cases(rng, n=4):
    """(projector, feasible sampler) pairs over random set data."""
    lo = rng.uniform(-1.0, 0.0, size=n)
    hi = lo + rng.uniform(0.5, 2.0, size=n)
    box = BoxFamily(lo[None], hi[None])
    theta = float(lo.sum() + rng.uniform(0.2, 0.8) * (hi - lo).sum())
    bb = BoxFamily(lo[None], hi[None], [theta])
    fp = FlowFamily(TWO_NODE_B, [[-1.0, 1.0]])

    def sample_box(r):
        return r.uniform(lo, hi)

    def sample_bb(r):
        return project_individual(bb, 0, r.uniform(lo - 1, hi + 1))

    def sample_fp(r):
        t = r.uniform()
        return np.array([t, 1.0 - t])

    return [
        (lambda y: project_individual(box, 0, y), sample_box, n),
        (lambda y: project_individual(bb, 0, y), sample_bb, n),
        (lambda y: project_individual(fp, 0, y), sample_fp, 2),
    ]


class TestProjectorProperties:
    """Idempotence, non-expansiveness, and the variational
    characterization over 1000 random instances per projector."""

    N_INSTANCES = 1000

    def test_idempotence(self):
        rng = np.random.default_rng(10)
        count = 0
        while count < self.N_INSTANCES:
            for proj, _, dim in _random_projector_cases(rng):
                y = rng.uniform(-3.0, 3.0, size=dim)
                p = proj(y)
                assert np.max(np.abs(proj(p) - p)) <= 1e-9
                count += 1

    def test_non_expansiveness(self):
        rng = np.random.default_rng(11)
        count = 0
        while count < self.N_INSTANCES:
            for proj, _, dim in _random_projector_cases(rng):
                y1 = rng.uniform(-3.0, 3.0, size=dim)
                y2 = rng.uniform(-3.0, 3.0, size=dim)
                d_out = float(np.linalg.norm(proj(y1) - proj(y2)))
                d_in = float(np.linalg.norm(y1 - y2))
                assert d_out <= d_in + 1e-9
                count += 1

    def test_variational_characterization(self):
        rng = np.random.default_rng(12)
        count = 0
        while count < self.N_INSTANCES:
            for proj, sample, dim in _random_projector_cases(rng):
                y = rng.uniform(-3.0, 3.0, size=dim)
                p = proj(y)
                for _ in range(10):
                    x = sample(rng)
                    assert float((y - p) @ (x - p)) <= 1e-7
                count += 1


def grid_incidence(rows, cols):
    """Incidence matrix of a rows x cols street grid, both directions of
    every street."""
    nodes = [(r, c) for r in range(rows) for c in range(cols)]
    edges = []
    for r, c in nodes:
        for nb in ((r, c + 1), (r + 1, c)):
            if nb in nodes:
                edges += [((r, c), nb, 1.0, 1.0), (nb, (r, c), 1.0, 1.0)]
    return build_network(nodes, edges).B


def random_b_od(rng, V):
    """e_d - e_o for a random origin o and destination d != o."""
    o, d = rng.choice(V, 2, replace=False)
    b_od = np.zeros(V)
    b_od[o], b_od[d] = -1.0, 1.0
    return b_od


class TestFlowProjection:
    @pytest.mark.parametrize("size, count, scale", [(4, 200, 30.0),
                                                    (8, 40, 100.0)])
    def test_every_result_meets_conservation(self, size, count, scale):
        """On these instances the L-BFGS-B dual and its polish, which the
        Newton method replaced, returned points that missed B x = b_od by
        up to 7.8e-8."""
        B = grid_incidence(size, size)
        V, E = B.shape
        rng = np.random.default_rng(1)
        for _ in range(count):
            b_od = random_b_od(rng, V)
            x = project_flow_polytope(scale * rng.normal(0.3, 0.6, size=E),
                                      B, b_od)
            assert np.all((x >= 0.0) & (x <= 1.0))
            assert np.max(np.abs(B @ x - b_od)) <= 1e-10

    @pytest.mark.parametrize("rows, cols, scale, count", [
        (2, 3, 1.0, 20), (3, 3, 3.0, 20), (3, 4, 1.0, 10),
        # The tiny-gamma regime of route games: y of order 1000.
        (2, 2, 1000.0, 10), (3, 3, 1000.0, 5)])
    def test_agrees_with_dykstra(self, rows, cols, scale, count):
        B = grid_incidence(rows, cols)
        V, E = B.shape
        pinv = np.linalg.pinv(B)
        rng = np.random.default_rng(rows * cols)
        for _ in range(count):
            b_od = random_b_od(rng, V)
            y = scale * rng.normal(0.3, 0.6, size=E)
            want = dykstra(y, [lambda v: np.clip(v, 0.0, 1.0),
                               lambda v: v - pinv @ (B @ v - b_od)])
            got = project_flow_polytope(y, B, b_od)
            assert np.max(np.abs(got - want)) <= 1e-9
            assert np.max(np.abs(B @ got - b_od)) <= 1e-10

    def test_iteration_cap_raises_with_the_last_point(self, monkeypatch):
        monkeypatch.setattr(projection, "FLOW_MAX_ITER", 1)
        B = grid_incidence(3, 3)
        b_od = random_b_od(np.random.default_rng(0), len(B))
        y = 30.0 * np.random.default_rng(1).normal(0.3, 0.6, size=B.shape[1])
        with pytest.raises(ConvergenceError) as info:
            project_flow_polytope(y, B, b_od)
        last = info.value.last
        assert last.shape == y.shape
        assert np.all((last >= 0.0) & (last <= 1.0))
        assert info.value.gap == np.max(np.abs(B @ last - b_od)) > 1e-10

    def test_matches_box_budget_structure_on_segment(self):
        # On two parallel edges the polytope is the segment x1 + x2 = 1.
        rng = np.random.default_rng(13)
        B = TWO_NODE_B
        for _ in range(100):
            y = rng.uniform(-5.0, 5.0, size=2)
            out = project_flow_polytope(y, B, np.array([-1.0, 1.0]))
            t = np.linspace(0.0, 1.0, 20001)
            pts = np.stack([t, 1.0 - t], axis=1)
            best = pts[np.argmin(np.sum((pts - y) ** 2, axis=1))]
            assert np.max(np.abs(out - best)) <= 1e-4

    def test_profile_projector_flow_batch(self):
        B = np.array([
            [-1.0, 1.0, -1.0, 1.0],
            [1.0, -1.0, 1.0, -1.0],
        ])
        family = FlowFamily(B, np.tile([-1.0, 1.0], (6, 1)))
        proj = ProfileProjector(family)
        rng = np.random.default_rng(14)
        Y = rng.uniform(-50.0, 50.0, size=(6, 4))
        X = proj(Y)
        assert np.all(family.violation(X) <= 1e-8)
        for i in range(6):
            single = project_individual(family, i, Y[i])
            assert np.max(np.abs(X[i] - single)) <= 1e-6

    def test_profile_projector_modes(self):
        # One box body: a family without finite budgets is clamped, and a
        # row with theta = -inf beside budget rows gets the same clamp.
        proj = ProfileProjector(BoxFamily.common(np.zeros(3), np.ones(3), 4))
        Y = np.array([[1.5, -0.2, 0.5]] * 4)
        assert proj(Y).tobytes() == np.clip(Y, 0.0, 1.0).tobytes()
        theta = np.array([1.5, 1.5, -np.inf, 1.5])
        projb = ProfileProjector(BoxFamily(np.zeros((4, 3)), np.ones((4, 3)),
                                           theta))
        Xb = projb(np.zeros((4, 3)))
        assert np.all(Xb[[0, 1, 3]].sum(axis=1) >= 1.5 - 1e-9)
        assert np.array_equal(Xb[2], np.zeros(3))


class TestValidateOnce:
    """ProfileProjector's family is validated, so its box-budget path
    skips project_box_budget_batch's checks; a capped projector checks its
    fixed bounds once, when it is built."""

    @pytest.fixture
    def ev(self):
        game = build_ev_game(generate_ev_params(M=15, seed=6))
        family = game.individual
        return game, family.lo, family.hi, family.theta

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        real = projection.check_box_budget

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(projection, "check_box_budget", counting)
        return calls

    def test_profile_path_matches_the_public_function(self, ev, checks):
        game, lo, hi, theta = ev
        proj = ProfileProjector(game.individual)
        rng = np.random.default_rng(21)
        Y = rng.uniform(-0.5, 1.5, size=(game.M, game.n)) * hi.max()
        got = proj(Y)
        assert not checks
        want = project_box_budget_batch(Y, lo, hi, theta)
        assert got.tobytes() == want.tobytes()

    def test_capped_projector_checks_once_when_built(self, ev, checks):
        game, lo, hi, theta = ev
        cap_hi = 0.9 * hi
        capped = ProfileProjector(game.individual).capped(cap_hi)
        assert len(checks) == 1
        Y = np.random.default_rng(22).uniform(-1.0, 1.0, size=lo.shape)
        got = capped(Y)
        assert len(checks) == 1
        want = project_box_budget_batch(Y, lo, np.maximum(
            np.minimum(hi, cap_hi), lo), theta)
        assert got.tobytes() == want.tobytes()

    def test_capped_projector_refuses_a_budget_above_the_caps(self):
        proj = ProfileProjector(BoxFamily(np.zeros((2, 3)), np.ones((2, 3)),
                                          [2.0, 2.0]))
        proj.capped(np.full((2, 3), 0.7))  # sum 2.1 >= 2: fine
        with pytest.raises(InfeasibleSetError):
            proj.capped(np.full((2, 3), 0.5))


class TestCappedWarmStart:
    """A capped closure keeps its own partition cache for its lowered
    bounds: each call starts from the partitions of the closure's last
    one and gets the bytes of the breakpoint search."""

    def test_capped_calls_reuse_the_last_partitions(self, monkeypatch):
        game = build_ev_game(generate_ev_params(M=40, seed=6))
        lo, hi, theta = (game.individual.lo, game.individual.hi,
                         game.individual.theta)
        rng = np.random.default_rng(31)
        cap_hi = np.where(rng.random(hi.shape) < 0.3, 0.8 * hi, hi)
        capped = ProfileProjector(game.individual).capped(cap_hi)
        lowered = np.maximum(np.minimum(hi, cap_hi), lo)
        rows = {"sorted": 0, "on": False}
        sort = projection._sort_partition

        def counting(y, *args):
            rows["sorted"] += rows["on"] * len(y)
            return sort(y, *args)

        monkeypatch.setattr(projection, "_sort_partition", counting)
        sorted_rows = []
        for step in range(9):
            kind = step % 3
            if kind == 0:  # a far point: the cache is stale
                Y = rng.uniform(-1.0, 0.5, size=hi.shape) * hi
            elif kind == 1:  # a small move: most partitions hold
                Y = Y + rng.normal(scale=1e-3, size=Y.shape)
            else:  # ties among the breakpoints
                Y = np.round(Y, 1)
            rows.update(sorted=0, on=True)
            got = capped(Y)
            rows["on"] = False
            sorted_rows.append(rows["sorted"])
            if step == 0:
                need = np.clip(Y, lo, lowered).sum(axis=1) < theta
            want = project_box_budget_batch(Y, lo, lowered, theta)
            assert got.tobytes() == want.tobytes()
        # The fresh cache sorts every row that needs the budget; a small move
        # after a call sorts fewer rows than that call.
        assert sorted_rows[0] == np.count_nonzero(need) > 0
        assert all(sorted_rows[k] < sorted_rows[k - 1] for k in (1, 4, 7))


class TestProfileRowCount:
    """A projector takes one (M, n) profile: any other shape raises, for
    the box, box-budget and flow families."""

    @staticmethod
    def assert_refused(shape):
        B = np.array([[-1.0, -1.0], [1.0, 1.0]])
        for family in (BoxFamily.common(np.zeros(2), np.ones(2), 3),
                       BoxFamily(np.zeros((3, 2)), np.ones((3, 2)),
                                 np.ones(3)),
                       FlowFamily(B, np.tile([-1.0, 1.0], (3, 1)))):
            with pytest.raises(DimensionError, match=r"shape \(3, 2\)"):
                ProfileProjector(family)(np.zeros(shape))

    @pytest.mark.parametrize("rows", [0, 5, 6])  # 6 = 2 M, two profiles
    def test_other_row_counts_raise(self, rows):
        self.assert_refused((rows, 2))

    @pytest.mark.parametrize("width", [1, 3])
    def test_other_widths_raise(self, width):
        self.assert_refused((3, width))


def test_projection_returns_a_new_array():
    """A profile projection never returns Y or a view of it, even when Y is
    already feasible: the solvers project their workspace and then write
    over it."""
    Y = np.full((3, 2), 0.5)  # inside each set
    for family in (BoxFamily.common(np.zeros(2), np.ones(2), 3),
                   BoxFamily(np.zeros((3, 2)), np.ones((3, 2)), np.ones(3)),
                   FlowFamily(TWO_NODE_B, np.tile([-1.0, 1.0], (3, 1)))):
        X = ProfileProjector(family)(Y)
        assert X.tobytes() == Y.tobytes()
        assert not np.shares_memory(X, Y)


def near_breakpoints(rng, Y, lo, hi, theta):
    """Y with, in each row that needs its budget step, one component moved
    so that one of its breakpoints lies 0, 1, 4, 1e3 or 1e6 ulps of the
    row's multiplier from it, on either side."""
    X = project_box_budget_batch(Y, lo, hi, theta)
    Y = Y.copy()
    for i, (x, y, l, h) in enumerate(zip(X, Y, lo, hi)):
        free = np.flatnonzero((x > l) & (x < h))
        if not free.size or x.sum() > theta[i]:
            continue
        mu = x[free[0]] - y[free[0]]
        j = rng.integers(len(y))
        delta = rng.choice([0.0, 1.0, 4.0, 1e3, 1e6]) * np.spacing(mu) \
            * rng.choice([-1.0, 1.0])
        Y[i, j] = rng.choice([l[j], h[j]]) - (mu + delta)
    return Y


class TestWarmPartition:
    """A one-profile call of a family with budgets starts from the
    partitions its last such call chose.  Whatever that cache holds (the
    last call's, a far point's, random masks, another family's), each row
    gets the bytes of the breakpoint search."""

    M = 40

    @pytest.mark.parametrize("n", [1, 2, 7, 24])
    def test_any_hint_gives_the_sort_bytes(self, n, monkeypatch):
        rng = np.random.default_rng(40 + n)
        M, rows = self.M, {"sorted": 0, "all": 0, "on": False}
        sort = projection._sort_partition

        def counting(y, *args):
            rows["sorted"] += rows["on"] * len(y)
            return sort(y, *args)

        monkeypatch.setattr(projection, "_sort_partition", counting)
        other = ProfileProjector(BoxFamily(*hard_box_budget_batch(
            rng, M, n)[1:]))
        for _ in range(6):
            Y, lo, hi, theta = hard_box_budget_batch(rng, M, n)
            proj = ProfileProjector(BoxFamily(lo, hi, theta))
            for step in range(36):
                kind = step % 6
                if kind == 0:  # a far point: the cache is stale
                    Y = np.round(rng.uniform(-3.0, 3.0, size=(M, n)), 1)
                elif kind == 1:  # a small move: most partitions hold
                    Y = Y + rng.normal(scale=1e-3, size=Y.shape)
                elif kind == 2:
                    proj._hint[0][:] = rng.random((M, n)) < 0.4
                    proj._hint[1][:] = rng.random((M, n)) < 0.4
                elif kind == 3:
                    other(rng.uniform(-3.0, 3.0, size=(M, n)))
                    proj._hint[0][:] = other._hint[0]
                    proj._hint[1][:] = other._hint[1]
                elif kind == 4:
                    Y = near_breakpoints(rng, Y, lo, hi, theta)
                else:  # ties among the breakpoints
                    Y = np.round(Y, 1)
                rows["on"] = True
                got = proj(Y)
                rows["on"] = False
                rows["all"] += M
                want = project_box_budget_batch(Y, lo, hi, theta)
                assert np.array_equal(got, want)
                assert got.tobytes() == want.tobytes()
        # The cache served rows, so the comparisons above tested it.
        assert rows["sorted"] < 0.8 * rows["all"]

    def test_budgets_met_by_the_clamp_keep_their_partition(self):
        # Rows whose clamp meets the budget skip the budget step and leave
        # their cached partition as it was.
        lo, hi = np.zeros((2, 3)), np.ones((2, 3))
        proj = ProfileProjector(BoxFamily(lo, hi, [1.0, 1.0]))
        proj(np.full((2, 3), 0.1))
        kept = proj._hint[0].copy(), proj._hint[1].copy()
        Y = np.array([[0.1, 0.1, 0.1], [0.5, 0.5, 0.5]])
        got = proj(Y)
        assert got.tobytes() == project_box_budget_batch(
            Y, lo, hi, [1.0, 1.0]).tobytes()
        assert np.array_equal(proj._hint[0][1], kept[0][1])
        assert np.array_equal(proj._hint[1][1], kept[1][1])
