"""Route-choice game on a road network.

Agents pick probability flows over directed edges between their
origin-destination pairs.  Edge travel times are free-flow up to a
congestion threshold, then grow with the average flow; a smooth quadratic
stitch keeps the curve differentiable.  Each agent also pays a quadratic
penalty for deviating from its preferred (free-flow shortest) route.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigError, DimensionError, InfeasibleSetError
from ..game import (AggregativeGame, CouplingConstraint, DiagonalPrice,
                    FlowFamily, PriceTimesUsage, QuadraticTracking,
                    incidence_graph, reachable)
from ..projection import shortest_path_edges

SPEED_KMH = {"main": 50.0, "secondary": 30.0}


@dataclass(frozen=True)
class RoadNetwork:
    """Directed road graph with per-capita congestion parameters.

    B is the node-edge incidence matrix (+1 at the head, -1 at the tail);
    f[e] the per-capita capacity in vehicles per second; h the peak
    duration in seconds; K[e] the per-edge caps on average flow, >= 0
    (inf for no cap).  ``out_edges`` is the ``incidence_graph`` of B,
    built once.
    """

    node_ids: tuple
    edges: tuple  # (tail_index, head_index, length_m, t_free_s)
    B: np.ndarray
    f: np.ndarray
    h: float
    K: np.ndarray
    out_edges: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        f = np.asarray(self.f, dtype=float)
        K = np.asarray(self.K, dtype=float)
        V, E = B.shape
        if len(self.node_ids) != V or len(self.edges) != E:
            raise DimensionError("incidence matrix shape mismatch")
        if f.shape != (E,) or K.shape != (E,):
            raise DimensionError(f"f and K need one entry per edge ({E}),"
                                 f" not shapes {f.shape} and {K.shape}")
        out_edges = incidence_graph(B)
        if np.any(f <= 0) or self.h <= 0:
            raise InfeasibleSetError("capacities and peak duration must be"
                                     " positive")
        if not np.all(K >= 0):
            raise InfeasibleSetError("edge caps K must be >= 0, inf for no"
                                     " cap: flows are >= 0, so no profile"
                                     " meets a negative cap")
        if any(e[3] <= 0 for e in self.edges):
            raise InfeasibleSetError("free-flow times must be positive")
        # Strongly connected: node 0 reaches every node, edges reversed too.
        if any(len(reachable(adj, 0)) != V
               for adj in (out_edges, incidence_graph(-B))):
            raise InfeasibleSetError("network must be strongly connected")
        B = B.copy()
        B.setflags(write=False)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "out_edges", out_edges)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def t_free(self) -> np.ndarray:
        return np.array([e[3] for e in self.edges])


def build_network(node_ids: Sequence, directed_edges: Sequence,
                  f=4e-3, h: float = 7200.0, K=None) -> RoadNetwork:
    """Network from explicit directed edges (tail_id, head_id, length_m,
    t_free_s); ids are mapped to indices in the given node order."""
    index = {nid: k for k, nid in enumerate(node_ids)}
    E = len(directed_edges)
    V = len(node_ids)
    B = np.zeros((V, E))
    edges = []
    for e, (tail, head, length, t_free) in enumerate(directed_edges):
        ti, hi = index[tail], index[head]
        B[ti, e] = -1.0
        B[hi, e] = 1.0
        edges.append((ti, hi, float(length), float(t_free)))
    f_arr = np.full(E, f) if np.isscalar(f) else np.asarray(f, dtype=float)
    K_arr = np.ones(E) if K is None else (
        np.full(E, K) if np.isscalar(K) else np.asarray(K, dtype=float))
    return RoadNetwork(tuple(node_ids), tuple(edges), B, f_arr, float(h),
                       K_arr)


def load_network(nodes_file, edges_file, bbox: Optional[tuple] = None,
                 f=4e-3, h: float = 7200.0, K=None) -> RoadNetwork:
    """Road network from CSV files.

    nodes.csv: header ``id,x,y``.  edges.csv: header
    ``id,from,to,length_m,road_class`` with road_class main (50 km/h) or
    secondary (30 km/h).  Input edges are undirected and expand to one
    directed edge per direction.  ``bbox`` = (xmin, xmax, ymin, ymax)
    keeps only nodes inside and drops edges touching removed nodes.
    """
    nodes = {}
    with open(nodes_file, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, ("id", "x", "y"), nodes_file)
        for lineno, row in enumerate(reader, start=2):
            try:
                nodes[row["id"].strip()] = (float(row["x"]), float(row["y"]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"{nodes_file}:{lineno}: bad node row: {exc}") from exc
    if bbox is not None:
        xmin, xmax, ymin, ymax = bbox
        nodes = {k: (x, y) for k, (x, y) in nodes.items()
                 if xmin <= x <= xmax and ymin <= y <= ymax}
    if not nodes:
        raise InfeasibleSetError("no nodes remain after filtering")
    directed = []
    with open(edges_file, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, ("id", "from", "to", "length_m",
                                  "road_class"), edges_file)
        for lineno, row in enumerate(reader, start=2):
            try:
                u, v = row["from"].strip(), row["to"].strip()
                length = float(row["length_m"])
                speed = SPEED_KMH[row["road_class"].strip()]
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(
                    f"{edges_file}:{lineno}: bad edge row: {exc}") from exc
            if u not in nodes or v not in nodes:
                continue
            t_free = length / (speed / 3.6)
            directed.append((u, v, length, t_free))
            directed.append((v, u, length, t_free))
    node_ids = sorted(nodes)
    return build_network(node_ids, directed, f=f, h=h, K=K)


def _require_columns(reader, cols, path):
    missing = [c for c in cols if c not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"{path}:1: missing columns {missing}")


def shortest_path(network: RoadNetwork, origin: int, destination: int,
                  weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Binary edge-indicator of the minimum-weight path, by
    ``projection.shortest_path_edges``: ties between equal-cost paths break
    toward the lexicographically smallest edge-index sequence, so results
    are deterministic.
    """
    w = network.t_free if weights is None else np.asarray(weights,
                                                          dtype=float)
    x = np.zeros(network.n_edges)
    x[list(shortest_path_edges(network.out_edges, w, origin,
                               destination))] = 1.0
    return x


# ---------------------------------------------------------------------------
# Smoothed travel-time curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TravelTimeCurve:
    """Three-branch edge delay: free-flow, quadratic stitch, congested.

    The stitch spans [f h - Delta, f h + Delta] and makes the curve C1;
    its curvature is 1 / (4 f Delta).  Every field but h is a float for one
    edge, or an array with one entry per edge for a whole network.
    """

    t_free: float
    f: float
    h: float
    Delta: float
    a: float
    b: float
    c: float


def smoothing_constants(f_e, h: float, t_free) -> TravelTimeCurve:
    """Coefficients of the quadratic stitch between the free-flow and
    congested branches, per edge when f_e and t_free are arrays.

    The offset c comes from enforcing value continuity at the left
    junction; with these a, b the value rise across the stitch then equals
    the congested branch's rise, so the right junction is continuous too.
    """
    if np.any(np.asarray(f_e) <= 0) or h <= 0:
        raise DimensionError("capacity and peak duration must be positive")
    fh = f_e * h
    Delta = 0.5 * (np.sqrt(fh * fh + 4.0 * fh) - fh)
    a = 1.0 / (8.0 * f_e * Delta)
    b = 1.0 / (4.0 * f_e) - h / (4.0 * Delta)
    s_left = fh - Delta
    c = -(a * s_left * s_left + b * s_left)
    fields = (np.asarray(v, dtype=float)
              for v in (t_free, f_e, h, Delta, a, b, c))
    return TravelTimeCurve(*(float(v) if v.ndim == 0 else v for v in fields))


def travel_time(curve: TravelTimeCurve, sigma_e):
    """Edge delay at average flow sigma_e (scalar or array)."""
    s = np.asarray(sigma_e, dtype=float)
    fh = curve.f * curve.h
    mid = curve.a * s * s + curve.b * s + curve.c
    cong = (s - fh) / (2.0 * curve.f)
    out = np.where(s <= fh - curve.Delta, 0.0,
                   np.where(s >= fh + curve.Delta, cong, mid))
    out = curve.t_free + out
    return float(out) if np.isscalar(sigma_e) else out


def travel_time_derivative(curve: TravelTimeCurve, sigma_e):
    s = np.asarray(sigma_e, dtype=float)
    fh = curve.f * curve.h
    out = np.where(s <= fh - curve.Delta, 0.0,
                   np.where(s >= fh + curve.Delta, 1.0 / (2.0 * curve.f),
                            2.0 * curve.a * s + curve.b))
    return float(out) if np.isscalar(sigma_e) else out


def travel_time_second_derivative(curve: TravelTimeCurve, sigma_e):
    s = np.asarray(sigma_e, dtype=float)
    fh = curve.f * curve.h
    inside = (s > fh - curve.Delta) & (s < fh + curve.Delta)
    out = np.where(inside, 2.0 * curve.a, 0.0)
    return float(out) if np.isscalar(sigma_e) else out


def queue_consistency_check(D_e: float, F_e: float, h: float) -> dict:
    """Total and per-vehicle queuing of a triangular queue profile.

    A demand D_e arrives uniformly over [0, h] into an edge draining at
    rate F_e; when D_e > F_e h a queue builds linearly and then drains.
    The closed-form total D (D - F h) / (2 F) is cross-checked by
    trapezoidal integration of the queue length.
    """
    if D_e <= F_e * h:
        return {"queuing_time": 0.0, "per_vehicle": 0.0,
                "integral_match": True}
    total = D_e * (D_e - F_e * h) / (2.0 * F_e)
    per_vehicle = (D_e - F_e * h) / (2.0 * F_e)
    t_end = D_e / F_e
    t = np.arange(0.0, t_end + h / 1e4, h / 1e4)
    q = np.where(t <= h, (D_e / h - F_e) * t, D_e - F_e * t)
    q = np.maximum(q, 0.0)
    integral = float(np.trapezoid(q, t))
    match = abs(integral - total) <= 1e-4 * max(1.0, abs(total))
    return {"queuing_time": total, "per_vehicle": per_vehicle,
            "integral_match": bool(match)}


# ---------------------------------------------------------------------------
# Game builder and population-size bounds
# ---------------------------------------------------------------------------


def _edge_price(network: RoadNetwork) -> DiagonalPrice:
    curve = smoothing_constants(network.f, network.h, network.t_free)
    return DiagonalPrice(partial(travel_time, curve),
                         partial(travel_time_derivative, curve),
                         partial(travel_time_second_derivative, curve))


def build_route_choice_game(network: RoadNetwork,
                            od_pairs: Optional[Sequence] = None,
                            M: Optional[int] = None,
                            gamma_range: tuple = (0.5, 3.5),
                            seed: int = 0,
                            rng: Optional[np.random.Generator] = None
                            ) -> AggregativeGame:
    """Route-choice game with quadratic preferred-route tracking.

    Strategies are per-edge transit probabilities; the preferred route is
    the free-flow shortest path of each agent's origin-destination pair.
    Omitted od_pairs are drawn uniformly (distinct origin/destination) for
    M agents.  Its application bounds are the epsilon and distance bounds
    of ``traffic_bounds`` at gamma_hat = gamma_range[0].
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    V, E = network.n_nodes, network.n_edges
    if od_pairs is None:
        if M is None:
            raise DimensionError("need od_pairs or M")
        od_pairs = []
        for _ in range(M):
            o = int(rng.integers(0, V))
            d = int(rng.integers(0, V - 1))
            if d >= o:
                d += 1
            od_pairs.append((o, d))
    od_pairs = list(od_pairs)
    M = len(od_pairs)
    gamma = rng.uniform(gamma_range[0], gamma_range[1], size=M)
    ref = np.zeros((M, E))
    b_ods = np.zeros((M, V))
    for i, (o, d) in enumerate(od_pairs):
        if not (0 <= o < V and 0 <= d < V) or o == d:
            raise DimensionError(f"bad od pair {(o, d)} for agent {i}")
        ref[i] = shortest_path(network, o, d)
        b_ods[i, o], b_ods[i, d] = -1.0, 1.0
    cost = PriceTimesUsage(
        utility=QuadraticTracking(gamma, ref),
        price=_edge_price(network),
        n=E)
    coupling = CouplingConstraint.per_component_cap(network.K, M)
    bounds = partial(_route_bounds, E, float(np.min(network.f)),
                     float(gamma_range[0]), M)
    return AggregativeGame(M=M, n=E, cost=cost,
                           individual=FlowFamily(network.B, b_ods),
                           coupling=coupling, application_bounds=bounds)


def _distance_and_eps(E, f_min, gamma_hat, M) -> tuple:
    """The route-choice section's Nash/Wardrop aggregate distance bound
    and epsilon bound for Wardrop solutions."""
    return (float(np.sqrt(E) / (2.0 * f_min * gamma_hat * np.sqrt(M))),
            E / (M * f_min))


def _route_bounds(E, f_min, gamma_hat, M, constants) -> dict:
    """``eps_traffic``, and ``traffic_sigma_bound`` when alpha > 0."""
    distance, eps = _distance_and_eps(E, f_min, gamma_hat, M)
    out = {"eps_traffic": eps}
    if constants.alpha > 0:
        out["traffic_sigma_bound"] = distance
    return out


def traffic_bounds(network: RoadNetwork, gamma_hat: float, M: int) -> dict:
    """Population-size threshold, Nash/Wardrop aggregate distance bound,
    and the epsilon bound for Wardrop solutions of the route-choice game."""
    if gamma_hat <= 0:
        raise DimensionError("gamma_hat must be positive")
    Deltas = smoothing_constants(network.f, network.h, network.t_free).Delta
    m_threshold = float(np.max(1.0 / (32.0 * network.f * Deltas * gamma_hat)))
    distance, eps = _distance_and_eps(network.n_edges,
                                      float(np.min(network.f)), gamma_hat, M)
    return {"M_threshold": m_threshold, "distance_bound": distance,
            "eps": eps}
