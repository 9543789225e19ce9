"""Workload definitions and the inputs each one generates from its seed.

Every workload is one `aggeq run` on a generated INI file.  The seed of the
instance is the `seed` key of that file, so it draws the population and the
origin-destination pairs, and for traffic it also draws the road network.

BENCHMARK.json times the workloads in TIMED.  traffic-apa runs only by name
(``--workload traffic-apa``), for its per-layer trace: its run time depends
on the drawn instance far more than on the code.  With an edge cap of
k = 0.25 and no iteration cap, one seed needed 197 updates and another 991,
and whether verification stopped at the feasibility check or ran for 7 s
to over two minutes changed from seed to seed.  The iteration cap and the
tight edge cap below put every seed in one case (100 updates, cap still
violated, verification stops at feasibility), yet run time still varies by
+-17% and verification time by +-50% between instances, because each
instance's active sets and flow-projection iteration counts differ.  On
some instances the KKT residual's bounded least-squares fit runs for
minutes.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str
    algorithm: str
    M: int
    section: dict
    grid: tuple = ()  # (rows, cols) of the generated road network
    extra: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "quadratic-apa",
            "iteration-bound: ~30k APA updates whose cost is the mapping"
            " and the solver loop; exact constants, clip projection",
            kind="quadratic", algorithm="apa-nash", M=200,
            section={"n": 24, "q": 0.1, "k": 0.3}),
        Workload(
            "ev-extragradient",
            "constants-bound: sampled dense eigenproblems are ~90% of the run"
            " and 69 updates the rest; its verification runs to completion",
            kind="ev", algorithm="extragradient", M=150,
            section={"n": 24, "kappa": 12, "k": 0.55}),
        Workload(
            "traffic-apa",
            "projection-bound: per-agent flow projections on a generated"
            " 4x4 grid, in solver steps and in constants sampling; not timed",
            kind="traffic", algorithm="apa-wardrop", M=10,
            section={"f_e": 0.02, "h": 2, "k": 0.05}, grid=(4, 4),
            extra={"max_iter": 100}),
    )
}

TIMED = ("quadratic-apa", "ev-extragradient")

SPACING_M = 400.0


def write_grid_network(directory, rows, cols, seed):
    """Write nodes.csv and edges.csv of a rows x cols street grid.

    Node positions are jittered around a regular grid, so edge lengths
    differ; one street row and one street column are main roads
    (50 km/h), the rest secondary (30 km/h).  The files depend only on the
    arguments.
    """
    rng = random.Random(f"grid-{rows}x{cols}-{seed}")
    main_row, main_col = rng.randrange(rows), rng.randrange(cols)
    pos = {}
    for r in range(rows):
        for c in range(cols):
            pos[r, c] = (round(c * SPACING_M + rng.uniform(-60, 60), 1),
                         round(r * SPACING_M + rng.uniform(-60, 60), 1))
    nodes = [f"id,x,y"] + [f"n{r}_{c},{x},{y}" for (r, c), (x, y)
                           in sorted(pos.items())]
    edges = ["id,from,to,length_m,road_class"]
    for (r, c), (x, y) in sorted(pos.items()):
        for r2, c2 in ((r, c + 1), (r + 1, c)):
            if (r2, c2) not in pos:
                continue
            x2, y2 = pos[r2, c2]
            length = round(((x2 - x) ** 2 + (y2 - y) ** 2) ** 0.5, 1)
            main = (r2 == r == main_row) or (c2 == c == main_col)
            edges.append(f"e{len(edges)},n{r}_{c},n{r2}_{c2},{length},"
                         f"{'main' if main else 'secondary'}")
    for name, lines in (("nodes.csv", nodes), ("edges.csv", edges)):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def write_inputs(workload, seed, directory, root):
    """Write the INI (and network) of one workload; return the INI path
    relative to ``root``, the directory `aggeq run` is started from."""
    os.makedirs(directory, exist_ok=True)
    rel = os.path.relpath(directory, root)
    lines = ["[experiment]", f"kind = {workload.kind}", f"seed = {seed}",
             f"m = {workload.M}", f"algorithm = {workload.algorithm}"]
    lines += [f"{k} = {v}" for k, v in workload.extra.items()]
    lines += ["", f"[{workload.kind}]"]
    if workload.grid:
        write_grid_network(directory, *workload.grid, seed)
        lines += [f"nodes_file = {rel}/nodes.csv",
                  f"edges_file = {rel}/edges.csv"]
    lines += [f"{k} = {v}" for k, v in workload.section.items()]
    path = os.path.join(directory, "config.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return os.path.join(rel, "config.ini")
