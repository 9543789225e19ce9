"""perfbench wraps and calls package functions by name, from outside the
package: its tracer's points, and what its worker reads from ``cli``.
Every such name must resolve, so a change that deletes or renames one
fails here, naming it.  The call identities the benchmark's self-check
asserts on traffic runs are counted here too, through the same wrappers."""

import ast
import importlib
import importlib.util
import os
import sys
from collections import Counter

import numpy as np

from aggeq import cli
from aggeq.game import AggregativeGame

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
# The tracer's span names of the traffic identities below.
COUNTED = ("apps.shortest_path", "projection.profile",
           "projection.project_individual", "projection.flow")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_point_resolves():
    tracer = load_perfbench("tracer")
    missing = []
    for module_name, attr, _ in tracer.LAYER_POINTS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"traced points missing from aggeq: {missing}"


def test_what_the_worker_reads_from_cli_resolves(tmp_path):
    with open(os.path.join(PERFBENCH, "worker.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "cli"}
    assert {"main", "build_game", "verify_equilibrium"} <= names
    assert all(callable(getattr(cli, name, None)) for name in names)
    # The worker reads .tol off build_game's first argument, and times
    # build_game again on that argument alone.
    ini = tmp_path / "run.ini"
    ini.write_text("[experiment]\nkind = quadratic\nseed = 1\nm = 4\n"
                   "tol = 1e-3\n\n[quadratic]\nn = 2\n", encoding="utf-8")
    cfg = cli._parse_config(str(ini), {})
    assert cfg.tol == 1e-3
    assert isinstance(cli.build_game(cfg), AggregativeGame)


def test_traffic_call_identities(tmp_path):
    """The benchmark's self-check counts, on a traffic run, one
    shortest_path call per agent in the game's build and one
    project_flow_polytope call per row of every flow profile projection,
    each made through project_individual.  Counted here through the same
    wrappers, on the traffic workload's instance."""
    tracer_module = load_perfbench("tracer")
    workloads = load_perfbench("workloads")
    workload = workloads.WORKLOADS["traffic-apa"]
    ini = workloads.write_inputs(workload, 1, str(tmp_path), str(tmp_path))
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        cfg = cli._parse_config(ini, {})
        tracer = tracer_module.Tracer()
        tracer.install([point for point in tracer_module.LAYER_POINTS
                        if point[2] in COUNTED])
        try:
            game = cli.build_game(cfg)
            Y = np.random.default_rng(0).uniform(-1.0, 2.0,
                                                 (game.M, game.n))
            for _ in range(2):
                game.projector(Y)
        finally:
            tracer.uninstall()
    finally:
        os.chdir(cwd)
    calls = Counter(name for name, *_ in tracer.spans)
    assert calls["apps.shortest_path"] == game.M == workload.M
    assert calls["projection.profile"] == 2
    assert calls["projection.flow"] == calls[
        "projection.project_individual"] == sum(tracer.sizes.values()) \
        == 2 * game.M
