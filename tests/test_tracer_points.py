"""perfbench wraps and calls package functions by name, from outside the
package: its tracer's points, and what its worker reads from ``cli``.
Every such name must resolve, so a change that deletes or renames one
fails here, naming it."""

import ast
import importlib
import importlib.util
import os

from aggeq import cli
from aggeq.game import AggregativeGame

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_every_traced_point_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
