"""perfbench's tracer wraps package functions by name, from outside the
package.  Every name it lists must resolve, so a change that deletes or
renames a traced function fails here, naming it."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


def test_every_traced_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
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
