import importlib.util
import os

import pytest

HARNESS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "byte_harness.py")


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("byte_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(root, files):
    """A harness output directory holding files {path under out: text}."""
    for path, text in files.items():
        full = root / "out" / path
        full.parent.mkdir(parents=True, exist_ok=True)
        full.write_text(text, encoding="utf-8")
    return str(root)


class TestCompare:
    TRACE = "k,residual,primal_updates\n25,0.5,25\n50,0.25,50\n"

    def test_reports_float_change_and_other_cells(self, tmp_path, harness):
        old = write_run(tmp_path / "old", {
            "a/trace.csv": self.TRACE,
            "a/status.txt": "exit 0\n",
            "b/duals.csv": "constraint,lambda\n0,1.0\n",
            "b/status.txt": "exit 0\n",
        })
        new = write_run(tmp_path / "new", {
            "a/trace.csv": self.TRACE.replace("0.25", "0.2500000000000001"),
            "a/status.txt": "exit 0\n",
            "b/duals.csv": "constraint,lambda\n0,1.5\n",
            "b/status.txt": "exit 1\nsolver hit max_iter\n",
        })
        assert harness.compare(old, new) == [
            "out/a/trace.csv  max |change| 1.1102230246251565e-16"
            "  other cells moved: no",
            "out/b/duals.csv  max |change| 0.5  other cells moved: no",
            "out/b/status.txt  max |change| 0.0  other cells moved: yes",
            "3 files moved, 1 with a change outside their float cells",
        ]

    def test_integer_cells_and_missing_files_count_as_other(self, tmp_path,
                                                            harness):
        old = write_run(tmp_path / "old", {"a/trace.csv": self.TRACE,
                                           "a/report.csv": "x\n1.0\n"})
        new = write_run(tmp_path / "new", {
            "a/trace.csv": self.TRACE.replace(",50\n", ",51\n")})
        lines = harness.compare(old, new)
        assert lines[0] == f"out/a/report.csv  only in {old}"
        assert lines[1] == ("out/a/trace.csv  max |change| 0.0"
                            "  other cells moved: yes")
        assert lines[-1] == \
            "2 files moved, 2 with a change outside their float cells"
