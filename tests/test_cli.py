import configparser
import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import aggeq
from aggeq import algorithms, analysis, cli
from aggeq.algorithms import SOLVERS
from aggeq.cli import main, substream
from aggeq.errors import ConvergenceError, InfeasibleSetError
from aggeq.game import AggregativeGame
from aggeq.operators import WARDROP, monotonicity_analysis

RUN_FILES = ("equilibrium.csv", "duals.csv", "trace.csv", "report.csv")
README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def write_config(tmp_path, body, name="config.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


QUADRATIC_CONFIG = """\
[experiment]
kind = quadratic
seed = 7
m = 6
algorithm = apa-nash
tol = 1e-5

[quadratic]
n = 4
"""


def readme_block():
    """The config block of README.md, as printed."""
    with open(README, encoding="utf-8") as fh:
        return fh.read().split("```ini\n", 1)[1].split("```", 1)[0]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# After 15 updates the average still exceeds the caps by about 0.14.
INFEASIBLE_CONFIG = QUADRATIC_CONFIG.replace("tol = 1e-5",
                                             "tol = 1e-5\nmax_iter = 15")
FAILURE_COLUMNS = ["feasible", "max_coupling_violation",
                   "max_individual_violation"]


class TestRun:
    def test_run_writes_all_outputs(self, tmp_path):
        cfg = write_config(tmp_path, QUADRATIC_CONFIG)
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--out", str(out)])
        assert code == 0
        for name in RUN_FILES:
            assert (out / name).exists(), name
        eq_rows = read_rows(out / "equilibrium.csv")
        assert len(eq_rows) == 6 * 4
        report = read_rows(out / "report.csv")[0]
        assert report["converged"] == "1"
        assert report["algorithm"] == "apa-nash"

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, QUADRATIC_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        for name in RUN_FILES:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), \
                name

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, QUADRATIC_CONFIG)
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--out", str(out),
                     "--algorithm", "extragradient"])
        assert code == 0
        report = read_rows(out / "report.csv")[0]
        assert report["algorithm"] == "extragradient"

    def test_failed_verification_keeps_the_solver_outputs(self, tmp_path,
                                                          monkeypatch):
        cfg = write_config(tmp_path, QUADRATIC_CONFIG)
        good, bad = tmp_path / "good", tmp_path / "bad"
        assert main(["run", "--config", cfg, "--out", str(good)]) == 0

        def fail(*args, **kwargs):
            raise InfeasibleSetError("verification failed")

        monkeypatch.setattr(cli, "verify_equilibrium", fail)
        assert main(["run", "--config", cfg, "--out", str(bad)]) == 1
        for name in RUN_FILES[:3]:
            assert (bad / name).read_bytes() == (good / name).read_bytes(), \
                name
        # The result is feasible, so its row says why verification failed.
        report = read_rows(bad / "report.csv")
        assert len(report) == 1
        row = report[0]
        assert sorted(row) == sorted(FAILURE_COLUMNS + [
            "converged", "algorithm", "M", "seed", "primal_updates",
            "dual_updates", "verification_error"])
        assert row["feasible"] == "1"
        assert row["verification_error"] == "verification failed"

    def test_feasible_result_on_unbounded_sets_writes_failure_report(
            self, tmp_path, capsys):
        # Verification cannot sample an unbounded box; the solve, which
        # needs no samples here, still gets its report.csv row.
        M, n = 4, 3
        path = tmp_path / "game.npz"
        np.savez(path, Q=np.eye(n), C=0.5 * np.eye(n),
                 c=-np.arange(1.0, M * n + 1).reshape(M, n) / M,
                 lo=np.zeros(n), hi=np.full(n, np.inf))
        cfg = write_config(tmp_path, "[experiment]\nkind = custom-file\n"
                           "seed = 0\nalgorithm = extragradient\n"
                           f"tol = 1e-6\n\n[custom]\nfile = {path}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert "failure: unbounded individual sets" in capsys.readouterr().err
        for name in RUN_FILES:
            assert (out / name).exists(), name
        report = read_rows(out / "report.csv")
        assert len(report) == 1
        row = report[0]
        assert sorted(row) == sorted(FAILURE_COLUMNS + [
            "converged", "algorithm", "M", "seed", "primal_updates",
            "dual_updates", "verification_error"])
        assert (row["feasible"], row["converged"], row["algorithm"],
                row["M"]) == ("1", "1", "extragradient", "4")
        assert row["verification_error"] == "unbounded individual sets"

    def test_dense_coupling_no_profile_meets_fails_at_build(self, tmp_path,
                                                             capsys):
        M, n = 3, 2
        path = tmp_path / "game.npz"
        np.savez(path, Q=np.eye(n), C=0.5 * np.eye(n), c=np.zeros((M, n)),
                 lo=np.zeros(n), hi=np.ones(n), A=np.ones((1, M * n)),
                 b=np.array([-1.0]))
        cfg = write_config(tmp_path, "[experiment]\nkind = custom-file\n"
                           f"seed = 0\n\n[custom]\nfile = {path}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("failure: coupling row 0")
        assert not out.exists()

    def test_dense_coupling_unbounded_below_builds(self, tmp_path):
        # A row minimum of -inf proves nothing; a zero coefficient meets the
        # infinite bounds without a nan (a RuntimeWarning here).
        M, n = 3, 2
        A = np.ones((1, M * n))
        A[0, 0] = 0.0
        path = tmp_path / "game.npz"
        np.savez(path, Q=np.eye(n), C=0.5 * np.eye(n), c=np.zeros((M, n)),
                 lo=np.full(n, -np.inf), hi=np.full(n, np.inf), A=A,
                 b=np.array([-1.0]))
        game = cli.build_game(cli.ExperimentConfig(
            kind="custom-file", seed=0, sections={"custom": {"file": path}}))
        assert game.coupling.m == 1

    def test_infeasible_result_writes_failure_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, INFEASIBLE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "solver hit max_iter without reaching tol" in err
        assert "failure: x_bar is not feasible within 0.0001" in err
        for name in RUN_FILES[:3]:
            assert (out / name).exists(), name
        report = read_rows(out / "report.csv")
        assert len(report) == 1
        row = report[0]
        assert sorted(row) == sorted(FAILURE_COLUMNS + [
            "converged", "algorithm", "M", "seed", "primal_updates",
            "dual_updates"])
        assert row["feasible"] == "0"
        assert float(row["max_coupling_violation"]) > 1e-4
        assert float(row["max_individual_violation"]) == 0.0
        assert (row["converged"], row["algorithm"], row["M"], row["seed"],
                row["primal_updates"], row["dual_updates"]) == \
            ("0", "apa-nash", "6", "7", "15", "15")

    def test_failed_verification_subsolver_writes_failure_report(
            self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, QUADRATIC_CONFIG)
        good, bad = tmp_path / "good", tmp_path / "bad"
        assert main(["run", "--config", cfg, "--out", str(good)]) == 0
        message = "dykstra did not converge in 10000 sweeps (gap 3.281e-05)"

        def fail(*args, **kwargs):
            raise ConvergenceError(message)

        monkeypatch.setattr(analysis, "epsilon_nash", fail)
        assert main(["run", "--config", cfg, "--out", str(bad)]) == 1
        assert f"failure: {message}" in capsys.readouterr().err
        for name in RUN_FILES[:3]:
            assert (bad / name).read_bytes() == (good / name).read_bytes(), \
                name
        report = read_rows(bad / "report.csv")
        assert len(report) == 1
        row = report[0]
        assert sorted(row) == sorted(FAILURE_COLUMNS + [
            "converged", "algorithm", "M", "seed", "primal_updates",
            "dual_updates", "verification_error"])
        assert row["feasible"] == "1"
        assert row["converged"] == "1"
        assert row["verification_error"] == message

    def test_negative_tol_exits_2_without_outputs(self, tmp_path):
        cfg = write_config(tmp_path, QUADRATIC_CONFIG)
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--out", str(out),
                     "--tol", "-1"])
        assert code == 2
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("command, keys", [
        ("run", {"tau": "-1"}), ("run", {"max_iter": "0"}),
        ("run", {"m": "0"}),
        ("run", {"algorithm": "two-level", "inner_tol": "-1"}),
        ("sweep-m", {"m_list": "0,4"}), ("compare", {"n_rep": "0"}),
    ], ids=["tau", "max_iter", "m", "inner_tol", "m_list", "n_rep"])
    def test_bad_numeric_value_exits_2_without_outputs(self, tmp_path,
                                                       command, keys):
        keys = {"kind": "quadratic", "seed": "7", "m": "6", "tol": "1e-5",
                **keys}
        cfg = write_config(tmp_path, "[experiment]\n" + "".join(
            f"{key} = {value}\n" for key, value in keys.items())
            + "\n[quadratic]\nn = 4\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_duplicate_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, QUADRATIC_CONFIG + "[quadratic]\nn = 5\n")
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2

    def test_missing_seed_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, """\
[experiment]
kind = quadratic
""")
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2

    def test_unknown_kind_exits_2(self, tmp_path):
        assert main(["run", "--seed", "1", "--kind", "quadratic",
                     "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("kind, missing", [
        ("custom-file", "game.npz"),
        ("traffic", "nodes.csv"),
        ("traffic", "edges.csv"),
    ])
    def test_missing_input_file_exits_2_naming_it(self, tmp_path, capsys,
                                                  kind, missing):
        (tmp_path / "nodes.csv").write_text("id,x,y\n0,0,0\n1,1,0\n",
                                            encoding="utf-8")
        path = tmp_path / "nowhere" / missing
        files = {"nodes_file": tmp_path / "nodes.csv", "edges_file": path}
        if missing == "nodes.csv":
            files["nodes_file"] = path
        section = ("[custom]\nfile = " + str(path) if kind == "custom-file"
                   else "[traffic]\n" + "".join(
                       f"{key} = {value}\n" for key, value in files.items()))
        cfg = write_config(tmp_path, f"[experiment]\nkind = {kind}\n"
                           f"seed = 0\n\n{section}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"config error: {path}: cannot read: No such file or directory\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind, section, key", [
        ("quadratic", "[quadratic]\nn = abc\n", "[quadratic] n = abc"),
        ("ev", "[ev]\nkappa = x\n", "[ev] kappa = x"),
        ("traffic", "[traffic]\nnodes_file = nodes.csv\n"
         "edges_file = edges.csv\nf_e = fast\n", "[traffic] f_e = fast"),
        ("traffic", "[traffic]\nnodes_file = nodes.csv\n"
         "edges_file = edges.csv\nbbox = 0,1,0,y\n",
         "[traffic] bbox = 0,1,0,y"),
    ], ids=["quadratic-n", "ev-kappa", "traffic-f_e", "traffic-bbox"])
    def test_non_numeric_section_value_exits_2_naming_it(
            self, tmp_path, capsys, kind, section, key):
        cfg = write_config(tmp_path, f"[experiment]\nkind = {kind}\n"
                           f"seed = 0\n\n{section}")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not out.exists()

    @pytest.mark.parametrize("kind, section, key", [
        ("quadratic", "[quadratic]\nn = 0\n", "[quadratic] n = 0"),
        ("ev", "[ev]\nn = 0\n", "[ev] n = 0"),
        ("ev", "[ev]\nkappa = -3\n", "[ev] kappa = -3"),
    ], ids=["quadratic-n", "ev-n", "ev-kappa"])
    def test_out_of_range_section_value_exits_2_naming_it(
            self, tmp_path, capsys, kind, section, key):
        cfg = write_config(tmp_path, f"[experiment]\nkind = {kind}\n"
                           f"seed = 0\n\n{section}")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not out.exists()

    @pytest.mark.parametrize("keys, section, flags, refused", [
        ({"m": "abc"}, "", [], "[experiment] m = abc"),
        ({"max_iter": "1.5"}, "", [], "[experiment] max_iter = 1.5"),
        ({"seed": "-1"}, "", [], "[experiment] seed = -1"),
        ({}, "", ["--seed", "-1"], "[experiment] seed = -1"),
        ({"m_list": "4,x"}, "", [], "[experiment] m_list = 4,x"),
        ({"tol": "inf"}, "", [], "[experiment] tol = inf"),
        ({"tol": "nan"}, "", [], "[experiment] tol = nan"),
        ({"tau": "nan"}, "", [], "[experiment] tau = nan"),
        ({}, "f_e = 0\n", [], "[traffic] f_e = 0"),
        ({}, "h = 0\n", [], "[traffic] h = 0"),
        ({}, "gamma_min = -1\n", [], "[traffic] gamma_min = -1"),
        ({}, "gamma_min = 3\ngamma_max = 1\n", [],
         "[traffic] gamma_max = 1"),
        ({}, "k = nan\n", [], "[traffic] k = nan"),
    ], ids=["m", "max_iter", "seed", "seed-flag", "m_list", "tol-inf",
            "tol-nan", "tau-nan", "f_e", "h", "gamma_min", "gamma-range",
            "k-nan"])
    def test_refused_value_exits_2_naming_its_key(
            self, tmp_path, capsys, keys, section, flags, refused):
        # The [traffic] section is parsed, and refused, in a quadratic run.
        keys = {"kind": "quadratic", "seed": "7", "m": "4", **keys}
        cfg = write_config(tmp_path, "[experiment]\n" + "".join(
            f"{key} = {value}\n" for key, value in keys.items())
            + "\n[quadratic]\nn = 2\n\n[traffic]\n" + section)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)] + flags) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {refused}: ")
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        ("experiment", "max-iter"), ("experiment", "tolerance"),
        ("ev", "kapa"), ("evv", "kappa")])
    def test_misspelt_key_exits_2_naming_it(self, tmp_path, capsys,
                                            section, key):
        body = {"experiment": "kind = ev\nseed = 0\nm = 5\n", section: ""}
        body[section] += f"{key} = -5\n"
        cfg = write_config(tmp_path, "".join(
            f"[{name}]\n{text}\n" for name, text in body.items()))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"config error: [{section}] {key}: no such key\n"
        assert not out.exists()

    def test_readme_config_block_holds_every_key(self, tmp_path):
        cfg = cli._parse_config(write_config(tmp_path, readme_block()), {})
        # Every other [experiment] value is ExperimentConfig's default.
        assert cfg == cli.ExperimentConfig(
            kind="ev", seed=42, m_list=(50, 100, 200, 400),
            sections=cfg.sections)
        for name, values in cfg.sections.items():
            for key, value in values.items():
                default = cli.CONFIG_KEYS[name][key][1]
                assert default is None or value == default, (name, key)
        parser = configparser.ConfigParser()
        parser.read_string(readme_block())
        assert {name: sorted(parser[name]) for name in parser.sections()} \
            == {name: sorted(keys) for name, keys in cli.CONFIG_KEYS.items()}

    def test_readme_config_block_runs(self, tmp_path):
        cfg = write_config(tmp_path, readme_block())
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0

    def test_negative_quadratic_cap_fails_at_build(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUADRATIC_CONFIG.replace(
            "m = 6", "m = 4").replace("n = 4", "n = 3\nk = -1"))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("failure: cap K = -1.0 < 0")
        assert not out.exists()

    def test_negative_traffic_cap_fails_at_build(self, tmp_path, capsys):
        # A 2 x 3 street grid.
        (tmp_path / "nodes.csv").write_text("id,x,y\n" + "".join(
            f"{r}{c},{c},{r}\n" for r in range(2) for c in range(3)),
            encoding="utf-8")
        streets = [("00", "01"), ("01", "02"), ("10", "11"), ("11", "12"),
                   ("00", "10"), ("01", "11"), ("02", "12")]
        (tmp_path / "edges.csv").write_text(
            "id,from,to,length_m,road_class\n" + "".join(
                f"{e},{u},{v},400,secondary\n"
                for e, (u, v) in enumerate(streets)), encoding="utf-8")
        cfg = write_config(tmp_path, "[experiment]\nkind = traffic\n"
                           "seed = 3\nm = 4\nalgorithm = apa-wardrop\n"
                           "max_iter = 2000\n\n[traffic]\n"
                           f"nodes_file = {tmp_path / 'nodes.csv'}\n"
                           f"edges_file = {tmp_path / 'edges.csv'}\n"
                           "f_e = 0.02\nh = 2\nk = -1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "failure: edge caps K must be >= 0")
        assert not out.exists()

    def test_one_slot_ev_game_runs(self, tmp_path):
        cfg = write_config(tmp_path, "[experiment]\nkind = ev\nseed = 0\n"
                           "m = 5\nalgorithm = extragradient\n\n"
                           "[ev]\nn = 1\nk = 2\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert len(read_rows(out / "equilibrium.csv")) == 5

    @pytest.mark.parametrize("content", ["text", "empty", "truncated-zip",
                                         "npy"])
    def test_custom_file_not_an_npz_archive_exits_2_naming_it(
            self, tmp_path, capsys, content):
        path = tmp_path / "game.npz"
        if content == "text":
            path.write_text("Q = 1\n", encoding="utf-8")
        elif content == "empty":
            path.write_bytes(b"")
        elif content == "truncated-zip":
            np.savez(path, Q=np.eye(2), C=np.eye(2), c=np.zeros((2, 2)),
                     lo=np.zeros(2), hi=np.ones(2))
            path.write_bytes(path.read_bytes()[:200])
        else:
            with open(path, "wb") as fh:
                np.save(fh, np.eye(2))
        cfg = write_config(tmp_path, "[experiment]\nkind = custom-file\n"
                           f"seed = 0\n\n[custom]\nfile = {path}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {path}: not an .npz archive: ")
        assert not out.exists()


class TestSolverRegistry:
    """What the perfbench timers rely on: every solve goes through the
    scheme's module attribute in aggeq.algorithms, game first."""

    SCHEMES = {"two-level": "two_level_wardrop",
               "apa-nash": "asymmetric_projection",
               "apa-wardrop": "asymmetric_projection",
               "extragradient": "extragradient"}

    @pytest.mark.parametrize("name", list(SOLVERS))
    def test_run_calls_the_module_attribute(self, tmp_path, monkeypatch,
                                            name):
        calls = []

        def counting(attr, fn):
            def wrapper(*args, **kwargs):
                calls.append((attr, args))
                return fn(*args, **kwargs)
            return wrapper

        for attr in set(self.SCHEMES.values()):
            monkeypatch.setattr(algorithms, attr,
                                counting(attr, getattr(algorithms, attr)))
        cfg = write_config(tmp_path, QUADRATIC_CONFIG)
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--out", str(out),
                     "--algorithm", name])
        assert code == 0
        assert [(attr, type(args[0])) for attr, args in calls] \
            == [(self.SCHEMES[name], AggregativeGame)]
        assert read_rows(out / "report.csv")[0]["algorithm"] == name

    def test_algorithm_choices_are_the_registry(self):
        parser = cli._build_parser()
        commands = next(a for a in parser._actions if a.dest == "command")
        for name, sub in commands.choices.items():
            option = next(a for a in sub._actions if a.dest == "algorithm")
            assert option.choices == tuple(SOLVERS), name


class TestVerify:
    def test_verify_written_equilibrium(self, tmp_path):
        cfg = write_config(tmp_path, QUADRATIC_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        vout = tmp_path / "vout"
        code = main(["verify", str(out / "equilibrium.csv"),
                     "--config", cfg, "--out", str(vout)])
        assert code == 0
        report = read_rows(vout / "report.csv")[0]
        assert report["feasible"] == "1"
        assert float(report["kkt_stationarity"]) <= 1e-3

    def test_infeasible_equilibrium_writes_failure_report(self, tmp_path,
                                                          capsys):
        cfg = write_config(tmp_path, INFEASIBLE_CONFIG)
        out, vout = tmp_path / "out", tmp_path / "vout"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        capsys.readouterr()
        assert main(["verify", str(out / "equilibrium.csv"),
                     "--config", cfg, "--out", str(vout)]) == 1
        assert "failure: x_bar is not feasible within 0.0001" in \
            capsys.readouterr().err
        report = read_rows(vout / "report.csv")
        assert len(report) == 1 and sorted(report[0]) == FAILURE_COLUMNS
        run_row = read_rows(out / "report.csv")[0]
        assert report[0] == {k: run_row[k] for k in FAILURE_COLUMNS}
        assert report[0]["feasible"] == "0"


def replace_line(k, new):
    """Edit of a CSV text that replaces its line k (1-based) by new."""
    def edit(text):
        lines = text.splitlines()
        lines[k - 1] = new
        return "\n".join(lines) + "\n"
    return edit


def delete_lines(first, last):
    """Edit of a CSV text that deletes its lines first..last (1-based)."""
    def edit(text):
        lines = text.splitlines()
        del lines[first - 1:last]
        return "\n".join(lines) + "\n"
    return edit


class TestVerifyBadInput:
    """Bad equilibrium or dual files exit with code 2 and name the file
    and line, like a bad road-network file."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("verify")
        cfg = write_config(root, QUADRATIC_CONFIG)
        assert main(["run", "--config", cfg, "--out", str(root / "run")]) \
            == 0
        return root, cfg

    def verify(self, run_dir, tmp_path, target=None, edit=None):
        """Verify a copy of the run's outputs with target edited."""
        root, cfg = run_dir
        work = tmp_path / "bad"
        work.mkdir()
        for name in ("equilibrium.csv", "duals.csv"):
            text = (root / "run" / name).read_text(encoding="utf-8")
            if name == target:
                text = edit(text)
            (work / name).write_text(text, encoding="utf-8")
        return main(["verify", str(work / "equilibrium.csv"), "--config",
                     cfg, "--out", str(tmp_path / "vout")])

    def test_missing_file(self, run_dir, tmp_path, capsys):
        root, cfg = run_dir
        path = tmp_path / "nowhere" / "equilibrium.csv"
        assert main(["verify", str(path), "--config", cfg,
                     "--out", str(tmp_path / "vout")]) == 2
        assert f"{path}: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("target, edit, line", [
        ("equilibrium.csv", lambda text: "", 1),
        ("equilibrium.csv", lambda text: text.splitlines()[0] + "\n", 2),
        ("equilibrium.csv", replace_line(3, "0,1,abc"), 3),
        ("equilibrium.csv", replace_line(4, "x,2,0.1"), 4),
        ("equilibrium.csv", replace_line(5, "-1,0,0.1"), 5),
        ("equilibrium.csv", replace_line(2, "0,-2,0.1"), 2),
        # M = 6 agents, n = 4: agent i's rows are lines 2 + 4i .. 5 + 4i.
        # Without agent 2 the last of the 20 rows is on line 21.
        ("equilibrium.csv", delete_lines(10, 13), 21),
        ("equilibrium.csv", replace_line(5, "0,1,0.5"), 5),
        ("duals.csv", replace_line(3, "-1,0.5"), 3),
        ("duals.csv", replace_line(2, "4,0.5"), 2),  # m = n = 4 caps
    ], ids=["empty", "header-only", "non-numeric-value", "non-numeric-index",
            "negative-agent", "negative-component", "missing-agent-rows",
            "duplicate-row", "negative-constraint",
            "constraint-index-not-below-m"])
    def test_bad_file_exits_2_naming_file_and_line(
            self, run_dir, tmp_path, capsys, target, edit, line):
        assert self.verify(run_dir, tmp_path, target, edit) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"{tmp_path / 'bad' / target}:{line}: " in err, err
        assert not (tmp_path / "vout" / "report.csv").exists()

    def test_unedited_copy_verifies(self, run_dir, tmp_path):
        assert self.verify(run_dir, tmp_path) == 0


class TestSweep:
    def test_singleton_sweep(self, tmp_path):
        cfg = write_config(tmp_path, """\
[experiment]
kind = quadratic
seed = 3
m_list = 8
tol = 1e-5

[quadratic]
n = 4
""")
        out = tmp_path / "out"
        code = main(["sweep-m", "--config", cfg, "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "distances.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["M"] == "8"
        assert row["converged_nash"] == "1"
        assert row["converged_wardrop"] == "1"
        assert float(row["strategy_distance"]) \
            <= float(row["strategy_bound"]) + 1e-6
        assert float(row["sigma_distance"]) \
            <= float(row["sigma_bound"]) + 1e-6

    def test_sweep_needs_a_positive_alpha(self, tmp_path, monkeypatch,
                                          capsys):
        # Solved, but with no strong-monotonicity constant for the
        # distance bounds: exit 1 with the bounds' message.
        cfg = write_config(tmp_path, """\
[experiment]
kind = quadratic
seed = 3
m_list = 4
tol = 1e-5

[quadratic]
n = 3
""")
        monkeypatch.setattr(cli, "estimate_constants",
                            lambda game: analysis.estimate_constants(
                                game, alpha=0.0))
        assert main(["sweep-m", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err \
            == "failure: distance bounds need alpha > 0\n"

    def test_non_increasing_m_list_rejected(self, tmp_path):
        cfg = write_config(tmp_path, """\
[experiment]
kind = quadratic
seed = 3
m_list = 8,8
""")
        assert main(["sweep-m", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2


class TestCompare:
    def test_single_repetition_stds_are_zero(self, tmp_path):
        cfg = write_config(tmp_path, """\
[experiment]
kind = quadratic
seed = 11
m = 6
tol = 1e-5

[quadratic]
n = 4
""")
        out = tmp_path / "out"
        code = main(["compare", "--config", cfg, "--out", str(out)])
        assert code == 0
        rows = {r["algorithm"]: r for r in read_rows(out / "iterations.csv")}
        assert list(rows) == [name for name, solver in SOLVERS.items()
                              if solver.flavor == WARDROP]
        assert set(rows) == {"two-level", "apa-wardrop", "extragradient"}
        for row in rows.values():
            assert float(row["primal_updates_std"]) == 0.0
            assert float(row["dual_updates_std"]) == 0.0
            assert row["converged"] == "1"
        apa = rows["apa-wardrop"]
        assert float(apa["primal_updates_mean"]) \
            == float(apa["dual_updates_mean"])
        two = rows["two-level"]
        assert float(two["dual_updates_mean"]) \
            < float(two["primal_updates_mean"])

    def test_ev_compare_skips_schemes_that_need_strong_monotonicity(
            self, tmp_path, capsys):
        # The EV Wardrop mapping is monotone but not strongly monotone, so
        # two-level and apa-wardrop cannot run; extragradient can.
        cfg = write_config(tmp_path, """\
[experiment]
kind = ev
seed = 3
m = 8
n_rep = 2
""")
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        rows = {r["algorithm"]: r for r in read_rows(out / "iterations.csv")}
        assert rows["extragradient"]["converged"] == "1"
        assert float(rows["extragradient"]["primal_updates_mean"]) > 0
        for name in ("two-level", "apa-wardrop"):
            assert rows[name]["converged"] == "0"
            assert rows[name]["primal_updates_mean"] == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all("two-level, apa-wardrop skipped" in line for line in err)

    def test_constants_computed_once_per_repetition(self, tmp_path,
                                                    monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return monotonicity_analysis(*args, **kwargs)

        for module in (cli, algorithms):
            monkeypatch.setattr(module, "monotonicity_analysis", counting)
        cfg = write_config(tmp_path, """\
[experiment]
kind = quadratic
seed = 11
m = 6
n_rep = 2
tol = 1e-5

[quadratic]
n = 4
""")
        assert main(["compare", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        assert calls == [11, 12]


SCIPY_PROBE = """
import sys

import numpy as np

from aggeq import cli
from aggeq.analysis import ConstantsEstimate, verify_equilibrium
from aggeq.apps.traffic import build_network, build_route_choice_game
from aggeq.operators import WARDROP

ev_ini, quadratic_ini, out = sys.argv[1:]
for ini in (ev_ini, quadratic_ini):
    assert cli.main(["run", "--config", ini, "--out", out]) == 0
print("after runs", any(m.split(".")[0] == "scipy" for m in sys.modules))
edges = []
for a, b, length in ((0, 1, 1.0), (1, 2, 1.5), (3, 4, 1.2), (4, 5, 1.0),
                     (0, 3, 2.0), (1, 4, 1.0), (2, 5, 1.3)):
    edges += [(a, b, length, length), (b, a, length, length)]
net = build_network(list(range(6)), edges, f=0.15, h=2.0, K=0.4)
game = build_route_choice_game(net, M=3, seed=0)
verify_equilibrium(game, WARDROP, game.cost.utility.ref,
                   np.zeros(game.coupling.m),
                   constants=ConstantsEstimate(R=1.0, L_p=1.0, alpha=0.0),
                   compute_epsilon=False)
print("after route choice",
      any(m.split(".")[0] == "scipy" for m in sys.modules))
"""


class TestCustomFileM:
    """A custom-file game takes its M from the file: the config may not
    set one, and every output names the file's."""

    @pytest.fixture
    def game_file(self, tmp_path):
        M, n = 4, 3
        path = tmp_path / "game.npz"
        np.savez(path, Q=np.eye(n), C=0.5 * np.eye(n),
                 c=-np.arange(1.0, M * n + 1).reshape(M, n) / M,
                 lo=np.zeros(n), hi=np.ones(n))
        return path

    def config(self, tmp_path, game_file, extra=""):
        return write_config(tmp_path, "[experiment]\nkind = custom-file\n"
                            f"seed = 0\ntol = 1e-6\n{extra}\n[custom]\n"
                            f"file = {game_file}\n")

    @pytest.mark.parametrize("command", ["run", "sweep-m", "compare"])
    @pytest.mark.parametrize("key, value", [("m", "4"), ("m_list", "2,8")])
    def test_m_or_m_list_exits_2_naming_it(self, tmp_path, capsys,
                                           game_file, command, key, value):
        cfg = self.config(tmp_path, game_file, f"{key} = {value}\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: [experiment] {key}: ")
        assert not out.exists()

    def test_sweep_and_compare_write_the_files_m(self, tmp_path, game_file):
        cfg = self.config(tmp_path, game_file)
        out = tmp_path / "out"
        assert main(["sweep-m", "--config", cfg, "--out", str(out)]) == 0
        (row,) = read_rows(out / "distances.csv")
        assert (row["M"], row["inv_sqrt_m"]) == ("4", "0.5")
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        assert {row["M"] for row in read_rows(out / "iterations.csv")} \
            == {"4"}

    def test_verify_of_another_m_exits_2(self, tmp_path, capsys, game_file):
        cfg = self.config(tmp_path, game_file)
        eq = tmp_path / "equilibrium.csv"
        eq.write_text("agent,component,value\n" + "".join(
            f"{i},{t},0.25\n" for i in range(6) for t in range(3)),
            encoding="utf-8")
        out = tmp_path / "out"
        assert main(["verify", str(eq), "--config", cfg,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: equilibrium file has M=6, n=3 but the configured"
            " game has M=4, n=3\n")
        assert not (out / "report.csv").exists()


class TestScipyOnDemand:
    def test_only_route_choice_loads_scipy_optimize(self, tmp_path):
        """Route choice was the one workload that loaded scipy.optimize, for
        the L-BFGS-B flow projection and the BVLS fit of its KKT residual.
        With both replaced, the library needs numpy only: quadratic and EV
        runs, and a route-choice verification, import no scipy module."""
        ev = write_config(tmp_path, "[experiment]\nkind = ev\nseed = 3\n"
                          "m = 4\nalgorithm = extragradient\n\n[ev]\n"
                          "n = 6\n", name="ev.ini")
        quadratic = write_config(tmp_path, QUADRATIC_CONFIG,
                                 name="quadratic.ini")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(aggeq.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, ev, quadratic,
             str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["after runs False",
                                            "after route choice False"]


class TestSubstreams:
    def test_deterministic_per_name(self):
        a = substream(42, "agents").uniform(size=5)
        b = substream(42, "agents").uniform(size=5)
        assert np.array_equal(a, b)

    def test_names_are_independent(self):
        a = substream(42, "agents").uniform(size=5)
        c = substream(42, "od-pairs").uniform(size=5)
        assert not np.array_equal(a, c)

    def test_builders_draw_from_the_agents_stream(self):
        game = aggeq.build_quadratic_game(4, n=3, seed=42)
        assert np.array_equal(game.cost.c, substream(42, "agents").uniform(
            -1.0, 0.0, size=(4, 3)))

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            substream(1, "widgets")
