"""Byte harness: 27 `aggeq` CLI invocations and the sha256 of every file
they write.

    python3 tools/byte_harness.py OUT_DIR [--src SRC_DIR]

Run from anywhere.  OUT_DIR must not exist or be empty.  The harness writes
its generated inputs under OUT_DIR/inputs and each invocation's outputs
under OUT_DIR/out/<case>, together with a ``status.txt`` holding the exit
code and standard error, then prints one ``sha256  path`` line per file
under OUT_DIR/out, sorted by path.  Every path is relative to OUT_DIR and
every invocation runs there, so two runs of the harness print the same
lines exactly when the program wrote the same bytes.  ``--src`` points the
invocations at another checkout's package directory: a check that a change
keeps every output byte is then

    python3 tools/byte_harness.py /tmp/h-new > new.txt
    python3 tools/byte_harness.py /tmp/h-old --src OLD/src > old.txt
    diff old.txt new.txt

The invocations:
  * ``run`` at seed 3, M=12, of the four algorithms on the quadratic and
    the EV kind (8);
  * ``compare`` (M=8, n_rep 2) and ``sweep-m`` (M = 4, 8, 12) on both
    kinds (4);
  * three algorithms on a generated 3x3 road grid, M=4, max_iter 40 (3);
  * ``verify`` of four stored equilibria from the runs above (4);
  * both timed benchmark workloads at seed 1 (2);
  * ``apa-nash`` and ``extragradient`` on three ``custom-file`` games at
    tol 1e-6, M=10, n=5: a general Q and C with three dense coupling rows,
    the same without coupling, and Q = 0.4 I, C = I with three dense rows
    (6).
BLAS runs single-threaded in every invocation.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import TIMED, WORKLOADS, write_grid_network, write_inputs  # noqa: E402

ALGORITHMS = ("apa-nash", "apa-wardrop", "extragradient", "two-level")
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
# "path.py:123: SomeWarning: message", as the warnings module prints it.
WARNING_AT = re.compile(r"^\S+\.py:\d+: (\w+Warning: .*)$", re.DOTALL)


def write_ini(path, experiment, sections=()):
    """An INI file with an [experiment] section and further (name, keys)
    sections."""
    lines = ["[experiment]"] + [f"{k} = {v}" for k, v in experiment.items()]
    for name, keys in sections:
        lines += ["", f"[{name}]"] + [f"{k} = {v}" for k, v in keys.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_custom_games(directory):
    """Three custom-file games (M=10, n=5), drawn from a fixed seed; return
    {name: npz path}."""
    M, n, m = 10, 5, 3
    rng = np.random.default_rng(20240611)
    G = rng.standard_normal((n, n))
    Q = G @ G.T / n + 0.5 * np.eye(n)
    C = 0.5 * np.eye(n) + 0.2 * rng.standard_normal((n, n))
    c = rng.uniform(-1.0, 1.0, (M, n))
    lo, hi = np.zeros(n), np.ones(n)
    A = rng.uniform(0.0, 1.0, (m, M * n)) / M
    b = np.full(m, 0.2)
    games = {
        "general-dense": dict(Q=Q, C=C, c=c, lo=lo, hi=hi, A=A, b=b),
        "general-uncoupled": dict(Q=Q, C=C, c=c, lo=lo, hi=hi),
        "scalar-dense": dict(Q=0.4 * np.eye(n), C=np.eye(n), c=c, lo=lo,
                             hi=hi, A=A, b=b),
    }
    paths = {}
    for name, arrays in games.items():
        paths[name] = os.path.join(directory, f"{name}.npz")
        np.savez(paths[name], **arrays)
    return paths


def cases(inputs):
    """(case name, argv after `aggeq`) of every invocation, in run order;
    writes the INI and data files they read into ``inputs``."""
    out = []
    for kind in ("quadratic", "ev"):
        for algo in ALGORITHMS:
            ini = os.path.join(inputs, f"run-{kind}-{algo}.ini")
            write_ini(ini, {"kind": kind, "seed": 3, "m": 12,
                            "algorithm": algo})
            out.append((f"run-{kind}-{algo}", ["run", "--config", ini]))
    for kind in ("quadratic", "ev"):
        ini = os.path.join(inputs, f"compare-{kind}.ini")
        write_ini(ini, {"kind": kind, "seed": 3, "m": 8, "n_rep": 2})
        out.append((f"compare-{kind}", ["compare", "--config", ini]))
        ini = os.path.join(inputs, f"sweep-{kind}.ini")
        write_ini(ini, {"kind": kind, "seed": 3, "m_list": "4,8,12"})
        out.append((f"sweep-{kind}", ["sweep-m", "--config", ini]))
    grid = os.path.join(inputs, "grid")
    os.makedirs(grid)
    write_grid_network(grid, 3, 3, 3)
    for algo in ("apa-wardrop", "extragradient", "two-level"):
        ini = os.path.join(inputs, f"traffic-{algo}.ini")
        write_ini(ini, {"kind": "traffic", "seed": 3, "m": 4,
                        "algorithm": algo, "max_iter": 40},
                  [("traffic", {"nodes_file": f"{grid}/nodes.csv",
                                "edges_file": f"{grid}/edges.csv",
                                "f_e": 0.02, "h": 2, "k": 0.05})])
        out.append((f"traffic-{algo}", ["run", "--config", ini]))
    for kind, algo in (("quadratic", "apa-nash"), ("quadratic", "two-level"),
                       ("ev", "apa-nash"), ("ev", "extragradient")):
        ini = os.path.join(inputs, f"run-{kind}-{algo}.ini")
        eq = os.path.join("out", f"run-{kind}-{algo}", "equilibrium.csv")
        out.append((f"verify-{kind}-{algo}",
                    ["verify", eq, "--config", ini]))
    for name in TIMED:
        ini = write_inputs(WORKLOADS[name], 1,
                           os.path.join(inputs, f"workload-{name}"), ".")
        out.append((f"workload-{name}", ["run", "--config", ini]))
    for game, path in write_custom_games(inputs).items():
        for algo in ("apa-nash", "extragradient"):
            ini = os.path.join(inputs, f"custom-{game}-{algo}.ini")
            write_ini(ini, {"kind": "custom-file", "seed": 2,
                            "algorithm": algo, "tol": 1e-6},
                      [("custom", {"file": path})])
            out.append((f"custom-{game}-{algo}", ["run", "--config", ini]))
    return out


def portable(stderr):
    """stderr without what depends on the checkout: a warning keeps its
    category and message but not its file, line and source line."""
    lines, skip = [], False
    for line in stderr.splitlines(keepends=True):
        if skip and line[:1].isspace():
            continue
        located = WARNING_AT.match(line)
        skip = located is not None
        lines.append(located.group(1) if located else line)
    return "".join(lines)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the aggeq package")
    args = parser.parse_args(argv)
    if os.path.isdir(args.out_dir) and os.listdir(args.out_dir):
        parser.error(f"{args.out_dir} is not empty")
    os.makedirs(os.path.join(args.out_dir, "inputs"), exist_ok=True)
    env = {**os.environ, **THREADS, "PYTHONPATH": os.path.abspath(args.src)}
    os.chdir(args.out_dir)
    for name, argv_case in cases("inputs"):
        case_dir = os.path.join("out", name)
        os.makedirs(case_dir)
        proc = subprocess.run(
            [sys.executable, "-m", "aggeq.cli", *argv_case,
             "--out", case_dir],
            env=env, capture_output=True, text=True)
        with open(os.path.join(case_dir, "status.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(f"exit {proc.returncode}\n{portable(proc.stderr)}")
    paths = sorted(os.path.join(dirpath, fname)
                   for dirpath, _, filenames in os.walk("out")
                   for fname in filenames)
    for path in paths:
        print(f"{sha256(path)}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
