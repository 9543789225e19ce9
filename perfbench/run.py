"""Benchmark of `aggeq run`, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/selfcheck.py

Run from the repository root.  One operation is one `aggeq run` of an INI
file the benchmark generates (with, for traffic, a road network), made in a
fresh worker process (see worker.py).  Operations run one at a time, each
with single-threaded BLAS, until the time budget is spent.

With ``--trace 0`` only the phase timers (set-up, solve, verification) are
installed and the result holds the end-to-end metrics: the median over the
operations, or for set-up and verification over every timed call, since
each worker times those again on the same inputs.  The run solves the
instance drawn from ``--seed`` twice, which checks that reruns repeat, and
then one further instance per operation, drawn from the seed as well.

With ``--trace 1`` the run repeats the seed's instance, traced and untraced
in turn.  Traced operations record spans around every layer boundary and
give the per-layer metrics; the difference in median run time between the
two kinds is the tracing overhead.  ``--workload all`` does both for every
workload BENCHMARK.json times and prints every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
when reruns of one instance differ (exit code, failure reason, update
counts, traced call counts or CSV bytes) or when span self times do not add
up to the traced run time.  The full record of a run (machine, versions,
git commit, seeds, generated INI files, every operation) is written to
``perfbench/out/<workload>/seed<N>-trace<T>/result.json``, and the spans of
a traced operation to ``spans.jsonl`` beside its CSV outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

from workloads import TIMED, WORKLOADS, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# One operation at a time, each single-threaded: timings then depend least
# on what else the machine runs, and no run uses more threads than cores.
BLAS_THREADS = "1"
RUN_LIMIT_S = 160.0
MIN_OPS = {0: 2, 1: 3}

END_TO_END = {"setup_s": "s", "solve_s": "s", "verify_s": "s", "run_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "operators.constants_calls": "count",
    "operators.constants_samples": "count",
    "operators.constants_s": "s",
    "operators.slot_blocks_s": "s",
    "operators.evaluate_calls": "count",
    "operators.evaluate_s": "s",
    "operators.evaluate_us": "us",
    "projection.profile_calls": "count",
    "projection.profile_rows": "count",
    "projection.profile_s": "s",
    "projection.us_per_row": "us",
    "projection.per_agent_calls": "count",
    "projection.batched_share": "ratio",
    "projection.flow_calls": "count",
    "projection.flow_s": "s",
    "projection.box_budget_batch_s": "s",
    "projection.dykstra_calls": "count",
    "projection.dykstra_s": "s",
    "algorithms.primal_updates": "count",
    "algorithms.dual_updates": "count",
    "algorithms.self_s": "s",
    "algorithms.us_per_update": "us",
    "algorithms.converged": "flag",
    "algorithms.coupling_violation": "residual",
    "algorithms.violation_over_tol": "ratio",
    "algorithms.active_duals": "count",
    "analysis.kkt_s": "s",
    "analysis.vi_gap_s": "s",
    "analysis.epsilon_nash_s": "s",
    "analysis.estimate_constants_s": "s",
    "analysis.feasibility_s": "s",
    "analysis.verify_completed": "count",
    "analysis.kkt_stationarity": "residual",
    "analysis.epsilon_nash": "cost",
    "apps.load_network_s": "s",
    "apps.shortest_path_calls": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "cli.self_s": "s",
    "failed_share": "ratio",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}
# What must repeat exactly across operations on one instance.
DETERMINISTIC = ("exit_code", "failure", "primal_updates", "dual_updates",
                 "csv_sha256")
DETERMINISTIC_TRACED = ("operators.evaluate_calls",
                        "operators.constants_samples",
                        "projection.profile_calls", "projection.profile_rows",
                        "projection.per_agent_calls", "projection.flow_calls")


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def run_op(ini, out_dir, traced, timeout):
    """One operation in a fresh worker; its JSON result, or None when the
    worker timed out."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--ini", ini, "--out", out_dir, "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    op = json.loads(lines[-1])
    op["stderr"] = proc.stderr[-2000:]
    return op


def instance_seed(seed, j):
    """Seed of the j-th instance a run with ``seed`` solves; the first is
    the seed itself."""
    return seed if j == 0 else random.Random(f"{seed}/{j}").randrange(2**31)


def schedule(trace, k):
    """(instance, traced) of operation k.

    Untraced runs solve instance 0 twice, so every run checks a rerun, and
    then a new instance per operation: the medians then describe the
    workload more than one draw of it.  Traced runs repeat instance 0,
    traced and untraced in turn, so the overhead compares like with like.
    """
    if trace:
        return 0, k % 2 == 0
    return max(0, k - 1), False


def run_workload(workload, seed, seconds, trace):
    """Operations of one workload for ``seconds``; returns the record."""
    run_dir = os.path.join(OUT, workload.name, f"seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    inis, ops, problems, timeouts = {}, [], [], 0
    start = time.monotonic()
    longest = 0.0
    while True:
        k = len(ops)
        j, traced = schedule(trace, k)
        if j not in inis:
            inis[j] = write_inputs(workload, instance_seed(seed, j),
                                   os.path.join(run_dir, f"inputs{j}"), ROOT)
        began = time.monotonic()
        op = run_op(inis[j], os.path.join(run_dir, f"op{k}"), traced,
                    max(1.0, RUN_LIMIT_S - (began - start)))
        if op is None:
            problems.append(f"op{k} timed out after"
                            f" {time.monotonic() - began:.0f} s")
            timeouts += 1
            break
        op.update(instance=j, traced=traced)
        ops.append(op)
        longest = max(longest, time.monotonic() - began)
        if (len(ops) >= MIN_OPS[trace]
                and time.monotonic() - start + longest > seconds):
            break
    problems += check_ops(ops)
    ini_texts = {}
    for j, ini in inis.items():
        with open(os.path.join(ROOT, ini), encoding="utf-8") as fh:
            ini_texts[j] = fh.read()
    first = ops[0] if ops else {}
    return {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "instance_seeds": {j: instance_seed(seed, j) for j in inis},
        "seconds": seconds, "trace": trace, "ini": ini_texts,
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "blas_threads": first.get("blas_threads"),
                    "blas_threads_env": BLAS_THREADS,
                    **first.get("versions", {})},
        "git_commit": git_commit(),
        "ops": ops, "timeouts": timeouts, "problems": problems,
    }


def check_ops(ops):
    """Determinism and trace-consistency problems among the operations."""
    problems = []
    for j in sorted({op["instance"] for op in ops}):
        same = [op for op in ops if op["instance"] == j]
        traced = [op for op in same if op["traced"]]
        for key in DETERMINISTIC:
            values = {json.dumps(op[key], sort_keys=True) for op in same}
            if len(values) > 1:
                problems.append(f"instance {j}: {key} differs across reruns:"
                                f" {sorted(values)}")
        for key in DETERMINISTIC_TRACED:
            values = {op["layers"][key] for op in traced}
            if len(values) > 1:
                problems.append(f"instance {j}: {key} differs across reruns:"
                                f" {sorted(values)}")
    for op in ops:
        if not op["traced"]:
            continue
        chk = op["checks"]
        if abs(chk["self_time_sum_s"] - chk["root_s"]) > 1e-6 * chk["root_s"]:
            problems.append(f"span self times add to {chk['self_time_sum_s']}"
                            f" s, not the traced run's {chk['root_s']} s")
        if chk["per_agent_under_profile"] != chk["rows_of_per_agent_profiles"]:
            problems.append("per-agent projections do not match the rows of"
                            " the profile projections that made them")
    return problems


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(record):
    ops = record["ops"]
    values = {name: median([op[name] for op in ops]) for name in END_TO_END}
    for name in ("setup", "verify"):
        values[f"{name}_s"] = median([s for op in ops
                                      for s in op[f"{name}_samples"]])
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(record):
    ops = record["ops"]
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    values = {name: median([op["layers"][name] for op in traced])
              for name in PER_LAYER if traced and name in traced[0]["layers"]}
    values["failed_share"] = (sum(op["failure"] is not None for op in ops)
                              / max(1, len(ops)))
    values["trace.run_s"] = median([op["run_s"] for op in traced])
    values["trace.overhead_s"] = (values["trace.run_s"]
                                  - median([op["run_s"] for op in plain]))
    # A run whose traced operations all timed out reports zeros; it is
    # already marked incorrect.
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER.items()}


def summary(record):
    failures = {}
    for op in record["ops"]:
        if op["failure"] is not None:
            failures[op["failure"]] = failures.get(op["failure"], 0) + 1
    if record["timeouts"]:
        failures["solver error"] = (failures.get("solver error", 0)
                                    + record["timeouts"])
    return {"correct": not record["problems"],
            "attempted": len(record["ops"]) + record["timeouts"],
            "failed": sum(failures.values()), "failures": failures}


def print_metrics(prefix, metrics):
    for name, m in metrics.items():
        print(f"{prefix}{name:36s} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "aggeq", "cli.py")):
        print(f"no aggeq sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload == "all":
        plan = [(WORKLOADS[name], t) for name in TIMED for t in (0, 1)]
    else:
        plan = [(WORKLOADS[args.workload], args.trace)]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in plan:
        try:
            record = run_workload(workload, args.seed, args.seconds, trace)
        except RuntimeError as exc:
            print(f"{workload.name}: {exc}", file=sys.stderr)
            return 1
        metrics = per_layer(record) if trace else end_to_end(record)
        record["metrics"] = metrics
        record["summary"] = summary(record)
        path = os.path.join(OUT, workload.name,
                            f"seed{args.seed}-trace{trace}", "result.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        prefix = f"{workload.name}/" if args.workload == "all" else ""
        s = record["summary"]
        print(f"# {workload.name} seed={args.seed} trace={trace}"
              f" ops={s['attempted']} failed={s['failed']} {s['failures']}")
        for problem in record["problems"]:
            print(f"# PROBLEM: {problem}")
        print_metrics(prefix, metrics)
        result["correct"] = result["correct"] and s["correct"]
        result["attempted"] += s["attempted"]
        result["failed"] += s["failed"]
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
