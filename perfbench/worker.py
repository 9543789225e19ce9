"""One benchmark operation: `aggeq run` called in-process, in a fresh process.

Each operation gets its own process so that the peak resident memory the
kernel reports for it (``ru_maxrss``) covers that operation alone.  The
result is one JSON object on the last line of standard output.

    python3 perfbench/worker.py --root . --ini CONFIG --out DIR --trace 0|1
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time

from tracer import (LAYER_POINTS, PHASE_POINTS, ROOT, Tracer, summarize)

RUN_FILES = ("equilibrium.csv", "duals.csv", "trace.csv", "report.csv")
REPEATS = 8
REPEAT_BUDGET_S = 0.5
SOLVE, VERIFY = "algorithms.solve", "analysis.verify_equilibrium"
PROFILE, PER_AGENT = "projection.profile", "projection.project_individual"


def blas_threads(numpy):
    """Thread count the OpenBLAS bundled with numpy reports, else None."""
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def classify(error, result, violation, tol, report, hashes):
    """Failure reason of one operation, or None when it succeeded.

    The solver is at fault when it raised or stopped unconverged; a
    converged result whose coupling violation exceeds 10 tol is a false
    convergence; any other non-zero exit, missing CSV or report flag is a
    verification error.
    """
    if result is None or not result.converged:
        return "solver error"
    if violation > 10.0 * tol:
        return "false convergence"
    if (error is not None or len(hashes) < len(RUN_FILES)
            or report.get("converged") != "1"
            or report.get("feasible") != "1"):
        return "verification error"
    return None


def layer_metrics(tracer, result, violation, tol):
    """Per-layer numbers of one traced operation."""
    spans = tracer.spans
    calls, total, self_s = summarize(tracer)
    kept = tracer.kept
    # Enclosing profile projection and phase of every span; a parent always
    # precedes its children in ``spans``.  A profile projection that made
    # per-agent calls took the per-agent path; the others were batched.
    profile_of, phase_of = [], []
    per_agent_profiles = set()
    direct_per_agent = 0
    for k, (name, _start, _end, parent) in enumerate(spans):
        profile_of.append(k if name == PROFILE
                          else profile_of[parent] if parent >= 0 else -1)
        phase_of.append(name if name in (SOLVE, VERIFY)
                        else phase_of[parent] if parent >= 0 else None)
        if name == PER_AGENT:
            if profile_of[k] >= 0:
                per_agent_profiles.add(profile_of[k])
            else:
                direct_per_agent += 1
    profile_rows = sum(tracer.sizes[k] for k, s in enumerate(spans)
                       if s[0] == PROFILE)
    batched_rows = sum(tracer.sizes[k] for k, s in enumerate(spans)
                       if s[0] == PROFILE and k not in per_agent_profiles)

    def under(phase, name):
        return sum(1 for k, s in enumerate(spans)
                   if s[0] == name and phase_of[k] == phase)

    updates = result.primal_updates if result is not None else 0
    eps = kept["analysis.epsilon_nash"]
    kkt = kept["analysis.kkt_residual"]
    m = {
        "operators.constants_calls": calls["operators.monotonicity_analysis"],
        "operators.constants_samples": sum(
            rep.samples for *_, rep in kept["operators.monotonicity_analysis"]
            if rep is not None),
        "operators.constants_s": total["operators.monotonicity_analysis"],
        "operators.slot_blocks_s": total["operators.slot_blocks"],
        "operators.evaluate_calls": calls["operators.evaluate_blocks"],
        "operators.evaluate_s": total["operators.evaluate_blocks"],
        "operators.evaluate_us": 1e6 * total["operators.evaluate_blocks"]
        / max(1, calls["operators.evaluate_blocks"]),
        "projection.profile_calls": calls[PROFILE],
        "projection.profile_rows": profile_rows,
        "projection.profile_s": total[PROFILE],
        "projection.us_per_row": 1e6 * total[PROFILE] / max(1, profile_rows),
        "projection.per_agent_calls": calls[PER_AGENT],
        "projection.batched_share": batched_rows
        / max(1, profile_rows + direct_per_agent),
        "projection.flow_calls": calls["projection.flow"],
        "projection.flow_s": total["projection.flow"],
        "projection.box_budget_batch_s": total["projection.box_budget_batch"],
        "projection.dykstra_calls": calls["projection.dykstra"],
        "projection.dykstra_s": total["projection.dykstra"],
        "algorithms.primal_updates": updates,
        "algorithms.dual_updates":
            result.dual_updates if result is not None else 0,
        "algorithms.self_s": self_s[SOLVE],
        "algorithms.us_per_update": 1e6 * total[SOLVE] / max(1, updates),
        "algorithms.converged": int(bool(result and result.converged)),
        "algorithms.coupling_violation": violation,
        "algorithms.violation_over_tol": violation / tol,
        "algorithms.active_duals":
            int((result.lam > 0).sum()) if result is not None else 0,
        "analysis.kkt_s": total["analysis.kkt_residual"],
        "analysis.vi_gap_s": total["analysis.vi_gap_sampled"],
        "analysis.epsilon_nash_s": total["analysis.epsilon_nash"],
        "analysis.estimate_constants_s": total["analysis.estimate_constants"],
        "analysis.feasibility_s": total["analysis.feasibility_report"],
        "analysis.verify_completed": sum(
            call[3] is not None for call in kept[VERIFY]),
        # -1 marks a verification that stopped before this step.
        "analysis.kkt_stationarity":
            kkt[-1][3]["stationarity"] if kkt and kkt[-1][3] else -1.0,
        "analysis.epsilon_nash": eps[-1][3] if eps and eps[-1][3] is not None
        else -1.0,
        "apps.load_network_s": total["apps.load_network"],
        "apps.shortest_path_calls": calls["apps.shortest_path"],
        "cli.write_s": total["cli.write_csv"],
        "cli.bytes_written": sum(tracer.sizes[k] for k, s in enumerate(spans)
                                 if s[0] == "cli.write_csv"),
        "cli.self_s": self_s[ROOT],
    }
    checks = {
        "self_time_sum_s": sum(self_s.values()),
        "root_s": total[ROOT],
        "solve_profile_calls": under(SOLVE, PROFILE),
        "solve_evaluate_calls": under(SOLVE, "operators.evaluate_blocks"),
        "solve_constants_samples": sum(
            rep.samples for k, *_, rep
            in kept["operators.monotonicity_analysis"]
            if rep is not None and phase_of[k] == SOLVE),
        "per_agent_under_profile": sum(
            1 for k, s in enumerate(spans)
            if s[0] == PER_AGENT and profile_of[k] >= 0),
        "rows_of_per_agent_profiles": sum(tracer.sizes[k]
                                          for k in per_agent_profiles),
    }
    return m, checks


def repeat(calls, fn, spans, expected=()):
    """Durations of the first call in ``calls`` and of up to REPEATS reruns
    of it, made while their sum stays within REPEAT_BUDGET_S."""
    if not calls:
        return []
    idx, args, kwargs, _ = calls[0]
    _, start, end, _ = spans[idx]
    samples = [end - start]
    while len(samples) <= REPEATS and sum(samples) < REPEAT_BUDGET_S:
        start = time.perf_counter()
        try:
            fn(*args, **kwargs)
        except expected:
            pass
        samples.append(time.perf_counter() - start)
    return samples


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--ini", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import numpy
    import scipy
    import aggeq
    from aggeq import cli
    from aggeq.errors import AggeqError
    if not os.path.abspath(aggeq.__file__).startswith(src + os.sep):
        raise SystemExit(f"aggeq imported from {aggeq.__file__}, not {src}")

    tracer = Tracer()
    tracer.install(LAYER_POINTS if args.trace else PHASE_POINTS)
    run = tracer.wrap(ROOT, cli.main)
    error, code = None, None
    try:
        code = run(["run", "--config", args.ini, "--out", args.out])
    except Exception as exc:  # an escaped error fails the operation
        error = f"{type(exc).__name__}: {exc}"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if code not in (0, None):
        error = f"exit code {code}"
    tracer.uninstall()

    _, total, _ = summarize(tracer)
    solved = tracer.kept["algorithms.solve"]
    result, violation = None, 0.0
    if solved and solved[-1][3] is not None:
        _, (game, *_), _, result = solved[-1]
        resid = game.coupling.residual(result.x.as_matrix())
        violation = float(max(0.0, -resid.min(initial=0.0)))
    # Set-up and verification can be short, so time them again on the same
    # inputs: the medians then rest on more than one brief interval.
    setup = repeat(tracer.kept["cli.build_game"], cli.build_game,
                   tracer.spans)
    verify = repeat(tracer.kept[VERIFY], cli.verify_equilibrium,
                    tracer.spans, AggeqError)
    built = tracer.kept["cli.build_game"]
    tol = built[0][1][0].tol if built else float("nan")

    hashes = {}
    for name in RUN_FILES:
        path = os.path.join(args.out, name)
        if os.path.exists(path):
            hashes[name] = sha256(path)
    report = {}
    if "report.csv" in hashes:
        with open(os.path.join(args.out, "report.csv"), newline="",
                  encoding="utf-8") as fh:
            report = next(csv.DictReader(fh))

    out = {
        "exit_code": code,
        "error": error,
        "failure": classify(error, result, violation, tol, report, hashes),
        "run_s": total[ROOT],
        "setup_s": total["cli.build_game"],
        "solve_s": total[SOLVE],
        "verify_s": total[VERIFY],
        "setup_samples": setup,
        "verify_samples": verify,
        "peak_rss_mb": peak_rss_mb,
        "primal_updates": result.primal_updates if result else None,
        "dual_updates": result.dual_updates if result else None,
        "converged": bool(result and result.converged),
        "coupling_violation": violation,
        "tol": tol,
        "csv_sha256": hashes,
        "report": {k: report[k] for k in ("converged", "feasible")
                   if k in report},
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "blas_threads": blas_threads(numpy),
    }
    if args.trace:
        out["layers"], out["checks"] = layer_metrics(tracer, result,
                                                     violation, tol)
        os.makedirs(args.out, exist_ok=True)
        tracer.write(os.path.join(args.out, "spans.jsonl"))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
