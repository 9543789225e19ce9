"""Quick self-check of the benchmark on tiny games (under a minute).

    python3 perfbench/selfcheck.py

Runs each game family at a tiny size through the same operations as the
benchmark, traced and untraced, and checks that

* the metrics carry exactly the names and units BENCHMARK.json declares;
* reruns are deterministic and span self times add up to the run time;
* traced span counts match the program's own counts.  A solve makes one
  profile projection for its starting point, one per constants sample and
  one (APA) or two (extragradient) per update, and evaluates the mapping
  once or twice per update.  A layer function imported into a namespace
  the tracer missed would break these equalities.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import Workload

TINY = (
    Workload("tiny-quadratic", "", kind="quadratic", algorithm="apa-nash",
             M=6, section={"n": 4}),
    Workload("tiny-ev", "", kind="ev", algorithm="extragradient", M=6,
             section={"n": 24, "kappa": 12, "k": 0.55}),
    Workload("tiny-traffic", "", kind="traffic", algorithm="apa-wardrop",
             M=3, section={"f_e": 0.02, "h": 2, "k": 0.5}, grid=(2, 3),
             extra={"max_iter": 30}),
)
EVALS_PER_UPDATE = {"apa-nash": 1, "apa-wardrop": 1, "extragradient": 2}


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {key: {m["name"]: m["unit"] for m in spec[key]}
                for key in ("end_to_end", "per_layer")}
    check(declared["end_to_end"] == run.END_TO_END,
          "end-to-end metrics match BENCHMARK.json")
    check(declared["per_layer"] == run.PER_LAYER,
          "per-layer metrics match BENCHMARK.json")
    check([w["name"] for w in spec["workloads"]] == list(run.TIMED),
          "workloads match BENCHMARK.json")
    for workload in TINY:
        name = workload.name
        plain = run.run_workload(workload, 1, 0, 0)
        traced = run.run_workload(workload, 1, 0, 1)
        for record in (plain, traced):
            check(not record["problems"],
                  f"{name} trace={record['trace']}: {record['problems']}")
        for metrics, units in ((run.end_to_end(plain), run.END_TO_END),
                               (run.per_layer(traced), run.PER_LAYER)):
            check({k: m["unit"] for k, m in metrics.items()} == units
                  and all(isinstance(m["value"], (int, float))
                          for m in metrics.values()),
                  f"{name}: metric names, units and values")
        summary = run.summary(traced)
        check(summary["attempted"] >= 3
              and 0 <= summary["failed"] <= summary["attempted"],
              f"{name}: attempted/failed {summary}")
        per_update = EVALS_PER_UPDATE[workload.algorithm]
        for op in traced["ops"]:
            if not op["traced"]:
                continue
            chk, layers = op["checks"], op["layers"]
            updates = layers["algorithms.primal_updates"]
            check(chk["solve_evaluate_calls"] == per_update * updates,
                  f"{name}: {chk['solve_evaluate_calls']} evaluations in the"
                  f" solve for {updates} updates")
            check(chk["solve_profile_calls"]
                  == per_update * updates + 1 + chk["solve_constants_samples"],
                  f"{name}: {chk['solve_profile_calls']} profile projections"
                  f" in the solve = {per_update} x {updates} updates + 1 +"
                  f" {chk['solve_constants_samples']} constants samples")
            check(layers["operators.constants_calls"] >= 1,
                  f"{name}: constants computed through a traced name")
            if workload.kind == "traffic":
                check(layers["projection.batched_share"] == 0
                      and layers["projection.flow_calls"]
                      == layers["projection.per_agent_calls"] > 0
                      and layers["apps.shortest_path_calls"] == workload.M,
                      f"{name}: every flow projection runs per agent")
            else:
                check(layers["projection.batched_share"] == 1,
                      f"{name}: every profile projection is batched")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
