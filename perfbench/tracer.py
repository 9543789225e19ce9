"""Spans around calls into aggeq's layers, recorded from outside the package.

The benchmark never edits aggeq.  It replaces module attributes with timing
wrappers, so each call into a layer boundary records one span: name, start,
end and the index of the span that was open when it started.  Spans are kept
in memory and written once the operation has ended.

A function that other modules import by name lives in several namespaces;
every one of them must be wrapped, or calls through the missed name vanish
from the trace.  ``install`` therefore wraps the function under every name
that any loaded aggeq module holds it by, not only where it is defined.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (defining module, attribute, span name).  A dotted attribute is a method.
PHASE_POINTS = (
    ("aggeq.cli", "build_game", "cli.build_game"),
    ("aggeq.algorithms", "asymmetric_projection", "algorithms.solve"),
    ("aggeq.algorithms", "extragradient", "algorithms.solve"),
    ("aggeq.algorithms", "two_level_wardrop", "algorithms.solve"),
    ("aggeq.analysis", "verify_equilibrium", "analysis.verify_equilibrium"),
)

LAYER_POINTS = PHASE_POINTS + (
    ("aggeq.cli", "write_csv", "cli.write_csv"),
    ("aggeq.synthetic", "build_quadratic_game", "apps.build_quadratic_game"),
    ("aggeq.apps.ev", "generate_ev_params", "apps.generate_ev_params"),
    ("aggeq.apps.ev", "build_ev_game", "apps.build_ev_game"),
    ("aggeq.apps.traffic", "load_network", "apps.load_network"),
    ("aggeq.apps.traffic", "build_route_choice_game",
     "apps.build_route_choice_game"),
    ("aggeq.apps.traffic", "shortest_path", "apps.shortest_path"),
    ("aggeq.operators", "monotonicity_analysis",
     "operators.monotonicity_analysis"),
    ("aggeq.operators", "GameOperator.evaluate_blocks",
     "operators.evaluate_blocks"),
    ("aggeq.operators", "GameOperator.slot_blocks", "operators.slot_blocks"),
    ("aggeq.projection", "ProfileProjector.__call__", "projection.profile"),
    ("aggeq.projection", "project_individual",
     "projection.project_individual"),
    ("aggeq.projection", "project_flow_polytope", "projection.flow"),
    ("aggeq.projection", "project_box_budget_batch",
     "projection.box_budget_batch"),
    ("aggeq.projection", "dykstra", "projection.dykstra"),
    ("aggeq.analysis", "estimate_constants", "analysis.estimate_constants"),
    ("aggeq.analysis", "kkt_residual", "analysis.kkt_residual"),
    ("aggeq.analysis", "vi_gap_sampled", "analysis.vi_gap_sampled"),
    ("aggeq.analysis", "epsilon_nash", "analysis.epsilon_nash"),
    ("aggeq.game", "feasibility_report", "analysis.feasibility_report"),
)

# Spans whose arguments and return values the metrics read afterwards.
KEPT = ("cli.build_game", "algorithms.solve", "analysis.kkt_residual",
        "analysis.epsilon_nash", "analysis.verify_equilibrium",
        "operators.monotonicity_analysis")

ROOT = "cli.main"


class Tracer:
    """In-memory span recorder.

    ``spans[k]`` is ``(name, start, end, parent)`` with times from
    ``time.perf_counter`` and ``parent`` the index of the enclosing span, or
    -1.  ``kept[name]`` lists ``[span index, args, kwargs, result]`` of the
    calls in ``KEPT``, with result None while the call runs or when it
    raised; ``sizes[k]`` is the row count of profile projection ``k`` or the
    byte count of CSV write ``k``.
    """

    def __init__(self):
        self.spans = []
        self.kept = defaultdict(list)
        self.sizes = {}
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        kept = self.kept[name] if name in KEPT else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            if kept is not None:
                call = [idx, args, kwargs, None]
                kept.append(call)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if kept is not None:
                call[3] = out
            elif name == "projection.profile":
                sizes[idx] = len(args[1])
            elif name == "cli.write_csv":
                sizes[idx] = os.path.getsize(args[0])
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, points):
        """Wrap every point under every name any aggeq module holds it by."""
        modules = [module for name, module in sorted(sys.modules.items())
                   if name == "aggeq" or name.startswith("aggeq.")]
        for module_name, attr, name in points:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                fn = getattr(owner, attr)
                holders = [(owner, attr)]
            else:
                fn = getattr(owner, attr)
                holders = [(module, key) for module in modules
                           for key, val in vars(module).items() if val is fn]
            traced = self.wrap(name, fn)
            for holder, key in holders:
                self._undo.append((holder, key, fn))
                setattr(holder, key, traced)

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def summarize(tracer):
    """Per-name call count, inclusive seconds and self seconds.

    A span's self time is its duration minus its children's, so the self
    times of all spans add up to the root's duration when spans nest.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for k, (name, start, end, _parent) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child_time[k]
    return calls, total, self_s

