"""Config-driven experiment runner.

Subcommands: ``run`` (solve one instance and write equilibrium, duals,
trace, and verification files), ``sweep-m`` (solve Nash and Wardrop across
population sizes, recording distances against their theoretical bounds),
``compare`` (iteration counts per Wardrop algorithm), and ``verify``
(re-check a stored equilibrium file).  Algorithm names, their flavors and
their solvers come from ``aggeq.algorithms.SOLVERS``.

Configs are flat INI files; command-line flags override config keys.
All randomness flows from one seed through named substreams.  Exit codes:
0 success, 1 solver failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
import tempfile
import zipfile
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .algorithms import SOLVERS, TRACE_COLUMNS, SolverConfig
from .analysis import (distance_bounds, equilibrium_bounds,
                       estimate_constants, verify_equilibrium)
from .apps.ev import build_ev_game, generate_ev_params
from .apps.traffic import (_require_columns, build_route_choice_game,
                           load_network)
from .errors import (AggeqError, ConfigError, ConvergenceError,
                     InfeasibleSetError)
from .game import (AggregativeGame, BoxFamily, CouplingConstraint,
                   QuadraticCost, aggregate_matrix, feasibility_report)
from .operators import WARDROP, build_operator, monotonicity_analysis
from .synthetic import build_quadratic_game

KINDS = ("ev", "traffic", "quadratic", "custom-file")

_SUBSTREAMS = {"agents": 0, "od-pairs": 1, "sampling": 2, "offsets": 3}


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named consumer of the master seed."""
    idx = _SUBSTREAMS[name]
    return np.random.default_rng(np.random.SeedSequence(seed,
                                                        spawn_key=(idx,)))


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    M: int = 100
    m_list: tuple = ()
    algorithm: str = "apa-nash"
    tau: Optional[float] = None
    tol: float = 1e-4
    max_iter: int = 100_000
    inner_tol: float = 1e-6
    output_dir: str = "."
    n_rep: int = 1
    sections: dict = field(default_factory=dict)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(tau=self.tau, tol=self.tol,
                            max_iter=self.max_iter,
                            inner_tol=self.inner_tol, seed=self.seed)


def _parse_config(path: Optional[str], overrides: dict) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    if path is not None:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
    exp = parser["experiment"] if parser.has_section("experiment") else {}

    def pick(key, default=None):
        if overrides.get(key) is not None:
            return overrides[key]
        return exp.get(key, default)

    kind = pick("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    seed = pick("seed")
    if seed is None:
        raise ConfigError("a seed is required (config key or --seed)")
    algorithm = pick("algorithm", "apa-nash")
    if algorithm not in SOLVERS:
        raise ConfigError(f"algorithm must be one of {tuple(SOLVERS)}")
    tau_raw = pick("tau", "auto")
    tau = None if str(tau_raw).lower() == "auto" else float(tau_raw)
    M = int(pick("m", 100))
    m_list = ()
    if "m_list" in exp:
        m_list = tuple(int(v) for v in exp["m_list"].split(","))
        if any(b <= a for a, b in zip(m_list, m_list[1:])):
            raise ConfigError("m_list must be strictly increasing")
    if min((M,) + m_list) < 1:
        raise ConfigError("population sizes m and m_list must be at least 1")
    n_rep = int(pick("n_rep", 1))
    if n_rep < 1:
        raise ConfigError("n_rep must be at least 1")
    sections = {name: dict(parser[name]) for name in parser.sections()
                if name != "experiment"}
    cfg = ExperimentConfig(
        kind=kind, seed=int(seed), M=M, m_list=m_list,
        algorithm=algorithm, tau=tau, tol=float(pick("tol", 1e-4)),
        max_iter=int(pick("max_iter", 100_000)),
        inner_tol=float(pick("inner_tol", 1e-6)),
        output_dir=str(pick("output_dir", ".")),
        n_rep=n_rep, sections=sections)
    cfg.solver_config()  # raises DimensionError on a bad solver setting
    return cfg


def build_game(cfg: ExperimentConfig, M: Optional[int] = None,
               seed: Optional[int] = None) -> AggregativeGame:
    M = cfg.M if M is None else M
    seed = cfg.seed if seed is None else seed
    if cfg.kind == "quadratic":
        sec = cfg.sections.get("quadratic", {})
        return build_quadratic_game(
            M, n=_option(sec, "quadratic", "n", 24, int),
            q=_option(sec, "quadratic", "q", 0.1),
            K=_option(sec, "quadratic", "k", 0.3),
            rng=substream(seed, "agents"))
    if cfg.kind == "ev":
        sec = cfg.sections.get("ev", {})
        params = generate_ev_params(
            M, n=_option(sec, "ev", "n", 24, int),
            kappa=_option(sec, "ev", "kappa", 12.0),
            K=_option(sec, "ev", "k", 0.55), rng=substream(seed, "agents"))
        return build_ev_game(params)
    if cfg.kind == "traffic":
        sec = cfg.sections.get("traffic", {})
        if "nodes_file" not in sec or "edges_file" not in sec:
            raise ConfigError("traffic runs need nodes_file and edges_file")
        bbox = None
        if "bbox" in sec:
            bbox = _option(sec, "traffic", "bbox", None, lambda v: tuple(
                float(x) for x in v.split(",")))
            if len(bbox) != 4:
                raise ConfigError("bbox needs xmin,xmax,ymin,ymax")
        net = _read(load_network, sec["nodes_file"], sec["edges_file"],
                    bbox=bbox, f=_option(sec, "traffic", "f_e", 4e-3),
                    h=_option(sec, "traffic", "h", 7200.0),
                    K=_option(sec, "traffic", "k", 1.0))
        gamma_range = (_option(sec, "traffic", "gamma_min", 0.5),
                       _option(sec, "traffic", "gamma_max", 3.5))
        return build_route_choice_game(net, M=M, gamma_range=gamma_range,
                                       rng=substream(seed, "od-pairs"))
    if cfg.kind == "custom-file":
        sec = cfg.sections.get("custom", {})
        if "file" not in sec:
            raise ConfigError("custom-file runs need [custom] file=...")
        data = _read(_load_npz, sec["file"])
        for key in ("Q", "C", "c", "lo", "hi"):
            if key not in data:
                raise ConfigError(f"custom file misses array {key!r}")
        c = np.atleast_2d(data["c"])
        M_file, n = c.shape
        cost = QuadraticCost(Q=data["Q"], C=data["C"], c=c)
        individual = BoxFamily.common(data["lo"], data["hi"], M_file)
        if "A" in data and "b" in data:
            coupling = CouplingConstraint.dense(data["A"], data["b"],
                                                M_file, n)
        else:
            coupling = CouplingConstraint.per_component_cap(
                np.full(n, np.inf), M_file)
        return AggregativeGame(M=M_file, n=n, cost=cost,
                               individual=individual, coupling=coupling)
    raise ConfigError(f"unknown kind {cfg.kind!r}")


def write_csv(path: str, header: list, rows: list) -> None:
    """Atomic CSV write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def _write_run_outputs(out_dir, game, result):
    X = result.x.as_matrix()
    rows = ((i, t, repr(float(X[i, t])))
            for i in range(game.M) for t in range(game.n))
    write_csv(os.path.join(out_dir, "equilibrium.csv"),
              ["agent", "component", "value"], rows)
    write_csv(os.path.join(out_dir, "duals.csv"), ["constraint", "lambda"],
              [(j, repr(float(v))) for j, v in enumerate(result.lam)])
    write_csv(os.path.join(out_dir, "trace.csv"), TRACE_COLUMNS,
              ([_fmt(r[key]) for key in TRACE_COLUMNS] for r in result.trace))


def _write_report(out_dir, row):
    keys = sorted(row)
    write_csv(os.path.join(out_dir, "report.csv"), keys,
              [[_fmt(row[k]) for k in keys]])


def _verify_and_report(cfg, game, flavor, X, lam, columns):
    """Verify (X, lam) and write its report.csv row plus ``columns``.  A
    verification that fails, on an infeasible X, on an unbounded set
    or on a sub-solver that does not converge, still gets a row of X's
    feasibility columns before the error propagates (exit 1); a feasible
    X's row adds a ``verification_error`` column with the message."""
    feas_tol = max(1e-6, 10.0 * cfg.tol)
    try:
        report = verify_equilibrium(game, flavor, X, lam, feas_tol=feas_tol)
    except (InfeasibleSetError, ConvergenceError) as exc:
        feas = feasibility_report(game, X, tol=feas_tol)
        row = {**feas.as_row(), **columns}
        if feas.feasible:
            row["verification_error"] = str(exc)
        _write_report(cfg.output_dir, row)
        raise
    _write_report(cfg.output_dir, {**report.as_row(), **columns})


def cmd_run(cfg: ExperimentConfig) -> int:
    game = build_game(cfg)
    try:
        result = SOLVERS[cfg.algorithm].solve(game, cfg.solver_config())
    except ConvergenceError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1
    # Written before verification, so a verification error keeps them.
    _write_run_outputs(cfg.output_dir, game, result)
    # Said before verification, which may raise on the same result.
    if not result.converged:
        print("solver hit max_iter without reaching tol", file=sys.stderr)
    _verify_and_report(cfg, game, result.flavor, result.x, result.lam, {
        "converged": int(result.converged), "algorithm": cfg.algorithm,
        "M": game.M, "seed": cfg.seed,
        "primal_updates": result.primal_updates,
        "dual_updates": result.dual_updates})
    return 0 if result.converged else 1


def _wardrop_constants(game, seed):
    """The Wardrop mapping's constants, as each Wardrop solver would
    compute them for itself at this seed."""
    return monotonicity_analysis(build_operator(game, WARDROP), seed=seed)


def _wardrop_solver_for(game, solver_cfg):
    """Wardrop solutions need strong monotonicity for the projection
    scheme; fall back to extragradient when the constant is zero."""
    rep = _wardrop_constants(game, solver_cfg.seed)
    name = "apa-wardrop" if rep.safe_alpha() > 0 else "extragradient"
    return SOLVERS[name].solve(game, solver_cfg, constants=rep)


def cmd_sweep_m(cfg: ExperimentConfig) -> int:
    m_values = cfg.m_list or (cfg.M,)
    rows = []
    failures = 0
    solver_cfg = cfg.solver_config()
    for M in m_values:
        game = build_game(cfg, M=M)
        try:
            res_n = SOLVERS["apa-nash"].solve(game, solver_cfg)
            res_w = _wardrop_solver_for(game, solver_cfg)
        except (ConvergenceError, AggeqError) as exc:
            print(f"M={M}: {exc}", file=sys.stderr)
            rows.append([M, 0, 0] + [""] * 5 + [_fmt(1.0 / np.sqrt(M))])
            failures += 1
            continue
        Xn, Xw = res_n.x.as_matrix(), res_w.x.as_matrix()
        d_x = float(np.linalg.norm((Xn - Xw).reshape(-1)))
        d_s = float(np.linalg.norm(aggregate_matrix(Xn)
                                   - aggregate_matrix(Xw)))
        constants = estimate_constants(game)
        # distance_bounds raises when alpha <= 0: no bound to compare with.
        strategy_bound = distance_bounds(constants, M)["strategy_bound"]
        sigma_bound = min(v for k, v in equilibrium_bounds(
            game, constants).items() if "sigma" in k)
        rows.append([
            M, int(res_n.converged), int(res_w.converged), _fmt(d_x),
            _fmt(d_s), _fmt(strategy_bound), _fmt(sigma_bound),
            _fmt(constants.alpha), _fmt(1.0 / np.sqrt(M))])
        if not (res_n.converged and res_w.converged):
            failures += 1
    write_csv(os.path.join(cfg.output_dir, "distances.csv"),
              ["M", "converged_nash", "converged_wardrop",
               "strategy_distance", "sigma_distance", "strategy_bound",
               "sigma_bound", "alpha", "inv_sqrt_m"], rows)
    return 1 if failures else 0


def cmd_compare(cfg: ExperimentConfig) -> int:
    """Update counts of every Wardrop solver on n_rep games.  A solver that
    needs strong monotonicity is skipped, with one stderr line and an
    empty row but no failure, on a game whose safe constant is not
    positive."""
    solver_cfg = cfg.solver_config()
    wardrop = {algo: solver for algo, solver in SOLVERS.items()
               if solver.flavor == WARDROP}
    counts = {algo: ([], [], []) for algo in wardrop}  # primal, dual, ok
    for rep in range(cfg.n_rep):
        seed = cfg.seed + rep
        game = build_game(cfg, seed=seed)
        constants = _wardrop_constants(game, seed)
        skipped = [algo for algo, solver in wardrop.items()
                   if solver.strongly_monotone
                   and constants.safe_alpha() <= 0]
        if skipped:
            print(f"rep {rep}: {', '.join(skipped)} skipped: they need a"
                  " strongly monotone mapping, estimated constant"
                  f" {constants.alpha:.3e}", file=sys.stderr)
        for algo, solver in wardrop.items():
            if algo in skipped:
                continue
            primal, dual, ok = counts[algo]
            try:
                res = solver.solve(game, replace(solver_cfg, seed=seed),
                                   constants=constants)
            except ConvergenceError as exc:
                print(f"{algo} rep {rep}: {exc}", file=sys.stderr)
                ok.append(False)
                continue
            primal.append(res.primal_updates)
            dual.append(res.dual_updates)
            ok.append(res.converged)
    rows, failures = [], 0
    for algo, (primal, dual, ok) in counts.items():
        stats = [repr(float(stat(v))) for v in (primal, dual)
                 for stat in (np.mean, np.std)] if primal else [""] * 4
        rows.append([cfg.M, algo, *stats, int(bool(primal) and all(ok)),
                     cfg.n_rep])
        failures += not all(ok)
    write_csv(os.path.join(cfg.output_dir, "iterations.csv"),
              ["M", "algorithm", "primal_updates_mean", "primal_updates_std",
               "dual_updates_mean", "dual_updates_std", "converged",
               "n_rep"], rows)
    return 1 if failures else 0


def _option(sec, section, key, default, parse=float):
    """parse(sec[key]), or parse(default) when the key is absent; a value
    that parse rejects raises ConfigError naming the section key."""
    raw = sec.get(key, default)
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw}: {exc}") from exc


def _load_npz(path) -> dict:
    """Every array of the .npz archive at path, read in full.  A file that
    is not such an archive raises ConfigError naming it; one that cannot
    be opened raises OSError."""
    # np.load leaves a path it opened open when the zip is bad, so the
    # file is opened, and closed, here.
    with open(path, "rb") as fh:
        try:
            data = np.load(fh)
            if not hasattr(data, "files"):
                raise ValueError("it holds one .npy array")
            return {key: data[key] for key in data.files}
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ConfigError(
                f"{path}: not an .npz archive: {exc}") from exc


def _read(load, *args, **kwargs):
    """load(*args, **kwargs), where an input file that cannot be opened
    raises ConfigError naming it."""
    try:
        return load(*args, **kwargs)
    except OSError as exc:
        raise ConfigError(
            f"{exc.filename}: cannot read: {exc.strerror}") from exc


def _read_indexed(path, index_cols, value_col) -> list:
    """(line, index tuple, value) per data row of a CSV with nonnegative
    integer index columns and one float column.  Unreadable files, missing
    columns and bad or negative entries raise ConfigError naming the file
    and line."""
    rows = []
    with _read(open, path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, index_cols + (value_col,), path)
        for lineno, row in enumerate(reader, start=2):
            try:
                index = tuple(int(row[c]) for c in index_cols)
                value = float(row[value_col])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad row: {exc}") from exc
            if min(index) < 0:
                raise ConfigError(f"{path}:{lineno}: negative index {index}")
            rows.append((lineno, index, value))
    return rows


def cmd_verify(cfg: ExperimentConfig, equilibrium_file: str) -> int:
    x_rows = _read_indexed(equilibrium_file, ("agent", "component"), "value")
    if not x_rows:
        raise ConfigError(f"{equilibrium_file}:2: no equilibrium rows")
    M, n = (1 + max(col) for col in zip(*(index for _, index, _ in x_rows)))
    X = np.zeros((M, n))
    seen = {}
    for lineno, (i, t), v in x_rows:
        if (i, t) in seen:
            raise ConfigError(
                f"{equilibrium_file}:{lineno}: duplicate row for agent {i},"
                f" component {t} (first on line {seen[i, t]})")
        seen[i, t] = lineno
        X[i, t] = v
    if len(x_rows) != M * n:
        i, t = next((i, t) for i in range(M) for t in range(n)
                    if (i, t) not in seen)
        raise ConfigError(
            f"{equilibrium_file}:{x_rows[-1][0]}: {len(x_rows)} rows for"
            f" M={M} agents and n={n} components, expected {M * n}; agent"
            f" {i}, component {t} is missing")
    game = build_game(cfg, M=M)
    if game.n != n:
        raise ConfigError(
            f"equilibrium file has n={n} but the configured game has"
            f" n={game.n}")
    duals_file = os.path.join(os.path.dirname(equilibrium_file), "duals.csv")
    lam = np.zeros(game.coupling.m)
    if os.path.exists(duals_file):
        for lineno, (j,), v in _read_indexed(duals_file, ("constraint",),
                                             "lambda"):
            if j >= lam.size:
                raise ConfigError(
                    f"{duals_file}:{lineno}: constraint index {j} out of"
                    f" range [0, {lam.size})")
            lam[j] = v
    _verify_and_report(cfg, game, SOLVERS[cfg.algorithm].flavor, X, lam, {})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggeq",
        description="Equilibrium experiments for aggregative games")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep-m", "compare"):
        p = sub.add_parser(name)
        _common_flags(p)
    p = sub.add_parser("verify")
    p.add_argument("equilibrium", help="path to an equilibrium.csv")
    _common_flags(p)
    return parser


def _common_flags(p):
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--algorithm", default=None, choices=tuple(SOLVERS))
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--kind", default=None, choices=KINDS)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"seed": args.seed, "algorithm": args.algorithm,
                 "tol": args.tol, "max_iter": args.max_iter,
                 "output_dir": args.out, "kind": args.kind}
    try:
        cfg = _parse_config(args.config, overrides)
    except (ConfigError, KeyError, ValueError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep-m":
            return cmd_sweep_m(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.equilibrium)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AggeqError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
