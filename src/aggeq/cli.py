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
                   QuadraticCost, aggregate_matrix, feasibility_report,
                   sum_rounding_bound)
from .operators import WARDROP, build_operator, monotonicity_analysis
from .synthetic import build_quadratic_game

KINDS = ("ev", "traffic", "quadratic", "custom-file")

# The builders draw agents from SeedSequence(seed).spawn(1)[0], which is
# the "agents" substream.
_SUBSTREAMS = {"agents": 0, "od-pairs": 1}


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named consumer of the master seed."""
    idx = _SUBSTREAMS[name]
    return np.random.default_rng(np.random.SeedSequence(seed,
                                                        spawn_key=(idx,)))


def _checked(cast, ok, need):
    """Parser of cast(raw), refused with "needs {need}" unless ok."""
    def parse(raw):
        value = cast(raw)
        if not ok(value):
            raise ValueError(f"needs {need}")
        return value
    return parse


def _one_of(names):
    return _checked(str, names.__contains__, f"one of {', '.join(names)}")


_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_real = _checked(float, np.isfinite, "a finite number")
_cap = _checked(float, lambda v: not np.isnan(v), "a number, inf for no cap")
_positive = _checked(float, lambda v: 0 < v < np.inf, "a finite number > 0")
_nonneg = _checked(float, lambda v: 0 <= v < np.inf, "a finite number >= 0")

# Every key each config section may hold: its parser, which raises
# ValueError on a value out of range, and its default (None: none; those
# of [experiment] are ExperimentConfig's fields).
CONFIG_KEYS = {
    "experiment": {
        "kind": (_one_of(KINDS), None),
        "seed": (_checked(int, lambda v: v >= 0, "an integer >= 0"), None),
        "m": (_count, None),
        "m_list": (_checked(lambda raw: tuple(map(_count, raw.split(","))),
                            lambda v: all(np.diff(v) > 0),
                            "strictly increasing values"), None),
        "algorithm": (_one_of(tuple(SOLVERS)), None),
        "tau": (lambda raw: None if raw.lower() == "auto" else _positive(raw),
                None),
        "tol": (_positive, None), "max_iter": (_count, None),
        "output_dir": (str, None), "n_rep": (_count, None)},
    "quadratic": {"n": (_count, 24), "q": (_real, 0.1), "k": (_cap, 0.3)},
    "ev": {"n": (_count, 24), "kappa": (_positive, 12.0), "k": (_cap, 0.55)},
    "traffic": {
        "nodes_file": (str, None), "edges_file": (str, None),
        "bbox": (_checked(lambda raw: tuple(map(_real, raw.split(","))),
                          lambda v: len(v) == 4, "xmin,xmax,ymin,ymax"),
                 None),
        "f_e": (_positive, 4e-3), "h": (_positive, 7200.0),
        "k": (_cap, 1.0), "gamma_min": (_positive, 0.5),
        "gamma_max": (_positive, 3.5)},
    "custom": {"file": (str, None)},
}


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(SolverConfig):
    """The [experiment] keys, the solver's settings among them, and the
    parsed values of the other sections."""
    kind: str
    m: int = 100
    m_list: tuple = ()
    algorithm: str = "apa-nash"
    output_dir: str = "."
    n_rep: int = 1
    sections: dict = field(default_factory=dict)


def _parse(section, key, raw):
    """raw parsed by the table's parser for [section] key; a key not in
    the table, or a value its parser refuses, raises ConfigError."""
    if key not in CONFIG_KEYS.get(section, {}):
        raise ConfigError(f"[{section}] {key}: no such key")
    try:
        return CONFIG_KEYS[section][key][0](raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw}: {exc}") from exc


def _section(sections, name) -> dict:
    """[name]'s parsed values over the table's defaults."""
    return {**{key: default for key, (_, default)
               in CONFIG_KEYS.get(name, {}).items()},
            **sections.get(name, {})}


def _parse_config(path: Optional[str], overrides: dict) -> ExperimentConfig:
    """The config file at path, every section of it, and the flag values
    in overrides, each value parsed by the table before any solve."""
    parser = configparser.ConfigParser()
    if path is not None:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
    sections = {name: {key: _parse(name, key, raw)
                       for key, raw in parser[name].items()}
                for name in parser.sections()}
    exp = sections.pop("experiment", {})
    exp.update({key: _parse("experiment", key, raw)
                for key, raw in overrides.items() if raw is not None})
    for key in ("kind", "seed"):
        if key not in exp:
            raise ConfigError(f"[experiment] {key}: required (config key"
                              f" or --{key})")
    for key in ("m", "m_list"):
        if exp["kind"] == "custom-file" and key in exp:
            raise ConfigError(f"[experiment] {key}: not for kind custom-file,"
                              " whose M is its file's")
    traffic = _section(sections, "traffic")
    if traffic["gamma_max"] < traffic["gamma_min"]:
        raise ConfigError(f"[traffic] gamma_max = {traffic['gamma_max']:g}:"
                          f" needs a number >= gamma_min ="
                          f" {traffic['gamma_min']:g}")
    return ExperimentConfig(**exp, sections=sections)


def build_game(cfg: ExperimentConfig, M: Optional[int] = None,
               seed: Optional[int] = None) -> AggregativeGame:
    M = cfg.m if M is None else M
    seed = cfg.seed if seed is None else seed
    sec = _section(cfg.sections, cfg.kind.removesuffix("-file"))
    if cfg.kind == "quadratic":
        return build_quadratic_game(M, n=sec["n"], q=sec["q"], K=sec["k"],
                                    seed=seed)
    if cfg.kind == "ev":
        return build_ev_game(generate_ev_params(
            M, seed=seed, n=sec["n"], kappa=sec["kappa"], K=sec["k"]))
    if cfg.kind == "traffic":
        if sec["nodes_file"] is None or sec["edges_file"] is None:
            raise ConfigError("traffic runs need nodes_file and edges_file")
        net = _read(load_network, sec["nodes_file"], sec["edges_file"],
                    bbox=sec["bbox"], f=sec["f_e"], h=sec["h"], K=sec["k"])
        return build_route_choice_game(
            net, M=M, gamma_range=(sec["gamma_min"], sec["gamma_max"]),
            rng=substream(seed, "od-pairs"))
    if cfg.kind == "custom-file":
        if sec["file"] is None:
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
            _check_dense_coupling(coupling, individual)
        else:
            coupling = CouplingConstraint.per_component_cap(
                np.full(n, np.inf), M_file)
        return AggregativeGame(M=M_file, n=n, cost=cost,
                               individual=individual, coupling=coupling)
    raise ConfigError(f"unknown kind {cfg.kind!r}")


def _check_dense_coupling(coupling, boxes) -> None:
    """Raise InfeasibleSetError when some row's minimum of A x over the
    boxes, sum_t min(a_t lo_t, a_t hi_t) without the zero a_t (an infinite
    bound then gives no nan), exceeds b beyond its rounding bound."""
    A = coupling.A
    low = np.minimum(*(np.multiply(A, bound.reshape(-1), where=A != 0,
                                   out=np.zeros_like(A))
                       for bound in boxes.bounds()))
    excess = low.sum(axis=1) - coupling.b
    if np.any(excess > sum_rounding_bound(low)):
        j = int(np.argmax(excess))
        raise InfeasibleSetError(
            f"coupling row {j}: A x exceeds b = {coupling.b[j]!r} by at"
            f" least {excess[j]!r} on every profile in the boxes")


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
        result = SOLVERS[cfg.algorithm].solve(game, cfg)
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


def _wardrop_solver_for(game, cfg):
    """Wardrop solutions need strong monotonicity for the projection
    scheme; fall back to extragradient when the constant is zero."""
    rep = _wardrop_constants(game, cfg.seed)
    name = "apa-wardrop" if rep.safe_alpha() > 0 else "extragradient"
    return SOLVERS[name].solve(game, cfg, constants=rep)


def cmd_sweep_m(cfg: ExperimentConfig) -> int:
    m_values = cfg.m_list or (cfg.m,)
    rows = []
    failures = 0
    for M in m_values:
        game = build_game(cfg, M=M)
        M = game.M  # a custom-file game's, whatever cfg.m says
        try:
            res_n = SOLVERS["apa-nash"].solve(game, cfg)
            res_w = _wardrop_solver_for(game, cfg)
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
                res = solver.solve(game, replace(cfg, seed=seed),
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
        rows.append([game.M, algo, *stats, int(bool(primal) and all(ok)),
                     cfg.n_rep])
        failures += not all(ok)
    write_csv(os.path.join(cfg.output_dir, "iterations.csv"),
              ["M", "algorithm", "primal_updates_mean", "primal_updates_std",
               "dual_updates_mean", "dual_updates_std", "converged",
               "n_rep"], rows)
    return 1 if failures else 0


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


def _read_array(path, columns, parse, shape=None) -> np.ndarray:
    """The array a CSV lists by row, integer index columns >= 0 then a
    value column read by parse, of shape ``shape`` or else one past each
    index's largest entry.  A bad file, row or index, or an entry without
    a row, raises ConfigError naming the file and line."""
    *index_cols, value_col = columns

    def entry(index):  # as "agent 2, component 0"
        return ", ".join(f"{c} {k}" for c, k in zip(index_cols, index))

    values, lines = {}, {}
    with _read(open, path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, columns, path)
        for lineno, row in enumerate(reader, start=2):
            try:
                index = tuple(int(row[c]) for c in index_cols)
                values[index] = parse(row[value_col])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad row"
                                  f" {list(row.values())}: {exc}") from exc
            if not all(0 <= k < s for k, s in
                       zip(index, shape or (np.inf,) * len(index))):
                raise ConfigError(f"{path}:{lineno}: index out of range,"
                                  f" {entry(index)}")
            if index in lines:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate row for {entry(index)}"
                    f" (first on line {lines[index]})")
            lines[index] = lineno
    if shape is None and not values:
        raise ConfigError(f"{path}:2: no rows")
    out = np.zeros(shape or tuple(1 + max(col) for col in zip(*values)))
    for index, value in values.items():
        out[index] = value
    if len(values) != out.size:
        missing = next(i for i in np.ndindex(out.shape) if i not in values)
        raise ConfigError(
            f"{path}:{max(lines.values(), default=2)}: {len(values)} rows,"
            f" expected {out.size} for shape {out.shape}; {entry(missing)}"
            " has none")
    return out


def cmd_verify(cfg: ExperimentConfig, equilibrium_file: str) -> int:
    """Verify equilibrium.csv and the duals.csv beside it, whose M and n
    must be the configured game's, and write report.csv."""
    X = _read_array(equilibrium_file, ("agent", "component", "value"),
                    _real)
    game = build_game(cfg, M=X.shape[0])
    if (game.M, game.n) != X.shape:
        raise ConfigError(
            f"equilibrium file has M={X.shape[0]}, n={X.shape[1]} but the"
            f" configured game has M={game.M}, n={game.n}")
    duals_file = os.path.join(os.path.dirname(equilibrium_file), "duals.csv")
    lam = _read_array(duals_file, ("constraint", "lambda"), _nonneg,
                      (game.coupling.m,))
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
    p.add_argument("--seed", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--algorithm", default=None, choices=tuple(SOLVERS))
    p.add_argument("--tol", default=None)
    p.add_argument("--max-iter", default=None)
    p.add_argument("--kind", default=None, choices=KINDS)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"seed": args.seed, "algorithm": args.algorithm,
                 "tol": args.tol, "max_iter": args.max_iter,
                 "output_dir": args.out, "kind": args.kind}
    try:
        cfg = _parse_config(args.config, overrides)
    except (ValueError, configparser.Error) as exc:
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
