"""Command line front end: declarative experiment configs to report files.

Usage::

    janossy-kit run config.json --out results [--seed N] [--threads N]
                                [--budget N]

The config is a single JSON object::

    {
      "model":   {"variant": "...", ...},               # see models module
      "windows": [{"intervals": [[0.5, null]]}, ...],   # optional, per floor
      "task":    {"name": "correlations" | "janossy" | "gap" | "extremes"
                          | "verify", ...},
      "output":  {"formats": ["json", "csv"]},          # optional
      "tolerances": {"verify": 1e-10}                   # optional overrides
    }

The config is validated fully before any output path is created; an invalid
config therefore leaves no partial files behind.  All files are written
atomically (temp file then rename) and contain no timing or host details, so
a rerun with the same config and seed reproduces them byte for byte.  Wall
times are printed to stdout only.

Exit codes: 0 success, 1 a verify suite found a tolerance violation,
2 invalid config, 3 numerical failure (singular operator or a probability
with an imaginary residue), 4 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .chain_ensemble import ChainEnsemble, partition_function
from .errors import BudgetExceededError, ConfigError, SingularOperatorError
from .janossy import (
    count_distribution,
    janossy_density,
    janossy_kernel_explicit,
    kth_extreme_distribution,
)
from .kernels import (
    CSV_SCHEMA,
    KIND_JANOSSY,
    atomic_open,
    complex_pair,
    correlation_function,
    correlation_kernel,
    export_kernel_csv,
    fredholm_det,
    kernel_to_json,
    restrict,
)
from .measure_space import WindowFamily, _is_int, window_family_from_json
from .models import ChainModelSpec, build_model
from .oracle import DEFAULT_BUDGET, real_probability
from .verify import DEFAULT_INSTANCES, DEFAULT_SEED, SUITES, verify_suite

REPORT_SCHEMA = "jk-report-1"

TASKS = ("correlations", "janossy", "gap", "extremes", "verify")


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Validated experiment description, structurally checked up front."""

    task: dict
    model: ChainModelSpec | None
    windows_doc: list | None
    formats: tuple[str, ...]
    tolerances: dict
    raw: dict

    @staticmethod
    def from_json(doc) -> ExperimentConfig:
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - {"model", "windows", "task", "output",
                              "tolerances"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

        task = doc.get("task")
        if not isinstance(task, dict) or "name" not in task:
            raise ConfigError("config needs a 'task' object with a 'name'")
        name = task["name"]
        if name not in TASKS:
            raise ConfigError(
                f"unknown task {name!r}; known: {', '.join(TASKS)}"
            )

        model = None
        if "model" in doc:
            model = ChainModelSpec.from_json(doc["model"])
        elif name != "verify":
            raise ConfigError(f"task {name!r} needs a 'model' section")

        windows_doc = doc.get("windows")
        if windows_doc is not None and not isinstance(windows_doc, list):
            raise ConfigError("'windows' must be a list, one entry per floor")
        if name in ("janossy", "gap") and windows_doc is None:
            raise ConfigError(f"task {name!r} needs a 'windows' section")

        output = doc.get("output", {})
        if not isinstance(output, dict):
            raise ConfigError("'output' must be an object")
        formats = tuple(output.get("formats", ["json"]))
        bad = [f for f in formats if f not in ("json", "csv")]
        if bad:
            raise ConfigError(f"unknown output formats: {bad}")

        tolerances = doc.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ConfigError("'tolerances' must be an object")
        for key, val in tolerances.items():
            if not _is_number(val) or val <= 0:
                raise ConfigError(
                    f"tolerance {key!r} must be a positive finite number")

        _validate_task(name, task)
        return ExperimentConfig(task=task, model=model,
                                windows_doc=windows_doc, formats=formats,
                                tolerances=dict(tolerances), raw=doc)


def _validate_task(name: str, task: dict) -> None:
    """Structural checks that need no model, so bad configs fail early."""
    if name == "correlations":
        sets = task.get("point_sets")
        if not isinstance(sets, list) or not sets:
            raise ConfigError("correlations task needs nonempty 'point_sets'")
        for ps in sets:
            _check_point_list(ps)
    elif name == "janossy":
        sets = task.get("point_sets", [])
        if not isinstance(sets, list):
            raise ConfigError("'point_sets' must be a list")
        for ps in sets:
            _check_point_list(ps)
        counts = task.get("counts", [])
        if not isinstance(counts, list):
            raise ConfigError("'counts' must be a list of count vectors")
        for vec in counts:
            if not isinstance(vec, list) or not all(map(_is_int, vec)):
                raise ConfigError(f"bad count vector {vec!r}")
    elif name == "extremes":
        if not _is_int(task.get("floor", 1)):
            raise ConfigError("'floor' must be an integer")
        if not _is_int(task.get("k", 1)):
            raise ConfigError("'k' must be an integer")
        grid = task.get("thresholds")
        if (not isinstance(grid, list) or not grid
                or not all(_is_number(s) for s in grid)):
            raise ConfigError(
                "extremes task needs a list of finite numeric 'thresholds'")
    elif name == "verify":
        suite = task.get("suite")
        if suite not in SUITES:
            raise ConfigError(
                f"verify task needs 'suite' in {sorted(SUITES)}"
            )
        for key in ("instances", "seed"):
            if key in task and (not _is_int(task[key]) or task[key] < 0):
                raise ConfigError(f"'{key}' must be a nonnegative integer")


def _is_number(value) -> bool:
    """A finite JSON number; booleans, NaN and infinities are not."""
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _check_point_list(ps) -> None:
    if not isinstance(ps, list):
        raise ConfigError(f"point set must be a list, got {ps!r}")
    for p in ps:
        if (not isinstance(p, list) or len(p) != 2
                or not all(_is_int(c) for c in p)):
            raise ConfigError(
                f"each point must be a [floor, node] integer pair, got {p!r}"
            )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    """Everything a run produced, minus anything nondeterministic."""

    task: str
    passed: bool
    results: dict
    config: dict
    warnings: list = field(default_factory=list)
    files: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "task": self.task,
            "passed": self.passed,
            "results": self.results,
            "config": self.config,
            "warnings": list(self.warnings),
            "files": sorted(self.files),
        }


def _write_atomic(path: str, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _write_json(path: str, doc: dict) -> None:
    _write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _as_points(ps) -> list[tuple[int, int]]:
    return [(int(p[0]), int(p[1])) for p in ps]


def _task_correlations(cfg: ExperimentConfig, ens: ChainEnsemble,
                       wf: WindowFamily | None, out_dir: str,
                       opts) -> RunReport:
    kernel = correlation_kernel(ens)
    values = []
    for ps in cfg.task["point_sets"]:
        points = _as_points(ps)
        values.append({"points": [[l, x] for l, x in points],
                       "value": complex_pair(
                           correlation_function(kernel, points))})
    results = {
        "kind": kernel.kind,
        "floors": ens.floors,
        "particles_per_floor": ens.n,
        "partition_function": complex_pair(partition_function(ens)),
        "values": values,
    }
    report = RunReport("correlations", True, results, cfg.raw,
                       warnings=list(kernel.warnings))
    if "csv" in cfg.formats:
        rows = ["# " + CSV_SCHEMA + " correlations",
                "set,points,re,im"]
        for i, rec in enumerate(values):
            pts = ";".join(f"{l}:{x}" for l, x in rec["points"])
            rows.append(f"{i},{pts},{rec['value'][0]!r},{rec['value'][1]!r}")
        path = os.path.join(out_dir, "correlations.csv")
        _write_atomic(path, "\n".join(rows) + "\n")
        report.files.append("correlations.csv")
    if cfg.task.get("dump_kernel"):
        path = os.path.join(out_dir, "kernel.csv")
        export_kernel_csv(kernel, path)
        report.files.append("kernel.csv")
        _write_json(os.path.join(out_dir, "kernel.json"),
                    kernel_to_json(kernel))
        report.files.append("kernel.json")
    return report


def _task_janossy(cfg: ExperimentConfig, ens: ChainEnsemble,
                  wf: WindowFamily, out_dir: str, opts) -> RunReport:
    jk = janossy_kernel_explicit(ens, wf)
    densities = []
    for ps in cfg.task.get("point_sets", []):
        points = _as_points(ps)
        densities.append({"points": [[l, x] for l, x in points],
                          "value": complex_pair(janossy_density(jk, points))})
    count_rows = []
    if cfg.task.get("counts"):
        law = count_distribution(ens, wf, budget=opts.budget)
        for vec in cfg.task["counts"]:
            count_rows.append({"counts": [int(k) for k in vec],
                               "probability": real_probability(
                                   law[tuple(vec)])})
    results = {
        "kind": KIND_JANOSSY,
        "windows": wf.to_json(),
        "all_empty_probability": complex_pair(jk.const),
        "densities": densities,
        "count_probabilities": count_rows,
    }
    return RunReport("janossy", True, results, cfg.raw,
                     warnings=list(jk.warnings))


def _task_gap(cfg: ExperimentConfig, ens: ChainEnsemble,
              wf: WindowFamily, out_dir: str, opts) -> RunReport:
    kernel = correlation_kernel(ens)
    det = fredholm_det(restrict(kernel, wf))
    results = {
        "windows": wf.to_json(),
        "gap_probability": complex_pair(det),
    }
    warnings = list(kernel.warnings)
    # second route when the window construction is well posed; degenerate
    # windows (for example full floors) legitimately have no closed form
    try:
        jk = janossy_kernel_explicit(ens, wf)
    except SingularOperatorError as exc:
        results["determinant_ratio"] = None
        warnings.append(f"no closed-form route: {exc}")
    else:
        results["determinant_ratio"] = complex_pair(jk.const)
        results["route_abs_difference"] = float(abs(jk.const - det))
        warnings.extend(jk.warnings)
    return RunReport("gap", True, results, cfg.raw, warnings=warnings)


def _task_extremes(cfg: ExperimentConfig, ens: ChainEnsemble,
                   wf: WindowFamily | None, out_dir: str,
                   opts) -> RunReport:
    floor = int(cfg.task.get("floor", 1))
    k = int(cfg.task.get("k", 1))
    grid = [float(s) for s in cfg.task["thresholds"]]
    curve = kth_extreme_distribution(ens, floor, k, grid)
    points = [{"s": pt.s, "count_probs": list(pt.count_probs),
               "prob_ge": pt.prob_ge, "cdf": pt.cdf} for pt in curve]
    results = {"floor": floor, "k": k, "points": points}
    report = RunReport("extremes", True, results, cfg.raw)
    if "csv" in cfg.formats:
        header = ",".join(["s", "prob_ge", "cdf"]
                          + [f"p_count_{j}" for j in range(k)])
        rows = [f"# {CSV_SCHEMA} extremes floor={floor} k={k}", header]
        for pt in curve:
            cells = [repr(pt.s), repr(pt.prob_ge), repr(pt.cdf)]
            cells += [repr(c) for c in pt.count_probs]
            rows.append(",".join(cells))
        path = os.path.join(out_dir, "extremes.csv")
        _write_atomic(path, "\n".join(rows) + "\n")
        report.files.append("extremes.csv")
    return report


def _task_verify(cfg: ExperimentConfig, ens: ChainEnsemble | None,
                 wf: WindowFamily | None, out_dir: str,
                 opts) -> RunReport:
    task = cfg.task
    suite = task["suite"]
    seed = task.get("seed", DEFAULT_SEED) if opts.seed is None else opts.seed
    instances = int(task.get("instances", DEFAULT_INSTANCES))
    rep = verify_suite(suite, instances=instances, seed=int(seed),
                       budget=opts.budget, threads=opts.threads)
    tol_override = cfg.tolerances.get(suite, cfg.tolerances.get("verify"))
    if tol_override is not None:
        rep.rejudge(float(tol_override))
    for line in rep.pass_lines():
        print(line)
    return RunReport("verify", rep.passed, rep.to_json(), cfg.raw)


_RUNNERS = {
    "correlations": _task_correlations,
    "janossy": _task_janossy,
    "gap": _task_gap,
    "extremes": _task_extremes,
    "verify": _task_verify,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass
class _Options:
    seed: int | None
    threads: int
    budget: int


def run_experiment(config_doc, out_dir: str, seed: int | None = None,
                   threads: int = 1, budget: int = DEFAULT_BUDGET) -> RunReport:
    """Validate, run, and write one experiment; returns the report.

    Raises ConfigError before creating `out_dir` when the config, the seed,
    ``threads`` or ``budget`` is invalid.
    """
    if seed is not None and (not _is_int(seed) or seed < 0):
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    for name, value in (("threads", threads), ("budget", budget)):
        if not _is_int(value) or value < 1:
            raise ConfigError(f"{name} must be a positive integer, "
                              f"got {value!r}")
    cfg = ExperimentConfig.from_json(config_doc)
    opts = _Options(seed=seed, threads=int(threads), budget=int(budget))

    ens = wf = None
    if cfg.model is not None:
        spec = cfg.model
        if (seed is not None and spec.variant == "random"
                and "seed" in spec.params):
            spec = ChainModelSpec(spec.variant,
                                  dict(spec.params, seed=int(seed)))
        ens = build_model(spec)
        if cfg.task["name"] != "verify":
            wf = _check_task_dimensions(cfg, ens, opts.budget)

    os.makedirs(out_dir, exist_ok=True)
    report = _RUNNERS[cfg.task["name"]](cfg, ens, wf, out_dir, opts)
    _write_json(os.path.join(out_dir, "report.json"), report.to_json())
    report.files.append("report.json")
    return report


def _check_task_dimensions(cfg: ExperimentConfig, ens: ChainEnsemble,
                           budget: int) -> WindowFamily | None:
    """Windows, point sets, count vectors and extremes floor and k must fit
    the built model.

    Returns the window family of a janossy or gap task, None for the other
    tasks.  A kernel dump writes (M P)^2 CSV rows; more than ``budget`` is
    refused.
    """
    name = cfg.task["name"]
    if cfg.task.get("dump_kernel"):
        rows = (ens.floors * ens.space.size) ** 2
        if rows > budget:
            raise BudgetExceededError(rows, budget)
    for vec in cfg.task.get("counts", []) or []:
        try:
            ens.check_counts(vec)
        except ValueError as exc:
            raise ConfigError(f"bad count vector {vec!r}: {exc}") from exc
    if name == "extremes":
        if not 1 <= cfg.task.get("floor", 1) <= ens.floors:
            raise ConfigError(f"'floor' must lie in 1..{ens.floors}")
        if not 1 <= cfg.task.get("k", 1) <= ens.n:
            raise ConfigError(f"'k' must lie in 1..{ens.n}")
    wf = None
    if name in ("janossy", "gap"):
        try:
            wf = ens.check_windows(
                window_family_from_json(ens.space, cfg.windows_doc))
        except ValueError as exc:
            raise ConfigError(f"bad windows section: {exc}") from exc
    for ps in cfg.task.get("point_sets", []) or []:
        try:
            if name == "janossy":
                ens.check_window_points(wf, _as_points(ps))
            else:
                ens.check_points(_as_points(ps))
        except ValueError as exc:
            raise ConfigError(f"bad point set {ps!r}: {exc}") from exc
    return wf


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="janossy-kit",
        description="Determinantal chain ensembles: correlation kernels, "
                    "window statistics, and self-verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--out", default="jk-out",
                       help="output directory (default: jk-out)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the seed of verify tasks and random "
                            "models")
    run_p.add_argument("--threads", type=int, default=1,
                       help="worker threads for verify suites")
    run_p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="configuration cap for brute-force enumeration, "
                            "count-probability laws and kernel dumps")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        report = run_experiment(raw, args.out, seed=args.seed,
                                threads=args.threads, budget=args.budget)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: enumeration budget exceeded: {exc}", file=sys.stderr)
        return 4
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # SingularOperatorError is an ArithmeticError, as are the
        # imaginary-residue failures of probabilities
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - started

    for w in report.warnings:
        print(f"warning: {w}")
    print(f"task {report.task}: {'ok' if report.passed else 'FAILED'} "
          f"({elapsed:.2f}s wall, not recorded in outputs)")
    print(f"wrote {', '.join(sorted(report.files))} to {args.out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
