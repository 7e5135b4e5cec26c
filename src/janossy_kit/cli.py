"""Command line front end: declarative experiment configs to report files.

Usage::

    janossy-kit run config.json --out results [--seed N] [--threads N]
                                [--budget N]

The config is a single JSON object::

    {
      "model":   {"variant": "...", ...},               # see models module
      "windows": [{"intervals": [[0.5, null]]}, ...],   # gap, janossy
      "task":    {"name": "correlations" | "janossy" | "gap" | "extremes"
                          | "verify", ...},
      "output":  {"formats": ["json", "csv"]},          # optional
      "tolerances": {"verify": 1e-10}                   # optional overrides
    }

Parsing checks the config's structure, and refuses a section or output
format the task does not read (``SECTIONS``); the task fields are then
checked in one pass against the built model (``_check_task``), still before
any output path is created, so an invalid config leaves no partial files
behind.  All files are written atomically (temp file then rename) and
contain no timing or host details, so a rerun with the same config and seed
reproduces them byte for byte.  Wall times are printed to stdout only.

Exit codes: 0 success, 1 a verify suite found a tolerance violation,
2 invalid config, 3 numerical failure (singular operator or a probability
with an imaginary residue), 4 budget exceeded (oracle state chain, count
law or kernel dump, or an allocation that numpy refuses).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .chain_ensemble import ChainEnsemble, partition_function
from .errors import BudgetExceededError, ConfigError
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
from .measure_space import _is_int, _is_number, window_family_from_json
from .models import ChainModelSpec, build_model
from .oracle import DEFAULT_BUDGET, real_probability
from .verify import DEFAULT_INSTANCES, DEFAULT_SEED, SUITES, verify_suite

REPORT_SCHEMA = "jk-report-1"

# the task fields each runner reads, besides "name"
TASKS = {"correlations": {"point_sets", "dump_kernel"},
         "janossy": {"point_sets", "counts"}, "gap": set(),
         "extremes": {"floor", "k", "thresholds"},
         "verify": {"suite", "instances", "seed"}}

# the config sections each runner reads besides "task" and "output", with
# "csv" where it writes a CSV file; "model" and "windows" are required
# where read, and a section or format a task does not read is refused
SECTIONS = {"correlations": {"model", "csv"},
            "janossy": {"model", "windows"}, "gap": {"model", "windows"},
            "extremes": {"model", "csv"}, "verify": {"tolerances"}}


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
        if not isinstance(name, str) or name not in TASKS:
            raise ConfigError(
                f"unknown task {name!r}; known: {', '.join(TASKS)}"
            )

        output = doc.get("output", {})
        if not isinstance(output, dict):
            raise ConfigError("'output' must be an object")
        if set(output) - {"formats"}:
            raise ConfigError(f"'output' reads only 'formats', got "
                              f"{sorted(output)}")
        formats = output.get("formats", ["json"])
        if not isinstance(formats, list):
            raise ConfigError("'output.formats' must be a list")
        bad = [f for f in formats if f not in ("json", "csv")]
        if bad:
            raise ConfigError(f"unknown output formats: {bad}")

        given = set(doc) & {"model", "windows", "tolerances"}
        unread = (given | {"csv"} & set(formats)) - SECTIONS[name]
        if unread:
            raise ConfigError(f"task {name!r} reads no {sorted(unread)}")
        missing = sorted({"model", "windows"} & SECTIONS[name] - given)
        if missing:
            raise ConfigError(f"task {name!r} needs a {missing[0]!r} section")

        model = None
        if "model" in doc:
            model = ChainModelSpec.from_json(doc["model"])
        windows_doc = doc.get("windows")
        if windows_doc is not None and not isinstance(windows_doc, list):
            raise ConfigError("'windows' must be a list, one entry per floor")

        tolerances = doc.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ConfigError("'tolerances' must be an object")
        for key, val in tolerances.items():
            if key not in ("verify", task.get("suite")):
                raise ConfigError(f"tolerance {key!r} is neither 'verify' "
                                  "nor the task's suite")
            if not _is_number(val) or val <= 0:
                raise ConfigError(
                    f"tolerance {key!r} must be a positive finite number")

        return ExperimentConfig(task=task, model=model,
                                windows_doc=windows_doc,
                                formats=tuple(formats),
                                tolerances=dict(tolerances), raw=doc)


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

def _task_correlations(cfg: ExperimentConfig, ens: ChainEnsemble,
                       checked: dict, out_dir: str, opts) -> RunReport:
    kernel = correlation_kernel(ens)
    values = [{"points": [[l, x] for l, x in points],
               "value": complex_pair(correlation_function(kernel, points))}
              for points in checked["point_sets"]]
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
                  checked: dict, out_dir: str, opts) -> RunReport:
    wf = checked["windows"]
    jk = janossy_kernel_explicit(ens, wf)
    densities = [{"points": [[l, x] for l, x in points],
                  "value": complex_pair(janossy_density(jk, points))}
                 for points in checked["point_sets"]]
    count_rows = []
    if checked["counts"]:
        law = count_distribution(ens, wf, budget=opts.budget)
        count_rows = [{"counts": vec,
                       "probability": real_probability(law[tuple(vec)])}
                      for vec in checked["counts"]]
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
              checked: dict, out_dir: str, opts) -> RunReport:
    wf = checked["windows"]
    kernel = correlation_kernel(ens)
    results = {
        "windows": wf.to_json(),
        "gap_probability": complex_pair(fredholm_det(restrict(kernel, wf))),
    }
    return RunReport("gap", True, results, cfg.raw,
                     warnings=list(kernel.warnings))


def _task_extremes(cfg: ExperimentConfig, ens: ChainEnsemble,
                   checked: dict, out_dir: str, opts) -> RunReport:
    floor, k = checked["floor"], checked["k"]
    curve = kth_extreme_distribution(ens, floor, k, checked["thresholds"])
    points = [{"s": pt.s, "count_probs": list(pt.count_probs),
               "prob_ge": pt.prob_ge, "cdf": pt.cdf} for pt in curve]
    results = {"floor": floor, "k": k, "points": points}
    report = RunReport("extremes", True, results, cfg.raw)
    if "csv" in cfg.formats:
        # count_probs holds p_0..p_k: k + 1 columns
        header = ",".join(["s", "prob_ge", "cdf"]
                          + [f"p_count_{j}" for j in range(k + 1)])
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
                 checked: dict, out_dir: str, opts) -> RunReport:
    task = cfg.task
    suite = task["suite"]
    seed = task.get("seed", DEFAULT_SEED) if opts.seed is None else opts.seed
    instances = int(task.get("instances", DEFAULT_INSTANCES))
    rep = verify_suite(suite, instances=instances, seed=int(seed),
                       budget=opts.budget, threads=opts.threads,
                       tolerance=cfg.tolerances.get(
                           suite, cfg.tolerances.get("verify")))
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


def _check_task(cfg: ExperimentConfig, ens: ChainEnsemble | None,
                budget: int) -> dict:
    """The task fields, checked against the built model; what the runner
    reads.

    Windows, point sets, count vectors and the extremes floor go through
    the ensemble's own ``check_*`` methods; this pass adds only what the
    ensemble cannot judge.  A field the task's runner does not read
    (``TASKS``) is refused.  A verify task has no model: only its suite
    fields are checked.  ``dump_kernel`` must be a boolean; a kernel dump
    writes (M P)^2 CSV rows, and more than ``budget`` is refused.
    Malformed fields raise LookupError, TypeError or ValueError, which
    ``run_experiment`` reports as a ConfigError.
    """
    task, name = cfg.task, cfg.task["name"]
    unread = set(task) - TASKS[name] - {"name"}
    if unread:
        raise ConfigError(f"{name} task reads no {sorted(unread)}")
    if name == "verify":
        if task.get("suite") not in SUITES:
            raise ConfigError(f"verify task needs 'suite' in {sorted(SUITES)}")
        for key in ("instances", "seed"):
            if key in task and (not _is_int(task[key]) or task[key] < 0):
                raise ConfigError(f"'{key}' must be a nonnegative integer")
        return {}
    if name == "extremes":
        k, grid = task.get("k", 1), task.get("thresholds")
        if not _is_int(k) or not 1 <= k <= ens.n:
            raise ConfigError(f"'k' must be an integer in 1..{ens.n}")
        if (not isinstance(grid, list) or not grid
                or not all(_is_number(s) for s in grid)):
            raise ConfigError(
                "extremes task needs a list of finite numeric 'thresholds'")
        return {"floor": ens.check_floor(task.get("floor", 1), "'floor'"),
                "k": int(k), "thresholds": [float(s) for s in grid]}
    if name == "correlations":
        sets = task.get("point_sets")
        if not isinstance(sets, list) or not sets:
            raise ConfigError("correlations task needs nonempty 'point_sets'")
        checked = {"point_sets": [ens.check_points(ps) for ps in sets]}
        if not isinstance(task.get("dump_kernel", False), bool):
            raise ConfigError("'dump_kernel' must be true or false")
        if task.get("dump_kernel"):
            rows = (ens.floors * ens.space.size) ** 2
            if rows > budget:
                raise BudgetExceededError(rows, budget,
                                          "rows for a kernel dump")
        return checked
    wf = ens.check_windows(window_family_from_json(ens.space, cfg.windows_doc))
    if name == "gap":
        return {"windows": wf}
    sets, counts = task.get("point_sets", []), task.get("counts", [])
    if not isinstance(sets, list) or not isinstance(counts, list):
        raise ConfigError("'point_sets' and 'counts' must be lists")
    return {"windows": wf,
            "point_sets": [ens.check_window_points(wf, ps) for ps in sets],
            "counts": [ens.check_counts(vec) for vec in counts]}


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

    Raises ConfigError when the config, the seed, ``threads`` or
    ``budget`` is invalid.  ``out_dir`` is made at the first file write,
    so a run that fails before writing leaves no directory.
    """
    if seed is not None and (not _is_int(seed) or seed < 0):
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    for flag, value in (("threads", threads), ("budget", budget)):
        if not _is_int(value) or value < 1:
            raise ConfigError(f"{flag} must be a positive integer, "
                              f"got {value!r}")
    cfg = ExperimentConfig.from_json(config_doc)
    opts = _Options(seed=seed, threads=int(threads), budget=int(budget))

    ens = None
    if cfg.model is not None:
        spec = cfg.model
        if (seed is not None and spec.variant == "random"
                and "seed" in spec.params):
            spec = ChainModelSpec(spec.variant,
                                  dict(spec.params, seed=int(seed)))
        ens = build_model(spec)
    name = cfg.task["name"]
    try:
        checked = _check_task(cfg, ens, opts.budget)
    except (ConfigError, np.linalg.LinAlgError):
        raise  # LinAlgError is a ValueError, but a numerical failure
    except (LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} task: {exc}") from exc

    report = _RUNNERS[name](cfg, ens, checked, out_dir, opts)
    _write_json(os.path.join(out_dir, "report.json"), report.to_json())
    report.files.append("report.json")
    return report


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
                       help="entry cap for the brute-force oracle's state "
                            "chain, count-probability laws and kernel dumps")
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
    except (BudgetExceededError, MemoryError) as exc:
        # MemoryError: numpy refused an allocation (for example a
        # quadrature rule of too high an order)
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
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
