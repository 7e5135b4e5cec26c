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

``TASKS`` holds each task's rules: the task fields and config sections
it reads, its checker and its runner.  ``_check_config`` checks the parsed
object's structure, ``models.build_model`` builds its model object, and
``_check_task`` checks the task fields against that model, all before any
output path is created, so an invalid config leaves no partial files.
All files are written atomically (temp file then rename) and contain no
timing or host details, so a rerun with the same config and seed
reproduces them byte for byte.  Wall times are printed to stdout only.

Exit codes: 0 success, 1 a verify suite found a tolerance violation,
2 invalid or unreadable config (not UTF-8, say) or outputs that cannot be
written (``--out`` names an existing file, say), 3 numerical failure
(singular operator or a probability with an imaginary residue), 4 budget
exceeded (oracle state chain, count law or kernel dump, or an allocation
that numpy refuses).
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
    KIND_JANOSSY,
    atomic_open,
    complex_pair,
    correlation_function,
    correlation_kernel,
    export_kernel_csv,
    fredholm_det,
    kernel_to_json,
    restrict,
    write_csv,
)
from .measure_space import _is_int, _is_number, window_family_from_json
from .models import build_model
from .oracle import DEFAULT_BUDGET, real_probability
from .verify import DEFAULT_INSTANCES, DEFAULT_SEED, SUITES, verify_suite

REPORT_SCHEMA = "jk-report-1"


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


def _write_json(path: str, doc: dict) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# tasks: each checker reads the config and the built model and returns the
# task-specific part of what its runner reads (see _check_task)
# ---------------------------------------------------------------------------

def _check_correlations(doc: dict, ens: ChainEnsemble, seed: int | None,
                        budget: int) -> dict:
    """A kernel dump writes (M P)^2 CSV rows: more than ``budget`` is
    refused."""
    task = doc["task"]
    sets, dump = task.get("point_sets"), task.get("dump_kernel", False)
    if not isinstance(sets, list) or not sets:
        raise ConfigError("correlations task needs nonempty 'point_sets'")
    points = [ens.check_points(ps) for ps in sets]
    if not isinstance(dump, bool):
        raise ConfigError("'dump_kernel' must be true or false")
    rows = (ens.floors * ens.space.size) ** 2
    if dump and rows > budget:
        raise BudgetExceededError(rows, budget, "rows for a kernel dump")
    return {"point_sets": points, "dump_kernel": dump}


def _task_correlations(doc: dict, ens: ChainEnsemble, checked: dict,
                       out_dir: str) -> RunReport:
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
    report = RunReport("correlations", True, results, doc,
                       warnings=list(kernel.warnings))
    if checked["csv"]:
        write_csv(os.path.join(out_dir, "correlations.csv"), "correlations",
                  ["set", "points", "re", "im"],
                  ([i, ";".join(f"{l}:{x}" for l, x in rec["points"]),
                    *rec["value"]] for i, rec in enumerate(values)))
        report.files.append("correlations.csv")
    if checked["dump_kernel"]:
        export_kernel_csv(kernel, os.path.join(out_dir, "kernel.csv"))
        report.files.append("kernel.csv")
        _write_json(os.path.join(out_dir, "kernel.json"),
                    kernel_to_json(kernel))
        report.files.append("kernel.json")
    return report


def _check_windows(doc: dict, ens: ChainEnsemble, seed: int | None,
                   budget: int) -> dict:
    return {"windows": ens.check_windows(
        window_family_from_json(ens.space, doc["windows"]))}


def _check_janossy(doc: dict, ens: ChainEnsemble, seed: int | None,
                   budget: int) -> dict:
    task, checked = doc["task"], _check_windows(doc, ens, seed, budget)
    sets, counts = task.get("point_sets", []), task.get("counts", [])
    if not isinstance(sets, list) or not isinstance(counts, list):
        raise ConfigError("'point_sets' and 'counts' must be lists")
    checked["point_sets"] = [ens.check_window_points(checked["windows"], ps)
                             for ps in sets]
    checked["counts"] = [ens.check_counts(vec) for vec in counts]
    return checked


def _task_janossy(doc: dict, ens: ChainEnsemble, checked: dict,
                  out_dir: str) -> RunReport:
    wf = checked["windows"]
    jk = janossy_kernel_explicit(ens, wf)
    densities = [{"points": [[l, x] for l, x in points],
                  "value": complex_pair(janossy_density(jk, points))}
                 for points in checked["point_sets"]]
    count_rows = []
    if checked["counts"]:
        law = count_distribution(ens, wf, budget=checked["budget"])
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
    return RunReport("janossy", True, results, doc,
                     warnings=list(jk.warnings))


def _task_gap(doc: dict, ens: ChainEnsemble, checked: dict,
              out_dir: str) -> RunReport:
    wf = checked["windows"]
    kernel = correlation_kernel(ens)
    results = {
        "windows": wf.to_json(),
        "gap_probability": complex_pair(fredholm_det(restrict(kernel, wf))),
    }
    return RunReport("gap", True, results, doc,
                     warnings=list(kernel.warnings))


def _check_extremes(doc: dict, ens: ChainEnsemble, seed: int | None,
                    budget: int) -> dict:
    task = doc["task"]
    k, grid = task.get("k", 1), task.get("thresholds")
    if not _is_int(k) or not 1 <= k <= ens.n:
        raise ConfigError(f"'k' must be an integer in 1..{ens.n}")
    if (not isinstance(grid, list) or not grid
            or not all(_is_number(s) for s in grid)):
        raise ConfigError(
            "extremes task needs a list of finite numeric 'thresholds'")
    return {"floor": ens.check_floor(task.get("floor", 1), "'floor'"),
            "k": int(k), "thresholds": [float(s) for s in grid]}


def _task_extremes(doc: dict, ens: ChainEnsemble, checked: dict,
                   out_dir: str) -> RunReport:
    floor, k = checked["floor"], checked["k"]
    curve = kth_extreme_distribution(ens, floor, k, checked["thresholds"])
    points = [{"s": pt.s, "count_probs": list(pt.count_probs),
               "prob_ge": pt.prob_ge, "cdf": pt.cdf} for pt in curve]
    results = {"floor": floor, "k": k, "points": points}
    report = RunReport("extremes", True, results, doc)
    if checked["csv"]:
        # count_probs holds p_0..p_k: k + 1 columns
        write_csv(os.path.join(out_dir, "extremes.csv"),
                  f"extremes floor={floor} k={k}",
                  ["s", "prob_ge", "cdf"]
                  + [f"p_count_{j}" for j in range(k + 1)],
                  ([pt.s, pt.prob_ge, pt.cdf, *pt.count_probs]
                   for pt in curve))
        report.files.append("extremes.csv")
    return report


def _check_verify(doc: dict, ens: None, seed: int | None,
                  budget: int) -> dict:
    """Suite, seed (``seed`` overrides the task's), instance count and
    tolerance; a tolerance is keyed "verify" or the task's own suite."""
    task, tolerances = doc["task"], doc.get("tolerances", {})
    suite = task.get("suite")
    if suite not in SUITES:
        raise ConfigError(f"verify task needs 'suite' in {sorted(SUITES)}")
    for key in ("instances", "seed"):
        if key in task and (not _is_int(task[key]) or task[key] < 0):
            raise ConfigError(f"'{key}' must be a nonnegative integer")
    for key, val in tolerances.items():
        if key not in ("verify", suite):
            raise ConfigError(f"tolerance {key!r} is neither 'verify' "
                              "nor the task's suite")
        if not _is_number(val) or val <= 0:
            raise ConfigError(
                f"tolerance {key!r} must be a positive finite number")
    return {"suite": suite,
            "seed": int(task.get("seed", DEFAULT_SEED) if seed is None
                        else seed),
            "instances": int(task.get("instances", DEFAULT_INSTANCES)),
            "tolerance": tolerances.get(suite, tolerances.get("verify"))}


def _task_verify(doc: dict, ens: None, checked: dict,
                 out_dir: str) -> RunReport:
    rep = verify_suite(checked["suite"], instances=checked["instances"],
                       seed=checked["seed"], budget=checked["budget"],
                       threads=checked["threads"],
                       tolerance=checked["tolerance"])
    for line in rep.pass_lines():
        print(line)
    return RunReport("verify", rep.passed, rep.to_json(), doc)


# task name -> (task fields read besides "name"; config sections read
# besides "task" and "output", with "csv" where the task writes a CSV file;
# checker; runner).  "model" and "windows" are required where read, and a
# section, output format or task field a task does not read is refused.
TASKS = {
    "correlations": ({"point_sets", "dump_kernel"}, {"model", "csv"},
                     _check_correlations, _task_correlations),
    "janossy": ({"point_sets", "counts"}, {"model", "windows"},
                _check_janossy, _task_janossy),
    "gap": (set(), {"model", "windows"}, _check_windows, _task_gap),
    "extremes": ({"floor", "k", "thresholds"}, {"model", "csv"},
                 _check_extremes, _task_extremes),
    "verify": ({"suite", "instances", "seed"}, {"tolerances"},
               _check_verify, _task_verify),
}


def _check_config(config_doc) -> dict:
    """The parsed config object, structurally checked.

    Checks the top-level keys and the type of each section, the task name
    and the output formats, and refuses a section or format the task does
    not read (``TASKS``).  The model and the task fields are checked later,
    by ``build_model`` and ``_check_task``.
    """
    doc = config_doc
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the parser's stack
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - {"model", "windows", "task", "output", "tolerances"}
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
    for key, kind, what in (("model", dict, "an object"),
                            ("windows", list, "a list, one entry per floor"),
                            ("output", dict, "an object"),
                            ("tolerances", dict, "an object")):
        if key in doc and not isinstance(doc[key], kind):
            raise ConfigError(f"'{key}' must be {what}")

    output = doc.get("output", {})
    if set(output) - {"formats"}:
        raise ConfigError(f"'output' reads only 'formats', got "
                          f"{sorted(output)}")
    formats = output.get("formats", ["json"])
    if not isinstance(formats, list):
        raise ConfigError("'output.formats' must be a list")
    bad = [f for f in formats if f not in ("json", "csv")]
    if bad:
        raise ConfigError(f"unknown output formats: {bad}")

    sections = TASKS[name][1]
    given = set(doc) & {"model", "windows", "tolerances"}
    unread = (given | {"csv"} & set(formats)) - sections
    if unread:
        raise ConfigError(f"task {name!r} reads no {sorted(unread)}")
    missing = sorted({"model", "windows"} & sections - given)
    if missing:
        raise ConfigError(f"task {name!r} needs a {missing[0]!r} section")
    return doc


def _check_task(doc: dict, ens: ChainEnsemble | None, seed: int | None,
                threads: int, budget: int) -> dict:
    """Everything the task's runner reads, checked against the built model.

    A field the task does not read is refused; the task's checker
    (``TASKS``) judges the others, passing windows, point sets, count
    vectors and the extremes floor to the ensemble's own ``check_*``
    methods.  Malformed fields raise LookupError, TypeError or ValueError,
    reported here as a ConfigError.  To what the checker returns this adds
    ``threads``, ``budget`` and ``csv``, whether CSV output is asked for.
    """
    task = doc["task"]
    name = task["name"]
    fields, _, check, _ = TASKS[name]
    unread = set(task) - fields - {"name"}
    if unread:
        raise ConfigError(f"{name} task reads no {sorted(unread)}")
    try:
        checked = check(doc, ens, seed, budget)
    except (ConfigError, np.linalg.LinAlgError):
        raise  # LinAlgError is a ValueError, but a numerical failure
    except (LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} task: {exc}") from exc
    formats = doc.get("output", {}).get("formats", [])
    return dict(checked, threads=threads, budget=budget,
                csv="csv" in formats)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_experiment(config_doc, out_dir: str, seed: int | None = None,
                   threads: int = 1, budget: int = DEFAULT_BUDGET) -> RunReport:
    """Validate, run, and write one experiment; returns the report.

    ``config_doc`` is the config object or its JSON text.  ``seed``, when
    given, replaces the seed of a verify task or of a random model; the
    report keeps the config as given.  Raises ConfigError when the config,
    the seed, ``threads`` or ``budget`` is invalid.  ``out_dir`` is made at
    the first file write, so a run that fails before writing leaves no
    directory.
    """
    if seed is not None and (not _is_int(seed) or seed < 0):
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    for flag, value in (("threads", threads), ("budget", budget)):
        if not _is_int(value) or value < 1:
            raise ConfigError(f"{flag} must be a positive integer, "
                              f"got {value!r}")
    doc = _check_config(config_doc)

    ens = None
    if "model" in doc:
        model = doc["model"]
        if (seed is not None and model.get("variant") == "random"
                and "seed" in model):
            model = dict(model, seed=int(seed))
        ens = build_model(model)
    checked = _check_task(doc, ens, seed, int(threads), int(budget))
    report = TASKS[doc["task"]["name"]][3](doc, ens, checked, out_dir)
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
    except (OSError, UnicodeDecodeError) as exc:
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
    except OSError as exc:
        # the computations open no file: this came from writing outputs
        # (for example --out names an existing file)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    for w in report.warnings:
        print(f"warning: {w}")
    print(f"task {report.task}: {'ok' if report.passed else 'FAILED'} "
          f"({elapsed:.2f}s wall, not recorded in outputs)")
    print(f"wrote {', '.join(sorted(report.files))} to {args.out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
