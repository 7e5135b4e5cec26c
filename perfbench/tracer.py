"""Span tracer that wraps janossy_kit's public functions from outside.

Every wrapped function records one span (name, start, end, parent) in flat
in-memory arrays.  A function is wrapped in every module namespace that binds
it, so calls made through ``janossy_kit.janossy.build_tables`` and through
``janossy_kit.chain_ensemble.build_tables`` are both seen.  The package source
is never edited; ``uninstall`` puts every original binding back, so untraced
queries run exactly the code a user runs.

Work counts are computed at the same boundaries from arguments and results
(for example ``C(|I|, k)`` bordered determinants per ``count_probability``
call); they repeat exactly for a given query sequence.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import time
from array import array
from collections import defaultdict

SUITE_NAMES = ("heine", "partition", "correlations", "janossy", "resolvent",
               "dyson-mehta", "marginal")


def _table_gflop(args, kwargs, result) -> dict:
    # complex multiply-add = 8 real flops; counts every product build_tables
    # forms: chain products g_{l,m} (M-1)(M-2)/2 of 2P^3, left and right
    # sweeps 2(M-1) of 2nP^2, and the gram matrix 2n^2 P
    f, g = args[0], args[2]
    n, P = f.shape
    M = len(g) + 1
    real = ((M - 1) * (M - 2) // 2 * 2 * P ** 3
            + 2 * (M - 1) * 2 * n * P ** 2 + 2 * n * n * P)
    return {"chain_ensemble.build_tables_calls": 1,
            "chain_ensemble.table_gflop": 4.0 * real / 1e9}


def _kernel_mb(args, kwargs, result) -> dict:
    M, P = result.blocks.shape[0], result.blocks.shape[2]
    return {"kernels.kernel_mb": M * M * P * P * 16 / 1e6}


def _restricted_size(args, kwargs, result) -> dict:
    return {"kernels.restricted_size": result.size}


def _bordered_dets(args, kwargs, result) -> dict:
    windows = kwargs.get("windows", args[1] if len(args) > 1 else None)
    counts = kwargs.get("counts", args[2] if len(args) > 2 else None)
    dets = 1
    for l, k in enumerate(counts, start=1):
        dets *= math.comb(windows.window(l).count, int(k))
    return {"janossy.count_probability_calls": 1, "janossy.bordered_dets": dets}


def _configurations(args, kwargs, result) -> dict:
    ens = result.ensemble
    return {"oracle.configurations": ens.space.size ** (ens.floors * ens.n)}


def _report_bytes(args, kwargs, result) -> dict:
    out_dir = kwargs.get("out_dir", args[1] if len(args) > 1 else None)
    return {"cli.report_bytes": os.path.getsize(
        os.path.join(out_dir, "report.json"))}


def _calls(metric):
    def count(args, kwargs, result) -> dict:
        return {metric: 1}
    return count


# (defining module, attribute, metric stem, work counter or None).  The
# metric stem names the layer metric the span's self time feeds.
FUNCTIONS = (
    ("models", "build_karlin_mcgregor", "models.build", None),
    ("models", "build_unitary", "models.build", None),
    ("chain_ensemble", "build_tables", "chain_ensemble.build_tables",
     _table_gflop),
    ("chain_ensemble", "marginal_ensemble", "chain_ensemble.marginal", None),
    ("kernels", "correlation_kernel", "kernels.correlation_kernel", None),
    ("kernels", "kernel_from_tables", "kernels.kernel_from_tables",
     _kernel_mb),
    ("kernels", "restrict", "kernels.restrict", _restricted_size),
    ("kernels", "fredholm_det", "kernels.fredholm_det", None),
    ("kernels", "correlation_function", "kernels.correlation_function",
     _calls("kernels.correlation_function_calls")),
    ("kernels", "resolvent_kernel", "kernels.resolvent_kernel", None),
    ("janossy", "janossy_kernel_explicit", "janossy.janossy_kernel_explicit",
     None),
    ("janossy", "count_probability", "janossy.count_probability",
     _bordered_dets),
    ("janossy", "kth_extreme_distribution",
     "janossy.kth_extreme_distribution", None),
    ("oracle", "enumerate_density", "oracle.enumerate_density",
     _configurations),
    ("oracle", "brute_correlation", "oracle.brute",
     _calls("oracle.brute_calls")),
    ("oracle", "brute_janossy", "oracle.brute", _calls("oracle.brute_calls")),
    ("oracle", "brute_count_probability", "oracle.brute",
     _calls("oracle.brute_calls")),
    ("cli", "run_experiment", "cli.run_experiment", _report_bytes),
)

# methods wrapped on their class: (module, class, method, metric stem)
METHODS = (
    ("measure_space", "DiscretizedSpace", "window", "measure_space.window"),
    ("measure_space", "DiscretizedSpace", "window_from_intervals",
     "measure_space.window"),
)

# per-query self-time metrics, in report order
TIME_METRICS = (
    "measure_space.window",
    "chain_ensemble.build_tables",
    "chain_ensemble.marginal",
    "kernels.correlation_kernel",
    "kernels.kernel_from_tables",
    "kernels.restrict",
    "kernels.fredholm_det",
    "kernels.correlation_function",
    "kernels.resolvent_kernel",
    "janossy.janossy_kernel_explicit",
    "janossy.count_probability",
    "janossy.kth_extreme_distribution",
    "oracle.enumerate_density",
    "oracle.brute",
) + tuple(f"verify.{s}" for s in SUITE_NAMES) + ("cli.run_experiment",)

# set-up self-time metrics, reported as ``setup.<stem>_s``: the work that
# queries reuse (gap-chain's tables and dense kernel)
SETUP_TIME_METRICS = (
    "chain_ensemble.build_tables",
    "kernels.correlation_kernel",
    "kernels.kernel_from_tables",
)

# per-query computed work counts: (metric, unit)
COUNT_METRICS = (
    ("chain_ensemble.build_tables_calls", "count"),
    ("chain_ensemble.table_gflop", "GFLOP"),
    ("kernels.kernel_mb", "MB"),
    ("kernels.restricted_size", "count"),
    ("kernels.correlation_function_calls", "count"),
    ("janossy.count_probability_calls", "count"),
    ("janossy.bordered_dets", "count"),
    ("oracle.configurations", "count"),
    ("oracle.brute_calls", "count"),
    ("cli.report_bytes", "B"),
)

# set-up computed work counts, reported as ``setup.<metric>``
SETUP_COUNT_METRICS = (
    ("chain_ensemble.table_gflop", "GFLOP"),
    ("kernels.kernel_mb", "MB"),
)

ROOT_QUERY = "bench.query"
ROOT_SETUP = "bench.setup"


class Tracer:
    """In-memory spans plus per-query work counters.

    Span ``i`` is ``(names[i], starts[i], ends[i], parents[i])`` with parent
    -1 for a root.  Roots are the benchmark's own ``bench.setup`` and
    ``bench.query`` spans; every other span is a call into the package.
    """

    def __init__(self):
        self.name_table: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        # name id -> metric stem its self time feeds (roots have none)
        self.stems: dict[int, str] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.name_table)
            self.name_table.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.names)
        self.names.append(nid)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.starts[idx] = t0
        self.ends[idx] = t1

    def root(self, name: str, fn, *args):
        """Run fn(*args) inside a root span; returns (index, result)."""
        idx = self._open(self._name_id(name))
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            self._close(idx, t0, time.perf_counter())
        return idx, result

    def _wrapper(self, fn, span: str, stem: str, counter):
        nid = self._name_id(span)
        self.stems[nid] = stem
        open_, close, counts = self._open, self._close, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = open_(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx, t0, clock())
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    counts[key] += val
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ----------------------------------------------------------

    def _bind(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self, package) -> None:
        """Wrap every traced function in every janossy_kit namespace."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [package] + [getattr(package, m) for m in (
            "measure_space", "models", "chain_ensemble", "kernels",
            "janossy", "oracle", "verify", "cli")]
        for mod_name, attr, stem, counter in FUNCTIONS:
            original = getattr(getattr(package, mod_name), attr)
            wrapped = self._wrapper(original, f"{mod_name}.{attr}", stem,
                                    counter)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._bind(mod, attr, wrapped)
        for mod_name, cls_name, meth, stem in METHODS:
            cls = getattr(getattr(package, mod_name), cls_name)
            original = cls.__dict__[meth]
            self._bind(cls, meth, self._wrapper(
                original, f"{mod_name}.{cls_name}.{meth}", stem, None))
        # verify_suite dispatches through the SUITES table
        suites = package.verify.SUITES
        for name in SUITE_NAMES:
            self._bind(suites, name, self._wrapper(
                suites[name], f"verify.{name}", f"verify.{name}", None))

    def uninstall(self) -> None:
        """Restore every original binding, last wrapped first."""
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.names)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def write(self, path: str, meta: dict) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(meta, fields=[
                "id", "name", "start", "end", "parent"])) + "\n")
            table = self.name_table
            for i, (nid, s, e, p) in enumerate(zip(
                    self.names, self.starts, self.ends, self.parents)):
                fh.write(f'[{i},"{table[nid]}",{s!r},{e!r},{p}]\n')
