"""One workload run in its own fresh process; writes a JSON result file.

Started by run.py; selftest.py imports ``run_queries``.  The set-up clock
starts before the first import of numpy, scipy or janossy_kit, and BLAS is
limited to one thread before numpy loads.

    python3 perfbench/worker.py --src SRC --out DIR --result FILE \
        --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]
        [--max-queries N] [--trace-file FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from tracer import (COUNT_METRICS, ROOT_QUERY, ROOT_SETUP, SETUP_COUNT_METRICS,
                    SETUP_TIME_METRICS, TIME_METRICS, Tracer)

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# timed queries per run, after the dropped warm-up; ten lie beyond p75
MIN_QUERIES = 40
# traced queries whose work counts are reported (a fixed prefix, so counts
# repeat exactly for a seed whatever the run length)
COUNT_QUERIES = 10
REF_LOOP = 20_000
REF_MATMUL = 300


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--max-queries", type=int, default=None)
    p.add_argument("--trace-file", default=None)
    return p.parse_args(argv)


def _import(src):
    """Import numpy, scipy and janossy_kit from ``src``; returns the package."""
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import janossy_kit
    import janossy_kit.cli  # noqa: F401
    origin = os.path.realpath(os.path.dirname(janossy_kit.__file__))
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"janossy_kit imported from {origin}, not {src}")
    return janossy_kit


def _blas_record() -> list[dict]:
    """OpenBLAS builds loaded in this process and their thread counts."""
    import ctypes
    libs = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path and path.endswith(".so") and path not in libs:
                libs.append(path)
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        rec = {"lib": os.path.basename(path)}
        for suffix in ("64_", ""):
            try:
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            rec.update(threads=threads(), config=config().decode())
            break
        out.append(rec)
    return out


def _environment(jk) -> dict:
    import numpy
    import scipy
    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "janossy_kit": jk.__version__,
        "blas_env_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "blas": _blas_record(),
    }


class HostProbe:
    """Fixed reference work timed between queries to expose host drift."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        shape = (REF_MATMUL, REF_MATMUL)
        self.a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.python_s: list[float] = []
        self.matmul_s: list[float] = []

    def run(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i
        t1 = time.perf_counter()
        self.a @ self.b
        t2 = time.perf_counter()
        self.python_s.append(t1 - t0)
        self.matmul_s.append(t2 - t1)


def _setup_metrics(tracer, setup_root, setup_end, setup_counts) -> dict:
    """Set-up metrics from the spans under the ``bench.setup`` root.

    ``models.build_s`` is the model builders' inclusive time; the
    ``setup.*`` metrics are self times and work counts of the tables and
    kernels that set-up builds for the queries to reuse.
    """
    selfs = tracer.self_times()
    stems = tracer.stems
    spans = range(setup_root + 1, setup_end)
    out = {"models.build_s": (sum(
        tracer.ends[i] - tracer.starts[i] for i in spans
        if tracer.parents[i] == setup_root
        and stems.get(tracer.names[i]) == "models.build"), "s")}
    for stem in SETUP_TIME_METRICS:
        out[f"setup.{stem}_s"] = (sum(
            selfs[i] for i in spans if stems.get(tracer.names[i]) == stem), "s")
    for metric, unit in SETUP_COUNT_METRICS:
        out[f"setup.{metric}"] = (setup_counts.get(metric, 0), unit)
    return out


def _layer_metrics(tracer, loop) -> dict:
    """Per-layer metrics from the spans of the traced queries.

    ``loop`` is the result of run_queries: ``traced`` holds (root span, end
    span) index ranges, ``counts`` the work counters of the same queries,
    ``times`` (wall time, traced, input index) triples.
    """
    traced, counts, times = loop["traced"], loop["counts"], loop["times"]
    selfs = tracer.self_times()
    stems = tracer.stems
    per_query = []
    for root, end in traced:
        acc = dict.fromkeys(TIME_METRICS, 0.0)
        for i in range(root + 1, end):
            stem = stems.get(tracer.names[i])
            if stem in acc:
                acc[stem] += selfs[i]
        dur = tracer.ends[root] - tracer.starts[root]
        acc["coverage"] = 1.0 - selfs[root] / dur
        acc["spans"] = end - root - 1
        per_query.append(acc)
    out = {f"{m}_s": (statistics.median(q[m] for q in per_query), "s")
           for m in TIME_METRICS}
    counted = counts[:COUNT_QUERIES]
    for metric, unit in COUNT_METRICS:
        out[metric] = (statistics.median(c.get(metric, 0) for c in counted),
                       unit)
    pairs: dict[int, dict[bool, float]] = {}
    for t, on, i in times:
        pairs.setdefault(i, {})[on] = t
    out["trace.overhead_frac"] = (statistics.median(
        p[True] / p[False] for p in pairs.values() if len(p) == 2) - 1.0, "1")
    out["trace.coverage_frac"] = (
        statistics.median(q["coverage"] for q in per_query), "1")
    out["trace.spans_per_query"] = (
        statistics.median(q["spans"] for q in per_query), "count")
    return out


def run_queries(jk, wl, state, rng, seconds, max_queries=None,
                tracer=None) -> dict:
    """Closed loop: one query after another until the time is up.

    Stops once ``seconds`` have passed and MIN_QUERIES queries are timed,
    or after ``max_queries`` queries.  Every query is checked; a query that
    raises or does not pass its check counts as failed, and as wrong when it
    raised or its output is wrong.  With a tracer, every input runs twice,
    untraced and traced in alternating order, so the overhead comparison is
    paired.  ``times`` holds (wall time, traced, input index).
    """
    import numpy as np
    from workloads import PASS, WRONG

    probe = HostProbe(np)
    times, counts, traced = [], [], []
    attempted = failed = wrong = inputs_drawn = 0
    loop_start = time.perf_counter()
    while True:
        inputs = wl.draw(rng, state)
        modes = (False,) if tracer is None else \
            ((False, True) if inputs_drawn % 2 == 0 else (True, False))
        for on in modes:
            if on:
                tracer.install(jk)
                tracer.counts.clear()
                root = len(tracer.names)
            answer = None
            t0 = time.perf_counter()
            try:
                if on:
                    _, answer = tracer.root(ROOT_QUERY, wl.call, jk, state,
                                            inputs)
                else:
                    answer = wl.call(jk, state, inputs)
            except Exception as exc:
                print(f"query {attempted} raised {exc!r}", file=sys.stderr)
            t1 = time.perf_counter()
            if on:
                tracer.uninstall()
                traced.append((root, len(tracer.names)))
                counts.append(dict(tracer.counts))
            status = WRONG
            if answer is not None:
                try:
                    status = wl.check(answer)
                except (OSError, ValueError, KeyError) as exc:
                    print(f"query {attempted} check raised {exc!r}",
                          file=sys.stderr)
            attempted += 1
            failed += status != PASS
            wrong += status == WRONG
            if attempted > 1:  # the first query is a dropped warm-up
                times.append((t1 - t0, on, inputs_drawn))
        inputs_drawn += 1
        probe.run()
        if max_queries is not None and attempted >= max_queries:
            break
        if (len(times) >= MIN_QUERIES
                and time.perf_counter() - loop_start >= seconds):
            break
    return {"attempted": attempted, "failed": failed, "wrong": wrong,
            "times": times,
            "counts": counts, "traced": traced, "probe": probe}


def main(argv=None) -> int:
    args = _parse(argv)
    t_start = time.perf_counter()
    jk = _import(args.src)
    t_import = time.perf_counter()
    import numpy as np
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(jk)
        setup_root, state = tracer.root(ROOT_SETUP, wl.setup, jk, args.out)
        tracer.uninstall()
        setup = _setup_metrics(tracer, setup_root, len(tracer.names),
                               tracer.counts)
    else:
        state = wl.setup(jk, args.out)
    t_ready = time.perf_counter()
    result = {"setup_s": t_ready - t_start, "import_s": t_import - t_start}
    if args.setup_only:
        return _write(args.result, result)

    loop = run_queries(jk, wl, state, np.random.default_rng(args.seed),
                       args.seconds, args.max_queries, tracer)
    times = loop["times"]
    result.update(
        attempted=loop["attempted"], failed=loop["failed"],
        wrong=loop["wrong"],
        query_s=[t for t, on, _ in times if not on],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        host={"ref_python_s": statistics.median(loop["probe"].python_s),
              "ref_matmul_s": statistics.median(loop["probe"].matmul_s)},
        environment=_environment(jk),
    )
    if tracer is not None:
        result["layers"] = dict(
            _layer_metrics(tracer, loop), **setup,
            **{"setup.import_s": (result["import_s"], "s")},
            **{f"host.{k}": (v, "s") for k, v in result["host"].items()})
        result["counts"] = loop["counts"][:COUNT_QUERIES]
        if args.trace_file:
            tracer.write(args.trace_file, {"workload": wl.name,
                                           "seed": args.seed,
                                           "import_s": result["import_s"]})
    return _write(args.result, result)


def _write(path: str, doc: dict) -> int:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
