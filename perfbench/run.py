"""janossy-kit benchmark: closed-loop queries on one workload per run.

Run from the root of a source checkout (the directory holding ``src/``)::

    python3 perfbench/run.py --workload gap-chain --seed 1 --seconds 52 --trace 0

Workloads (see workloads.py for why each exists): ``gap-chain`` and
``extremes-verify``.
Each run starts fresh worker processes with BLAS limited to one thread:
set-up-only workers that time the import and set-up, then one worker that
runs queries for ``--seconds`` seconds (and at least 40 timed queries after
one dropped warm-up).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` every query input runs untraced and then traced (or the
other way round) and the line reports the per-layer metrics instead.  The
line before it records the environment.  Spans go to ``.bench_build/perfbench/trace-*.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

# set-up-only processes per run; with the query worker's own set-up they
# give the median set-up time
SETUP_RUNS = 6
# per worker process, so a hung worker cannot stall a run; a normal run
# takes --seconds plus about 6 s
WORKER_TIMEOUT = 150
OUT_DIR = os.path.join(".bench_build", "perfbench")
# the keys of workloads.WORKLOADS; run.py itself never imports numpy
WORKLOAD_NAMES = ("gap-chain", "extremes-verify")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker(args, work: str, tag: str, *extra: str) -> dict:
    """Run one worker process to completion and return its result."""
    result = os.path.join(work, f"{tag}.json")
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
           "--src", os.path.abspath("src"), "--out", work, "--result", result,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    # a fixed hash seed gives every worker the same dict and set layouts
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} worker exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _p75(times: list[float]) -> float:
    return statistics.quantiles(times, n=4, method="inclusive")[2]


def _end_to_end(setups: list[float], main: dict) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "query_s.p75": (_p75(main["query_s"]), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "success_rate": (1.0 - main["failed"] / main["attempted"], "1"),
    }


def _ungated(main: dict) -> dict:
    """Median and rate of the traced run's untraced queries.

    The host alternates between a fast and a slow speed from one query to
    the next, and the share of fast queries changes from run to run.  The
    median and the mean follow that share; p75 stays with the slow queries.
    So these two are reported with the per-layer metrics, not gated.
    """
    times = main["query_s"]
    return {"query_s.p50": (statistics.median(times), "s"),
            "queries_per_s": (len(times) / sum(times), "1/s")}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join("src", "janossy_kit", "__init__.py")):
        print("error: run from a janossy-kit checkout (no src/janossy_kit)",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        # half the set-up-only runs go before the query worker and half
        # after, so the set-up median spans the same host conditions
        setup_runs = 0 if args.trace else SETUP_RUNS
        setups = [_worker(args, work, f"setup{i}", "--setup-only")["setup_s"]
                  for i in range(setup_runs // 2)]
        trace_file = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        main_run = _worker(args, work, "main", "--trace-file", trace_file)
        setups.append(main_run["setup_s"])
        setups += [_worker(args, work, f"setup{i}", "--setup-only")["setup_s"]
                   for i in range(setup_runs // 2, setup_runs)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(main_run["layers"], **_ungated(main_run)) if args.trace \
        else _end_to_end(setups, main_run)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": main_run["environment"],
                      "host_probe": main_run["host"],
                      "ungated": {k: v for k, (v, _) in
                                  _ungated(main_run).items()},
                      "setup_runs_s": setups}))
    print(json.dumps({
        "correct": main_run["wrong"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
