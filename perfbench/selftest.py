"""Self-tests of the benchmark itself; run from the checkout root::

    python3 perfbench/selftest.py

1. Computed work counts repeat exactly: two traced worker processes with one
   seed report identical per-query counts, on every workload.
2. A wrong answer counts as a failure: on every workload the query loop
   counts a perturbed result as failed and wrong (on extremes-verify, a
   perturbed curve, and separately a failing verify record outside the
   correlations suite).  The known verify defect (correlations suite, seed
   151227035, which judges absolute error) counts as failed but not wrong:
   the suite reports it correctly.

Exits 0 when every test passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402  (sets the BLAS thread variables before numpy)

sys.path.insert(0, os.path.abspath("src"))

import numpy as np  # noqa: E402

import janossy_kit  # noqa: E402
import janossy_kit.cli  # noqa: E402,F401
from workloads import WORKLOADS, VerifySweep  # noqa: E402

OUT = os.path.join(".bench_build", "perfbench", "selftest")
KNOWN_DEFECT_SEED = 151227035
REPEAT_QUERIES = 6  # three inputs, each run untraced and traced


def _traced_counts(workload: str, tag: str) -> list[dict]:
    result = os.path.join(OUT, f"{workload}-{tag}.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--src", os.path.abspath("src"), "--out", OUT, "--result", result,
         "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", "1", "--max-queries", str(REPEAT_QUERIES)],
        check=True, timeout=300)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)["counts"]


def test_counts_repeat() -> None:
    for name in WORKLOADS:
        first, second = (_traced_counts(name, t) for t in ("a", "b"))
        assert first and all(first), f"{name}: no work counted"
        assert first == second, f"{name}: counts differ\n{first}\n{second}"
        print(f"ok counts repeat: {name} {first[0]}")


class Perturbed:
    """A workload whose answers are altered after the program returns."""

    def __init__(self, inner, perturb):
        self.inner, self.perturb = inner, perturb
        self.name = inner.name

    def draw(self, rng, state):
        return self.inner.draw(rng, state)

    def call(self, jk, state, inputs):
        return self.perturb(self.inner.call(jk, state, inputs))

    def check(self, answer) -> str:
        return self.inner.check(answer)


def _fail_record(runs):
    """Fail one record of a suite other than correlations, consistently."""
    out_dir = next(d for d, _, _ in runs
                   if os.path.basename(d) != "correlations")
    path = os.path.join(out_dir, "report.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["passed"] = doc["results"]["passed"] = False
    doc["results"]["records"][0]["status"] = "fail"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return [(d, False if d == out_dir else p, o) for d, p, o in runs]


def _shift_count(curve):
    pt = curve[0]
    probs = (pt.count_probs[0] + 1e-6,) + pt.count_probs[1:]
    return [dataclasses.replace(pt, count_probs=probs)] + curve[1:]


PERTURBATIONS = (
    ("gap-chain", "fredholm", lambda res: (res[0], res[1] + 1e-8)),
    ("extremes-verify", "curve", lambda res: (_shift_count(res[0]), res[1])),
    ("extremes-verify", "verify", lambda res: (res[0], _fail_record(res[1]))),
)


def test_perturbed_results_fail() -> None:
    for name, part, perturb in PERTURBATIONS:
        wl = WORKLOADS[name]
        state = wl.setup(janossy_kit, OUT)
        rng = np.random.default_rng(3)
        clean = worker.run_queries(janossy_kit, wl, state, rng, 0, 2)
        assert clean["failed"] == 0, f"{name}: clean queries failed"
        loop = worker.run_queries(janossy_kit, Perturbed(wl, perturb), state,
                                  rng, 0, 2)
        assert loop["failed"] == loop["wrong"] == loop["attempted"] == 2, \
            f"{name} {part}: perturbed queries not counted as failed: {loop}"
        print(f"ok perturbed result fails: {name} {part}")


def test_known_defect_fails() -> None:
    wl = VerifySweep(suite_seed=KNOWN_DEFECT_SEED)
    state = wl.setup(janossy_kit, OUT)
    loop = worker.run_queries(janossy_kit, wl, state,
                              np.random.default_rng(0), 0, 1)
    assert loop["failed"] == loop["attempted"] == 1, loop
    assert loop["wrong"] == 0, loop
    print(f"ok known defect fails its query: seed {KNOWN_DEFECT_SEED}")


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    try:
        test_perturbed_results_fail()
        test_known_defect_fails()
        test_counts_repeat()
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
