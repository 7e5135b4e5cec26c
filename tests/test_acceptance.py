"""Acceptance gate: the eleven release criteria at their pinned tolerances.

Every numerical bar below is a published contract, not a tunable.  Suite
runs are shared through module-scoped fixtures so the gate stays inside its
wall-clock budgets, which are asserted where a criterion carries one.
"""

from __future__ import annotations

import json
import time

import pytest

from janossy_kit import (
    WindowFamily,
    build_unitary,
    correlation_kernel,
    fredholm_det,
    make_quadrature,
    restrict,
)
from janossy_kit.oracle import (brute_count_distribution, enumerate_density,
                                real_probability)
from janossy_kit.verify import SUITES, draw_ensemble, verify_suite

SEED = 1234


def timed_suite(name: str, instances: int):
    start = time.perf_counter()
    report = verify_suite(name, instances=instances, seed=SEED)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def partition_run():
    return timed_suite("partition", 200)


@pytest.fixture(scope="module")
def correlations_run():
    return timed_suite("correlations", 200)


@pytest.fixture(scope="module")
def resolvent_run():
    # instance 0 is the suite's deliberate full-window rejection probe, so
    # one extra instance keeps one hundred genuine comparisons
    return timed_suite("resolvent", 101)


@pytest.fixture(scope="module")
def janossy_run():
    return timed_suite("janossy", 100)


def records_of(report, quantity: str) -> list:
    return [r for r in report.records if r["quantity"] == quantity]


def test_criterion_01_partition_function(partition_run):
    report, wall = partition_run
    assert report.passed
    assert len(report.records) == 200
    for r in report.records:
        d = r["description"]
        assert d["nodes"] <= 5 and d["particles"] <= 2 and d["floors"] <= 3
        assert r["rel_error"] <= 1e-10
    assert wall <= 30.0
    print(f"criterion 1: 200 instances, max rel {report.max_rel_error:.3e}, "
          f"{wall:.2f}s")


def test_criterion_02_correlation_determinants(correlations_run,
                                               partition_run):
    report, wall = correlations_run
    assert report.passed
    assert len(report.records) == 200
    for r in report.records:
        assert r["abs_error"] <= 1e-10
        assert r["description"]["point_sets"] > 0
    # the same seeded instance stream as the partition criterion
    for a, b in zip(report.records, partition_run[0].records):
        for key in ("nodes", "particles", "floors", "seed"):
            assert a["description"][key] == b["description"][key]
    assert wall <= 60.0
    print(f"criterion 2: max abs {report.max_abs_error:.3e}, {wall:.2f}s")


def test_criterion_03_window_kernel_identity(resolvent_run):
    report, wall = resolvent_run
    assert report.passed
    probe = report.records[0]
    assert probe["quantity"] == "full windows reject"
    assert probe["status"] == "expected-error"
    comparisons = records_of(report,
                             "window kernel (resolvent vs closed form)")
    assert len(comparisons) == 100
    assert all(r["status"] == "pass" for r in comparisons)
    assert wall <= 60.0
    print(f"criterion 3: 100 window comparisons, "
          f"max abs {report.max_abs_error:.3e}, {wall:.2f}s")


def test_criterion_04_janossy_densities(janossy_run):
    report, _ = janossy_run
    assert report.passed
    assert not records_of(report, "window conditioning")
    densities = records_of(report, "janossy densities (worst point set)")
    assert densities
    for r in densities:
        assert r["abs_error"] <= 1e-10
    print(f"criterion 4: {len(densities)} density records, "
          f"worst {max(r['abs_error'] for r in densities):.3e}")


def test_criterion_05_gap_probabilities(janossy_run):
    report, _ = janossy_run
    gaps = records_of(report, "gap probability (fredholm vs brute)")
    assert len(gaps) == 100
    for r in gaps:
        assert r["abs_error"] <= 1e-10
    # full-space restriction annihilates the determinant; empty windows
    # leave the empty product, exactly one
    for i in range(25):
        ens, _, _ = draw_ensemble(SEED, i)
        kernel = correlation_kernel(ens)
        space = ens.space
        full = WindowFamily(tuple(space.full_window()
                                  for _ in range(ens.floors)))
        assert abs(fredholm_det(restrict(kernel, full))) <= 1e-8
        empty = WindowFamily(tuple(space.empty_window()
                                   for _ in range(ens.floors)))
        assert fredholm_det(restrict(kernel, empty)) == 1.0 + 0.0j


def test_criterion_06_counting_closure(janossy_run):
    report, _ = janossy_run
    closures = records_of(report, "count closure")
    assert len(closures) == 100
    for r in closures:
        assert r["abs_error"] <= 1e-9


def test_criterion_07_extreme_value_distribution():
    start = time.perf_counter()
    space = make_quadrature((-6.0, 6.0), 64)
    ens = build_unitary([0.0, 0.0, 0.5], 2, space)
    kernel = correlation_kernel(ens)
    dist = enumerate_density(ens)
    for s in (-1.0, 0.0, 1.0, 2.0):
        wf = WindowFamily((space.window_from_intervals([(s, None)]),))
        fred = fredholm_det(restrict(kernel, wf))
        quad = real_probability(brute_count_distribution(dist, wf)[0])
        assert abs(fred.imag) <= 1e-12
        assert abs(fred.real - quad) <= 1e-6
    wall = time.perf_counter() - start
    assert wall <= 30.0
    print(f"criterion 7: Pr(max <= s) two routes agree on 4 thresholds, "
          f"{wall:.2f}s")


def test_criterion_08_marginal_floors():
    report = verify_suite("marginal", instances=50, seed=SEED)
    assert report.passed
    assert len(report.records) == 50 * 6
    singles = [r for r in report.records
               if len(r["description"]["floors_kept"]) == 1]
    assert len(singles) == 50 * 3
    for r in singles:
        assert r["abs_error"] <= 1e-10 * max(
            1.0, abs(complex(*r["oracle"])), abs(complex(*r["closed_form"])))
        assert r["description"]["gram_error"] <= 1e-12


def test_criterion_09_heine_identity():
    report = verify_suite("heine", instances=50, seed=SEED)
    assert report.passed
    assert len(report.records) == 50
    for r in report.records:
        d = r["description"]
        assert d["nodes"] <= 5 and d["functions"] <= 3
        assert r["abs_error"] <= 1e-10


def test_criterion_10_reproducing_identity():
    report = verify_suite("dyson-mehta", instances=100, seed=SEED)
    assert report.passed
    floors = {r["instance"]: r["description"]["floors"]
              for r in report.records}
    assert len(report.records) == sum(M * M for M in floors.values())
    pairs = [tuple(int(s[2:]) for s in r["quantity"].split()[-2:])
             for r in report.records]
    cross = sum(k != m for k, m in pairs)
    assert cross
    for r in report.records:
        assert r["judged_error"] <= 1e-10
    rerun = verify_suite("dyson-mehta", instances=100, seed=SEED)
    assert json.dumps(report.to_json(), sort_keys=True) == \
        json.dumps(rerun.to_json(), sort_keys=True)
    print(f"criterion 10: {len(pairs)} floor-pair residuals, {cross} of them "
          f"cross-floor, all <= 1e-10 scaled")


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_criterion_11_deterministic_reports(suite):
    first = verify_suite(suite, instances=8, seed=77)
    second = verify_suite(suite, instances=8, seed=77)
    assert json.dumps(first.to_json(), sort_keys=True) == \
        json.dumps(second.to_json(), sort_keys=True)
