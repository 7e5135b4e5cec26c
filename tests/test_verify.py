"""The self-check suites themselves: they pass, and they are deterministic."""

from __future__ import annotations

import json

import numpy as np
import pytest

from janossy_kit import verify
from janossy_kit.janossy import janossy_kernel_explicit
from janossy_kit.kernels import correlation_kernel, rows
from janossy_kit.measure_space import WindowFamily
from janossy_kit.models import build_random
from janossy_kit.oracle import brute_density_grid, enumerate_density
from janossy_kit.verify import (
    SUITES,
    _worst,
    count_vectors,
    draw_ensemble,
    point_grid,
    verify_suite,
)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_on_a_small_run(name):
    report = verify_suite(name, instances=5, seed=17)
    assert report.passed, [r for r in report.records
                           if r["status"] == "fail"]
    assert report.suite == name
    assert report.instances == 5
    assert report.records


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        verify_suite("mystery")


@pytest.mark.parametrize("instances", [-3, 2.5, True, "4"])
def test_instance_count_must_be_a_nonnegative_integer(instances):
    # instances=-3 used to return a passing report with no records
    with pytest.raises(ValueError, match="instances"):
        verify_suite("heine", instances=instances)


@pytest.mark.parametrize("tolerance", [0.0, -1e-10, float("nan"),
                                       float("inf"), True, "1e-10"])
def test_tolerance_must_be_a_positive_finite_number(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        verify_suite("heine", instances=1, tolerance=tolerance)


@pytest.mark.parametrize("what", ["instances", "seed"])
def test_numpy_integer_arguments_give_a_json_report(what):
    # a NumPy integer used to reach the report, where json.dumps refused it
    report = verify_suite("heine", **{"instances": 2, "seed": 5,
                                      what: np.int64(2)})
    assert type(getattr(report, what)) is int
    assert report == verify_suite("heine", **{"instances": 2, "seed": 5,
                                              what: 2})
    json.dumps(report.to_json())


@pytest.mark.parametrize("what, value", [
    ("seed", True), ("seed", -1), ("seed", 5.0), ("seed", "5"),
    ("budget", 0), ("budget", -5), ("budget", 2.5), ("budget", True),
    ("threads", 0), ("threads", -2), ("threads", 1.5), ("threads", True)])
def test_seed_budget_and_threads_must_be_integers_in_range(what, value):
    # seed=True used to write "seed": true into the report, and budget=0 or
    # threads=0 used to pass silently
    with pytest.raises(ValueError, match=what):
        verify_suite("heine", instances=2, **{what: value})


def test_arguments_are_refused_before_any_instance_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(SUITES, "heine", lambda **kw: ran.append(kw))
    for bad in ({"instances": -1}, {"seed": True}, {"budget": 0},
                {"threads": 0}, {"tolerance": 0.0}):
        with pytest.raises(ValueError):
            verify_suite("heine", **bad)
    assert not ran


def test_tolerance_judges_each_comparison_once():
    """A tolerance judges every record as the suite would with that bar;
    the record that compares nothing keeps its status."""
    plain = verify_suite("resolvent", instances=4, seed=5)
    tight = verify_suite("resolvent", instances=4, seed=5, tolerance=1e-30)
    assert plain.passed and not tight.passed and tight.tolerance == 1e-30
    for a, b in zip(plain.records, tight.records):
        if a["judged_error"] is None:
            assert b == a and b["status"] == "expected-error"
        else:
            assert b == dict(a, status="pass" if b["judged_error"] <= 1e-30
                             else "fail")


def test_suite_reports_are_deterministic_across_reruns():
    a = verify_suite("correlations", instances=8, seed=3).to_json()
    b = verify_suite("correlations", instances=8, seed=3).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_thread_count_does_not_change_report_bytes():
    for name in sorted(SUITES):
        a = verify_suite(name, instances=4, seed=3, threads=1).to_json()
        b = verify_suite(name, instances=4, seed=3, threads=3).to_json()
        assert (json.dumps(a, sort_keys=True)
                == json.dumps(b, sort_keys=True)), name


def test_worst_pair_is_the_first_farthest_apart():
    def worst(oracle, closed):
        return _worst(np.array(oracle), np.array(closed))

    assert worst([], []) is None
    assert _worst(np.zeros(0, dtype=complex), np.zeros(0)) is None
    # ties go to the first pair
    assert worst([1.0, 0.0, 3.0], [1.0, 2.0, 1.0]) == (0.0, 2.0)
    assert worst([1j, 2.0], [-1j, 0.0]) == (1j, -1j)
    # distance is the complex modulus, not the real-part gap
    assert worst([0.0, 1j], [1.5, 1 + 2j]) == (0.0, 1.5)
    assert worst([0.0, 1j], [1.4, 1 + 2j]) == (1j, 1 + 2j)
    assert worst([0.0, 1j], [0.5, -1j]) == (1j, -1j)


def test_janossy_suite_builds_each_accepted_complement_once(
        monkeypatch, complement_builds):
    """An accepted window draw has its complement tables built exactly once
    when some window is non-empty (the suite reuses the Janossy kernel the
    draw was gated on) and never when every window is empty (no density is
    evaluated, and const comes from the pairing sweep)."""
    accepted = []
    draw = verify.draw_conditioned_windows

    def recording_draw(ens, rng):
        drawn = draw(ens, rng)
        if drawn is not None:
            accepted.append((ens, drawn[0]))
        return drawn

    monkeypatch.setattr(verify, "draw_conditioned_windows", recording_draw)
    assert verify_suite("janossy", instances=10, seed=1234).passed
    assert len(accepted) == 10
    kinds = set()
    for ens, wf in accepted:
        weights = ens.space.weights * ~wf.masks
        same = [ws for f, _, _, ws in complement_builds
                if f is ens.f and np.array_equal(ws, weights)]
        empty = all(w.count == 0 for w in wf.windows)
        kinds.add(empty)
        assert len(same) == (0 if empty else 1)
    # seed 1234 draws both kinds
    assert kinds == {True, False}


def test_different_seeds_draw_different_instances():
    a, desc_a, _ = draw_ensemble(1, 0)
    b, desc_b, _ = draw_ensemble(2, 0)
    assert desc_a != desc_b or not (a.f == b.f).all()


def test_instance_stream_is_seed_stable():
    first, desc1, _ = draw_ensemble(11, 4)
    again, desc2, _ = draw_ensemble(11, 4)
    assert desc1 == desc2
    assert (first.f == again.f).all()
    assert (first.phi == again.phi).all()


def test_records_carry_both_routes_and_errors():
    report = verify_suite("partition", instances=3, seed=5)
    for rec in report.records:
        assert set(rec) >= {"instance", "description", "quantity", "oracle",
                            "closed_form", "abs_error", "rel_error", "status"}
        assert isinstance(rec["oracle"], list) and len(rec["oracle"]) == 2
        json.dumps(rec)  # JSON-serializable as-is


def test_resolvent_suite_flags_the_full_window_instance():
    report = verify_suite("resolvent", instances=4, seed=5)
    first = report.records[0]
    assert first["quantity"] == "full windows reject"
    assert first["status"] == "expected-error"
    # the deliberate failure does not count against the suite
    assert report.passed


def test_dyson_mehta_asserts_every_floor_pair():
    report = verify_suite("dyson-mehta", instances=6, seed=29)
    assert report.passed
    floors = {r["instance"]: r["description"]["floors"]
              for r in report.records}
    assert len(report.records) == sum(M * M for M in floors.values())
    assert max(floors.values()) > 1, "expected a multi-floor instance"
    for r in report.records:
        assert 1 <= r["description"]["worst_l"] <= r["description"]["floors"]
        assert r["judged_error"] <= 1e-10
        assert r["status"] == "pass"


def _grids_per_vector(dist, vectors, domains, free, matrix):
    """point_grid's two arrays, one brute_density_grid call and one
    determinant gather per count vector."""
    P = dist.ensemble.space.size
    oracle, dets = [], []
    for counts in vectors:
        points = [[d] * k for k, d in zip(counts, domains)]
        oracle.append(brute_density_grid(dist, points, free).reshape(-1))
        r = np.meshgrid(*[rows(np.column_stack([np.full(d.size, l), d]), P)
                          for l, on_floor in enumerate(points, start=1)
                          for d in on_floor], indexing="ij")
        r = np.stack(r, axis=-1).reshape(-1, sum(counts))
        dets.append(np.linalg.det(matrix[r[:, :, None], r[:, None]]))
    return np.concatenate(oracle), np.concatenate(dets)


def test_point_grid_matches_per_vector_grids_bit_for_bit(monkeypatch):
    """point_grid equals one brute_density_grid call and one determinant
    gather per count vector, bit for bit, building one oracle factor per
    floor and point count: on correlation domains, and on Janossy domains
    whose second floor has an empty window."""
    ens = build_random(12, 4, 2, 3)
    dist = enumerate_density(ens)
    wf = WindowFamily((ens.space.window([True, True, False, False]),
                       ens.space.window([False] * 4),
                       ens.space.window([False, True, False, True])))
    jk = janossy_kernel_explicit(ens, wf)
    nodes = [np.arange(4)] * 3
    inside = [w.node_indices for w in wf.windows]
    outside = [np.flatnonzero(m) for m in ~wf.masks]
    holding = verify._holding
    calls = []
    monkeypatch.setattr(verify, "_holding",
                        lambda *args: calls.append(args) or holding(*args))
    for domains, free, matrix, most in (
            (nodes, nodes, correlation_kernel(ens).matrix, 3),
            (inside, outside, jk.kernel.matrix, 4)):
        vectors = count_vectors(ens.n, ens.floors, most)
        calls.clear()
        oracle, dets = point_grid(dist, vectors, domains, free,
                                  lambda: matrix)
        assert len(calls) == len({(l, k) for v in vectors
                                  for l, k in enumerate(v)})
        want_oracle, want_dets = _grids_per_vector(dist, vectors, domains,
                                                   free, matrix)
        assert oracle.size and oracle.shape == dets.shape
        assert np.array_equal(oracle, want_oracle)
        assert np.array_equal(dets, want_dets)
