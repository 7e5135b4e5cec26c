"""The command line: exit codes, file hygiene, byte-level reproducibility."""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from janossy_kit import janossy, verify
from janossy_kit.cli import main, run_experiment
from janossy_kit.errors import ConfigError
from janossy_kit.kernels import correlation_kernel, restrict
from janossy_kit.measure_space import window_family_from_json
from janossy_kit.models import build_model

GAP_CONFIG = {
    "model": {"variant": "random", "seed": 31, "nodes": 4, "particles": 2,
              "floors": 2},
    "windows": [{"mask": [True, False, False, False]},
                {"mask": [False, False, False, True]}],
    "task": {"name": "gap"},
}

CORR_CONFIG = {
    "model": {"variant": "random", "seed": 31, "nodes": 4, "particles": 2,
              "floors": 2},
    "task": {"name": "correlations",
             "point_sets": [[[1, 0]], [[1, 0], [2, 3]]],
             "dump_kernel": True},
    "output": {"formats": ["json", "csv"]},
}

EXTREMES_CONFIG = {
    "model": {"variant": "unitary", "potential": [0.0, 0.0, 0.5],
              "particles": 2,
              "space": {"kind": "quadrature", "interval": [-6.0, 6.0],
                        "order": 32}},
    "task": {"name": "extremes", "floor": 1, "k": 1,
             "thresholds": [-1.0, 0.0, 1.0, 2.0]},
    "output": {"formats": ["json", "csv"]},
}

JANOSSY_CONFIG = {
    "model": {"variant": "random", "seed": 20240901, "nodes": 5,
              "particles": 2, "floors": 2},
    "windows": [{"mask": [True, True, False, False, False]},
                {"mask": [False, False, False, True, True]}],
    "task": {"name": "janossy", "point_sets": [[[1, 0]], [[1, 0], [2, 4]]],
             "counts": [[0, 0], [1, 1]]},
}

EXPLICIT_CONFIG = {
    "model": {"variant": "explicit", "f": [[1.0, 2.0, 3.0]],
              "phi": [[1, 1, 2]],
              "space": {"kind": "discrete", "points": [0, 1, 2],
                        "masses": [1, 1, 1]}},
    "task": {"name": "correlations", "point_sets": [[[1, 0]]]},
}

VERIFY_CONFIG = {
    "task": {"name": "verify", "suite": "heine", "instances": 4, "seed": 2},
}


def write_config(tmp_path, doc, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_json(out_dir, name="report.json") -> dict:
    return json.loads(Path(out_dir, name).read_text())


def run(tmp_path, doc, *args, out="out") -> tuple[int, str]:
    cfg = write_config(tmp_path, doc)
    out_dir = str(tmp_path / out)
    code = main(["run", cfg, "--out", out_dir, *args])
    return code, out_dir


def dense_gap(doc) -> float:
    """det(Id - K_I) of a gap config by a dense LU of the restricted kernel
    matrix: a route independent of the pairing ratio the gap task takes."""
    ens = build_model(doc["model"])
    op = restrict(correlation_kernel(ens),
                  window_family_from_json(ens.space, doc["windows"]))
    return scipy.linalg.det(np.eye(op.size) - op.matrix)


def assert_gap_matches_dense_route(out_dir, doc, bound=1e-14) -> None:
    results = read_json(out_dir)["results"]
    assert sorted(results) == ["gap_probability", "windows"]
    re, im = results["gap_probability"]
    assert abs(complex(re, im) - dense_gap(doc)) < bound


def assert_cells_match_header(lines) -> None:
    """Every CSV row has as many cells as the header, lines[0]."""
    width = lines[0].count(",")
    assert len(lines) > 1
    assert all(line.count(",") == width for line in lines[1:])


def test_gap_task_end_to_end(tmp_path, capsys):
    code, out_dir = run(tmp_path, GAP_CONFIG)
    assert code == 0
    report = read_json(out_dir)
    assert report["schema"] == "jk-report-1"
    assert report["task"] == "gap"
    # a signed random model: the two routes part by ~5e-14
    assert_gap_matches_dense_route(out_dir, GAP_CONFIG, bound=1e-10)
    # timings are printed, never stored
    assert "wall" in capsys.readouterr().out
    assert "wall" not in Path(out_dir, "report.json").read_text()


def test_correlations_task_writes_tagged_csv(tmp_path):
    code, out_dir = run(tmp_path, CORR_CONFIG)
    assert code == 0
    csv_text = Path(out_dir, "correlations.csv").read_text()
    assert csv_text.startswith("# jk-csv-1 correlations")
    assert_cells_match_header(csv_text.splitlines()[1:])
    kernel_text = Path(out_dir, "kernel.csv").read_text()
    assert kernel_text.startswith("# jk-csv-1 kernel")
    kernel_doc = read_json(out_dir, "kernel.json")
    assert kernel_doc["schema"] == "jk-kernel-1"
    report = read_json(out_dir)
    assert sorted(report["files"]) == ["correlations.csv", "kernel.csv",
                                       "kernel.json"]


def test_extremes_task_curve_is_monotone(tmp_path):
    code, out_dir = run(tmp_path, EXTREMES_CONFIG)
    assert code == 0
    report = read_json(out_dir)
    cdfs = [p["cdf"] for p in report["results"]["points"]]
    assert all(b >= a - 1e-12 for a, b in zip(cdfs, cdfs[1:]))
    lines = Path(out_dir, "extremes.csv").read_text().splitlines()
    assert lines[0].startswith("# jk-csv-1 extremes")
    assert lines[1] == "s,prob_ge,cdf,p_count_0,p_count_1"
    assert_cells_match_header(lines[1:])


def test_verify_task_prints_pass_lines(tmp_path, capsys):
    code, out_dir = run(tmp_path, VERIFY_CONFIG)
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("heine instance") == 4
    report = read_json(out_dir)
    assert report["results"]["suite"] == "heine"
    assert report["passed"] is True


def test_reruns_are_byte_identical(tmp_path):
    code1, out1 = run(tmp_path, EXTREMES_CONFIG, out="first")
    code2, out2 = run(tmp_path, EXTREMES_CONFIG, out="second")
    code3, out3 = run(tmp_path, EXTREMES_CONFIG, "--threads", "4",
                      out="third")
    assert code1 == code2 == code3 == 0
    for name in ("report.json", "extremes.csv"):
        first = Path(out1, name).read_bytes()
        assert first == Path(out2, name).read_bytes()
        assert first == Path(out3, name).read_bytes()


def test_malformed_json_exits_2_without_output_dir(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    out_dir = tmp_path / "never"
    code = main(["run", str(cfg), "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()


def run_file(tmp_path, capsys, data: bytes, *args) -> tuple[int, str]:
    """Run the CLI on a config file holding ``data``; returns the exit code
    and stderr, after checking that no traceback was printed."""
    cfg = tmp_path / "config.json"
    cfg.write_bytes(data)
    code = main(["run", str(cfg), *args])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_non_utf8_config_exits_2_without_output_dir(tmp_path, capsys):
    out_dir = tmp_path / "never"
    code, err = run_file(tmp_path, capsys, b"\xff\xfe{}", "--out",
                         str(out_dir))
    assert code == 2
    assert err.startswith("error: cannot read config: ")
    assert not out_dir.exists()


def test_deeply_nested_config_exits_2_without_output_dir(tmp_path, capsys):
    """json.loads runs out of stack (RecursionError), not into a
    JSONDecodeError, on 100,000 nested lists."""
    out_dir = tmp_path / "never"
    code, err = run_file(tmp_path, capsys,
                         b"[" * 100_000 + b"]" * 100_000, "--out",
                         str(out_dir))
    assert code == 2
    assert err.startswith("error: invalid config: ")
    assert not out_dir.exists()


def test_out_naming_a_file_exits_2_without_temp_files(tmp_path, capsys):
    """The run completes, then its first write fails: exit 2, the file
    untouched, and no temp file beside it."""
    target = tmp_path / "taken"
    target.write_text("mine\n")
    code, err = run_file(tmp_path, capsys, json.dumps(VERIFY_CONFIG).encode(),
                         "--out", str(target))
    assert code == 2
    assert err.startswith("error: cannot write output: ")
    assert target.read_text() == "mine\n"
    assert sorted(os.listdir(tmp_path)) == ["config.json", "taken"]


@pytest.mark.parametrize("doc", [
    {"task": {"name": "mystery"}},
    {"task": {"name": "gap"}},  # no model
    {"model": GAP_CONFIG["model"], "task": {"name": "gap"}},  # no windows
    {"model": GAP_CONFIG["model"], "task": {"name": "correlations"}},
    {"model": GAP_CONFIG["model"], "surprise": 1,
     "task": {"name": "correlations", "point_sets": [[[1, 0]]]}},
    {"model": GAP_CONFIG["model"],
     "task": {"name": "correlations", "point_sets": [[[1, 0, 9]]]}},
    {"model": GAP_CONFIG["model"],
     "task": {"name": "correlations", "point_sets": [[[9, 0]]]}},
    {"model": GAP_CONFIG["model"], "output": {"formats": ["xml"]},
     "task": {"name": "correlations", "point_sets": [[[1, 0]]]}},
    {"task": {"name": "verify", "suite": "mystery"}},
    {"model": {"variant": "random", "seed": 1},
     "task": {"name": "correlations", "point_sets": [[[1, 0]]]}},
    # windows and janossy points are checked against the model up front
    dict(JANOSSY_CONFIG, windows=JANOSSY_CONFIG["windows"][:1]),
    dict(JANOSSY_CONFIG, task=dict(JANOSSY_CONFIG["task"],
                                   point_sets=[[[1, 1], [1, 2], [1, 3]]])),
    dict(JANOSSY_CONFIG, task=dict(JANOSSY_CONFIG["task"],
                                   point_sets=[[[1, 0], [1, 1], [1, 1]]])),
    dict(EXTREMES_CONFIG, task=dict(EXTREMES_CONFIG["task"], k=3)),
    dict(EXTREMES_CONFIG, task=dict(EXTREMES_CONFIG["task"], floor=2)),
    # JSON booleans are not integers or numbers
    dict(VERIFY_CONFIG, task=dict(VERIFY_CONFIG["task"], instances=True)),
    dict(VERIFY_CONFIG, task=dict(VERIFY_CONFIG["task"], seed=False)),
    dict(VERIFY_CONFIG, tolerances={"verify": True}),
    dict(CORR_CONFIG, task=dict(CORR_CONFIG["task"],
                                point_sets=[[[True, False]]])),
    dict(JANOSSY_CONFIG, task=dict(JANOSSY_CONFIG["task"],
                                   counts=[[True, 0]])),
    dict(EXTREMES_CONFIG, task=dict(EXTREMES_CONFIG["task"], floor=True)),
    dict(EXTREMES_CONFIG, task=dict(EXTREMES_CONFIG["task"], k=True)),
    dict(EXTREMES_CONFIG, task=dict(EXTREMES_CONFIG["task"],
                                    thresholds=[0.0, True])),
    # tolerances and thresholds must be finite
    dict(VERIFY_CONFIG, tolerances={"verify": float("nan")}),
    dict(VERIFY_CONFIG, tolerances={"heine": float("inf")}),
    dict(EXTREMES_CONFIG, task=dict(EXTREMES_CONFIG["task"],
                                    thresholds=[0.0, float("nan")])),
    dict(EXTREMES_CONFIG, task=dict(EXTREMES_CONFIG["task"],
                                    thresholds=[float("-inf"), 0.0])),
    # integer model fields must be JSON integers
    dict(GAP_CONFIG, model=dict(GAP_CONFIG["model"], particles=True)),
    dict(GAP_CONFIG, model=dict(GAP_CONFIG["model"], particles=2.7)),
    dict(GAP_CONFIG, model=dict(GAP_CONFIG["model"], floors=2.0)),
    dict(GAP_CONFIG, model=dict(GAP_CONFIG["model"], nodes=4.0)),
    dict(GAP_CONFIG, model=dict(GAP_CONFIG["model"], seed=31.5)),
    dict(EXTREMES_CONFIG, model=dict(EXTREMES_CONFIG["model"],
                                     particles=2.0)),
    {"model": {"variant": "karlin-mcgregor", "times": [0.0, 0.5, 1.0],
               "start": [0.0], "end": [0.0], "order": 16.5},
     "task": {"name": "correlations", "point_sets": [[[1, 0]]]}},
    {"model": {"variant": "karlin-mcgregor", "times": [0.0, 0.5, 1.0],
               "start": [0.0], "end": [0.0], "particles": True},
     "task": {"name": "correlations", "point_sets": [[[1, 0]]]}},
    # a quadrature space's order must be a JSON integer (one particle, so
    # a truncated one- or two-node rule would still build)
    dict(EXTREMES_CONFIG, model=dict(
        EXTREMES_CONFIG["model"], particles=1,
        space=dict(EXTREMES_CONFIG["model"]["space"], order=True))),
    dict(EXTREMES_CONFIG, model=dict(
        EXTREMES_CONFIG["model"], particles=1,
        space=dict(EXTREMES_CONFIG["model"]["space"], order=2.7))),
    # a NaN interval end used to give an empty window and gap probability 1
    dict(GAP_CONFIG, windows=[{"intervals": [[float("nan"), None]]},
                              GAP_CONFIG["windows"][1]]),
    # malformed window and space documents and output formats
    dict(GAP_CONFIG, windows=[{"intervals": [[1.0]]},
                              GAP_CONFIG["windows"][1]]),
    dict(GAP_CONFIG, windows=[{"intervals": 5}, GAP_CONFIG["windows"][1]]),
    # a mask is one JSON boolean per node, not any truthy value
    dict(GAP_CONFIG, windows=[{"mask": ["false", 0, 0, 0]},
                              GAP_CONFIG["windows"][1]]),
    dict(GAP_CONFIG, windows=[{"mask": [0.5, "x", None, {}]},
                              GAP_CONFIG["windows"][1]]),
    dict(GAP_CONFIG, windows=[{"mask": [1, 0, 0, 0]},
                              GAP_CONFIG["windows"][1]]),
    dict(GAP_CONFIG, windows=[{"mask": [True, False, False]},
                              GAP_CONFIG["windows"][1]]),
    dict(GAP_CONFIG, windows=[{"mask": "true"}, GAP_CONFIG["windows"][1]]),
    dict(EXTREMES_CONFIG, model=dict(
        EXTREMES_CONFIG["model"],
        space=dict(EXTREMES_CONFIG["model"]["space"], interval=[1]))),
    dict(EXTREMES_CONFIG, model=dict(
        EXTREMES_CONFIG["model"],
        space=dict(EXTREMES_CONFIG["model"]["space"], interval=[1, 2, 3]))),
    dict(CORR_CONFIG, output={"formats": "json"}),
    # task fields the task's runner does not read
    dict(JANOSSY_CONFIG, task=dict(JANOSSY_CONFIG["task"],
                                   point_set=[[[1, 0]]])),
    dict(JANOSSY_CONFIG, task=dict(JANOSSY_CONFIG["task"], count=[[0, 0]])),
    dict(JANOSSY_CONFIG, task=dict(JANOSSY_CONFIG["task"], dump_kernel=True)),
    dict(GAP_CONFIG, task={"name": "gap", "dump_kernel": True}),
    dict(GAP_CONFIG, task={"name": "gap", "point_sets": []}),
    dict(CORR_CONFIG, task=dict(CORR_CONFIG["task"], counts=[[0, 0]])),
    # a kernel dump is asked for with a JSON boolean, not a truthy string
    dict(CORR_CONFIG, task=dict(CORR_CONFIG["task"], dump_kernel="false")),
    dict(CORR_CONFIG, task=dict(CORR_CONFIG["task"], dump_kernel=1)),
    dict(EXTREMES_CONFIG, task=dict(EXTREMES_CONFIG["task"], threshold=[0.0])),
    dict(VERIFY_CONFIG, task=dict(VERIFY_CONFIG["task"], instance=3)),
    # tolerance keys: "verify" and suite names, on a verify task only
    dict(VERIFY_CONFIG, tolerances={"hiene": 1e-30}),
    dict(GAP_CONFIG, tolerances={"verify": 1e-9}),
    dict(GAP_CONFIG, tolerances={}),
    # window documents: numeric ends or null, one of intervals or mask,
    # nothing else
    dict(GAP_CONFIG, windows=[{"intervals": [[True, "2"]]},
                              GAP_CONFIG["windows"][1]]),
    dict(GAP_CONFIG, windows=[{"intervals": [[1.0, None]],
                               "mask": [True, False, False, False]},
                              GAP_CONFIG["windows"][1]]),
    dict(GAP_CONFIG, windows=[{"mask": [True, False, False, False],
                               "foo": 1}, GAP_CONFIG["windows"][1]]),
    # model and space arrays hold JSON numbers; each variant and space
    # kind reads its own keys
    dict(EXPLICIT_CONFIG, model=dict(EXPLICIT_CONFIG["model"], space={
        "kind": "discrete", "points": ["0", 1, 2], "masses": [1, 1, 1]})),
    dict(EXPLICIT_CONFIG, model=dict(EXPLICIT_CONFIG["model"], space={
        "kind": "discrete", "points": [0, 1, 2],
        "masses": [True, "1", 1]})),
    dict(EXTREMES_CONFIG, model=dict(EXTREMES_CONFIG["model"],
                                     potential=["0", "0", "1"])),
    dict(EXTREMES_CONFIG, model={
        "variant": "karlin-mcgregor", "times": ["0", "0.5", True],
        "start": [0.0], "end": [0.0]}),
    dict(EXTREMES_CONFIG, model={
        "variant": "coupled-chain", "particles": 1, "floors": 2,
        "potentials": [[0, 0, 1], [0, 0, 1]], "couplings": [True],
        "space": EXTREMES_CONFIG["model"]["space"]}),
    dict(EXPLICIT_CONFIG, model=dict(EXPLICIT_CONFIG["model"],
                                     f=[["1", 2, 3]])),
    dict(GAP_CONFIG, model=dict(GAP_CONFIG["model"], order=7)),
    dict(EXTREMES_CONFIG, model=dict(
        EXTREMES_CONFIG["model"],
        space=dict(EXTREMES_CONFIG["model"]["space"], points=[0.0]))),
    # a tolerance for another suite, an output key nothing reads
    dict(VERIFY_CONFIG, tolerances={"janossy": 1e-30}),
    dict(CORR_CONFIG, output={"format": ["csv"]}),
    # sections and output formats the task does not read
    dict(CORR_CONFIG, windows=[{"mask": "garbage"}]),
    dict(EXTREMES_CONFIG, windows=[{"intervals": [[0.0, None]]}]),
    dict(VERIFY_CONFIG, windows=[]),
    dict(VERIFY_CONFIG, model=GAP_CONFIG["model"]),
    dict(VERIFY_CONFIG, output={"formats": ["csv"]}),
    dict(GAP_CONFIG, output={"formats": ["json", "csv"]}),
    dict(JANOSSY_CONFIG, output={"formats": ["csv"]}),
    # a task name is a string: an unhashable one is refused, not looked up
    dict(GAP_CONFIG, task={"name": ["gap"]}),
    dict(GAP_CONFIG, task={"name": {"x": 1}}),
    # a quadrature order next to a space used to be ignored
    dict(EXTREMES_CONFIG, model={
        "variant": "karlin-mcgregor", "times": [0.0, 0.5, 1.0],
        "start": [0.0], "end": [0.0], "order": 7,
        "space": {"kind": "quadrature", "interval": [-4.0, 4.0],
                  "order": 40}}),
    # a karlin-mcgregor model takes its particle count from start, and a
    # space is a JSON object, not JSON text
    dict(EXTREMES_CONFIG, model={
        "variant": "karlin-mcgregor", "times": [0.0, 0.5, 1.0],
        "start": [0.0], "end": [0.0], "particles": 1}),
    dict(EXTREMES_CONFIG, model=dict(
        EXTREMES_CONFIG["model"],
        space=json.dumps(EXTREMES_CONFIG["model"]["space"]))),
])
def test_invalid_configs_exit_2_without_partial_files(tmp_path, doc):
    code, out_dir = run(tmp_path, doc)
    assert code == 2
    assert not os.path.exists(out_dir)


def test_budget_flag_exits_4(tmp_path):
    doc = {"task": {"name": "verify", "suite": "partition", "instances": 3,
                    "seed": 2}}
    code, _ = run(tmp_path, doc, "--budget", "2")
    assert code == 4


def test_singular_model_exits_3(tmp_path):
    doc = {
        "model": {"variant": "explicit",
                  "space": {"kind": "discrete", "points": [0.0, 1.0],
                            "masses": [1.0, 1.0]},
                  "f": [[1.0, 1.0], [1.0, 1.0]],
                  "phi": [[1.0, 1.0], [1.0, 1.0]]},
        "task": {"name": "correlations", "point_sets": [[[1, 0]]]},
    }
    code, out_dir = run(tmp_path, doc)
    assert code == 3
    assert not os.path.exists(os.path.join(out_dir, "report.json"))


def test_partition_function_overflow_exits_3(tmp_path, capsys):
    """n = 40 under weight exp(-x^2): the normalization exceeds float64."""
    doc = {
        "model": {"variant": "unitary", "potential": [0.0, 0.0, 1.0],
                  "particles": 40,
                  "space": {"kind": "quadrature", "interval": [-14.0, 14.0],
                            "order": 240}},
        "task": {"name": "correlations", "point_sets": [[[1, 120]]]},
    }
    code, out_dir = run(tmp_path, doc)
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out_dir, "report.json"))


def test_weight_overflow_exits_3_under_a_runtime_warning_filter(tmp_path,
                                                                capsys):
    """V = -x^2 on (-30, 30): the square of exp(-V/2) exceeds float64.
    With RuntimeWarning raised as an error, as CI runs the example configs,
    the run still ends in exit 3 and writes nothing."""
    doc = {
        "model": {"variant": "unitary", "potential": [0.0, 0.0, -1.0],
                  "particles": 2,
                  "space": {"kind": "quadrature", "interval": [-30.0, 30.0],
                            "order": 60}},
        "windows": [{"intervals": [[1.0, None]]}],
        "task": {"name": "gap"},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out_dir = run(tmp_path, doc)
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err
    assert not os.path.exists(os.path.join(out_dir, "report.json"))


def test_gue_gap_routes_agree_to_rounding(tmp_path):
    """docs/configs/gue-gap.json: log det A is about 1270, and the
    pairing ratio still matches a dense Fredholm determinant."""
    config = Path(__file__).parent.parent / "docs" / "configs" / "gue-gap.json"
    doc = json.loads(config.read_text())
    code, out_dir = run(tmp_path, doc)
    assert code == 0
    assert_gap_matches_dense_route(out_dir, doc)


def test_chain_gap_routes_agree_across_four_floors(tmp_path):
    """docs/configs/chain-gap.json: the pairing sweep runs through four
    floors and matches a dense Fredholm determinant."""
    config = Path(__file__).parent.parent / "docs" / "configs" / "chain-gap.json"
    doc = json.loads(config.read_text())
    assert len(doc["windows"]) == 4
    code, out_dir = run(tmp_path, doc)
    assert code == 0
    assert 0.0 < read_json(out_dir)["results"]["gap_probability"][0] < 1.0
    assert_gap_matches_dense_route(out_dir, doc)


def test_full_window_gap_is_zero_without_warning(tmp_path, capsys):
    """A window covering the space surely holds a particle: the gap
    probability is exactly 0, and no route is reported missing."""
    doc = dict(GAP_CONFIG, windows=[{"mask": [True] * 4},
                                    GAP_CONFIG["windows"][1]])
    code, out_dir = run(tmp_path, doc)
    assert code == 0
    report = read_json(out_dir)
    assert report["results"]["gap_probability"] == [0.0, 0.0]
    assert report["warnings"] == []
    assert "warning" not in capsys.readouterr().out


def test_imaginary_residue_exits_3(tmp_path, monkeypatch, capsys):
    exact = janossy.count_distribution

    def with_residue(ensemble, windows):
        return exact(ensemble, windows) + 1e-3j

    monkeypatch.setattr(janossy, "count_distribution", with_residue)
    code, out_dir = run(tmp_path, EXTREMES_CONFIG)
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out_dir, "report.json"))


def test_tolerance_override_exits_1_but_writes_report(tmp_path):
    doc = {"task": {"name": "verify", "suite": "correlations",
                    "instances": 6, "seed": 2},
           "tolerances": {"verify": 1e-30}}
    code, out_dir = run(tmp_path, doc)
    assert code == 1
    report = read_json(out_dir)
    assert report["passed"] is False


def test_partition_override_judges_relative_error(tmp_path):
    doc = {"task": {"name": "verify", "suite": "partition", "instances": 6,
                    "seed": 2}}
    code, out_dir = run(tmp_path, doc, out="plain")
    assert code == 0
    records = read_json(out_dir)["results"]["records"]
    max_abs = max(r["abs_error"] for r in records)
    max_rel = max(r["rel_error"] for r in records)
    assert max_abs < max_rel
    # every absolute error clears this bar, some relative error does not
    tol = (max_abs * max_rel) ** 0.5
    code, out_dir = run(tmp_path, dict(doc, tolerances={"partition": tol}),
                        out="tight")
    assert code == 1
    results = read_json(out_dir)["results"]
    assert results["tolerance"] == tol
    failed = [r for r in results["records"] if r["status"] == "fail"]
    assert failed
    assert all(r["rel_error"] > tol >= r["abs_error"] for r in failed)


def test_override_keeps_a_failed_probe_failing(tmp_path, monkeypatch):
    """A record that compares nothing is not re-judged by an override: a
    window construction that wrongly accepts full windows still fails the
    resolvent suite under the loosest tolerance."""
    exact = verify.janossy_kernel_explicit

    def accepts_full_windows(ensemble, windows):
        if all(w.count == ensemble.space.size for w in windows.windows):
            return None
        return exact(ensemble, windows)

    monkeypatch.setattr(verify, "janossy_kernel_explicit",
                        accepts_full_windows)
    doc = {"task": {"name": "verify", "suite": "resolvent", "instances": 3,
                    "seed": 5},
           "tolerances": {"resolvent": 1.0}}
    code, out_dir = run(tmp_path, doc)
    assert code == 1
    first = read_json(out_dir)["results"]["records"][0]
    assert first["quantity"] == "full windows reject"
    assert first["status"] == "fail"
    assert first["judged_error"] is None


def test_counts_only_janossy_task_builds_no_complement_tables(
        tmp_path, complement_builds):
    """The all-empty probability and the count law need no Janossy kernel:
    only a density builds the complement tables."""
    counts_only = dict(JANOSSY_CONFIG, task=dict(JANOSSY_CONFIG["task"],
                                                 point_sets=[]))
    code, out_dir = run(tmp_path, counts_only, out="counts")
    assert code == 0
    results = read_json(out_dir)["results"]
    assert results["kind"] == "janossy-explicit"
    assert len(results["count_probabilities"]) == 2
    assert complement_builds == []
    code, _ = run(tmp_path, JANOSSY_CONFIG, out="densities")
    assert code == 0
    assert len(complement_builds) == 1


JANOSSY_SIX_FLOORS = {
    "model": {"variant": "random", "seed": 5, "nodes": 4, "particles": 2,
              "floors": 6},
    "windows": [{"mask": [True, True, False, False]}] * 6,
    "task": {"name": "janossy",
             "counts": [[0] * 6, [1, 0, 0, 0, 0, 2], [2] * 6]},
}


def test_janossy_count_law_respects_the_budget(tmp_path, capsys):
    """The law has (n+1)^M = 3^6 entries: one fewer allowed is a clean
    exit 4 before any report, exactly enough runs."""
    code, out_dir = run(tmp_path, JANOSSY_SIX_FLOORS, "--budget",
                        str(3 ** 6 - 1), out="tight")
    assert code == 4
    assert "budget exceeded" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out_dir, "report.json"))
    code, out_dir = run(tmp_path, JANOSSY_SIX_FLOORS, "--budget",
                        str(3 ** 6), out="fits")
    assert code == 0
    results = read_json(out_dir)["results"]
    rows = results["count_probabilities"]
    assert [r["counts"] for r in rows] == JANOSSY_SIX_FLOORS["task"]["counts"]
    assert rows[0]["probability"] == pytest.approx(
        results["all_empty_probability"][0], abs=1e-12)
    # a random model is a signed measure: its "probabilities" may be negative
    assert rows[2]["probability"] != 0.0


def test_kernel_dump_respects_the_budget(tmp_path, capsys):
    """A dump of M=2, P=4 writes (M P)^2 = 64 kernel rows: a budget of 63
    exits 4 before the output directory exists, 64 writes the dump."""
    code, out_dir = run(tmp_path, CORR_CONFIG, "--budget", "63", out="tight")
    assert code == 4
    assert "budget exceeded" in capsys.readouterr().err
    assert not os.path.exists(out_dir)
    code, out_dir = run(tmp_path, CORR_CONFIG, "--budget", "64", out="fits")
    assert code == 0
    lines = Path(out_dir, "kernel.csv").read_text().splitlines()
    assert len(lines) == 2 + 64


@pytest.mark.parametrize("doc,args,code", [
    # a window covering every node: the complement pairing is singular
    ({"model": {"variant": "random", "seed": 31, "nodes": 4,
                "particles": 2, "floors": 1},
      "windows": [{"mask": [True] * 4}],
      "task": {"name": "janossy", "point_sets": [[[1, 0]]]}}, (), 3),
    # a count law of (n + 1)^M = 27 entries against a budget of 5
    ({"model": {"variant": "random", "seed": 31, "nodes": 4,
                "particles": 2, "floors": 3},
      "windows": [{"mask": [True, False, False, False]}] * 3,
      "task": {"name": "janossy", "counts": [[0, 0, 0]]}},
     ("--budget", "5"), 4),
    # numpy refuses the order-1e7 rule's companion matrix (728 TiB)
    ({"model": {"variant": "unitary", "potential": [0.0, 0.0, 0.5],
                "particles": 2,
                "space": {"kind": "quadrature", "interval": [-6, 6],
                          "order": 10_000_000}},
      "task": {"name": "extremes", "thresholds": [0.0]}}, (), 4),
], ids=["full-window", "count-budget", "huge-order"])
def test_failure_after_the_model_is_built_leaves_no_output_dir(
        tmp_path, capsys, doc, args, code):
    """The output directory is made at the first file write, so a run that
    fails while computing leaves none behind."""
    got, out_dir = run(tmp_path, doc, *args)
    assert got == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ")
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize("vec", [[3, 0], [0, 0, 0]])
def test_count_vector_outside_the_model_exits_2(tmp_path, vec):
    doc = {"model": GAP_CONFIG["model"], "windows": GAP_CONFIG["windows"],
           "task": {"name": "janossy", "counts": [vec]}}
    code, out_dir = run(tmp_path, doc)
    assert code == 2
    assert not os.path.exists(out_dir)


def test_seed_flag_overrides_verify_seed(tmp_path):
    doc = {"task": {"name": "verify", "suite": "heine", "instances": 3,
                    "seed": 2}}
    code_a, out_a = run(tmp_path, doc, out="a")
    code_b, out_b = run(tmp_path, doc, "--seed", "2", out="b")
    code_c, out_c = run(tmp_path, doc, "--seed", "99", out="c")
    assert code_a == code_b == code_c == 0
    ra = read_json(out_a)
    rb = read_json(out_b)
    rc = read_json(out_c)
    assert ra["results"]["records"] == rb["results"]["records"]
    assert ra["results"]["records"] != rc["results"]["records"]


def test_seed_argument_replaces_a_random_models_seed(tmp_path):
    """seed=7 gives the values of the config with "seed": 7 written in;
    the report keeps the config as given, and the caller's dict is left
    unchanged."""
    doc = json.loads(json.dumps(JANOSSY_CONFIG))
    given = json.loads(json.dumps(doc))
    report = run_experiment(doc, str(tmp_path / "flag"), seed=7)
    assert doc == given
    assert report.config["model"]["seed"] == JANOSSY_CONFIG["model"]["seed"]
    written = dict(doc, model=dict(doc["model"], seed=7))
    direct = run_experiment(written, str(tmp_path / "written"))
    assert report.results == direct.results
    other = run_experiment(doc, str(tmp_path / "plain"))
    assert other.results != report.results


def test_negative_seed_exits_2_without_output_dir(tmp_path):
    code, out_dir = run(tmp_path, VERIFY_CONFIG, "--seed", "-1")
    assert code == 2
    assert not os.path.exists(out_dir)
    out_dir = str(tmp_path / "direct")
    for seed in (-1, 2.5, True):
        with pytest.raises(ConfigError):
            run_experiment(VERIFY_CONFIG, out_dir, seed=seed)
    assert not os.path.exists(out_dir)


def test_bad_threads_and_budget_raise_before_any_output(tmp_path):
    """Non-integers, booleans and values below 1 are refused, not rounded
    or clamped."""
    out_dir = str(tmp_path / "direct")
    for key in ("threads", "budget"):
        for value in (0, -1, 9.9, 2.7, True, "2", None):
            with pytest.raises(ConfigError, match=key):
                run_experiment(VERIFY_CONFIG, out_dir, **{key: value})
    assert not os.path.exists(out_dir)


def test_missing_config_file_exits_2(tmp_path):
    code = main(["run", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "never")])
    assert code == 2
    assert not (tmp_path / "never").exists()


def test_bad_flag_values_exit_2(tmp_path):
    cfg = write_config(tmp_path, VERIFY_CONFIG)
    assert main(["run", cfg, "--threads", "0"]) == 2
    assert main(["run", cfg, "--budget", "0"]) == 2


def test_no_leftover_temp_files(tmp_path):
    _, out_dir = run(tmp_path, CORR_CONFIG)
    leftovers = [name for name in os.listdir(out_dir)
                 if name.startswith(".tmp-") or name.endswith(".tmp")]
    assert leftovers == []
