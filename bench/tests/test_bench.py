"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import kfr.cli  # noqa: E402
import kfr.krein  # noqa: E402
import kfr.linalg  # noqa: E402
import run  # noqa: E402
from spans import SPAN_NAMES, Span, Tracer, layer_metrics, self_times  # noqa: E402
from verify import expect, problems, verdict_failures  # noqa: E402
from workloads import WORKLOADS, build_instances, coordinate_payload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(id, parent, start, end, name="x"):
    return Span(id, parent, 0, name, start, end, False)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),  # child of 0, with its own child
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 6.5),
        _span(4, None, 20.0, 21.0),  # second root, no children
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.5)
    assert own[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0), _span(2, 0, 3.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tail_keeps_ten_samples_beyond_but_not_below_p90():
    assert run.tail([float(i) for i in range(200)]) == (189.0, pytest.approx(100 * 189 / 199), 10)
    assert run.tail([float(i) for i in range(8)]) == (7.0, 100.0, 0)
    value, percentile, beyond = run.tail([float(i) for i in range(21)])
    assert (value, percentile, beyond) == (18.0, 90.0, 2)


def test_central_is_the_median_of_few_samples_and_a_band_mean_of_many():
    for n in range(1, 12):
        samples = [float(i * i) for i in range(n)]
        assert run.central(samples) == pytest.approx(statistics.median(samples))
    assert run.central([1.0] * 45 + [2.0] * 11 + [9.0] * 45) == 2.0
    gap = [1.0] * 50 + [9.0] * 50
    assert 1.0 < run.central(gap) < 9.0


def test_traced_check_counts_39_eigensolves_and_restores_modules(tmp_path):
    instance = tmp_path / "d48.json"
    assert kfr.cli.main(
        ["gen", "--seed", "1", "--dim", "48", "--subspaces", "3", "--output", str(instance)]
    ) == 0
    untraced = tmp_path / "untraced.json"
    assert kfr.cli.main(["check", "--input", str(instance), "--output", str(untraced)]) == 0
    original = kfr.linalg.symmetric_eig
    traced = tmp_path / "traced.json"
    with Tracer() as tracer:
        assert kfr.krein.symmetric_eig is not original
        assert kfr.cli.main(["check", "--input", str(instance), "--output", str(traced)]) == 0
    assert kfr.linalg.symmetric_eig is original
    assert kfr.krein.symmetric_eig is original
    metrics = layer_metrics(tracer, passes=1)
    assert metrics["linalg.symmetric_eig.calls"] == 39
    assert metrics["cli.main.calls"] == 1
    assert metrics["linalg.symmetric_eig.work_n3"] > 0
    assert traced.read_bytes() == untraced.read_bytes()


def test_coordinate_generator_is_deterministic_and_passes_check(tmp_path):
    workload = WORKLOADS["coord_large"]
    first = build_instances(workload, 5)
    assert [i.text for i in first] == [i.text for i in build_instances(workload, 5)]
    assert first[0].text != build_instances(workload, 6)[0].text
    payload = coordinate_payload(3, 40, 4)
    assert payload == coordinate_payload(3, 40, 4)
    for instance in first:
        path = tmp_path / f"{instance.name}.json"
        path.write_text(instance.text, encoding="utf-8")
        report = tmp_path / "report.json"
        assert kfr.cli.main(["check", "--input", str(path), "--output", str(report)]) == 0
        assert problems(expect(instance, ("check",)), ("check",), 0, report.read_bytes()) == []
        report.unlink()


def test_verifier_reports_false_verdicts_and_wrong_bounds():
    sections = {"checks": {"a": True, "b": False}, "boundsAgree": False, "other": False}
    assert verdict_failures(sections) == ["checks.b", "boundsAgree"]
    instance = build_instances(WORKLOADS["mixed_small"], 1)[0]
    expected = expect(instance, WORKLOADS["mixed_small"].commands)
    assert set(expected.bounds) == {"hilbert", "krein"}
    report = {"sections": {"metric": "hilbert", "bounds": {"lower": 1e-3, "upper": 1e3}}}
    found = problems(expected, ("analyze", "--metric", "hilbert"), 0, json.dumps(report).encode())
    assert len(found) == 1 and "reference" in found[0]
    assert problems(expected, ("gen",), 0, instance.text.encode()) == []
    assert problems(expected, ("gen",), 0, b"{}") != []
    assert problems(expected, ("check",), 3, b"{}") == ["exit status 3"]
    assert problems(expected, ("check",), 0, b"{")[0].startswith("malformed report")


def test_metric_names_are_well_formed_and_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    produced_layers = set(layer_metrics(Tracer(), passes=1)) | {"trace.overhead_ratio"}
    assert end_to_end == set(run.RESULT_LINE_METRICS)
    assert per_layer == produced_layers
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    for name in [*run.END_TO_END_UNITS, *produced_layers, *SPAN_NAMES, *WORKLOADS]:
        assert NAME.fullmatch(name), name


def _result_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_two_seeds_give_the_same_metric_set(capsys, monkeypatch, tmp_path, trace):
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(run, "RESULTS_DIR", tmp_path / "results")
    keys = []
    for seed in ("1", "2"):
        argv = ["--workload", "coord_large", "--seed", seed, "--seconds", "0.01", "--trace", trace]
        assert run.main(argv) == 0
        result = _result_line(capsys)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        keys.append(set(result["metrics"]))
    assert keys[0] == keys[1]


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "__pycache__", ".work", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mixed_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
