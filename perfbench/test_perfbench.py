"""Tests of the benchmark itself: its contract, statistics, oracle and counts.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import spec

assert run._import_program() is None

from cluster import ClusterWorkload  # noqa: E402
from repro.core.budget import BudgetWindowSpec  # noqa: E402
from repro.core.controller import LocalController  # noqa: E402
from serving import Request, ServeWorkload, add_request, match_request  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TestContract:
    """BENCHMARK.json follows the benchmark contract."""

    def test_benchmark_json_is_generated_from_spec(self) -> None:
        on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert on_disk == spec.benchmark_json()

    def test_shape(self) -> None:
        bench = spec.benchmark_json()
        assert set(bench) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
        }
        assert 1 <= bench["run_seconds"] <= 60
        assert 2 <= len(bench["workloads"]) <= 8
        assert 1 <= len(bench["end_to_end"]) <= 16
        assert 1 <= len(bench["per_layer"]) <= 128
        names = [w["name"] for w in bench["workloads"]]
        names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        for entry in bench["workloads"]:
            assert set(entry) == {"name", "why"}
            assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        for metric in bench["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in bench["end_to_end"] + bench["per_layer"]:
            assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")

    def test_setup_has_the_largest_bound(self) -> None:
        bounds = {m["name"]: m["bound"] for m in spec.END_TO_END}
        assert bounds["setup_s"] == max(bounds.values())


class TestStatistics:
    """Percentiles and their sample-count rule."""

    def test_nearest_rank_percentile(self) -> None:
        values = list(range(1, 101))
        assert harness.percentile(values, 50) == 50
        assert harness.percentile(values, 90) == 90
        assert harness.percentile(values, 100) == 100

    def test_tail_falls_back_when_too_few_samples_lie_beyond(self) -> None:
        assert harness.supports(1000, 99) and not harness.supports(999, 99)
        assert harness.tail(list(range(1000)))[0] == "p99"
        assert harness.tail(list(range(200)))[0] == "p95"
        assert harness.tail(list(range(5)))[1] is None


    def test_warm_up_timings_are_dropped_but_failures_kept(self) -> None:
        tally = harness.Tally()
        tally.match_seconds.append(0.5)
        tally.events, tally.attempted = 1, 1
        tally.fail(0, "MATCH", "answer differs from fx-tm")
        tally.reset_timings()
        assert (tally.requests, tally.events) == (0, 0)
        assert (tally.attempted, tally.failed) == (1, 1)


class TestRoundTrip:
    """Generated requests and the text self-check."""

    def test_micro_lines_parse_back(self) -> None:
        workload = ServeWorkload("serve-churn", seed=3)
        chunk = next(workload.stream())
        assert {request.kind for request in chunk} == {"ADD", "CANCEL", "MATCH"}
        assert all(isinstance(request, Request) for request in chunk)

    def test_yahoo_round_trip_is_recorded(self) -> None:
        report = ClusterWorkload(seed=3).text_roundtrip
        assert report["subscriptions"] == spec.CLUSTER_N
        assert report["events"] == spec.CLUSTER_POOL


class TestOracle:
    """Answers are compared with the reference engine."""

    def test_a_wrong_answer_counts_as_failed(self) -> None:
        workload = ServeWorkload("serve-budget", seed=4)
        engine, _ = workload.setup()
        oracle = workload.oracle()
        chunk = next(workload.stream())[:3]
        capture = harness.Capture(LocalController(engine))
        for request in chunk:
            list(capture.run([request.line]))
        capture.responses[1].results.reverse()
        tally = harness.Tally()
        workload._check(chunk, capture.responses, oracle, tally)
        assert (tally.attempted, tally.failed) == (3, 1)
        assert tally.failures[0]["request"] == 1

    def test_budget_round_trip_keeps_the_window(self) -> None:
        subscription = ServeWorkload("serve-churn", seed=5).initial[0].payload
        request = add_request(subscription, BudgetWindowSpec(250.0, 1e8))
        assert request.line.endswith("BUDGET 250.0 WINDOW 100000000.0")
        event = ServeWorkload("serve-churn", seed=5).workload.events(1)[0]
        assert match_request(event, 7).line.startswith("MATCH 7 ")


@pytest.mark.parametrize("name", ["serve-budget", "serve-churn", "cluster-batch"])
def test_counts_repeat_exactly_for_a_seed(name: str) -> None:
    def counts() -> dict:
        workload = ClusterWorkload(7) if name == "cluster-batch" else ServeWorkload(name, 7)
        return workload.count()

    first, second = counts(), counts()
    assert first == second
    assert first["structures.scanned"] > 0
    assert (first["budget.charges_per_match"] > 0) == (name == "serve-budget")
    assert (first["probecache.lookups"] > 0) == (name == "cluster-batch")


def test_one_run_prints_every_end_to_end_metric() -> None:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-budget",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [metric["name"] for metric in spec.END_TO_END]
    for metric in spec.END_TO_END:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-budget",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
