"""The request-path benchmark: one command per workload run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-budget --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the traced pass and prints the per-layer metrics instead.  Every
answer is checked against the reference engine.  Human-readable lines
go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (versions, parameters, sample counts) is appended to
``perfbench/out/runs.jsonl`` and the traced run's spans are written to
``perfbench/out/``.

``python3 perfbench/run.py --write-spec`` rewrites ``BENCHMARK.json``
from ``perfbench/spec.py``.

The program under test is imported from ``src/`` of the same checkout;
without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import harness
import spec

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _import_program() -> Optional[str]:
    """Put ``src/`` on the path and import ``repro`` from it; returns an error or None."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        return f"no program to benchmark: {source / 'repro'} is missing"
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        return f"imported repro from {repro.__file__}, not from {source}"
    return None


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


def _workload(name: str, seed: int) -> Any:
    if name == "cluster-batch":
        from cluster import ClusterWorkload

        return ClusterWorkload(seed)
    from serving import ServeWorkload

    return ServeWorkload(name, seed)


def end_to_end(result: Dict[str, Any]) -> "tuple[Dict[str, float], Dict[str, Any], Dict[str, int]]":
    """Gated metrics, extra (workload-specific) metrics, and sample counts."""
    tally = result["tally"]
    match_ms = [seconds * 1e3 for seconds in tally.match_seconds]
    write_ms = [seconds * 1e3 for seconds in tally.write_seconds]
    sim_ms = [seconds * 1e3 for seconds in result["sim_seconds"]]
    gated = {
        "requests_per_s": tally.requests_per_s(),
        "events_per_s": tally.events_per_s(),
        "match_p90_ms": harness.percentile(match_ms, 90),
        "setup_s": harness.median(result["setup_seconds"]),
    }
    samples = {
        "requests_per_s": tally.requests,
        "events_per_s": tally.events,
        "match_p90_ms": len(match_ms),
        "setup_s": len(result["setup_seconds"]),
    }
    if not harness.supports(len(match_ms), 90):
        raise RuntimeError(f"{len(match_ms)} match samples do not support p90; run longer")
    extra: Dict[str, Any] = {"index_mb": result["index_mb"]}
    samples["index_mb"] = 1
    for prefix, values in (("match", match_ms), ("write", write_ms), ("sim_latency", sim_ms)):
        if not values:
            continue
        extra[f"{prefix}_p50_ms"] = harness.percentile(values, 50)
        samples[f"{prefix}_p50_ms"] = len(values)
        name, value = harness.tail(values)
        if value is not None:
            extra[f"{prefix}_{name}_ms"] = value
            samples[f"{prefix}_{name}_ms"] = len(values)
    extra["failed_fraction"] = tally.failed / tally.attempted
    samples["failed_fraction"] = tally.attempted
    return gated, extra, samples


def _units() -> Dict[str, str]:
    metrics = spec.END_TO_END + spec.EXTRA_END_TO_END + spec.PER_LAYER
    return {metric["name"]: metric["unit"] for metric in metrics}


def _unit(name: str, units: Dict[str, str]) -> str:
    return units.get(name, "ms" if name.endswith("_ms") else "")


def _write_outputs(record: Dict[str, Any], traces: List[Any]) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    if traces:
        name = f"spans-{record['workload']}-seed{record['seed']}.json"
        with open(OUT / name, "w", encoding="utf-8") as handle:
            json.dump([span.to_dict() for span in traces], handle)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run; returns the result object printed as the last line."""
    entry = spec.workload(workload_name)
    workload = _workload(workload_name, seed)
    units = _units()
    record: Dict[str, Any] = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": _environment(),
        "params": entry["params"],
        "loads": entry["loads"],
        "bypasses": entry["bypasses"],
        "text_roundtrip": getattr(workload, "text_roundtrip", "every ADD/MATCH line checked"),
    }
    traces: List[Any] = []
    if trace:
        out: Dict[str, Any] = {}
        result = workload.trace(seconds, out)
        traces = out.get("traces", [])
        tallies = result["tallies"]
        metrics = result["metrics"]
        attempted = sum(tally.attempted for tally in tallies)
        failed = sum(tally.failed for tally in tallies)
        record["samples"] = {
            "untraced_requests": tallies[0].requests,
            "traced_requests": tallies[1].requests,
            "profile_samples": int(metrics["profile.samples"]),
            "counted_events": int(metrics["structures.events"]),
        }
        record["phases"] = result["phases"]
        record["profile"] = out.get("profile")
        failures = [f for tally in tallies for f in tally.failures]
        shown = metrics
    else:
        result = workload.measure(seconds)
        tally = result["tally"]
        metrics, extra, samples = end_to_end(result)
        attempted, failed = tally.attempted, tally.failed
        record["samples"] = samples
        record["extra"] = extra
        failures = tally.failures
        shown = {**metrics, **extra}
    record["metrics"] = metrics
    record["failures"] = failures
    record["correct"] = failed == 0
    _write_outputs(record, traces)

    print(f"workload {workload_name} seed {seed} ({'traced' if trace else 'untraced'})")
    if isinstance(record["text_roundtrip"], dict):
        roundtrip = record["text_roundtrip"]
        print(
            f"text self-check: {roundtrip['subscription_failures']}/{roundtrip['subscriptions']} "
            f"subscriptions and {roundtrip['event_failures']}/{roundtrip['events']} events "
            f"do not round-trip ({roundtrip['first_error']})"
        )
    for name, value in shown.items():
        count = record["samples"].get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{name} = {value!r} {_unit(name, units)}{suffix}")
    for failure in failures:
        print(f"failed request {failure}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, run one workload and print its result; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.render_benchmark_json(), encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    problem = _import_program()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
