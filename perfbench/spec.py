"""What the benchmark measures: workloads, metrics and the layer map.

This module is pure data (it imports nothing from ``repro``), so it can
be read without the program on the path.  ``BENCHMARK.json`` at the repo
root is generated from it (``python3 perfbench/run.py --write-spec``)
and ``test_perfbench.py`` checks that the two agree.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

#: Workload parameters.  ``n``/``k`` are the population and result size;
#: everything else is described in ``WORKLOADS``.
SERVE_N = 4000
SERVE_K = SERVE_N // 100
#: Budget windows are far longer than any run (the logical clock ticks
#: once per MATCH), and budgets are at least this share of the window, so
#: no campaign's window ends or budget runs out during a run.
BUDGET_WINDOW = 1e8
BUDGET_RATE = (0.005, 0.02)
#: serve-churn's request cycle: three MATCHes, then one ADD and one CANCEL.
CHURN_CYCLE = ("MATCH", "MATCH", "MATCH", "ADD", "CANCEL")

CLUSTER_N = 8000
CLUSTER_K = 10
CLUSTER_LEAVES = 9
CLUSTER_FANOUT = 3
CLUSTER_REPLICATION = 2
CLUSTER_BATCH = 16
CLUSTER_POOL = 64

#: What the seed decides.  Each workload's population (and the micro
#: generator's interval calibration, and the cluster's hot pool) is a
#: fixed corpus from the generator's default seed, as the paper's datasets
#: are fixed.  The run's seed picks the traffic: the events, budgets,
#: churn victims and fresh subscriptions, and the batch draws.  Re-seeding
#: the corpus re-calibrates interval widths, which moved the work per
#: MATCH by about 10% between seeds and would swamp the bounds.
CORPUS = "fixed (generator default seed); --seed drives the request stream"
#: Generator streams (and fresh sids) reserved per seed.
STREAMS_PER_SEED = 10**6

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Requests are sent for this long, checked but not timed, before the
#: measured ``--seconds`` start.
WARMUP_SECONDS = 1.0
#: Requests (serve-*) or batches (cluster-batch) in the untimed counting
#: pass; a fixed prefix of the seeded stream, so counts repeat exactly.
COUNT_REQUESTS = {"serve-budget": 200, "serve-churn": 250, "cluster-batch": 24}

WORKLOADS: List[Dict[str, Any]] = [
    {
        "name": "serve-budget",
        "why": (
            "Budgeted ADDs, then distinct MATCH lines through LocalController and "
            "cli.serve on fx-tm-array: loads budget pacing, the SoA scan and "
            "fold/select; bypasses cache, writes, cluster."
        ),
        "params": {
            "generator": "MicroWorkload (Table 2 defaults)", "corpus": CORPUS,
            "n": SERVE_N, "k": SERVE_K,
            "prorate": True, "engine": "fx-tm-array", "backend": "auto",
            "budget_window": BUDGET_WINDOW, "budget_rate": list(BUDGET_RATE),
            "stream": "all MATCH, every event distinct",
        },
        "loads": ["cli.serve", "core.controller", "core.parser", "core.budget",
                  "structures.soa", "core.array_matcher"],
        "bypasses": ["core.probecache", "writes", "distributed.*"],
    },
    {
        "name": "serve-churn",
        "why": (
            "Same text path without budgets; one ADD and one CANCEL per three MATCHes "
            "at constant N: loads index insert/delete, read-view rebuilds and "
            "subscription parsing; bypasses budget."
        ),
        "params": {
            "generator": "MicroWorkload (Table 2 defaults)", "corpus": CORPUS,
            "n": SERVE_N, "k": SERVE_K,
            "prorate": True, "engine": "fx-tm-array", "backend": "auto",
            "cycle": list(CHURN_CYCLE),
            "stream": "fresh subscriptions replace random live ones; events distinct",
        },
        "loads": ["cli.serve", "core.controller", "core.parser", "structures.soa",
                  "core.array_matcher (insert/delete, view rebuild)"],
        "bypasses": ["core.budget", "core.probecache", "distributed.*"],
    },
    {
        "name": "cluster-batch",
        "why": (
            "Yahoo twin, 9 fx-tm-array leaves, 16-event Zipf batches from 64 hot "
            "events: loads dispatch, merge, hops, probe cache. Library API: the "
            "twin's genre:<id>=True has no grammar form."
        ),
        "params": {
            "generator": "YahooWorkload", "corpus": CORPUS, "n": CLUSTER_N, "k": CLUSTER_K,
            "prorate": True, "engine": "fx-tm-array", "backend": "auto",
            "leaves": CLUSTER_LEAVES, "fanout": CLUSTER_FANOUT,
            "replication": CLUSTER_REPLICATION, "batch": CLUSTER_BATCH,
            "pool": CLUSTER_POOL, "pool_weights": "1/rank",
            "text_path": "not used: render_subscription output of the Yahoo twin "
                         "raises ParseError (genre:<id> names, True values)",
        },
        "loads": ["distributed.cluster", "distributed.merge", "distributed.network",
                  "core.probecache", "structures.soa (discrete buckets)"],
        "bypasses": ["core.budget", "writes", "core.parser", "cli.serve"],
    },
]

#: End-to-end metrics reported by every untraced run, on every workload.
#: The host alternates between a fast and a slow state lasting seconds to
#: minutes (one batch took 35 or 65 ms), so a run's figures move with the
#: share of it spent slow.  Over ten seeds the quartile distance over the
#: median of requests_per_s read 0.08 to 0.20 with 30 s runs (0.10 to 0.26
#: with 20 s runs), so every bound is the 0.25 ceiling.  match_p50_ms fell
#: between the two states and spread by up to 0.27, so it is printed but
#: not gated.
END_TO_END: List[Dict[str, Any]] = [
    {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "match_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

#: Printed and recorded beside the gated metrics above, where the
#: workload has them.  ``match_p50_ms`` is too unsteady (see above),
#: ``index_mb`` is the same on every run of a workload, ``failed_fraction``
#: is normally 0, and the others exist on one workload only.
EXTRA_END_TO_END: List[Dict[str, Any]] = [
    {"name": "match_p50_ms", "unit": "ms", "workloads": "all"},
    {"name": "index_mb", "unit": "MB", "workloads": "all"},
    {"name": "match_p99_ms", "unit": "ms", "workloads": "all (when the run supports it)"},
    {"name": "write_p50_ms", "unit": "ms", "workloads": "serve-churn"},
    {"name": "write_p99_ms", "unit": "ms", "workloads": "serve-churn"},
    {"name": "sim_latency_p50_ms", "unit": "ms", "workloads": "cluster-batch"},
    {"name": "sim_latency_p99_ms", "unit": "ms", "workloads": "cluster-batch"},
    {"name": "failed_fraction", "unit": "ratio", "workloads": "all"},
]

_SERVE_TEXT = "match_p50_ms on serve-*, write_p50_ms on serve-churn; none on cluster-batch"
_ENGINE = "match_p99_ms, write_p50_ms, requests_per_s on serve-churn"
_PHASE = "match_p50_ms on serve-*"
_CLUSTER = "sim_latency_p50_ms/p99, events_per_s on cluster-batch only"

#: Per-layer metrics of the traced run, each with the end-to-end metric
#: (and workload) it should move.  Metrics that do not apply to a
#: workload are reported as 0 there.
PER_LAYER: List[Dict[str, Any]] = [
    {"name": "cli.render_us", "unit": "us", "better": "lower", "moves": _SERVE_TEXT},
    {"name": "controller.parse_request_us", "unit": "us", "better": "lower", "moves": _SERVE_TEXT},
    {"name": "parser.parse_event_us", "unit": "us", "better": "lower", "moves": _SERVE_TEXT},
    {"name": "parser.parse_subscription_us", "unit": "us", "better": "lower", "moves": _SERVE_TEXT},
    {"name": "engine.match_us", "unit": "us", "better": "lower",
     "moves": _ENGINE + "; match_p50_ms on serve-budget"},
    {"name": "engine.match_after_write_us", "unit": "us", "better": "lower", "moves": _ENGINE},
    {"name": "engine.add_us", "unit": "us", "better": "lower", "moves": _ENGINE},
    {"name": "engine.cancel_us", "unit": "us", "better": "lower", "moves": _ENGINE},
    {"name": "engine.match_batch_us", "unit": "us", "better": "lower", "moves": _CLUSTER},
    {"name": "budget.multiplier_calls_per_match", "unit": "count", "better": "lower",
     "moves": "match_p50_ms on serve-budget; 0 elsewhere"},
    {"name": "budget.charges_per_match", "unit": "count", "better": "lower",
     "moves": "match_p50_ms on serve-budget; 0 elsewhere"},
    {"name": "phase.master_index.lookup_share", "unit": "ratio", "better": "lower", "moves": _PHASE},
    {"name": "phase.attribute.probe_share", "unit": "ratio", "better": "lower", "moves": _PHASE},
    {"name": "phase.candidates.score_share", "unit": "ratio", "better": "lower", "moves": _PHASE},
    {"name": "phase.topk.select_share", "unit": "ratio", "better": "lower", "moves": _PHASE},
    {"name": "module.budget_share", "unit": "ratio", "better": "lower", "moves": _PHASE},
    {"name": "module.soa_share", "unit": "ratio", "better": "lower", "moves": _PHASE},
    {"name": "profile.samples", "unit": "count", "better": "higher",
     "moves": "base of the phase.* and module.* shares"},
    {"name": "structures.probes_per_event", "unit": "count", "better": "lower",
     "moves": "match_p50_ms on serve-*; little on cluster-batch"},
    {"name": "structures.scanned_per_event", "unit": "count", "better": "lower",
     "moves": "match_p50_ms on serve-*; little on cluster-batch"},
    {"name": "structures.candidates_per_event", "unit": "count", "better": "lower",
     "moves": "match_p50_ms on serve-*; little on cluster-batch"},
    {"name": "structures.candidate_yield", "unit": "ratio", "better": "higher",
     "moves": "match_p50_ms on serve-*; little on cluster-batch"},
    {"name": "structures.scanned", "unit": "count", "better": "lower",
     "moves": "base of candidate_yield"},
    {"name": "structures.ranged_candidates", "unit": "count", "better": "lower",
     "moves": "base of candidate_yield"},
    {"name": "structures.events", "unit": "count", "better": "higher",
     "moves": "base of the per-event structures.* counts"},
    {"name": "probecache.hits", "unit": "count", "better": "higher",
     "moves": "events_per_s on cluster-batch; 0 on serve-*"},
    {"name": "probecache.lookups", "unit": "count", "better": "lower",
     "moves": "events_per_s on cluster-batch; 0 on serve-*"},
    {"name": "probecache.hit_ratio", "unit": "ratio", "better": "higher",
     "moves": "events_per_s on cluster-batch; 0 on serve-*"},
    {"name": "cluster.match_batch_us", "unit": "us", "better": "lower", "moves": _CLUSTER},
    {"name": "cluster.local_max_ms", "unit": "ms", "better": "lower", "moves": _CLUSTER},
    {"name": "cluster.local_skew", "unit": "ratio", "better": "lower", "moves": _CLUSTER},
    {"name": "cluster.merge_us", "unit": "us", "better": "lower", "moves": _CLUSTER},
    {"name": "cluster.aggregation_ms", "unit": "ms", "better": "lower", "moves": _CLUSTER},
    {"name": "cluster.retries", "unit": "count", "better": "lower", "moves": _CLUSTER},
    {"name": "cluster.hops_timed_out", "unit": "count", "better": "lower", "moves": _CLUSTER},
    {"name": "cluster.coverage_min", "unit": "ratio", "better": "higher", "moves": _CLUSTER},
    {"name": "trace.overhead_fraction", "unit": "ratio", "better": "lower",
     "moves": "requests_per_s untraced vs traced, per workload"},
]


def workload(name: str) -> Dict[str, Any]:
    """The workload entry named ``name``; raises ``KeyError`` if unknown."""
    for entry in WORKLOADS:
        if entry["name"] == name:
            return entry
    raise KeyError(name)


def benchmark_json() -> Dict[str, Any]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [dict(metric) for metric in END_TO_END],
        "per_layer": [
            {key: metric[key] for key in ("name", "unit", "better")} for metric in PER_LAYER
        ],
    }


def render_benchmark_json() -> str:
    """``BENCHMARK.json`` as written to disk."""
    return json.dumps(benchmark_json(), indent=2) + "\n"
