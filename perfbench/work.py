"""One cold pass of a workload, in a fresh interpreter started by run.py.

Usage::

    python3 perfbench/work.py --workload W --seed N [--trace] [--setup-only]
        [--spans FILE]

Set-up (imports, input generation, the digest check and, for ``serve``,
daemon start-up) ends with a ``READY <unix time>`` line on stdout, from
which run.py times set-up.  ``--setup-only`` stops there.  Otherwise the
pass runs and the last stdout line is one JSON object: end-to-end figures,
per-layer figures, deterministic counters, per-job records and failures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import flows
import inputs
import serve_load
from spans import Recorder, layer_table, load_spans, self_times

#: Enclosing spans whose self time is reported as ``other``.
ENCLOSING = ("pass", "circuit")


def layer_metrics(spans: list[dict], counts: dict) -> dict:
    """Per-layer figures from the spans and the program's own counters."""
    rows = self_times(spans)

    def total(name: str) -> float:
        return rows.get(name, {}).get("total", 0.0)

    synth_s = total("engine.synth")
    lint_s = counts.get("lint.cone_s", 0.0) + counts.get("lint.network_s", 0.0)
    out = {
        "network.prep_s": total("network.prep"),
        "network.prep_boolean_s": total("network.prep_boolean"),
        "boolean.scc_s": total("boolean.scc"),
        "engine.synth_s": synth_s - lint_s,
        "lint.share": lint_s / synth_s if synth_s else 0.0,
        "verify.s": total("verify"),
        "mapping.s": total("mapping"),
        "io.parse_s": total("io.parse"),
        "io.write_s": total("io.write"),
    }
    for step in flows.PREP_STEPS:
        out[f"network.{step}_s"] = total(f"network.{step}")
    return out


def count_metrics(counts: dict, cone_wall_s: list[float]) -> dict:
    """Per-layer figures derived from the counters alone."""
    out = dict(counts)
    calls = counts.get("identify.calls", 0)
    out["identify.cache_hit_rate"] = (
        counts.get("identify.cache_hits", 0) / calls if calls else 0.0
    )
    hits = counts.get("engine.store.vector_hits", 0)
    lookups = hits + counts.get("engine.store.vector_misses", 0)
    out["engine.store.vector_hit_rate"] = hits / lookups if lookups else 0.0
    if cone_wall_s:
        ordered = sorted(cone_wall_s)
        out["engine.cone_p50_ms"] = 1000 * ordered[len(ordered) // 2]
        out["engine.cone_p95_ms"] = 1000 * ordered[int(0.95 * (len(ordered) - 1))]
    return out


def in_process(args, circuits) -> dict:
    rec = Recorder() if args.trace else None
    probes = flows.instrument(rec) if rec else {}
    start = time.perf_counter()
    if rec is None:
        jobs = flows.run_pass(args.workload, circuits, args.seed, None)
    else:
        with rec.span("pass"):
            jobs = flows.run_pass(args.workload, circuits, args.seed, rec)
    flow_s = time.perf_counter() - start
    out = flows.summarize(jobs, flow_s)
    out["jobs"] = jobs
    out["e2e"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    if rec is not None:
        spans = rec.dump(args.spans)
        out["layers"] = layer_metrics(spans, out["counts"])
        out["layers"]["boolean.scc_calls"] = probes["scc_calls"]()
        out["table"] = layer_table(spans, flow_s, ENCLOSING)
    return out


def serve(args, circuits, daemon: serve_load.Daemon) -> dict:
    clients = os.cpu_count() or 1
    try:
        records, flow_s = serve_load.run_clients(daemon, circuits, clients, args.seed)
        jobs, layers = serve_load.check(daemon, records)
    finally:
        peak_rss_mb = daemon.stop()
    out = flows.summarize(jobs, flow_s)
    out["jobs"] = jobs
    out["e2e"]["peak_rss_mb"] = peak_rss_mb
    out["serve_layers"] = layers
    if args.trace:
        # The traced daemon wrote its spans on exit; its synth spans carry
        # the counters each job's report held.
        spans = load_spans(args.spans)
        synth_counts: dict = {}
        for s in spans:
            for key, value in s["counts"].items():
                synth_counts[key] = synth_counts.get(key, 0) + value
        for key, value in synth_counts.items():
            out["counts"].setdefault(key, value)
        out["layers"] = layer_metrics(spans, synth_counts)
        # Daemon job threads overlap: shares are of (workers x wall).
        out["table"] = layer_table(spans, clients * flow_s, ())
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(inputs.INPUT_SET))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    circuits, mismatches = inputs.load(args.workload)
    daemon = None
    if args.workload == "serve":
        daemon = serve_load.Daemon(
            os.cpu_count() or 1, args.spans if args.trace else None
        )
    print(f"READY {time.time()}", flush=True)
    if args.setup_only or mismatches:
        if daemon is not None:
            daemon.stop()
        if mismatches:
            print(json.dumps({"digest_mismatches": mismatches}))
        return 0

    if daemon is not None:
        out = serve(args, circuits, daemon)
    else:
        out = in_process(args, circuits)
    jobs = out.pop("jobs")
    out["attempted"] = len(jobs)
    out["failures"] = [f"{j.circuit}/{j.flow}: {j.error}" for j in jobs if not j.ok]
    out["jobs"] = [
        {"circuit": j.circuit, "flow": j.flow, "seconds": j.seconds,
         "verify": "exhaustive" if j.exhaustive else "sampled", "error": j.error}
        for j in jobs
    ]
    out["machine"] = machine()
    cone_wall_s = out.pop("cone_wall_s")
    serve_layers = out.pop("serve_layers", {})
    if args.trace:
        # On serve, the store figures of /stats replace the per-job sums
        # (each job reports the shared store's running totals).
        counts = {**out["counts"], **serve_layers}
        out["layers"].update(count_metrics(counts, cone_wall_s))
    print(json.dumps(out))
    return 0


def machine() -> dict:
    """What the numbers were measured on."""
    import platform

    from repro.boolean.bitset import active_backend

    def version(module: str) -> str | None:
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "bitset_backend": active_backend(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


if __name__ == "__main__":
    sys.exit(main())
