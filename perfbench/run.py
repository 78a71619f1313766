"""TELS benchmark: run one workload cold and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 10 --trace 0

Each pass runs in a fresh interpreter (``work.py``), so the program's
process-wide caches start empty, as they do for a ``tels synth`` user.
Passes repeat until ``--seconds`` of flow time has been measured, and each
metric is the median over passes.  Set-up is timed separately, several
times per run, and reported as the median.

``--trace 0`` prints every end-to-end metric of BENCHMARK.json.
``--trace 1`` runs the same work twice more, once untraced and once
traced, under different ``PYTHONHASHSEED`` values: the two must agree on
every count (the determinism self-check), their ``flow_s`` difference is
the tracing overhead, and the traced pass gives the per-layer metrics and
the layer table.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero on
any failed job (error, failed verify, lint violation, degraded cone), an
input-digest mismatch or a determinism mismatch; when the program cannot
run at all, no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import signal
import subprocess
import sys
import time
from pathlib import Path

from spans import format_table

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench"

#: Set-up samples per run (one comes from each measured pass).
SETUP_SAMPLES = 5
#: No pass starts once a run has used this much wall time.
RUN_BUDGET_S = 120.0
#: A run, with every process it started, ends within this many seconds.
RUN_DEADLINE_S = 170.0
#: ``PYTHONHASHSEED`` of timed passes; the traced run uses 1 and 2.
HASH_SEED = "0"
DEADLINE = time.monotonic() + RUN_DEADLINE_S
#: Metrics the end-to-end figures are made of, per pass.
E2E_FROM_PASS = ("flow_s", "gates", "levels", "area", "peak_rss_mb")


class ChildFailed(Exception):
    pass


class DigestMismatch(ChildFailed):
    """The generators no longer print the pinned workload text."""

    def __init__(self, names: list[str]):
        super().__init__("input digest mismatch: " + ", ".join(names))


def spawn(workload: str, seed: int, hash_seed: str, *flags: str
          ) -> tuple[float, dict | None]:
    """Run work.py; returns (set-up seconds, its result or None).

    The child leads its own process group, so that on timeout the serve
    daemon it started is killed with it.
    """
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "work.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    started = time.time()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, DEADLINE - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload} pass ran past the run deadline") from None
    lines = stdout.splitlines()
    ready = [line for line in lines if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise ChildFailed(
            f"{workload} pass exited {proc.returncode}: {stderr.strip()[-2000:]}"
        )
    setup_s = float(ready[0].split()[1]) - started
    result = json.loads(lines[-1]) if lines[-1] != ready[0] else None
    if result and "digest_mismatches" in result:
        raise DigestMismatch(result["digest_mismatches"])
    return setup_s, result


def deterministic(result: dict) -> dict:
    """The figures two passes over the same inputs must agree on exactly."""
    keep = {k: v for k, v in result["counts"].items() if not k.endswith("_s")}
    for key in ("gates", "levels", "area"):
        keep[key] = result["e2e"][key]
    keep["outputs_sha"] = result["outputs_sha"]
    return keep


def mismatches(a: dict, b: dict) -> list[str]:
    da, db = deterministic(a), deterministic(b)
    shared = set(da) & set(db)
    return sorted(k for k in shared if da[k] != db[k])


def emit(spec_metrics: list[dict], values: dict, passes: list[dict],
         extra_failed: int) -> int:
    attempted = sum(p["attempted"] for p in passes) or 1
    failures = [f for p in passes for f in p["failures"]]
    failed = len(failures) + extra_failed
    for f in failures:
        print(f"FAILED {f}")
    metrics = {}
    for m in spec_metrics:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<32} {value:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def record(args, result: dict, values: dict, **extra) -> None:
    """Print the machine and verify modes; keep the run in ``.perfbench/``."""
    print("machine: " + " ".join(f"{k}={v}" for k, v in result["machine"].items()))
    modes = [j["verify"] for j in result["jobs"]]
    print(f"verify: {modes.count('exhaustive')} exhaustive, "
          f"{modes.count('sampled')} sampled (per job in the run file)")
    OUT.mkdir(exist_ok=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({
        "machine": result["machine"], "metrics": values,
        "counts": result["counts"], "jobs": result["jobs"], **extra,
    }, indent=1))


def untraced(args, spec: dict) -> int:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(spawn(args.workload, args.seed, HASH_SEED, "--setup-only")[0])
    passes: list[dict] = []
    measured = 0.0
    start = time.perf_counter()
    while not passes or (
        measured < args.seconds
        and time.perf_counter() - start + passes[-1]["e2e"]["flow_s"] < RUN_BUDGET_S
    ):
        setup_s, result = spawn(args.workload, args.seed, HASH_SEED)
        setups.append(setup_s)
        passes.append(result)
        measured += result["e2e"]["flow_s"]
    drift = [k for p in passes[1:] for k in mismatches(passes[0], p)]
    for key in drift:
        print(f"NONDETERMINISTIC {key} differs between passes")
    print(f"passes: {len(passes)}  setup samples: {len(setups)}  "
          f"jobs per pass: {passes[0]['attempted']}  job latency p50 "
          f"{passes[0]['e2e']['jobs_p50_s']:.3f} s, tail "
          f"{passes[0]['e2e']['jobs_tail_s']:.3f} s (first pass)")
    values = {"setup_s": statistics.median(setups)}
    for name in E2E_FROM_PASS:
        values[name] = statistics.median(p["e2e"][name] for p in passes)
    record(args, passes[0], values, passes=len(passes), setup_samples=setups)
    return emit(spec["end_to_end"], values, passes, len(drift))


def traced(args, spec: dict) -> int:
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
    _, plain = spawn(args.workload, args.seed, "1")
    _, result = spawn(args.workload, args.seed, "2", "--trace", "--spans",
                      str(spans_path))
    drift = mismatches(plain, result)
    for key in drift:
        print(f"NONDETERMINISTIC {key} differs under another PYTHONHASHSEED")
    overhead = result["e2e"]["flow_s"] - plain["e2e"]["flow_s"]
    values = dict(result["layers"])
    for name in ("per_s", "p50_s", "tail_s"):
        values[f"jobs.{name}"] = plain["e2e"][f"jobs_{name}"]
    values["trace.flow_s"] = result["e2e"]["flow_s"]
    values["trace.overhead_s"] = overhead
    title = (f"layers of {args.workload} (seed {args.seed}): self time, share "
             f"of traced flow_s {result['e2e']['flow_s']:.3f} s")
    if args.workload == "serve":
        title += f" x {result['machine']['nproc']} daemon workers"
    record(args, result, values, table=result["table"],
           untraced_flow_s=plain["e2e"]["flow_s"])
    print(format_table(title, result["table"], overhead))
    return emit(spec["per_layer"], values, [plain, result], len(drift))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        return traced(args, spec) if args.trace else untraced(args, spec)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
