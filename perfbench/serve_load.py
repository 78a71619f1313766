"""The ``serve`` workload: closed-loop clients against a fresh daemon.

A ``tels serve`` daemon is started as a subprocess with ``--max-workers``
set to the CPU count.  As many client threads each submit every corpus
circuit once, in an order rotated per client and per seed, wait on the
job's NDJSON event stream, then fetch the thblif before submitting the
next one.  Client latency runs from submit to thblif in hand.  Statuses,
JSON results and ``/stats`` are fetched after the timed loop, and every
thblif is re-parsed and verified against its source there too.
"""

from __future__ import annotations

import hashlib
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.serve.client import ServeClientError, TelsClient

import flows
import inputs
from spans import tail

DAEMON_READY_TIMEOUT_S = 60.0
DAEMON_STOP_TIMEOUT_S = 30.0


class Daemon:
    """A ``tels serve`` subprocess on an ephemeral port."""

    def __init__(self, workers: int, spans_path: Path | None):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env.pop("TELS_CACHE", None)
        serve_args = ["serve", "--port", "0", "--max-workers", str(workers)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            launcher = Path(__file__).with_name("daemon.py")
            cmd = [sys.executable, str(launcher), str(spans_path), *serve_args]
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        self.url = self._read_url()
        self.client = TelsClient(self.url)
        deadline = time.monotonic() + DAEMON_READY_TIMEOUT_S
        while True:
            try:
                self.client.healthz()
                break
            except ServeClientError:
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    self.stop()
                    raise RuntimeError("tels serve did not become ready") from None
                time.sleep(0.02)

    def _read_url(self) -> str:
        prefix = "tels serve listening on "
        for line in self.proc.stdout:
            if line.startswith(prefix):
                # Drain the rest so the daemon never blocks on a full pipe.
                threading.Thread(
                    target=self.proc.stdout.read, daemon=True
                ).start()
                return line[len(prefix):].strip()
        self.stop()
        raise RuntimeError("tels serve exited before listening")

    def stop(self) -> float:
        """Stop the daemon (SIGINT: it drains and exits); peak RSS in MB."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=DAEMON_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        import resource

        # The daemon is this process's only child, so this is its peak.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def client_order(circuits, client: int, clients: int, seed: int):
    n = len(circuits)
    offset = (seed * 7 + client * n // clients) % n
    return circuits[offset:] + circuits[:offset]


def run_clients(daemon: Daemon, circuits, clients: int, seed: int):
    """The timed closed loop; returns (records, wall seconds)."""
    records: list[dict] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def client_loop(index: int) -> None:
        client = TelsClient(daemon.url)
        for c in client_order(circuits, index, clients, seed):
            options = {"seed": seed}
            if c.psi != inputs.BULK_PSI:
                options["psi"] = c.psi
            start = time.perf_counter()
            snap = client.submit(c.blif, name=c.name, options=options)
            last = None
            for last in client.events(snap["id"]):
                pass
            text = client.result(snap["id"], fmt="thblif")
            latency = time.perf_counter() - start
            with lock:
                records.append({
                    "circuit": c, "id": snap["id"],
                    "latency": latency, "thblif": text,
                    "last_event": (last or {}).get("event"),
                })

    def guarded(index: int) -> None:
        try:
            client_loop(index)
        except BaseException as exc:  # reported by the main thread
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(i,)) for i in range(clients)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return records, wall


def check(daemon: Daemon, records: list[dict]) -> tuple[list[flows.Job], dict]:
    """Post-loop: statuses, results and re-verification of every thblif."""
    import repro.core.verify as verify
    from repro.core.area import network_stats
    from repro.io.blif import parse_blif
    from repro.io.thblif import parse_thblif
    from repro.network.simulate import EXHAUSTIVE_LIMIT

    jobs: list[flows.Job] = []
    waits, runs, https = [], [], []
    for r in records:
        c = r["circuit"]
        job = flows.Job(c.name, "ltg", seconds=r["latency"])
        snap = daemon.client.status(r["id"])
        result = daemon.client.result(r["id"])
        wait = snap["started_at"] - snap["submitted_at"]
        run = snap["finished_at"] - snap["started_at"]
        waits.append(wait)
        runs.append(run)
        https.append(r["latency"] - wait - run)
        source = parse_blif(c.blif)
        network = parse_thblif(r["thblif"])
        job.exhaustive = len(source.inputs) <= EXHAUSTIVE_LIMIT
        stats = network_stats(network)
        job.gates, job.levels, job.area = stats.gates, stats.levels, stats.area
        job.output_sha = hashlib.sha256(r["thblif"].encode()).hexdigest()
        job.counts["engine.cones"] += result.get("trace", {}).get("tasks", 0)
        job.counts["engine.retries"] += result.get("trace", {}).get("retries", 0)
        lint = result.get("lint", {}).get("violations", 0)
        degraded = result["synthesis"]["degraded_cones"]
        job.counts["lint.violations"] += lint
        job.counts["engine.degraded_cones"] += degraded
        if r["last_event"] != "job-done" or snap["state"] != "done":
            job.error = f"job ended {snap['state']}"
        elif not verify.verify_threshold_network(source, network):
            job.error = "verify failed"
        elif lint:
            job.error = f"{lint} lint violation(s)"
        elif degraded:
            job.error = f"{degraded} degraded cone(s)"
        jobs.append(job)
    store = daemon.client.stats()["store"]
    layers = {
        "serve.queue_wait_p50_s": statistics.median(waits),
        "serve.queue_wait_tail_s": tail(waits),
        "serve.run_p50_s": statistics.median(runs),
        "serve.run_tail_s": tail(runs),
        "serve.http_p50_s": statistics.median(https),
        "engine.store.vector_hits": store["vector_hits"],
        "engine.store.vector_misses": store["vector_misses"],
    }
    return jobs, layers

