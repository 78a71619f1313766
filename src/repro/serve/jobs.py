"""The daemon's job layer: queue, job threads, events, and persistence.

A :class:`Job` is one accepted synthesis request moving through the
lifecycle ``queued → running → done | failed | cancelled``.  The
:class:`JobManager` owns:

* a bounded FIFO queue drained by ``max_workers`` daemon threads, each
  driving the existing engine (:func:`repro.core.synthesis.synthesize_with_report`)
  with the manager's **shared** :class:`~repro.engine.store.ResultStore` —
  one hot in-memory cache plus the persistent NP-canonical tier, so every
  tenant's synthesis warms every other tenant's (per-gate-model key
  isolation included, exactly as in the single-process engine);
* per-job **event logs**: the engine's structured per-task events (tapped
  via the scheduler's ``on_event`` hook) plus job-lifecycle markers, each
  stamped with a monotonic ``seq`` so streams are ordered and resumable;
* cooperative **cancellation**: ``cancel()`` sets the job's flag, which the
  scheduler observes between cones — solved vectors are still flushed to
  the persistent tier;
* the crash-tolerant :class:`~repro.serve.journal.JobJournal`: accepted
  requests, state transitions, and results are journaled as they happen,
  so a restarted daemon re-enqueues interrupted jobs and serves finished
  ones from history.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field

from repro.engine.store import ResultStore
from repro.errors import ReproError, SynthesisCancelled
from repro.serve.journal import JobJournal
from repro.serve.schemas import (
    ApiError,
    JobRequest,
    parse_job_request,
    report_to_dict,
)

#: Job lifecycle states; the last three are terminal.
ACTIVE_STATES = ("queued", "running")
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Synthesis options older daemons accepted and journaled, since retired.
_RETIRED_OPTIONS = frozenset({"backend", "use_presolve", "max_attempts"})


@dataclass
class Job:
    """One accepted synthesis request and everything it has produced."""

    job_id: str
    request: JobRequest
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    result: dict | None = None
    error: dict | None = None
    #: Set by DELETE /jobs/{id}; observed by the scheduler between cones.
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: Ordered event log; guarded by ``cond`` (also signals appends).
    events: list[dict] = field(default_factory=list)
    cond: threading.Condition = field(default_factory=threading.Condition)

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def snapshot(self, include_result: bool = False) -> dict:
        """The API status payload (and the journal's folded shape)."""
        snap: dict = {
            "id": self.job_id,
            "state": self.state,
            "name": self.request.name,
            "gate_model": self.request.options.get("gate_model", "ltg"),
            "submitted_at": round(self.submitted_at, 3),
        }
        if self.started_at is not None:
            snap["started_at"] = round(self.started_at, 3)
        if self.finished_at is not None:
            snap["finished_at"] = round(self.finished_at, 3)
        if self.error is not None:
            snap["error"] = self.error
        if self.result is not None:
            if include_result:
                snap["result"] = self.result
            else:
                network = self.result.get("network", {})
                lint = self.result.get("lint")
                snap["summary"] = {
                    "gates": network.get("gates"),
                    "levels": network.get("levels"),
                    "area": network.get("area"),
                    "verified": self.result.get("verified"),
                    "lint_clean": None if lint is None else lint.get("clean"),
                    "wall_s": self.result.get("wall_s"),
                }
        return snap


class JobManager:
    """Accept, schedule, execute, persist, and stream synthesis jobs."""

    def __init__(
        self,
        cache_dir: str | None = None,
        journal_dir: str | None = None,
        max_workers: int = 2,
        queue_limit: int = 256,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.store = (
            ResultStore.with_cache_dir(cache_dir)
            if cache_dir is not None
            else ResultStore()
        )
        self.cache_dir = cache_dir
        self.journal = (
            JobJournal(journal_dir) if journal_dir is not None else None
        )
        self.max_workers = max_workers
        self.started_at = time.time()
        #: Engine resilience counters folded from every finished job.
        self._resilience = {"degraded_cones": 0}
        self._jobs: dict[str, Job] = {}
        self._queue: queue.Queue[str | None] = queue.Queue(maxsize=queue_limit)
        self._lock = threading.RLock()
        self._seq = itertools.count(1)
        self._model_done: dict[str, int] = {}
        self._stop = False
        self._recover()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"tels-job-{i}", daemon=True
            )
            for i in range(max_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- recovery ------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild job history from the journal; re-enqueue unfinished work."""
        if self.journal is None:
            return
        max_seq = 0
        for job_id, record in self.journal.load().items():
            # Ids are "j<seq>"; keep the counter ahead of history.
            digits = job_id.lstrip("j")
            if digits.isdigit():
                max_seq = max(max_seq, int(digits))
            raw = record.get("request")
            state = record.get("state")
            if not isinstance(raw, dict) or state is None:
                continue  # never fully accepted; nothing to resume
            # Older journals store options the API no longer accepts (a
            # per-job cone "jobs" count; the ILP "backend" and
            # "use_presolve" knobs); drop them so accepted jobs replay.
            raw = {k: v for k, v in raw.items() if k != "jobs"}
            options = raw.get("options")
            if isinstance(options, dict):
                raw["options"] = {
                    k: v
                    for k, v in options.items()
                    if k not in _RETIRED_OPTIONS
                }
            try:
                request = parse_job_request(raw)
            except ApiError as exc:
                request = JobRequest(blif="", name=str(raw.get("name", "?")))
                job = Job(job_id=job_id, request=request, state="failed")
                job.error = {
                    "code": "unrecoverable",
                    "message": f"journaled request no longer valid: {exc}",
                }
                self._jobs[job_id] = job
                continue
            job = Job(job_id=job_id, request=request, state=state)
            job.submitted_at = record.get("submitted_at", job.submitted_at)
            job.started_at = record.get("started_at")
            job.finished_at = record.get("finished_at")
            job.result = record.get("result")
            job.error = record.get("error")
            self._jobs[job_id] = job
            if job.is_terminal:
                self._publish(job, {"event": f"job-{job.state}"})
            else:
                # Accepted but interrupted by the crash/restart: run again.
                job.state = "queued"
                job.started_at = None
                self._journal_append(
                    job, {"state": "queued", "recovered": True}
                )
                self._publish(job, {"event": "job-queued", "recovered": True})
                try:
                    self._queue.put_nowait(job.job_id)
                except queue.Full:
                    self._set_terminal(
                        job,
                        "failed",
                        error={
                            "code": "queue-full",
                            "message": "queue overflow during recovery",
                        },
                    )
        self._seq = itertools.count(max_seq + 1)

    # -- submission ----------------------------------------------------
    def submit(self, payload: dict) -> Job:
        """Validate and enqueue a request; returns the accepted job."""
        request = parse_job_request(payload)
        with self._lock:
            if self._stop:
                raise ApiError(
                    503, "daemon is shutting down", code="unavailable"
                )
            job = Job(job_id=f"j{next(self._seq):06d}", request=request)
            self._jobs[job.job_id] = job
        self._journal_append(
            job,
            {
                "state": "queued",
                "request": request.to_dict(),
                "submitted_at": round(job.submitted_at, 3),
            },
        )
        self._publish(job, {"event": "job-queued"})
        try:
            self._queue.put_nowait(job.job_id)
        except queue.Full:
            self._set_terminal(
                job,
                "failed",
                error={"code": "queue-full", "message": "job queue is full"},
            )
            raise ApiError(
                503, "job queue is full, retry later", code="queue-full"
            ) from None
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ApiError(
                404, f"no such job {job_id!r}", code="not-found"
            ) from None

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    # -- cancellation --------------------------------------------------
    def cancel(self, job_id: str) -> Job:
        """Request cooperative cancellation of a queued or running job."""
        job = self.get(job_id)
        with self._lock:
            if job.is_terminal:
                raise ApiError(
                    409,
                    f"job {job_id} already {job.state}",
                    code="conflict",
                )
            job.cancel_event.set()
            if job.state == "queued":
                # Not started yet: resolve immediately; the worker skips it.
                self._set_terminal(job, "cancelled")
        return job

    # -- events --------------------------------------------------------
    def _publish(self, job: Job, payload: dict) -> None:
        event = dict(payload)
        with job.cond:
            event["seq"] = len(job.events)
            event["job"] = job.job_id
            job.events.append(event)
            job.cond.notify_all()

    def iter_events(self, job: Job, since: int = 0, poll_s: float = 10.0):
        """Yield the job's events from ``since`` until it turns terminal.

        Blocks for new events while the job is active; after the terminal
        transition the remaining log drains and the iterator ends, so a
        streaming HTTP response closes by itself.
        """
        index = max(0, since)
        while True:
            with job.cond:
                while index >= len(job.events) and not job.is_terminal:
                    job.cond.wait(timeout=poll_s)
                if index < len(job.events):
                    event = job.events[index]
                    index += 1
                else:
                    return
            yield event

    # -- execution -----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self._jobs.get(job_id)
            if job is None or job.is_terminal:
                continue
            if job.cancel_event.is_set():
                self._set_terminal(job, "cancelled")
                continue
            with self._lock:
                job.state = "running"
                job.started_at = time.time()
            self._journal_append(
                job,
                {"state": "running", "started_at": round(job.started_at, 3)},
            )
            self._publish(job, {"event": "job-started"})
            try:
                result = self._execute(job)
            except SynthesisCancelled:
                self._set_terminal(job, "cancelled")
            except ReproError as exc:
                self._set_terminal(
                    job,
                    "failed",
                    error={
                        "code": "synthesis-error",
                        "type": type(exc).__name__,
                        "message": str(exc),
                    },
                )
            except Exception as exc:  # a bug must fail the job, not the pool
                self._set_terminal(
                    job,
                    "failed",
                    error={
                        "code": "internal-error",
                        "type": type(exc).__name__,
                        "message": str(exc),
                    },
                )
            else:
                self._set_terminal(job, "done", result=result)

    def _execute(self, job: Job) -> dict:
        from repro.core.synthesis import synthesize_with_report
        from repro.core.verify import verify_threshold_network
        from repro.io.blif import parse_blif
        from repro.network.scripts import prepare_tels

        started = time.perf_counter()
        source = parse_blif(job.request.blif, default_name=job.request.name)
        prepared = prepare_tels(source)
        # ``use_cache=False`` opts this job out of the shared store: it
        # synthesizes against a private, empty store (cold, isolated).
        store = self.store if job.request.use_cache else ResultStore()
        network, report = synthesize_with_report(
            prepared,
            job.request.build_options(),
            store=store,
            on_event=lambda event: self._publish(job, event),
            cancel=job.cancel_event,
        )
        verified = verify_threshold_network(source, network)
        self._fold_resilience(report)
        return report_to_dict(
            network, report, verified, time.perf_counter() - started
        )

    def _fold_resilience(self, report) -> None:
        """Accumulate one finished run's fault-handling counters."""
        with self._lock:
            self._resilience["degraded_cones"] += report.degraded_cones

    def resilience_counters(self) -> dict:
        """The compact fault-handling summary (``/healthz`` + ``/stats``)."""
        with self._lock:
            counters = dict(self._resilience)
        counters["cache_rejects"] = self.store.stats.transform_rejects
        return counters

    # -- terminal transitions ------------------------------------------
    def _set_terminal(
        self,
        job: Job,
        state: str,
        result: dict | None = None,
        error: dict | None = None,
    ) -> None:
        with self._lock:
            if job.is_terminal:
                return
            job.state = state
            job.finished_at = time.time()
            job.result = result
            job.error = error
            if state == "done":
                model = job.request.options.get("gate_model", "ltg")
                self._model_done[model] = self._model_done.get(model, 0) + 1
        record: dict = {
            "state": state,
            "finished_at": round(job.finished_at, 3),
        }
        if result is not None:
            record["result"] = result
        if error is not None:
            record["error"] = error
        self._journal_append(job, record)
        terminal_event: dict = {"event": f"job-{state}"}
        if error is not None:
            terminal_event["error"] = error
        if result is not None:
            network = result.get("network", {})
            terminal_event["gates"] = network.get("gates")
            terminal_event["verified"] = result.get("verified")
        self._publish(job, terminal_event)

    def _journal_append(self, job: Job, fields_: dict) -> None:
        if self.journal is None:
            return
        record = {"id": job.job_id, "t": round(time.time(), 3)}
        record.update(fields_)
        self.journal.append(record)

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        """The ``GET /stats`` payload: queue, jobs, store, and cache state."""
        with self._lock:
            states = {state: 0 for state in ACTIVE_STATES + TERMINAL_STATES}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            model_done = dict(self._model_done)
        store_stats = self.store.stats
        payload = {
            "uptime_s": round(time.time() - self.started_at, 3),
            "max_workers": self.max_workers,
            "queue_depth": self._queue.qsize(),
            "jobs": {"total": len(self._jobs), **states},
            "models_done": model_done,
            "store": {
                "vectors": self.store.num_vectors,
                "analyses": self.store.num_analyses,
                "vector_hits": store_stats.vector_hits,
                "vector_misses": store_stats.vector_misses,
                "vector_hit_rate": round(store_stats.vector_hit_rate, 4),
                "analysis_hits": store_stats.analysis_hits,
                "persistent_hits": store_stats.persistent_hits,
                "persistent_misses": store_stats.persistent_misses,
                "persistent_hit_rate": round(
                    store_stats.persistent_hit_rate, 4
                ),
                "transformed_hits": store_stats.transformed_hits,
                "transform_rejects": store_stats.transform_rejects,
            },
            "resilience": self.resilience_counters(),
        }
        if self.store.persistent is not None:
            payload["cache"] = {
                "dir": self.cache_dir,
                "entries": len(self.store.persistent),
                "dirty": self.store.persistent.dirty_count,
            }
        if self.journal is not None:
            payload["journal"] = {
                "path": str(self.journal.path),
                "corrupt_lines": self.journal.corrupt_lines,
            }
        return payload

    # -- shutdown ------------------------------------------------------
    def shutdown(self, wait: bool = True, timeout: float | None = 30.0) -> None:
        """Stop accepting work, wake the workers, and persist state.

        Running jobs get their cancel flag set (they stop between cones);
        queued jobs stay journaled as ``queued`` and will be re-enqueued by
        the next daemon start.
        """
        with self._lock:
            self._stop = True
            for job in self._jobs.values():
                if job.state == "running":
                    job.cancel_event.set()
        for _ in self._workers:
            self._queue.put(None)
        if wait:
            for worker in self._workers:
                worker.join(timeout=timeout)
        self.store.flush_persistent()
        if self.journal is not None:
            with self._lock:
                snapshots = [
                    {
                        **job.snapshot(include_result=True),
                        "request": job.request.to_dict(),
                    }
                    for job in self._jobs.values()
                ]
            self.journal.compact(snapshots)
