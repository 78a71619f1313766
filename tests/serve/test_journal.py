"""Jobs-journal persistence: folding, torn lines, and daemon restarts."""

from __future__ import annotations

import json

from repro.benchgen.paper_examples import MOTIVATIONAL_BLIF
from repro.serve.journal import FORMAT_NAME, JobJournal, journal_file
from repro.serve.jobs import JobManager


class TestJournalFile:
    def test_append_then_load_folds_per_job(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append({"id": "j1", "state": "queued", "submitted_at": 1.0})
        journal.append({"id": "j1", "state": "running"})
        journal.append({"id": "j2", "state": "queued"})
        journal.append({"id": "j1", "state": "done", "result": {"x": 1}})
        folded = JobJournal(tmp_path).load()
        assert folded["j1"]["state"] == "done"
        assert folded["j1"]["submitted_at"] == 1.0  # earlier fields survive
        assert folded["j1"]["result"] == {"x": 1}
        assert folded["j2"]["state"] == "queued"

    def test_torn_trailing_line_costs_only_that_record(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append({"id": "j1", "state": "queued"})
        journal.append({"id": "j1", "state": "running"})
        with open(journal.path, "a") as handle:
            handle.write('{"id": "j1", "state": "done", "resu')  # crash
        fresh = JobJournal(tmp_path)
        folded = fresh.load()
        assert folded["j1"]["state"] == "running"
        assert fresh.corrupt_lines == 1

    def test_mismatched_header_loads_empty(self, tmp_path):
        path = journal_file(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"format": FORMAT_NAME, "version": 999}) + "\n"
            + '{"id": "j1", "state": "done"}\n'
        )
        fresh = JobJournal(tmp_path)
        assert fresh.load() == {}
        assert fresh.rejected_header

    def test_compact_rewrites_one_line_per_job(self, tmp_path):
        journal = JobJournal(tmp_path)
        for state in ("queued", "running", "done"):
            journal.append({"id": "j1", "state": state})
        assert journal.compact([{"id": "j1", "state": "done"}])
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2  # header + one snapshot
        assert JobJournal(tmp_path).load()["j1"]["state"] == "done"


class TestRecovery:
    def _submit(self, manager: JobManager, **kwargs) -> str:
        payload = {"blif": MOTIVATIONAL_BLIF, "name": "motivational"}
        payload.update(kwargs)
        return manager.submit(payload).job_id

    def _wait(self, manager: JobManager, job_id: str) -> None:
        import time

        deadline = time.monotonic() + 30
        while not manager.get(job_id).is_terminal:
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.01)

    def test_finished_jobs_survive_restart(self, tmp_path):
        manager = JobManager(journal_dir=str(tmp_path))
        job_id = self._submit(manager)
        self._wait(manager, job_id)
        result = manager.get(job_id).result
        manager.shutdown()

        reborn = JobManager(journal_dir=str(tmp_path))
        try:
            job = reborn.get(job_id)
            assert job.state == "done"
            assert job.result == result  # byte-identical history
            # Restored terminal jobs still serve a closing event stream.
            events = list(reborn.iter_events(job))
            assert events[-1]["event"] == "job-done"
        finally:
            reborn.shutdown()

    def test_interrupted_job_is_reenqueued_and_completes(self, tmp_path):
        """A journal whose job never finished (daemon crash) re-runs it."""
        journal = JobJournal(tmp_path)
        journal.append(
            {
                "id": "j000005",
                "state": "running",
                "submitted_at": 123.0,
                "started_at": 124.0,
                "request": {"blif": MOTIVATIONAL_BLIF, "name": "crashed"},
            }
        )
        manager = JobManager(journal_dir=str(tmp_path))
        try:
            self._wait(manager, "j000005")
            job = manager.get("j000005")
            assert job.state == "done"
            assert job.result["verified"] is True
            # Recovery preserved the original id sequence position.
            new_id = self._submit(manager)
            assert new_id == "j000006"
        finally:
            manager.shutdown()

    def test_torn_write_plus_reenqueue_recovers_under_chaos(
        self, tmp_path, monkeypatch
    ):
        """A daemon SIGKILLed mid-journal-write restarts into chaos and wins.

        The journal holds a running job whose terminal record was torn mid
        write (the process died inside ``append``).  Recovery must drop
        only the torn line, re-enqueue the in-flight job, and complete it
        — here with ``TELS_CHAOS`` active on the solver and cache sites,
        so the re-run also rides the retry/degradation ladder.
        """
        journal = JobJournal(tmp_path)
        journal.append(
            {
                "id": "j000004",
                "state": "running",
                "submitted_at": 10.0,
                "request": {"blif": MOTIVATIONAL_BLIF, "name": "torn"},
            }
        )
        with open(journal.path, "a") as handle:
            handle.write('{"id": "j000004", "state": "done", "resu')
        monkeypatch.setenv("TELS_CHAOS", "cache=0.5:11")
        manager = JobManager(
            journal_dir=str(tmp_path), cache_dir=str(tmp_path / "cache")
        )
        try:
            assert manager.journal.corrupt_lines == 1
            self._wait(manager, "j000004")
            job = manager.get("j000004")
            assert job.state == "done"
            assert job.result["verified"] is True
        finally:
            manager.shutdown()

    def test_legacy_jobs_field_replays(self, tmp_path):
        """Older journals store a per-request ``"jobs"`` cone-worker count
        that the API now rejects; recovery drops that one key, so both the
        finished and the interrupted job come back instead of failing as
        unrecoverable."""
        request = (
            '{"blif":".model m\\n.inputs a b\\n.outputs y\\n'
            '.names a b y\\n11 1\\n.end\\n","jobs":2,"name":"legacy",'
            '"options":{},"use_cache":true}'
        )
        journal_file(tmp_path).write_text(
            '{"format": "tels-jobs", "version": 1}\n'
            '{"id":"j000007","request":' + request + ','
            '"state":"queued","submitted_at":100.0,"t":100.0}\n'
            '{"id":"j000008","request":' + request + ','
            '"state":"queued","submitted_at":101.0,"t":101.0}\n'
            '{"finished_at":102.0,"id":"j000008","result":{"verified":true},'
            '"state":"done","t":102.0}\n'
        )
        manager = JobManager(journal_dir=str(tmp_path))
        try:
            done = manager.get("j000008")
            assert done.state == "done"
            assert done.result == {"verified": True}
            self._wait(manager, "j000007")
            replayed = manager.get("j000007")
            assert replayed.state == "done"
            assert replayed.request.name == "legacy"
            assert replayed.result["verified"] is True
        finally:
            manager.shutdown()

    def test_retired_solver_options_replay(self, tmp_path):
        """Older journals may carry the retired ``backend``,
        ``use_presolve`` and ``max_attempts`` options; recovery drops them,
        so the queued job replays and finishes instead of failing as
        unrecoverable."""
        request = (
            '{"blif":".model m\\n.inputs a b\\n.outputs y\\n'
            '.names a b y\\n11 1\\n.end\\n","name":"retired",'
            '"options":{"backend":"scipy","use_presolve":false,'
            '"max_attempts":3,"psi":3},'
            '"use_cache":true}'
        )
        journal_file(tmp_path).write_text(
            '{"format": "tels-jobs", "version": 1}\n'
            '{"id":"j000009","request":' + request + ','
            '"state":"queued","submitted_at":100.0,"t":100.0}\n'
        )
        manager = JobManager(journal_dir=str(tmp_path))
        try:
            self._wait(manager, "j000009")
            replayed = manager.get("j000009")
            assert replayed.state == "done"
            assert replayed.request.options == {"psi": 3}
            assert replayed.result["verified"] is True
        finally:
            manager.shutdown()

    def test_unparseable_journaled_request_fails_cleanly(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append(
            {
                "id": "j000001",
                "state": "queued",
                "request": {"blif": MOTIVATIONAL_BLIF, "warp_factor": 9},
            }
        )
        manager = JobManager(journal_dir=str(tmp_path))
        try:
            job = manager.get("j000001")
            assert job.state == "failed"
            assert job.error["code"] == "unrecoverable"
        finally:
            manager.shutdown()

    def test_shutdown_compacts_journal(self, tmp_path):
        manager = JobManager(journal_dir=str(tmp_path))
        job_id = self._submit(manager)
        self._wait(manager, job_id)
        manager.shutdown()
        lines = journal_file(tmp_path).read_text().splitlines()
        assert len(lines) == 2  # header + one folded snapshot
        snapshot = json.loads(lines[1])
        assert snapshot["state"] == "done"
        assert snapshot["request"]["name"] == "motivational"
