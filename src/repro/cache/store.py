"""Disk-backed persistent cache of solved weight–threshold vectors.

The cache is a JSON-lines file (``cache.jsonl`` inside a cache directory):
a header line identifying the format, version, and canonicalization
fingerprint, then one line per entry mapping an NP-canonical cover
signature plus the solver-relevant parameters to the solved vector in
canonical space (or ``null`` for a proven non-threshold class).

Design points:

* **atomic append** — :meth:`PersistentCache.flush` writes all journaled
  entries in one buffered write to an append-mode handle, so concurrent
  writers (parallel suite benchmarks) interleave whole batches; a torn
  line from a crash is skipped by the corruption-tolerant loader.
* **single-writer locking** — every file mutation (flush append,
  compaction, clear) is serialized through an instance lock *and* an
  advisory ``cache.jsonl.lock`` flock, so the daemon's concurrent job
  threads — or two processes sharing one cache directory — cannot
  interleave partial journal appends or race a compaction rename.
* **journal semantics** — new entries accumulate in a dirty journal that
  :meth:`flush` appends to disk; a cache opened ``read_only`` serves
  lookups and takes no writes.
* **graceful degradation** — a corrupted, truncated, or version- or
  fingerprint-mismatched file is logged and treated as empty (the run goes
  cold instead of failing); the next :meth:`flush` rewrites it whole.
* **compaction** — duplicated keys from concurrent appends are deduplicated
  on load; :meth:`compact` rewrites the file crash-safely: the temp file is
  flushed and fsynced *before* the atomic rename (plus a best-effort
  directory fsync), so a process killed mid-compaction leaves either the
  complete old journal or the complete new one — never a torn file.
* **retry with backoff** — transient ``OSError`` during flush/compaction is
  retried a few times with deterministic exponential backoff before the
  usual warn-and-continue degradation (see docs/RESILIENCE.md); the chaos
  harness (``TELS_CHAOS``) injects both write failures (``cache``) and torn
  trailing lines (``cache-corrupt``) through the same code paths the real
  faults would take.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.cache.canonical import CANONICAL_FINGERPRINT
from repro.faults.injector import get_injector
from repro.faults.retry import RetryPolicy, retry_call

try:  # advisory inter-process locking (POSIX only; see _advisory_lock)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

logger = logging.getLogger("repro.cache")

#: I/O retry schedule for flush/compaction (short: disk hiccups, not locks).
_IO_RETRY = RetryPolicy(max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.1)


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory entry (no-op where unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        with contextlib.suppress(OSError):
            os.fsync(fd)
    finally:
        os.close(fd)

CACHE_FILENAME = "cache.jsonl"
FORMAT_NAME = "tels-cache"
FORMAT_VERSION = 1

#: Miss sentinel: distinguishes "no entry" from a cached ``None`` verdict.
ABSENT = object()


@dataclass
class CacheFileStats:
    """What loading (and using) a cache file observed."""

    entries: int = 0
    corrupt_lines: int = 0
    rejected_header: bool = False
    path: str = ""


def signature_string(cover_key: tuple) -> str:
    """Serialize a canonical cover key as a compact, exact string."""
    nvars, rows = cover_key
    return f"{nvars}:" + ",".join(f"{pos}.{neg}" for pos, neg in rows)


def parse_signature(text: str) -> tuple:
    """Inverse of :func:`signature_string`."""
    head, _, body = text.partition(":")
    nvars = int(head)
    rows = []
    if body:
        for item in body.split(","):
            pos, _, neg = item.partition(".")
            rows.append((int(pos), int(neg)))
    return (nvars, tuple(rows))


def entry_key(
    signature: str,
    delta_on: int,
    delta_off: int,
    max_weight: int | None,
    model: str | None = None,
) -> str:
    """The persisted lookup key: canonical signature + solve parameters.

    ``model`` is the gate-model fingerprint; the default single-threshold
    model keeps the historical un-suffixed key, every other backend gets a
    disjoint key space inside the same cache file.
    """
    wmax = "-" if max_weight is None else str(max_weight)
    base = f"{signature}|{delta_on}|{delta_off}|{wmax}"
    if model is None:
        return base
    return f"{base}|{model}"


class PersistentCache:
    """One on-disk vector cache, loaded eagerly, journaled incrementally."""

    def __init__(
        self,
        path: str | Path,
        fingerprint: str = CANONICAL_FINGERPRINT,
        read_only: bool = False,
    ):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.read_only = read_only
        self._entries: dict[str, list[int] | None] = {}
        self._dirty: dict[str, list[int] | None] = {}
        self._needs_rewrite = False
        self._lock = threading.RLock()
        self.file_stats = CacheFileStats(path=str(self.path))
        self._load()

    @contextlib.contextmanager
    def _advisory_lock(self):
        """Exclusive inter-process flock on ``<cache>.lock`` (best effort).

        The instance lock serializes this process's threads; the flock
        extends the single-writer guarantee across processes sharing one
        cache directory.  Platforms without :mod:`fcntl` (and unopenable
        lock files) degrade to the instance lock alone.
        """
        if fcntl is None:
            yield
            return
        lock_path = self.path.with_name(self.path.name + ".lock")
        try:
            handle = open(lock_path, "a")
        except OSError:
            yield
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            with contextlib.suppress(OSError):
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()

    # -- loading -------------------------------------------------------
    def _header(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "fingerprint": self.fingerprint,
        }

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            text = self.path.read_text()
        except OSError as exc:
            logger.warning("cache %s unreadable (%s); starting cold", self.path, exc)
            self._needs_rewrite = True
            return
        lines = text.splitlines()
        if not lines:
            return
        try:
            header = json.loads(lines[0])
            ok = (
                header.get("format") == FORMAT_NAME
                and header.get("version") == FORMAT_VERSION
                and header.get("fingerprint") == self.fingerprint
            )
        except (json.JSONDecodeError, AttributeError):
            ok = False
        if not ok:
            logger.warning(
                "cache %s has a mismatched or corrupt header; starting cold",
                self.path,
            )
            self.file_stats.rejected_header = True
            self._needs_rewrite = True
            return
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                key = record["k"]
                values = record["v"]
                if values is not None:
                    values = [int(v) for v in values]
                if not isinstance(key, str):
                    raise TypeError("entry key must be a string")
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                self.file_stats.corrupt_lines += 1
                continue
            self._entries[key] = values
        self.file_stats.entries = len(self._entries)
        if self.file_stats.corrupt_lines:
            logger.warning(
                "cache %s: skipped %d corrupt line(s)",
                self.path,
                self.file_stats.corrupt_lines,
            )

    # -- lookups -------------------------------------------------------
    def get(self, key: str):
        """The canonical-space values for ``key``, or :data:`ABSENT`."""
        return self._entries.get(key, ABSENT)

    def put(self, key: str, values: list[int] | None) -> bool:
        """Install an entry; journals it for the next flush. False if known."""
        with self._lock:
            if key in self._entries:
                return False
            self._entries[key] = values
            if not self.read_only:
                self._dirty[key] = values
            return True

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    @property
    def solved_count(self) -> int:
        """Entries holding a vector (the rest are non-threshold verdicts)."""
        return sum(1 for v in self._entries.values() if v is not None)

    # -- persistence ---------------------------------------------------
    def _encode(self, key: str, values: list[int] | None) -> str:
        return json.dumps({"k": key, "v": values}, separators=(",", ":"))

    def flush(self) -> int:
        """Append journaled entries to disk; returns lines written.

        Thread- and process-safe: the instance lock serializes journal
        swaps among this process's threads, and the advisory flock keeps
        a concurrent writer in another process from interleaving bytes
        inside our batch.
        """
        if self.read_only:
            return 0
        with self._lock:
            if not self._dirty and not self._needs_rewrite:
                return 0
            if self._needs_rewrite or not self.path.exists():
                return len(self._entries) if self._compact_locked() else 0
            dirty, self._dirty = self._dirty, {}
            lines = [self._encode(k, v) for k, v in dirty.items()]
            payload = "".join(line + "\n" for line in lines)
            # A torn trailing line (chaos: what a crash mid-append leaves
            # behind) exercises the loader's corruption tolerance.
            payload += self._chaos_torn_line("flush")

            def _append(attempt: int) -> None:
                self._chaos_write_fault("flush", attempt)
                with open(self.path, "a") as handle:
                    handle.write(payload)

            try:
                with self._advisory_lock():
                    retry_call(
                        _append,
                        _IO_RETRY,
                        retryable=(OSError,),
                        key=str(self.path),
                    )
            except OSError as exc:
                logger.warning("cache %s flush failed (%s)", self.path, exc)
                # Keep the batch journaled for a later flush; entries are
                # content-addressed, so merge order is irrelevant.
                dirty.update(self._dirty)
                self._dirty = dirty
                return 0
            return len(lines)

    def compact(self) -> bool:
        """Crash-safely rewrite the file: header + deduplicated entries.

        The rewrite is durable-then-atomic: the temp file is flushed and
        fsynced before ``os.replace`` swaps it in, and the directory entry
        is fsynced afterwards (best effort).  A kill at any instant leaves
        a complete journal — the old one up to the rename, the new one
        after it.  Returns True when the rewrite reached disk; on failure
        the journal is retained for a later flush.
        """
        if self.read_only:
            return False
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> bool:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        lines = [json.dumps(self._header())]
        lines.extend(self._encode(k, v) for k, v in sorted(self._entries.items()))
        payload = "".join(line + "\n" for line in lines)

        def _rewrite(attempt: int) -> None:
            self._chaos_write_fault("compact", attempt)
            with open(tmp, "w") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            _fsync_dir(self.path.parent)

        try:
            with self._advisory_lock():
                retry_call(
                    _rewrite, _IO_RETRY, retryable=(OSError,), key=str(tmp)
                )
        except OSError as exc:
            logger.warning("cache %s compaction failed (%s)", self.path, exc)
            return False
        self._needs_rewrite = False
        self._dirty.clear()
        return True

    # -- chaos hooks ----------------------------------------------------
    def _chaos_write_fault(self, op: str, attempt: int) -> None:
        """Raise an injected OSError for this (operation, attempt).

        Keyed per attempt, so a retried write rolls the dice again — at
        rates below 1.0 the retry path usually recovers, exactly like a
        transient disk fault.
        """
        injector = get_injector()
        if injector is not None and injector.decide(
            "cache", f"{self.path.name}|{op}|attempt{attempt}"
        ):
            raise OSError(f"chaos: injected cache {op} failure")

    def _chaos_torn_line(self, op: str) -> str:
        injector = get_injector()
        if injector is not None and injector.decide(
            "cache-corrupt", f"{self.path.name}|{op}|{len(self._entries)}"
        ):
            return '{"k":"torn'
        return ""

    def clear(self) -> None:
        """Drop every entry, in memory and on disk."""
        with self._lock:
            self._entries.clear()
            self._dirty.clear()
            self._needs_rewrite = False
            if not self.read_only:
                try:
                    with self._advisory_lock():
                        self.path.unlink(missing_ok=True)
                except OSError as exc:
                    logger.warning(
                        "cache %s clear failed (%s)", self.path, exc
                    )

    def __repr__(self) -> str:
        mode = "ro" if self.read_only else "rw"
        return (
            f"PersistentCache({str(self.path)!r}, {mode}, "
            f"entries={len(self._entries)}, dirty={len(self._dirty)})"
        )


def cache_file(directory: str | Path) -> Path:
    return Path(directory) / CACHE_FILENAME


def open_cache(
    directory: str | Path,
    fingerprint: str = CANONICAL_FINGERPRINT,
    read_only: bool = False,
) -> PersistentCache:
    """Open (creating the directory for) the cache file under ``directory``."""
    path = cache_file(directory)
    if not read_only:
        path.parent.mkdir(parents=True, exist_ok=True)
    return PersistentCache(path, fingerprint=fingerprint, read_only=read_only)
