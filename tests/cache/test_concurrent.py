"""Concurrent-writer safety of the persistent cache (the serve daemon's
workers all flush the same journal).

The historical single-writer assumption is gone: ``put``/``flush``/
``compact`` are thread-safe, and the journal file itself is guarded by an
advisory ``flock`` so two appends never interleave half-lines.
"""

from __future__ import annotations

import threading

from repro.cache.store import cache_file, open_cache


class TestConcurrentWriters:
    def test_two_threads_flushing_lose_nothing(self, tmp_path):
        """The regression: interleaved put+flush from two threads."""
        cache = open_cache(tmp_path)
        per_thread = 200
        barrier = threading.Barrier(2)
        errors: list[Exception] = []

        def writer(tag: str) -> None:
            try:
                barrier.wait(timeout=10)
                for i in range(per_thread):
                    cache.put(f"{tag}:{i}", [i, i + 1])
                    if i % 7 == 0:  # flush mid-stream, both threads
                        cache.flush()
                cache.flush()
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(tag,)) for tag in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert cache.dirty_count == 0

        # Every entry from both writers survives a cold reload: no torn
        # lines, no lost appends.
        reloaded = open_cache(tmp_path)
        assert len(reloaded) == 2 * per_thread
        assert reloaded.file_stats.corrupt_lines == 0
        for tag in ("a", "b"):
            for i in range(per_thread):
                assert reloaded.get(f"{tag}:{i}") == [i, i + 1]

    def test_put_during_flush_is_not_dropped(self, tmp_path):
        """An entry added while another thread flushes still reaches disk."""
        cache = open_cache(tmp_path)
        for i in range(50):
            cache.put(f"warm:{i}", [i])
        racing = threading.Thread(
            target=lambda: cache.put("late", [99]) or cache.flush()
        )
        racing.start()
        cache.flush()
        racing.join(timeout=10)
        cache.flush()
        reloaded = open_cache(tmp_path)
        assert reloaded.get("late") == [99]
        assert len(reloaded) == 51

    def test_concurrent_compact_and_put(self, tmp_path):
        cache = open_cache(tmp_path)
        for i in range(20):
            cache.put(f"k{i}", [i])
        cache.flush()

        stop = threading.Event()

        def compactor() -> None:
            while not stop.is_set():
                cache.compact()

        thread = threading.Thread(target=compactor)
        thread.start()
        try:
            for i in range(20, 120):
                cache.put(f"k{i}", [i])
                cache.flush()
        finally:
            stop.set()
            thread.join(timeout=10)
        cache.compact()
        reloaded = open_cache(tmp_path)
        assert len(reloaded) == 120
        assert reloaded.file_stats.corrupt_lines == 0

    def test_advisory_lock_file_appears(self, tmp_path):
        try:
            import fcntl  # noqa: F401
        except ImportError:  # pragma: no cover - non-POSIX fallback
            return
        cache = open_cache(tmp_path)
        cache.put("k", [1])
        cache.flush()
        lock_path = cache_file(tmp_path).with_name(
            cache_file(tmp_path).name + ".lock"
        )
        assert lock_path.exists()
