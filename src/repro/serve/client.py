"""A stdlib (urllib) client for the ``tels serve`` job API.

Backs the ``tels submit/status/result/events/cancel`` subcommands and the
test suite; importable as a library for scripted submission.  Errors come
back as :class:`ServeClientError` carrying the daemon's structured payload
(``{"error": {"code", "message", ...}}``) plus the HTTP status, so callers
can distinguish a 400 (bad circuit) from a 404 (unknown job) from a 503
(queue full) without parsing prose.

Every request has a connect/read timeout and a bounded deterministic
retry-with-backoff schedule (:mod:`repro.faults.retry`), so a hung or
briefly unreachable daemon costs a few seconds, never a hung ``tels
submit``.  Retries only fire when the daemon cannot be reached — a non-2xx
response is an answer and surfaces immediately.  A submission whose reply
is lost in flight may therefore be enqueued twice.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from collections.abc import Iterator

from repro.errors import ReproError
from repro.faults.retry import RetryPolicy, retry_call

#: Default daemon address; overridden by --url or $TELS_SERVE_URL.
DEFAULT_URL = "http://127.0.0.1:8765"

#: Default per-request socket timeout for the job API.
DEFAULT_TIMEOUT_S = 60.0


def resolve_url(explicit: str | None = None) -> str:
    """The daemon base URL from an explicit flag, the environment, or default."""
    return (
        explicit or os.environ.get("TELS_SERVE_URL") or DEFAULT_URL
    ).rstrip("/")


class ServeClientError(ReproError):
    """A non-2xx API response (or an unreachable daemon)."""

    def __init__(self, message: str, status: int = 0, payload: dict | None = None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}

    @property
    def code(self) -> str:
        return self.payload.get("error", {}).get("code", "unknown")


class _Unreachable(OSError):
    """The daemon could not be reached: the one failure worth retrying."""


def _status_error(exc: urllib.error.HTTPError) -> ServeClientError:
    """A non-2xx response as a :class:`ServeClientError`."""
    body = exc.read()
    try:
        payload = json.loads(body)
    except ValueError:
        payload = {"error": {"message": body.decode(errors="replace")}}
    if not isinstance(payload, dict):
        payload = {}
    message = payload.get("error", {}).get("message", f"HTTP {exc.code}")
    return ServeClientError(message, status=exc.code, payload=payload)


class TelsClient:
    """Thin JSON-over-HTTP wrapper around one daemon."""

    def __init__(
        self,
        base_url: str | None = None,
        timeout: float = DEFAULT_TIMEOUT_S,
        retry: RetryPolicy | None = None,
    ):
        self.base_url = resolve_url(base_url)
        self.timeout = timeout
        self.retry = retry or RetryPolicy()

    # -- transport -----------------------------------------------------
    def _urlopen(self, method: str, path: str, data: bytes | None = None):
        """Open one request; HTTP errors raise :class:`ServeClientError`."""
        headers = {"Accept": "application/json"}
        if data is not None:
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            raise _status_error(exc) from None
        except OSError as exc:  # refused, reset, DNS, or timed out
            raise _Unreachable(getattr(exc, "reason", exc)) from None

    def _unreachable(self, exc: _Unreachable) -> ServeClientError:
        return ServeClientError(
            f"cannot reach daemon at {self.base_url}: {exc}"
        )

    def _request(
        self, method: str, path: str, body: dict | None = None
    ) -> bytes:
        """One request's response body, retried while unreachable."""
        data = None if body is None else json.dumps(body).encode()

        def attempt(_attempt: int) -> bytes:
            with self._urlopen(method, path, data) as response:
                try:
                    return response.read()
                except OSError as exc:
                    raise _Unreachable(exc) from None

        try:
            return retry_call(
                attempt,
                self.retry,
                retryable=(_Unreachable,),
                key=f"{method} {path}",
            )
        except _Unreachable as exc:
            raise self._unreachable(exc) from None

    def _json(self, method: str, path: str, body: dict | None = None) -> dict:
        return json.loads(self._request(method, path, body))

    # -- API -----------------------------------------------------------
    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def stats(self) -> dict:
        return self._json("GET", "/stats")

    def submit(
        self,
        blif: str,
        name: str = "network",
        options: dict | None = None,
        use_cache: bool = True,
    ) -> dict:
        """Submit BLIF text; returns the accepted job snapshot (202)."""
        return self._json(
            "POST",
            "/jobs",
            {
                "blif": blif,
                "name": name,
                "options": options or {},
                "use_cache": use_cache,
            },
        )

    def jobs(self) -> list[dict]:
        return self._json("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        return self._json("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._json("DELETE", f"/jobs/{job_id}")

    def result(self, job_id: str, fmt: str = "json") -> dict | str:
        """The finished job's result: a dict for json/sarif, text for thblif."""
        raw = self._request("GET", f"/jobs/{job_id}/result?format={fmt}")
        if fmt == "thblif":
            return raw.decode()
        return json.loads(raw)

    def events(self, job_id: str, since: int = 0) -> Iterator[dict]:
        """Stream the job's NDJSON events until it turns terminal (no retry)."""
        path = f"/jobs/{job_id}/events?since={since}"
        try:
            stream = self._urlopen("GET", path)
        except _Unreachable as exc:
            raise self._unreachable(exc) from None
        with stream:
            for line in stream:
                line = line.strip()
                if line:
                    yield json.loads(line)

    def wait(
        self, job_id: str, timeout: float = 600.0, poll_s: float = 0.1
    ) -> dict:
        """Poll until the job is terminal; returns the final snapshot."""
        deadline = time.monotonic() + timeout
        while True:
            snapshot = self.status(job_id)
            if snapshot["state"] in ("done", "failed", "cancelled"):
                return snapshot
            if time.monotonic() > deadline:
                raise ServeClientError(
                    f"timed out waiting for job {job_id} "
                    f"(last state: {snapshot['state']})"
                )
            time.sleep(poll_s)
