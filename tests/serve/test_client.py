"""TelsClient transport: bounded retry on an unreachable daemon, none on 4xx."""

from __future__ import annotations

import socket
import urllib.request

import pytest

from repro.faults.retry import RetryPolicy
from repro.serve.client import ServeClientError, TelsClient


@pytest.fixture
def urlopen_calls(monkeypatch) -> list[str]:
    """Record every request the client puts on the wire."""
    calls: list[str] = []
    real_urlopen = urllib.request.urlopen

    def counting_urlopen(request, *args, **kwargs):
        calls.append(request.full_url)
        return real_urlopen(request, *args, **kwargs)

    monkeypatch.setattr(urllib.request, "urlopen", counting_urlopen)
    return calls


def _closed_port_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class TestRetry:
    def test_unreachable_daemon_raises_after_max_attempts(self, urlopen_calls):
        policy = RetryPolicy(max_attempts=4, base_backoff_s=0.0, jitter=0.0)
        client = TelsClient(_closed_port_url(), timeout=5.0, retry=policy)
        with pytest.raises(ServeClientError, match="cannot reach daemon"):
            client.healthz()
        assert len(urlopen_calls) == 4

    def test_http_4xx_is_not_retried(self, daemon, urlopen_calls):
        app, _ = daemon
        policy = RetryPolicy(max_attempts=4, base_backoff_s=0.0, jitter=0.0)
        client = TelsClient(app.url, timeout=30.0, retry=policy)
        with pytest.raises(ServeClientError) as err:
            client.status("j999999")
        assert err.value.status == 404
        assert len(urlopen_calls) == 1
