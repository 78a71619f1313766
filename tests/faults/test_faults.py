"""The chaos harness itself: spec parsing, determinism, retry/backoff."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.errors import ChaosError
from repro.faults.injector import (
    CHAOS_ENV,
    FaultInjector,
    KNOWN_SITES,
    get_injector,
    parse_chaos_spec,
)
from repro.faults.retry import RetryPolicy, retry_call


class TestSpecParsing:
    def test_single_site_with_seed(self):
        spec = parse_chaos_spec("solver=0.5:7")
        assert spec.rates == {"solver": 0.5}
        assert spec.seed == 7
        assert spec.active

    def test_multiple_sites_default_seed(self):
        spec = parse_chaos_spec("solver=1.0,cache=0.25")
        assert spec.rate("solver") == 1.0
        assert spec.rate("cache") == 0.25
        assert spec.rate("cache-corrupt") == 0.0
        assert spec.seed == 0

    def test_whitespace_tolerated(self):
        spec = parse_chaos_spec(" solver=0.1 , cache=0.2 :3")
        assert spec.rates == {"solver": 0.1, "cache": 0.2}
        assert spec.seed == 3

    def test_zero_rate_spec_is_inactive(self):
        assert not parse_chaos_spec("solver=0.0").active

    @pytest.mark.parametrize(
        "text",
        [
            "solver",  # no rate
            "solver=0.5:xyz",  # bad seed
            "typo-site=0.5",  # unknown site
            "solver=lots",  # non-numeric rate
            "solver=1.5",  # out of range
            "solver=-0.1",  # out of range
            ":4",  # no sites
            "",  # empty
        ],
    )
    def test_malformed_specs_raise(self, text):
        with pytest.raises(ChaosError):
            parse_chaos_spec(text)

    @pytest.mark.parametrize(
        "site", ["worker", "stall", "net-refuse", "net-corrupt", "net-dup"]
    )
    def test_removed_sites_fail_loudly(self, site):
        known = "known: cache, cache-corrupt, solver, solver-wrong"
        with pytest.raises(ChaosError, match=f"unknown site .*{known}"):
            parse_chaos_spec(f"{site}=0.5")

    def test_every_known_site_parses(self):
        body = ",".join(f"{site}=0.1" for site in sorted(KNOWN_SITES))
        spec = parse_chaos_spec(body + ":9")
        assert set(spec.rates) == KNOWN_SITES


class TestDecisions:
    def test_same_key_same_decision(self):
        a = FaultInjector(parse_chaos_spec("solver=0.5:1"))
        b = FaultInjector(parse_chaos_spec("solver=0.5:1"))
        keys = [f"cone{i}:1" for i in range(200)]
        assert [a.decide("solver", k) for k in keys] == [
            b.decide("solver", k) for k in keys
        ]

    def test_rate_one_always_fires_rate_zero_never(self):
        inj = FaultInjector(parse_chaos_spec("cache=1.0:0"))
        assert all(inj.decide("cache", f"k{i}") for i in range(20))
        assert not any(inj.decide("solver", f"k{i}") for i in range(20))
        assert inj.injected == {"cache": 20}

    def test_rate_is_statistically_respected(self):
        inj = FaultInjector(parse_chaos_spec("cache=0.3:5"))
        hits = sum(inj.decide("cache", f"key{i}") for i in range(2000))
        assert 0.25 < hits / 2000 < 0.35

    def test_seed_changes_decisions(self):
        a = FaultInjector(parse_chaos_spec("solver=0.5:1"))
        b = FaultInjector(parse_chaos_spec("solver=0.5:2"))
        keys = [f"cone{i}" for i in range(200)]
        assert [a.decide("solver", k) for k in keys] != [
            b.decide("solver", k) for k in keys
        ]

    def test_decisions_survive_pythonhashseed(self):
        """String seeding hashes through SHA-512, not hash(): decisions
        must match across interpreters with different PYTHONHASHSEED."""
        local = FaultInjector(parse_chaos_spec("solver=0.5:42"))
        expect = [local.decide("solver", f"cone{i}:1") for i in range(32)]
        code = (
            "from repro.faults.injector import FaultInjector, parse_chaos_spec;"
            "inj = FaultInjector(parse_chaos_spec('solver=0.5:42'));"
            "print([inj.decide('solver', f'cone{i}:1') for i in range(32)])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "12345"},
        )
        assert out.stdout.strip() == repr(expect)


class TestGetInjector:
    def test_unset_means_none(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert get_injector() is None

    def test_cached_per_env_value(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "solver=0.5:1")
        first = get_injector()
        assert first is get_injector()  # counters persist
        monkeypatch.setenv(CHAOS_ENV, "solver=0.5:2")
        assert get_injector() is not first  # new spec takes effect
        monkeypatch.delenv(CHAOS_ENV)
        assert get_injector() is None

    def test_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "bogus-site=1.0")
        with pytest.raises(ChaosError):
            get_injector()


class TestRetry:
    def test_succeeds_after_transient_failures(self):
        sleeps: list[float] = []
        calls: list[int] = []

        def flaky(attempt: int) -> str:
            calls.append(attempt)
            if attempt < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_backoff_s=0.01)
        assert retry_call(flaky, policy, sleep=sleeps.append) == "ok"
        assert calls == [1, 2, 3]
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0]  # exponential growth (with jitter >= 0)

    def test_exhaustion_reraises(self):
        def always(attempt: int):
            raise OSError("still broken")

        policy = RetryPolicy(max_attempts=2, base_backoff_s=0.0)
        with pytest.raises(OSError):
            retry_call(always, policy, sleep=lambda _s: None)

    def test_non_retryable_propagates_immediately(self):
        calls: list[int] = []

        def bad(attempt: int):
            calls.append(attempt)
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            retry_call(bad, RetryPolicy(), sleep=lambda _s: None)
        assert calls == [1]

    def test_backoff_is_bounded_and_deterministic(self):
        policy = RetryPolicy(
            max_attempts=10, base_backoff_s=0.05, max_backoff_s=0.5, seed=3
        )
        series = [policy.backoff_s(n, key="taskA") for n in range(1, 10)]
        assert series == [
            policy.backoff_s(n, key="taskA") for n in range(1, 10)
        ]
        assert all(s <= 0.5 for s in series)
        assert series != [
            policy.backoff_s(n, key="taskB") for n in range(1, 10)
        ]

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(
            base_backoff_s=0.1, max_backoff_s=10.0, jitter=0.0
        )
        assert [policy.backoff_s(n) for n in (1, 2, 3)] == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
        ]
