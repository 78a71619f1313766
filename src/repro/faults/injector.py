"""Deterministic chaos/fault injection for the resilience harness.

Faults are enabled through the ``TELS_CHAOS`` environment variable::

    TELS_CHAOS="cache=0.1,cache-corrupt=0.05:42"

i.e. a comma-separated list of ``site=rate`` pairs followed by an optional
``:seed`` (default 0).  Sites:

* ``cache``        — a persistent-cache write raises ``OSError``;
* ``cache-corrupt``— a torn garbage line is appended after a cache flush.

Every decision is *content-keyed*: ``decide(site, key)`` draws from
``random.Random(f"{seed}|{site}|{key}")``, and string seeding hashes
through SHA-512, so the same (seed, site, key) triple decides the same way
in every process (``tels suite --jobs`` runs circuits in child processes),
under any ``PYTHONHASHSEED``, and regardless of execution order.  That is
what makes chaos runs reproducible and lets the tests assert exact recovery
behaviour per seed.

Injection is only ever *additive* noise on recoverable paths — the exact
ILP solver and the one-to-one degradation target are never perturbed, so
a chaos run must still produce a functionally equivalent network (the
differential tests check exactly that).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.errors import ChaosError

CHAOS_ENV = "TELS_CHAOS"

#: Every site the harness knows; unknown sites in a spec are an error so a
#: typo cannot silently disable a whole chaos campaign.
KNOWN_SITES = frozenset({"cache", "cache-corrupt"})


@dataclass(frozen=True)
class ChaosSpec:
    """A parsed fault-injection campaign: per-site rates plus the seed."""

    rates: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0

    def rate(self, site: str) -> float:
        return self.rates.get(site, 0.0)

    @property
    def active(self) -> bool:
        return any(rate > 0.0 for rate in self.rates.values())


def parse_chaos_spec(text: str) -> ChaosSpec:
    """Parse ``site=rate[,site=rate...][:seed]`` into a :class:`ChaosSpec`."""
    body, sep, tail = text.rpartition(":")
    seed = 0
    if sep:
        try:
            seed = int(tail)
        except ValueError:
            raise ChaosError(
                f"chaos spec {text!r}: seed {tail!r} is not an integer"
            ) from None
    else:
        body = tail
    rates: dict[str, float] = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        site, sep, value = item.partition("=")
        site = site.strip()
        if not sep:
            raise ChaosError(
                f"chaos spec {text!r}: expected site=rate, got {item!r}"
            )
        if site not in KNOWN_SITES:
            raise ChaosError(
                f"chaos spec {text!r}: unknown site {site!r} "
                f"(known: {', '.join(sorted(KNOWN_SITES))})"
            )
        try:
            rate = float(value)
        except ValueError:
            raise ChaosError(
                f"chaos spec {text!r}: rate {value!r} is not a number"
            ) from None
        if not 0.0 <= rate <= 1.0:
            raise ChaosError(
                f"chaos spec {text!r}: rate for {site!r} must be in [0, 1]"
            )
        rates[site] = rate
    if not rates:
        raise ChaosError(f"chaos spec {text!r} names no sites")
    return ChaosSpec(rates=rates, seed=seed)


class FaultInjector:
    """Makes deterministic, content-keyed fault decisions for one spec."""

    def __init__(self, spec: ChaosSpec):
        self.spec = spec
        self.injected: dict[str, int] = {}

    def decide(self, site: str, key: str) -> bool:
        """Should the fault at ``site`` fire for this ``key``?

        The decision is a pure function of (spec seed, site, key) — repeat
        calls agree, and so do calls from different processes.
        """
        rate = self.spec.rate(site)
        if rate <= 0.0:
            return False
        if rate < 1.0:
            draw = random.Random(f"{self.spec.seed}|{site}|{key}").random()
            if draw >= rate:
                return False
        self.injected[site] = self.injected.get(site, 0) + 1
        return True

    def __repr__(self) -> str:
        pairs = ",".join(
            f"{site}={rate}" for site, rate in sorted(self.spec.rates.items())
        )
        return f"FaultInjector({pairs}:{self.spec.seed})"


# One injector per observed env value, so the fault counters persist across
# calls within a process but a changed/cleared variable (tests monkeypatch
# it) takes effect immediately.  Child processes inherit the variable, so
# they build their own injector with the same spec — and, because decisions
# are content-keyed, the same decisions.
_cached: tuple[str, FaultInjector] | None = None


def get_injector() -> FaultInjector | None:
    """The process-wide injector for ``$TELS_CHAOS``, or None when unset."""
    global _cached
    text = os.environ.get(CHAOS_ENV, "").strip()
    if not text:
        _cached = None
        return None
    if _cached is not None and _cached[0] == text:
        return _cached[1]
    injector = FaultInjector(parse_chaos_spec(text))
    _cached = (text, injector)
    return injector
