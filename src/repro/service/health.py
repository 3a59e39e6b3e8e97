"""Active shard health checking for the cluster router.

Liveness of a shard *process* (did it exit?) is necessary but not
sufficient: a shard can be alive and useless — wedged event loop,
unreachable socket, or politely draining after someone SIGTERMed it.
The router therefore probes every shard with the cheapest request the
protocol has, ``ping``, on a fixed interval, and feeds the outcomes
into one :class:`~repro.service.breaker.CircuitBreaker` per shard:

* ``threshold`` consecutive probe failures **eject** the shard — its
  breaker opens, the router drops it from the hash ring, and its arc
  remaps to the surviving shards (in-flight requests are re-driven
  through the journal-dedupe path, see :mod:`repro.service.router`);
* an ejected shard is re-probed after the breaker ``cooldown`` (the
  half-open probe); one good pong **recovers** it into the ring;
* transport failures observed by the *forwarding* path (a connect
  refused, a mid-request reset) are reported here too via
  :meth:`HealthMonitor.note_failure` — real traffic is better health
  evidence than the next scheduled probe, and counting it makes
  ejection latency one failed request, not ``threshold × interval``.

A pong that says ``draining: true`` counts as a *failure*: the shard
answers, but routing new work to a closing door only manufactures
``draining`` refusals.

Probing is synchronous and injectable (``pinger``/``clock``), so unit
tests drive ejection and recovery without sockets or sleeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.service.breaker import CLOSED, CircuitBreaker


def ping_shard(address: Any, timeout: float = 2.0) -> dict:
    """One blocking ping against ``address``; raises on any failure,
    returns the pong payload."""
    from repro.service.client import ServiceClient, ServiceUnavailable

    reply = ServiceClient(address, timeout=timeout, retries=0).call({"kind": "ping"})
    if reply.get("status") != "pong":
        raise ServiceUnavailable(f"expected pong, got {reply.get('status')!r}")
    return reply


@dataclass(eq=False)
class ShardHealth:
    """One shard's probe history."""

    breaker: CircuitBreaker
    address: Any
    last_checked: float = 0.0
    next_check: float = 0.0
    last_pong: Optional[dict] = None
    last_error: Optional[str] = None
    checks: int = 0
    failures: int = 0

    @property
    def healthy(self) -> bool:
        return self.breaker.state == CLOSED

    def snapshot(self) -> dict:
        return {
            "healthy": self.healthy,
            "breaker": self.breaker.snapshot(),
            "checks": self.checks,
            "failures": self.failures,
            "last_error": self.last_error,
            "last_pong": self.last_pong,
        }


class HealthMonitor:
    """Periodic ping probes with breaker-backed ejection/recovery.

    ``sweep(now)`` is the router-loop entry point: it probes every
    shard that is due and returns the membership *transitions* —
    ``[(shard_id, "ejected" | "recovered"), ...]`` — so the caller can
    rebuild its hash ring exactly when membership changed and not
    otherwise.
    """

    def __init__(
        self,
        interval: float = 1.0,
        timeout: float = 2.0,
        threshold: int = 2,
        cooldown: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
        pinger: Callable[[Any, float], dict] = ping_shard,
        jitter: Optional[Callable[[], float]] = None,
    ) -> None:
        self.interval = interval
        self.timeout = timeout
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock
        self.pinger = pinger
        #: Optional ``random()``-style source spreading each shard's
        #: next probe over ``[0.5, 1.5) × interval``.  Without it probes
        #: stay exactly interval-paced (what the injected-clock tests
        #: pin down); with it a fleet that was ejected together does not
        #: re-probe (and re-recover, and re-stampede) in lockstep.
        self.jitter = jitter
        self._shards: dict[str, ShardHealth] = {}

    def _next_gap(self) -> float:
        if self.jitter is None:
            return self.interval
        return self.interval * (0.5 + self.jitter())

    # -- membership ----------------------------------------------------

    def watch(self, shard_id: str, address: Any) -> ShardHealth:
        """Start (or keep) watching a shard; new shards begin healthy —
        the supervisor spawned them on purpose and the first probes will
        say otherwise quickly enough."""
        health = self._shards.get(shard_id)
        if health is None:
            health = ShardHealth(
                breaker=CircuitBreaker(
                    threshold=self.threshold,
                    cooldown=self.cooldown,
                    clock=self.clock,
                ),
                address=address,
            )
            self._shards[shard_id] = health
        health.address = address
        return health

    def healthy(self, shard_id: str) -> bool:
        health = self._shards.get(shard_id)
        return health is not None and health.healthy

    def healthy_ids(self) -> frozenset[str]:
        return frozenset(sid for sid, h in self._shards.items() if h.healthy)

    # -- evidence ------------------------------------------------------

    def note_failure(self, shard_id: str, detail: str) -> bool:
        """Record out-of-band failure evidence (a forwarding error).

        Returns ``True`` when this report *ejected* the shard (healthy
        -> unhealthy transition), so the caller can rebuild its ring.
        """
        health = self._shards.get(shard_id)
        if health is None:
            return False
        was = health.healthy
        health.failures += 1
        health.last_error = detail
        health.breaker.record_fault(detail)
        return was and not health.healthy

    def eject(self, shard_id: str, detail: str) -> bool:
        """Eject a shard on conclusive evidence (its process exited):
        force the breaker open now rather than waiting for ``threshold``
        probes to confirm what the supervisor already knows.  Returns
        ``True`` when this call made the transition.
        """
        health = self._shards.get(shard_id)
        if health is None:
            return False
        was = health.healthy
        health.last_error = detail
        if was:
            health.failures += 1
        while health.breaker.state == CLOSED:
            health.breaker.record_fault(detail)
        return was

    def note_success(self, shard_id: str) -> bool:
        """Record out-of-band success evidence; ``True`` on recovery."""
        health = self._shards.get(shard_id)
        if health is None:
            return False
        was = health.healthy
        health.breaker.record_success()
        return not was and health.healthy

    # -- probing -------------------------------------------------------

    def check(self, shard_id: str) -> bool:
        """Probe one shard right now; returns its post-probe health."""
        health = self._shards.get(shard_id)
        if health is None:
            return False
        health.checks += 1
        health.last_checked = self.clock()
        try:
            pong = self.pinger(health.address, self.timeout)
            if pong.get("draining"):
                raise RuntimeError("shard is draining")
        except Exception as err:  # transport, protocol, or draining
            health.failures += 1
            health.last_error = f"{type(err).__name__}: {err}"
            health.breaker.record_fault(health.last_error)
            return False
        health.last_pong = pong
        health.last_error = None
        health.breaker.record_success()
        return True

    def sweep(self, now: Optional[float] = None) -> list[tuple[str, str]]:
        """Probe every shard that is due; return membership transitions.

        Healthy shards are probed every ``interval``.  Ejected shards
        are probed when their breaker grants the half-open slot (the
        breaker's ``cooldown``, not the sweep ``interval``, paces
        re-probes — recovering a shard too eagerly re-creates the
        flapping the breaker exists to damp).
        """
        now = self.clock() if now is None else now
        transitions: list[tuple[str, str]] = []
        for shard_id, health in list(self._shards.items()):
            if health.healthy:
                if now < health.next_check:
                    continue
                health.next_check = now + self._next_gap()
                if not self.check(shard_id) and not health.healthy:
                    transitions.append((shard_id, "ejected"))
            else:
                if not health.breaker.allow():
                    continue
                if self.check(shard_id):
                    transitions.append((shard_id, "recovered"))
        return transitions

    def snapshot(self) -> dict:
        return {sid: h.snapshot() for sid, h in sorted(self._shards.items())}


__all__ = ["HealthMonitor", "ShardHealth", "ping_shard"]
