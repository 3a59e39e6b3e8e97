"""Verification-as-a-service: ``repro-spi serve`` and its client.

The batch runner (:func:`repro.runtime.supervisor.run_suite`) answers
"verify this list of jobs once"; this package answers "keep a warm
worker pool around and verify whatever shows up", with the robustness
furniture a long-running process needs — bounded admission with load
shedding, per-request deadlines, per-protocol circuit breakers, and a
graceful SIGTERM drain that leaves a resumable journal behind.

Layers, bottom up:

* :mod:`repro.service.framing` — length-prefixed JSON frames;
* :mod:`repro.service.protocol` — the request/response schema;
* :mod:`repro.service.admission` — the bounded shed-on-full queue;
* :mod:`repro.service.breaker` — per-protocol circuit breakers;
* :mod:`repro.service.server` — the selectors event loop on top of the
  supervised :class:`~repro.runtime.supervisor.WorkerPool` and the
  attempt lifecycle it shares with the batch runner;
* :mod:`repro.service.client` — blocking client with retry, backoff,
  jitter, and deadline propagation;
* :mod:`repro.service.store` — the persistent cross-run verdict store
  (``--verdict-store``): crash-safe sharded JSONL segments serving
  whole verdicts cache-aside across restarts (see ``docs/store.md``);
* :mod:`repro.service.shards` / :mod:`repro.service.health` /
  :mod:`repro.service.router` — the ``repro-spi cluster`` layer: a
  consistent-hash ring over supervised shard processes, breaker-backed
  active health checks, and a router with journal-keyed exactly-once
  failover (see ``docs/cluster.md``).
"""

from repro.core.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.service.admission": "AdmissionQueue",
    "repro.service.breaker": "BreakerBoard CircuitBreaker",
    "repro.service.client": "ServiceClient ServiceUnavailable parse_address",
    "repro.service.framing": "MAX_FRAME FrameDecoder FramingError encode_frame "
    "recv_frame send_frame",
    "repro.service.protocol": "PROTOCOL_VERSION ProtocolError Request "
    "parse_request",
    "repro.service.health": "HealthMonitor",
    "repro.service.router": "ClusterError Router RouterConfig",
    "repro.service.server": "Server ServerConfig ServiceError",
    "repro.service.shards": "HashRing LocalShard ShardSpec",
    "repro.service.store": "StoreError VerdictStore storable_result store_key",
})
