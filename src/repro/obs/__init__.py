"""Observability: structured traces, metrics, stat blocks, profiling.

A dependency-free subsystem that makes the library's dominant cost —
opaque state-space exploration — measurable:

* :mod:`repro.obs.trace` — :class:`Tracer`: structured JSONL trace
  events (spans, counters, annotations) with monotonic timestamps;
* :mod:`repro.obs.metrics` — :class:`Metrics`: a registry of counters,
  gauges and histograms with JSON round-trips and associative merge;
* :mod:`repro.obs.stats` — per-job stat blocks attached to suite
  verdicts and the :class:`SuiteStats` aggregate;
* :mod:`repro.obs.profile` — :func:`profile`: a cProfile context
  manager behind the CLI's ``--profile``.

Both tracing and metrics collection are *ambient* (install with
:func:`tracing` / :func:`collecting`, read with
:func:`current_tracer` / :func:`current_metrics`) and cost one ``None``
check per instrumented run when disabled — the exploration loops keep
plain local counters and publish totals once at the end, so the hot
path carries no per-state indirection.
"""

from __future__ import annotations

from repro.core.lazy import lazy_exports

# Eager because the function shares its submodule's name (see
# repro.core.lazy); the module defers cProfile/pstats to first use.
from repro.obs.profile import profile, render_profile

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.obs.metrics": "Counter Gauge Histogram Metrics collecting "
    "current_metrics",
    "repro.obs.stats": "SuiteStats job_stats_block peak_rss_mb render_job_table",
    "repro.obs.trace": "TraceError TraceEvent Tracer current_tracer read_trace "
    "trace_counter trace_event trace_span tracing",
})
__all__ += ["profile", "render_profile"]
