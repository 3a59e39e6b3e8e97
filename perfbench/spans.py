"""Spans the benchmark records around calls into the program's modules.

The program is not instrumented for this: a traced run swaps a module
attribute for a timing wrapper while the traced phase runs and puts the
original back afterwards.  A wrapper only sees calls that look the name
up on that module at call time, which is why each patch names the module
the *caller* reads it from (``state_key`` as bound in
``repro.semantics.system``, for instance).

Spans nest: a span's self time is its duration minus the time of the
spans opened inside it.  Totals are kept in memory per span name; the
stack is per thread, so a wrapper called from a client thread cannot
corrupt another thread's nesting.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence


class Spans:
    """Per-name span totals: calls, inclusive seconds, self seconds."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack_of = self._stack
        calls, total, own = self.calls, self.total, self.own

        def traced(*args, **kwargs):
            stack = stack_of()
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                calls[name] += 1
                total[name] += elapsed
                own[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        traced.__wrapped__ = fn
        return traced


#: ``(module, attribute, span name)`` for the engine layers.
ENGINE_PATCHES = (
    ("repro.semantics.reduction", "reduced_successors", "reduction.reduced_successors"),
    ("repro.semantics.reduction", "batched_successors", "transitions.batched_successors"),
    ("repro.semantics.system", "state_key", "canonical.state_key"),
)

#: Analysis entry points ``run_job`` resolves at call time.
ANALYSIS_PATCHES = (
    ("repro.analysis.secrecy", "keeps_secret", "analysis.property"),
    ("repro.analysis.properties", "authentication", "analysis.property"),
    ("repro.analysis.properties", "freshness", "analysis.property"),
    ("repro.analysis.environment", "env_secrecy", "analysis.env"),
    ("repro.analysis.environment", "env_authentication", "analysis.env"),
    ("repro.analysis.attacks", "securely_implements", "attacks.check"),
    ("repro.semantics.replay", "replay_result", "replay.certify"),
)


@contextmanager
def patched(spans: Spans, patches: Sequence[tuple[str, str, str]]) -> Iterator[None]:
    """Wrap each named module attribute in a span for the ``with`` body."""
    saved = []
    try:
        for module_name, attribute, span_name in patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, spans.wrap(span_name, original))
        yield
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)
