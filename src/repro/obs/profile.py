"""Profiling hooks: a cProfile context manager for any bounded run.

The observability layer's third leg: traces say *when*, metrics say
*how much*, profiles say *which code*.  :func:`profile` wraps the
standard-library ``cProfile`` (always available, no dependency) around
an arbitrary block::

    with profile("explore.prof"):
        explore(system, budget)

* a path ending in ``.prof`` gets the binary ``pstats`` dump (feed it
  to ``snakeviz`` or ``python -m pstats``);
* any other path gets a human-readable top-N table (cumulative time);
* a ``None``/``"-"`` target prints that table to the given stream.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional, TextIO

if TYPE_CHECKING:
    import cProfile

#: Rows shown in the human-readable rendering.
TOP_N = 25


def render_profile(profiler: cProfile.Profile, top_n: int = TOP_N) -> str:
    """The profile as a cumulative-time table, highest first."""
    # cProfile/pstats load on first use: the package imports this
    # module eagerly, and most runs never profile.
    import io
    import pstats

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top_n)
    return buffer.getvalue()


@contextmanager
def profile(
    target: Optional[str] = None,
    stream: Optional[TextIO] = None,
    top_n: int = TOP_N,
) -> Iterator[cProfile.Profile]:
    """Profile the enclosed block with ``cProfile``.

    ``target`` is a ``.prof`` path (binary dump), another path (text
    table), or ``None``/``"-"`` (table to ``stream``, default stdout).
    The profiler object is yielded for callers that want the raw stats.
    """
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        if target is not None and target != "-":
            if target.endswith(".prof"):
                profiler.dump_stats(target)
            else:
                with open(target, "w", encoding="utf-8") as handle:
                    handle.write(render_profile(profiler, top_n))
        else:
            out = stream if stream is not None else sys.stdout
            out.write(render_profile(profiler, top_n))
