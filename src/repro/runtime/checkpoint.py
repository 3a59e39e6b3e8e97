"""Checkpoint/resume for long-running explorations.

A deadline-expired, cancelled or killed exploration should not throw its
work away: the partial :class:`~repro.semantics.lts.Graph` already
carries everything needed to continue — the visited set, the recorded
edges and the unexpanded frontier (``Graph.pending``).  This module
serializes that bundle to disk so a later process picks up where the
earlier one stopped.

Format: a pickled :class:`Checkpoint` (visited systems are plain frozen
dataclasses, so the standard pickle protocol round-trips them; canonical
state keys are alpha-invariant renderings and therefore stable across
processes).  Writes are atomic (temp file + ``os.replace``) so a crash
mid-save never corrupts an existing checkpoint.

Security note: pickle executes code on load.  Only load checkpoints you
wrote yourself — the file is a cache of your own computation, not an
interchange format.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ReproError
from repro.runtime.atomic import atomic_dump
from repro.runtime.deadline import RunControl
from repro.semantics.lts import Budget, Graph, resume_exploration

#: Bumped whenever the on-disk layout changes incompatibly.
FORMAT_VERSION = 2


class CheckpointError(ReproError):
    """A checkpoint file is missing, corrupt, or from another format."""


@dataclass
class Checkpoint:
    """A saved exploration: the partial graph plus the budget in force.

    ``budget`` is informational — resuming may use any budget (that is
    exactly how escalation reuses prior work).
    """

    graph: Graph
    budget: Budget
    version: int = FORMAT_VERSION

    @property
    def exact(self) -> bool:
        """True when there is nothing left to resume."""
        return not self.graph.pending and self.graph.exhaustion is None

    def resume(
        self,
        budget: Optional[Budget] = None,
        control: Optional[RunControl] = None,
    ) -> Graph:
        """Continue the saved exploration (default: the saved budget)."""
        return resume_exploration(
            self.graph, budget if budget is not None else self.budget, control
        )

    def save(self, path: str) -> None:
        """Atomically write the checkpoint to ``path``.

        Same-directory temp file, fsync, then ``os.replace`` (see
        :mod:`repro.runtime.atomic`): a kill mid-save can never leave a
        truncated checkpoint that poisons a later ``--resume``.
        """
        atomic_dump(
            path,
            lambda handle: pickle.dump(self, handle, protocol=pickle.HIGHEST_PROTOCOL),
        )

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Read a checkpoint back; raises :class:`CheckpointError` on any
        malformed or incompatible file."""
        try:
            with open(path, "rb") as handle:
                loaded = pickle.load(handle)
        except FileNotFoundError:
            raise CheckpointError(f"no checkpoint at {path!r}")
        except Exception as err:
            # pickle surfaces corruption through a zoo of exception
            # types (UnpicklingError, EOFError, Attribute/Import/Index/
            # Key/Value errors from truncated opcodes); to a caller they
            # all mean one thing: this is not a loadable checkpoint.
            raise CheckpointError(f"corrupt checkpoint {path!r}: {err}")
        if not isinstance(loaded, cls):
            raise CheckpointError(
                f"{path!r} does not contain a checkpoint (got {type(loaded).__name__})"
            )
        if loaded.version != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {path!r} has format version {loaded.version}, "
                f"this library reads version {FORMAT_VERSION}"
            )
        return loaded


def load_checkpoint(path: str) -> Checkpoint:
    """Convenience alias for :meth:`Checkpoint.load`."""
    return Checkpoint.load(path)
