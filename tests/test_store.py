"""Tests for the persistent cross-run verdict store (``--verdict-store``).

Layered like the machinery itself:

* unit tests for the key function (budget/kind/engine axes, the
  worker-default normalization of ``secret``/``sender``, alpha-invariant
  source signatures, content-addressed system files, and the ``None``
  never-fault contract) and for the storability gate (budget-qualified
  verdicts persist, ``deadline``/``cancelled``/``fault`` ones never do);
* :class:`~repro.service.store.VerdictStore` basics — write-through,
  cross-process visibility, engine-version invalidation, compaction,
  ``invalidate``;
* Hypothesis durability properties: a segment truncated at *any* byte
  or with *any* single byte flipped yields for every key either the
  original verdict or a miss — never a wrong hit, never an exception —
  and a torn tail is buffered until its newline arrives;
* Hypothesis key-invariance over the parser-fuzz process strategy: two
  rendered systems share a store key **iff** their canonical keys
  match (alpha-renaming never splits a key, distinct systems never
  collide);
* a concurrent-access test: two writer *processes* stream disjoint
  records into one store directory while the parent tails it — no lost
  or duplicated records, and no read ever observes a torn record;
* the differential cache-parity suites: byte-identical verdicts cold
  vs warm through ``run_suite``, ``serve`` (restarted server, fresh
  journal, zero worker-pool dispatches), and a 3-shard cluster that
  takes a ``kill -9`` mid-batch on the cold pass;
* the breaker regression: a degraded ``fault`` verdict is never
  written through, and recovery recomputes then persists the real one.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.runtime.faults import FaultPlan
from repro.runtime.journal import read_journal
from repro.runtime.supervisor import run_suite
from repro.runtime.worker import Job, run_job
from repro.semantics.system import instantiate
from repro.service.store import (
    STORE_VERSION,
    StoreError,
    VerdictStore,
    budget_signature,
    engine_version,
    record_checksum,
    storable_result,
    store_key,
    system_signature,
)
from repro.service.protocol import protocol_key
from repro.syntax.parser import parse_process
from repro.syntax.pretty import render_process

from tests.test_cluster import (
    ZOO,
    running_cluster,
    wait_until,
)
from tests.test_parser_fuzz import processes
from tests.test_service import running_server

FUZZ = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _job(kind="secrecy", target=None, **overrides):
    options = dict(
        id="job", kind=kind, target=target or {"zoo": "yahalom"},
        max_states=500, max_depth=24,
    )
    options.update(overrides)
    return Job(**options)


def _stripped(result):
    """A verdict minus the per-run ``stats`` block (machine timings)."""
    clean = dict(result)
    clean.pop("stats", None)
    return clean


# ----------------------------------------------------------------------
# Keying
# ----------------------------------------------------------------------


class TestStoreKey:
    def test_key_is_deterministic_and_axis_sensitive(self):
        base = _job()
        assert store_key(base) == store_key(_job())
        assert store_key(base) != store_key(_job(kind="freshness"))
        assert store_key(base) != store_key(_job(max_states=501))
        assert store_key(base) != store_key(_job(max_depth=25))
        assert store_key(base) != store_key(_job(target={"zoo": "otway-rees"}))
        # The job id is *not* part of the key: resubmission under a new
        # id is the whole point of a cross-run store.
        assert store_key(base) == store_key(_job(id="resubmitted"))

    def test_engine_version_is_a_key_axis(self):
        job = _job()
        assert store_key(job) == store_key(job, engine=engine_version())
        assert store_key(job) != store_key(job, engine="0.0.0-other")

    def test_reduction_mode_is_a_key_axis(self):
        # Budget-truncated verdicts can legitimately differ between
        # reduction modes (the reduced run covers more depth per
        # state), so a warm hit must never cross modes.
        from repro.semantics import reduction

        job = _job()
        base = store_key(job)
        assert budget_signature(job)["reduce"] == reduction.reduction_mode()
        previous = reduction.set_reduction_mode("none")
        try:
            assert store_key(job) != base
        finally:
            reduction.set_reduction_mode(previous)
        assert store_key(job) == base

    def test_version_one_keys_are_never_served(self):
        # Under store version 1 a ``reduce: "full"`` key also meant
        # partial-order reduction; now that the mode is symmetry merging
        # alone, a record keyed that way must stay hidden.  Under version
        # 2 environment states were keyed on raw knowledge, so budget-
        # truncated verdicts stopped at another frontier.
        import hashlib

        from repro.semantics import reduction

        job = _job()
        previous = reduction.set_reduction_mode("full")
        try:
            for version in (1, 2):
                material = {
                    "v": version,
                    "engine": engine_version(),
                    "kind": job.kind,
                    "system": system_signature(job.target),
                    "budget": budget_signature(job),
                }
                assert material["budget"]["reduce"] == "full"
                old_key = hashlib.sha256(
                    json.dumps(material, sort_keys=True, separators=(",", ":")).encode()
                ).hexdigest()
                assert store_key(job) != old_key, version
        finally:
            reduction.set_reduction_mode(previous)

    def test_worker_defaults_normalize_into_the_key(self):
        """``secret=None`` on a zoo secrecy job *is* the worker default
        ``"KAB"``; ``sender=None`` on authentication *is* ``"A"`` — the
        two spellings must share one store entry."""
        assert store_key(_job(secret=None)) == store_key(_job(secret="KAB"))
        assert store_key(_job(secret="NA")) != store_key(_job(secret="KAB"))
        auth, auth_default = _job(kind="authentication"), _job(
            kind="authentication", sender="A"
        )
        assert store_key(auth) == store_key(auth_default)
        assert store_key(auth) != store_key(
            _job(kind="authentication", sender="B")
        )

    def test_alpha_renamed_sources_share_a_key(self):
        renamed = store_key(_job(target={"source": "c(y).c<y>.0"}))
        assert store_key(_job(target={"source": "c(x).c<x>.0"})) == renamed
        # A genuinely different system (free name differs) does not.
        assert store_key(_job(target={"source": "c(x).d<x>.0"})) != renamed

    def test_spi_file_keys_like_its_inline_source(self, tmp_path):
        source = "c(x).c<x>.0"
        path = tmp_path / "echo.spi"
        path.write_text(source, encoding="utf-8")
        assert store_key(_job(target={"spi": str(path)})) == store_key(
            _job(target={"source": source})
        )

    def test_sysfile_is_content_addressed(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        a.write_text('{"system": 1}')
        b.write_text('{"system": 1}')
        c.write_text('{"system": 2}')
        ka = store_key(_job(target={"sysfile": str(a)}))
        assert ka == store_key(_job(target={"sysfile": str(b)}))
        assert ka != store_key(_job(target={"sysfile": str(c)}))

    def test_unkeyable_jobs_degrade_to_none_not_errors(self, tmp_path):
        """Key trouble on the admission path must cost one recompute,
        never a failed request."""
        assert store_key(_job(target={"spi": str(tmp_path / "gone.spi")})) is None
        assert store_key(_job(target={"source": "((("})) is None
        # ``impl`` without ``spec`` is a target shape the signature
        # function refuses — still a miss at the key level.
        assert store_key(_job(target={"impl": "x.spi"})) is None

    def test_system_signature_rejects_unknown_target_shapes(self):
        with pytest.raises(StoreError):
            system_signature({"mystery": "x"})

    def test_budget_signature_normalization(self):
        sig = budget_signature(_job(secret=None))
        assert sig == {
            "max_states": 500, "max_depth": 24, "secret": "KAB", "sender": None,
            "reduce": "full",
        }
        # Non-zoo secrecy has no builder default to normalize to.
        assert budget_signature(
            _job(target={"source": "c(x).0"}, secret=None)
        )["secret"] is None


# ----------------------------------------------------------------------
# Storability
# ----------------------------------------------------------------------


class TestStorability:
    def test_exact_and_budget_qualified_verdicts_are_storable(self):
        assert storable_result({"holds": True})
        assert storable_result({"holds": True, "exhaustion": None})
        for reasons in (["states"], ["depth"], ["states", "depth"]):
            assert storable_result(
                {"holds": True, "exhaustion": {"reasons": reasons}}
            ), reasons

    def test_transient_qualifications_are_not(self):
        """``deadline``/``cancelled``/``fault`` record what one run
        failed to finish; persisting one would freeze a transient
        degradation into a permanent answer."""
        for reasons in (
            ["deadline"], ["fault"], ["cancelled"], ["states", "fault"],
        ):
            assert not storable_result(
                {"holds": None, "exhaustion": {"reasons": reasons}}
            ), reasons
        assert not storable_result({"exhaustion": {"reasons": []}})
        assert not storable_result({"exhaustion": "weird"})
        assert not storable_result("not a mapping")
        assert not storable_result(None)


# ----------------------------------------------------------------------
# VerdictStore basics
# ----------------------------------------------------------------------


class TestVerdictStoreBasics:
    def test_put_lookup_roundtrip_and_cross_process_visibility(self, tmp_path):
        result = {"holds": True, "exact": True, "summary": "fine"}
        with VerdictStore(str(tmp_path)) as store:
            assert store.put("k1", result, kind="secrecy", protocol="zoo:yahalom")
            assert store.lookup("k1") == result
            assert "k1" in store
            # Duplicate writes are refused (the record already exists).
            assert not store.put("k1", result)
        # A second instance over the same directory — another process,
        # in effect — sees the record.
        with VerdictStore(str(tmp_path)) as other:
            assert other.lookup("k1") == result
            assert other.lookup("k2") is None
            assert other.lookup(None) is None

    def test_non_storable_and_unkeyed_writes_are_refused(self, tmp_path):
        with VerdictStore(str(tmp_path)) as store:
            assert not store.put(None, {"holds": True})
            assert not store.put(
                "k", {"holds": None, "exhaustion": {"reasons": ["fault"]}}
            )
            assert store.stats()["records"] == 0

    def test_stale_engine_records_are_invisible(self, tmp_path):
        with VerdictStore(str(tmp_path)) as store:
            store.put("fresh", {"holds": True})
        # Hand-write a record stamped with an older engine (with a
        # *valid* checksum — this is staleness, not corruption).
        stale = {
            "type": "verdict", "key": "stale", "engine": "0.0.1",
            "result": {"holds": False},
            "sum": record_checksum("stale", "0.0.1", {"holds": False}),
        }
        with open(tmp_path / "seg-999-old.jsonl", "a", encoding="utf-8") as f:
            f.write(json.dumps(stale) + "\n")
        with VerdictStore(str(tmp_path)) as store:
            assert store.lookup("fresh") == {"holds": True}
            assert store.lookup("stale") is None
            stats = store.stats()
            assert stats["records"] == 2 and stats["keys"] == 1
            assert stats["engines"] == {engine_version(): 1, "0.0.1": 1}

    def test_compact_drops_stale_and_superseded_records(self, tmp_path):
        # Two writers (two store instances, two segments)...
        with VerdictStore(str(tmp_path)) as a, VerdictStore(str(tmp_path)) as b:
            a.put("shared", {"holds": True})
            a.put("only-a", {"holds": True})
            # ...force a duplicate past put()'s existence check by
            # writing before b refreshes — the documented benign race.
            b._ensure_writer().append(
                {
                    "type": "verdict", "key": "shared",
                    "engine": engine_version(), "result": {"holds": True},
                    "sum": record_checksum(
                        "shared", engine_version(), {"holds": True}
                    ),
                }
            )
        stale = {
            "type": "verdict", "key": "stale", "engine": "0.0.1",
            "result": {"holds": False},
            "sum": record_checksum("stale", "0.0.1", {"holds": False}),
        }
        with open(tmp_path / "seg-999-old.jsonl", "a", encoding="utf-8") as f:
            f.write(json.dumps(stale) + "\n")
        with VerdictStore(str(tmp_path)) as store:
            assert store.stats()["segments"] == 3
            report = store.compact()
            assert report["after"]["keys"] == 2
            assert report["after"]["segments"] == 1
            assert report["dropped_records"] >= 1
            assert store.lookup("shared") == {"holds": True}
            assert store.lookup("only-a") == {"holds": True}
            assert store.lookup("stale") is None

    def test_invalidate_wipes_everything(self, tmp_path):
        with VerdictStore(str(tmp_path)) as store:
            store.put("k1", {"holds": True})
            store.put("k2", {"holds": False})
            assert store.invalidate() == 2
            assert store.stats()["records"] == 0
            assert store.lookup("k1") is None
        assert not [
            n for n in os.listdir(tmp_path) if n.startswith("seg-")
        ]

    def test_store_error_on_unusable_directory(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(StoreError):
            VerdictStore(str(blocker))


# ----------------------------------------------------------------------
# Durability: corruption never yields a wrong hit
# ----------------------------------------------------------------------

_CORPUS: dict = {}


def _corpus():
    """One segment's exact bytes plus the truth it encodes, built once
    (every append fsyncs; Hypothesis examples reuse the bytes)."""
    if not _CORPUS:
        scratch = tempfile.mkdtemp(prefix="repro-store-corpus-")
        try:
            truth = {
                f"key-{i:02d}": {"holds": bool(i % 2), "idx": i, "exact": True}
                for i in range(6)
            }
            with VerdictStore(scratch) as store:
                for key, result in truth.items():
                    assert store.put(key, result)
                [segment] = store._segments()
                with open(segment, "rb") as handle:
                    _CORPUS["bytes"] = handle.read()
            _CORPUS["truth"] = truth
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    return _CORPUS["bytes"], _CORPUS["truth"]


def _assert_correct_or_miss(directory, truth):
    """The durability contract: every lookup either returns the original
    verdict or misses — never a wrong hit, never an exception."""
    with VerdictStore(directory) as store:
        for key, expected in truth.items():
            found = store.lookup(key)
            assert found is None or found == expected, (key, found)
        stats = store.stats()  # reading a damaged store never raises
        assert stats["records"] <= len(truth)


class TestStoreDurability:
    @given(cut=st.integers(min_value=0, max_value=10_000))
    @FUZZ
    def test_truncation_at_any_byte_is_correct_or_miss(self, cut):
        data, truth = _corpus()
        scratch = tempfile.mkdtemp(prefix="repro-store-trunc-")
        try:
            with open(os.path.join(scratch, "seg-1-t.jsonl"), "wb") as f:
                f.write(data[: cut % (len(data) + 1)])
            _assert_correct_or_miss(scratch, truth)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    @given(
        position=st.integers(min_value=0, max_value=10_000),
        flip=st.integers(min_value=1, max_value=255),
    )
    @FUZZ
    def test_any_single_byte_flip_is_correct_or_miss(self, position, flip):
        """The checksum clause: a flipped byte *inside a result payload*
        still parses as valid JSON, so structural checks alone would
        serve a wrong verdict — the per-record checksum must catch it."""
        data, truth = _corpus()
        position %= len(data)
        damaged = bytes(
            b ^ flip if i == position else b for i, b in enumerate(data)
        )
        scratch = tempfile.mkdtemp(prefix="repro-store-flip-")
        try:
            with open(os.path.join(scratch, "seg-1-f.jsonl"), "wb") as f:
                f.write(damaged)
            _assert_correct_or_miss(scratch, truth)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def test_torn_tail_is_buffered_until_its_newline_arrives(self, tmp_path):
        """An interleaved writer's half-written line is not corruption:
        the reader buffers it and absorbs the record once the newline
        lands — without re-reading the whole segment."""
        with VerdictStore(str(tmp_path)) as writer:
            writer.put("whole", {"holds": True})
        record = {
            "type": "verdict", "key": "torn", "engine": engine_version(),
            "result": {"holds": False},
            "sum": record_checksum("torn", engine_version(), {"holds": False}),
        }
        line = json.dumps(record) + "\n"
        segment = os.path.join(str(tmp_path), "seg-2-torn.jsonl")
        reader = VerdictStore(str(tmp_path))
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write(line[: len(line) // 2])
            handle.flush()
            assert reader.lookup("whole") == {"holds": True}
            assert reader.lookup("torn") is None  # a miss, not a crash
            handle.write(line[len(line) // 2:])
            handle.flush()
        assert reader.lookup("torn") == {"holds": False}

    def test_vanished_segment_resets_cleanly(self, tmp_path):
        with VerdictStore(str(tmp_path)) as writer:
            writer.put("k", {"holds": True})
        reader = VerdictStore(str(tmp_path))
        assert reader.lookup("k") == {"holds": True}
        for name in os.listdir(tmp_path):
            if name.startswith("seg-"):
                os.unlink(tmp_path / name)
        assert reader.lookup("k") is None
        assert reader.stats()["records"] == 0

    def test_record_damaged_after_indexing_is_a_miss(self, tmp_path):
        """A hit is read from disk and verified at lookup time, so a
        byte flipped in place (same size: nothing new to tail) after
        the record was indexed turns the next lookup into a miss — and
        the next write-through heals it."""
        result = {"holds": True, "summary": "fine"}
        with VerdictStore(str(tmp_path)) as store:
            assert store.put("k", result)
            assert store.lookup("k") == result
            [segment] = store._segments()
            with open(segment, "rb") as handle:
                position = handle.read().index(b'"fine"') + 1
            with open(segment, "r+b") as handle:
                handle.seek(position)
                handle.write(b"F")
            assert store.lookup("k") is None
            assert "k" not in store
            assert store.put("k", result)
            assert store.lookup("k") == result

    def test_index_holds_offsets_not_verdicts(self, tmp_path):
        result = {"holds": False, "witness": {"steps": ["x" * 2000]}}
        with VerdictStore(str(tmp_path)) as store:
            assert store.put("k", result)
            assert store.lookup("k") == result
            [tail] = store._tails.values()
            [entry] = tail.index.values()
            assert [type(field) for field in entry] == [int, int, str]
            assert entry.engine == engine_version()
            with open(tail.path, "rb") as handle:
                handle.seek(entry.offset)
                line = handle.read(entry.length)
            assert json.loads(line)["result"] == result


# ----------------------------------------------------------------------
# Key invariance (Hypothesis over the parser-fuzz strategy)
# ----------------------------------------------------------------------


class TestStoreKeyInvariance:
    @staticmethod
    def _source_key(source):
        return store_key(_job(target={"source": source}))

    #: Source templates parameterized by one input-binder spelling.
    #: (Binder-variable spelling is erased by the canonicalizer; free
    #: and restricted *name* spellings are global and are not.)
    TEMPLATES = (
        "c({b}).c<{b}>.0",
        "!(c({b}).c<{b}>.0)",
        "c({b}).c({b}2).c<{b}>.0",
    )

    @given(
        template=st.sampled_from(TEMPLATES),
        first=st.sampled_from(["x", "y", "msg", "payload", "v1"]),
        second=st.sampled_from(["x", "y", "msg", "payload", "v1"]),
    )
    @FUZZ
    def test_binder_renaming_never_splits_a_key(self, template, first, second):
        a = self._source_key(template.format(b=first))
        b = self._source_key(template.format(b=second))
        assert a is not None and a == b, (template, first, second)

    @given(a=processes(), b=processes())
    @FUZZ
    def test_keys_agree_iff_canonical_keys_agree(self, a, b):
        """The iff direction: the store key neither splits systems the
        canonicalizer identifies nor collides systems it separates."""
        same_system = (
            instantiate(a).canonical_key() == instantiate(b).canonical_key()
        )
        same_key = (
            self._source_key(render_process(a))
            == self._source_key(render_process(b))
        )
        assert same_key == same_system


# ----------------------------------------------------------------------
# Concurrent writer processes sharing one store directory
# ----------------------------------------------------------------------

_WRITER_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro.service.store import VerdictStore

    def main():
        directory, writer, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
        with VerdictStore(directory) as store:
            for i in range(count):
                assert store.put(
                    f"{writer}-{i:03d}",
                    {"holds": True, "writer": writer, "idx": i, "exact": True},
                )

    if __name__ == "__main__":
        main()
    """
)


class TestConcurrentWriters:
    COUNT = 50

    def test_two_processes_write_through_without_loss_or_tearing(self, tmp_path):
        """Two shard-like processes stream disjoint records into one
        store directory while the parent tails it concurrently: every
        observed value is correct (tailing never surfaces a torn
        record), and the final store holds exactly every record once."""
        script = tmp_path / "writer.py"
        script.write_text(_WRITER_SCRIPT, encoding="utf-8")
        store_dir = tmp_path / "store"
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        writers = [
            subprocess.Popen(
                [sys.executable, str(script), str(store_dir), w, str(self.COUNT)],
                env=env,
            )
            for w in ("w1", "w2")
        ]
        keys = [
            f"{w}-{i:03d}" for w in ("w1", "w2") for i in range(self.COUNT)
        ]
        reader = VerdictStore(str(store_dir))
        try:
            # Tail while the writers race: anything visible must be
            # exactly what its writer appended.
            while any(p.poll() is None for p in writers):
                for key in keys:
                    found = reader.lookup(key)
                    if found is not None:
                        writer, idx = key.split("-")
                        assert found == {
                            "holds": True, "writer": writer,
                            "idx": int(idx), "exact": True,
                        }, (key, found)
        finally:
            for p in writers:
                p.wait(timeout=120)
        assert [p.returncode for p in writers] == [0, 0]

        stats = reader.stats()
        assert stats["keys"] == 2 * self.COUNT
        assert stats["records"] == 2 * self.COUNT  # nothing duplicated
        assert stats["segments"] == 2  # one segment per writer
        for key in keys:
            assert reader.lookup(key) is not None, key


_RACE_WRITER_SCRIPT = """
import sys

from repro.service.store import VerdictStore

store = VerdictStore(sys.argv[1])
store.put("race-1", {"holds": True, "exact": True, "idx": 1})
print("ready", flush=True)
for line in sys.stdin:
    line = line.strip()
    if not line:
        break
    idx = int(line)
    store.put(f"race-{idx}", {"holds": True, "exact": True, "idx": idx})
    print("ok", flush=True)
"""


class TestCompactLiveWriterRace:
    def test_compact_never_drops_a_racing_writers_records(self, tmp_path, monkeypatch):
        """Deterministic reproduction of the compact/live-writer race.

        A writer *process* keeps its segment open across the whole
        compaction.  The compactor is instrumented to make the writer
        append at the two worst moments: (a) right after the survivor
        segment is created — after the first tail read, inside the
        window the final re-tail must close — and (b) right after the
        survivor segment is closed — past the final re-tail, where only
        the size guard can save the record by refusing the unlink.
        Both records must be visible after compaction.
        """
        from repro.service import store as store_module

        script = tmp_path / "race_writer.py"
        script.write_text(_RACE_WRITER_SCRIPT, encoding="utf-8")
        store_dir = str(tmp_path / "store")
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        writer = subprocess.Popen(
            [sys.executable, str(script), store_dir],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert writer.stdout.readline().strip() == "ready"

            def inject(idx: int) -> None:
                writer.stdin.write(f"{idx}\n")
                writer.stdin.flush()
                assert writer.stdout.readline().strip() == "ok"

            real_journal = store_module.Journal

            class InjectingJournal(real_journal):
                def __init__(self, path, fresh=False):
                    super().__init__(path, fresh=fresh)
                    if fresh:
                        # Survivor segment just created: the first tail
                        # read is behind us, the final re-tail ahead.
                        inject(2)

                def close(self):
                    already = getattr(self, "_race_closed", False)
                    super().close()
                    if not already:
                        self._race_closed = True
                        # Past the final re-tail: only the grew-since-
                        # tailed guard can keep this record alive.
                        inject(3)

            monkeypatch.setattr(store_module, "Journal", InjectingJournal)
            compactor = VerdictStore(store_dir)
            report = compactor.compact()
        finally:
            writer.stdin.close()
            writer.wait(timeout=60)
        assert writer.returncode == 0
        # The writer's still-open segment grew past the tailed offset,
        # so it must have been left in place, not unlinked.
        assert report["kept_segments"] >= 1
        fresh = VerdictStore(store_dir)
        for idx in (1, 2, 3):
            assert fresh.lookup(f"race-{idx}") == {
                "holds": True, "exact": True, "idx": idx,
            }, f"race-{idx} lost by compaction"


# ----------------------------------------------------------------------
# Differential cache parity: run_suite
# ----------------------------------------------------------------------


def _suite_jobs():
    return [
        Job(
            id=f"secrecy:{name}", kind="secrecy", target={"zoo": name},
            max_states=1500, max_depth=36,
        )
        for name in ZOO
    ]


class TestSuiteStore:
    def test_cold_then_warm_suite_is_byte_identical_with_zero_attempts(
        self, tmp_path
    ):
        store = str(tmp_path / "store")
        cold = run_suite(_suite_jobs(), workers=2, verdict_store=store)
        assert all(o.status == "ok" for o in cold.outcomes)
        assert all(o.attempts >= 1 for o in cold.outcomes)

        warm = run_suite(_suite_jobs(), workers=2, verdict_store=store)
        assert all(o.status == "ok" for o in warm.outcomes)
        for before, after in zip(cold.outcomes, warm.outcomes):
            assert after.attempts == 0, after.job.id
            assert "served from verdict store" in after.events
            # Byte-identical: the stored verdict is replayed verbatim,
            # stats block and all.
            assert json.dumps(after.result, sort_keys=True) == json.dumps(
                before.result, sort_keys=True
            ), after.job.id

    def test_deadline_qualified_verdicts_are_never_persisted(self, tmp_path):
        store = str(tmp_path / "store")
        # A linearly growing state space (no convergence for the
        # canonicalizer to exploit) that cannot finish inside the
        # deadline — the verdict comes back deadline-qualified.
        jobs = [
            Job(
                id="huge", kind="explore",
                target={"source": "!(c<a>.0) | !(c(x).d<x>.0)"},
                max_states=200_000, max_depth=100_000,
            )
        ]
        report = run_suite(
            jobs, workers=1, job_deadline=0.05, verdict_store=store
        )
        [outcome] = report.outcomes
        assert outcome.result is not None
        reasons = (outcome.result.get("exhaustion") or {}).get("reasons", [])
        assert "deadline" in reasons
        with VerdictStore(store) as reader:
            assert reader.stats()["records"] == 0

    def test_fault_injected_suites_bypass_the_store(self, tmp_path):
        """A fault campaign must neither read nor pollute the store."""
        store = str(tmp_path / "store")
        jobs = [
            Job(
                id="faulted", kind="secrecy", target={"zoo": "yahalom"},
                max_states=500, max_depth=24,
            )
        ]
        report = run_suite(
            jobs, workers=1, retries=2, verdict_store=store,
            fault_plan=FaultPlan(exit_at=(2,)), fault_attempts=[1],
        )
        [outcome] = report.outcomes
        assert outcome.status == "ok" and outcome.attempts == 2
        with VerdictStore(store) as reader:
            assert reader.stats()["records"] == 0

    def test_cli_store_subcommand(self, tmp_path):
        store = str(tmp_path / "store")
        with VerdictStore(store) as writer:
            writer.put("k1", {"holds": True})
            writer.put("k2", {"holds": False})

        out = io.StringIO()
        assert main(["store", "stats", store, "--json"], out) == 0
        stats = json.loads(out.getvalue())
        assert stats["records"] == 2 and stats["keys"] == 2

        out = io.StringIO()
        assert main(["store", "compact", store], out) == 0
        assert "compact" in out.getvalue()

        out = io.StringIO()
        assert main(["store", "invalidate", store], out) == 0
        assert "2" in out.getvalue()

        out = io.StringIO()
        assert main(["store", "stats", store, "--json"], out) == 0
        assert json.loads(out.getvalue())["records"] == 0


# ----------------------------------------------------------------------
# Differential cache parity: serve
# ----------------------------------------------------------------------


def _serve_requests():
    return [
        (f"secrecy:{name}", "secrecy", {"zoo": name}) for name in ZOO
    ] + [
        (f"freshness:{name}", "freshness", {"zoo": name}) for name in ZOO
    ]


class TestServeWithStore:
    def test_warm_restarted_server_serves_without_dispatching(self, tmp_path):
        """The acceptance scenario: a server restarted against a fresh
        journal but the same store answers every resubmission
        ``cached: true``, byte-identical, with **zero** worker-pool
        dispatches — and never double-journals a store hit."""
        store = str(tmp_path / "store")
        requests = _serve_requests()
        cold_replies: dict[str, dict] = {}

        with running_server(
            workers=2, verdict_store=store,
            journal_path=str(tmp_path / "cold.jsonl"),
        ) as (server, client):
            for rid, kind, target in requests:
                reply = client.submit(
                    kind, target, id=rid, max_states=1500, max_depth=36,
                )
                assert reply["status"] == "ok", reply
                assert "cached" not in reply
                cold_replies[rid] = reply
            counters = client.status()["metrics"]["counters"]
            assert counters["store.miss"] == len(requests)
            assert counters["store.write"] == len(requests)
            assert "store.hit" not in counters

        warm_journal = str(tmp_path / "warm.jsonl")
        with running_server(
            workers=2, verdict_store=store, journal_path=warm_journal,
        ) as (server, client):
            for rid, kind, target in requests:
                reply = client.submit(
                    kind, target, id=f"again-{rid}",
                    max_states=1500, max_depth=36,
                )
                assert reply["status"] == "ok" and reply["cached"] is True
                assert json.dumps(reply["result"], sort_keys=True) == json.dumps(
                    cold_replies[rid]["result"], sort_keys=True
                ), rid
            counters = client.status()["metrics"]["counters"]
            assert counters["store.hit"] == len(requests)
            assert "store.miss" not in counters
            # Zero dispatches: the pool never saw a job.
            assert "service.completed" not in counters

        # Store hits are answered before journaling: the warm journal
        # holds no result records, so a *third* incarnation resuming
        # from it cannot double-count, and nothing was computed twice.
        assert [
            r for r in read_journal(warm_journal) if r.get("type") == "result"
        ] == []

    def test_parity_with_in_process_baseline(self, tmp_path):
        store = str(tmp_path / "store")
        job = Job(
            id="base", kind="secrecy", target={"zoo": "otway-rees"},
            max_states=1500, max_depth=36,
        )
        with running_server(workers=1, verdict_store=store) as (server, client):
            served = client.submit(
                "secrecy", {"zoo": "otway-rees"},
                id="served", max_states=1500, max_depth=36,
            )
            warm = client.submit(
                "secrecy", {"zoo": "otway-rees"},
                id="served-again", max_states=1500, max_depth=36,
            )
        assert warm["cached"] is True
        direct = run_job(job)
        assert _stripped(served["result"]) == _stripped(direct)
        assert _stripped(warm["result"]) == _stripped(direct)

    def test_degraded_fault_verdict_is_not_written_through(self, tmp_path):
        """The regression the issue pins: a breaker-open degrade is
        *retryable* and must never be persisted; once the breaker
        recovers, the real verdict is computed and only then stored."""
        store = str(tmp_path / "store")
        with running_server(
            workers=1, retries=0, breaker_threshold=1, breaker_cooldown=0.3,
            allow_fault_injection=True, verdict_store=store,
        ) as (server, client):
            crashed = client.submit(
                "secrecy", {"zoo": "yahalom"}, id="crash",
                max_states=500, max_depth=24,
                fault_plan={"exit_at": [1]}, fault_attempts=[1],
            )
            assert crashed["status"] == "degraded"
            assert crashed["result"]["exhaustion"]["reasons"] == ["fault"]
            with VerdictStore(store) as reader:
                assert reader.stats()["records"] == 0

            # Breaker open: a *clean* request degrades fast — still not
            # persisted (a transient answer must stay transient).
            key = protocol_key({"zoo": "yahalom"})
            assert client.status()["breakers"][key]["state"] == "open"
            fast = client.submit(
                "secrecy", {"zoo": "yahalom"}, id="while-open",
                max_states=500, max_depth=24,
            )
            assert fast["status"] == "degraded"
            with VerdictStore(store) as reader:
                assert reader.stats()["records"] == 0

            # After cooldown the probe recomputes for real, and *that*
            # verdict is written through and replayed.
            wait_until(
                lambda: client.status()["breakers"][key]["cooldown_remaining"]
                == 0
            )
            recovered = client.submit(
                "secrecy", {"zoo": "yahalom"}, id="recovered",
                max_states=500, max_depth=24,
            )
            assert recovered["status"] == "ok"
            replay = client.submit(
                "secrecy", {"zoo": "yahalom"}, id="replayed",
                max_states=500, max_depth=24,
            )
            assert replay["status"] == "ok" and replay["cached"] is True
            assert _stripped(replay["result"]) == _stripped(
                recovered["result"]
            )
            with VerdictStore(store) as reader:
                assert reader.stats()["records"] == 1

    def test_fault_plan_requests_bypass_the_store(self, tmp_path):
        """Fault campaigns neither read from nor write to the store —
        an injected run must actually run, and its outcome must not
        shadow the clean verdict."""
        store = str(tmp_path / "store")
        with running_server(
            workers=1, retries=1, allow_fault_injection=True,
            verdict_store=store,
        ) as (server, client):
            clean = client.submit(
                "secrecy", {"zoo": "woo-lam"}, id="clean",
                max_states=500, max_depth=24,
            )
            assert clean["status"] == "ok"
            with VerdictStore(store) as reader:
                assert reader.stats()["records"] == 1
            injected = client.submit(
                "secrecy", {"zoo": "woo-lam"}, id="injected",
                max_states=500, max_depth=24,
                fault_plan={"exit_at": [2]}, fault_attempts=[1],
            )
            # Survived the injected crash via retry — but it was a real
            # run (not a store hit) and left no second record behind.
            assert injected["status"] == "ok"
            assert "cached" not in injected
            with VerdictStore(store) as reader:
                assert reader.stats()["records"] == 1


# ----------------------------------------------------------------------
# Differential cache parity: 3-shard cluster with kill -9
# ----------------------------------------------------------------------


class TestClusterWithStore:
    def test_kill_nine_cold_pass_then_warm_cluster_serves_from_store(self):
        """Cold pass: 8 jobs through a 3-shard cluster sharing one
        store, one shard killed -9 while busy (the store must stay
        consistent through failover).  Warm pass: a *brand-new* cluster
        — fresh shard journals — over the same store answers every
        resubmission ``cached: true``, byte-identical, with zero result
        records in any shard journal (nothing recomputed, nothing
        double-journaled)."""
        scratch = tempfile.mkdtemp(prefix="repro-store-cl-")
        store = os.path.join(scratch, "store")
        jobs = [
            Job(
                id=f"{kind}:{name}", kind=kind, target={"zoo": name},
                max_states=1500, max_depth=36,
            )
            for kind in ("secrecy", "freshness")
            for name in ZOO
        ]
        try:
            cold_replies: dict[str, dict] = {}
            errors: list[str] = []
            with running_cluster(shards=3, verdict_store=store) as (
                router, client,
            ):
                from repro.service.client import (
                    ServiceClient,
                    ServiceUnavailable,
                )

                def submit(job):
                    try:
                        local = ServiceClient(
                            client.addresses, timeout=120.0, retries=8,
                            backoff_base=0.05, backoff_cap=0.5,
                        )
                        cold_replies[job.id] = local.submit(
                            job.kind, job.target, id=job.id,
                            max_states=job.max_states, max_depth=job.max_depth,
                        )
                    except ServiceUnavailable as err:
                        errors.append(f"{job.id}: {err}")

                threads = [
                    threading.Thread(target=submit, args=(job,))
                    for job in jobs
                ]
                for thread in threads:
                    thread.start()

                def busy_local_pid():
                    for shard in router._shards.values():
                        if shard.inflight and shard.process is not None:
                            pid = shard.process.pid
                            if pid is not None and shard.process.alive():
                                return pid
                    return None

                victim = wait_until(busy_local_pid, timeout=60.0, interval=0.005)
                os.kill(victim, signal.SIGKILL)

                for thread in threads:
                    thread.join(timeout=180)
                assert not any(t.is_alive() for t in threads), "submits hung"
                assert not errors, errors
                assert all(
                    r["status"] == "ok" for r in cold_replies.values()
                ), cold_replies
                wait_until(lambda: len(router.health.healthy_ids()) == 3)

            # Failover or not, the store converged: one verdict per job.
            with VerdictStore(store) as reader:
                stats = reader.stats()
                assert stats["keys"] == len(jobs)

            warm_dir = os.path.join(scratch, "warm")
            with running_cluster(
                shards=3, verdict_store=store, dir=warm_dir,
            ) as (router, client):
                journals = [
                    shard.spec.journal_path
                    for shard in router._shards.values()
                ]
                for job in jobs:
                    reply = client.submit(
                        job.kind, job.target, id=f"again-{job.id}",
                        max_states=job.max_states, max_depth=job.max_depth,
                    )
                    assert reply["status"] == "ok", reply
                    assert reply["cached"] is True, job.id
                    assert json.dumps(
                        reply["result"], sort_keys=True
                    ) == json.dumps(
                        cold_replies[job.id]["result"], sort_keys=True
                    ), job.id
                warm_records = [
                    r for path in journals for r in read_journal(path)
                ]
            assert [
                r for r in warm_records if r.get("type") == "result"
            ] == []
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
