"""Certified verdicts: witnesses, the independent replay checker, and
the ``--certify`` enforcement path.

Layers under test:

* the :class:`~repro.analysis.witness.Witness` record itself — JSON
  round-trip identity, checksum sealing, and the Hypothesis tamper
  properties (any single-byte corruption of the serialized form is
  rejected; a truncated-and-resealed trace never replays);
* the trusted replay core (:mod:`repro.semantics.replay`) — every
  violating job kind in the examples tree produces a witness that
  replays against the unreduced, uncached transition relation, and a
  witness whose steps or property were altered does not;
* the ``--certify`` fleet path — ``run_job`` under ``REPRO_CERTIFY``
  marks violating results ``certified`` (or raises
  :class:`~repro.semantics.replay.CertificationError`), and the CLI
  surfaces ``witness replay`` / ``--certify`` / ``store verify``.
"""

from __future__ import annotations

import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.witness import (
    Witness,
    WitnessError,
    witness_checksum,
)
from repro.cli import main
from repro.runtime.worker import CERTIFY_ENV, Job, run_job
from repro.semantics.replay import CertificationError, replay_witness

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples", "systems")
P1 = os.path.normpath(os.path.join(EXAMPLES, "p1_impl.spi"))
PM2 = os.path.normpath(os.path.join(EXAMPLES, "pm2_impl.spi"))
P_SPEC = os.path.normpath(os.path.join(EXAMPLES, "p_spec.spi"))


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


def certified_result(kind: str, **kwargs) -> dict:
    """Run one violating job under REPRO_CERTIFY and return its result."""
    previous = os.environ.get(CERTIFY_ENV)
    os.environ[CERTIFY_ENV] = "1"
    try:
        job = Job(id=f"wtest:{kind}", kind=kind, **kwargs)
        return run_job(job)
    finally:
        if previous is None:
            os.environ.pop(CERTIFY_ENV, None)
        else:
            os.environ[CERTIFY_ENV] = previous


@pytest.fixture(scope="module")
def secrecy_result() -> dict:
    return certified_result(
        "secrecy", target={"sysfile": P1}, secret="M",
        max_states=4000, max_depth=24,
    )


@pytest.fixture(scope="module")
def freshness_result() -> dict:
    return certified_result(
        "freshness", target={"sysfile": PM2}, max_states=4000, max_depth=24,
    )


@pytest.fixture(scope="module")
def check_result() -> dict:
    return certified_result(
        "check", target={"impl": P1, "spec": P_SPEC},
        max_states=2000, max_depth=24,
    )


@pytest.fixture(scope="module")
def env_authentication_result() -> dict:
    return certified_result(
        "authentication", target={"sysfile": P1}, sender="A",
        max_states=4000, max_depth=24,
    )


@pytest.fixture(scope="module")
def authentication_result() -> dict:
    # Plain semantics: B's continuation republishes PAYLOAD, which A
    # creates, so naming S as the sender makes the first activation a
    # violation.
    return certified_result(
        "authentication", target={"zoo": "needham-schroeder-sk"}, sender="S",
        max_states=2000, max_depth=24,
    )


class TestWitnessRecord:
    def test_round_trip_identity(self, secrecy_result):
        payload = secrecy_result["witness"]
        # Through a real serialize/parse cycle — what the journal, the
        # store, and the wire all do to a witness.
        rebuilt = Witness.from_json(json.loads(json.dumps(payload)))
        assert rebuilt.to_json() == payload
        assert rebuilt.verify_checksum()

    def test_sealing_stamps_recipe_and_checksum(self, secrecy_result):
        payload = secrecy_result["witness"]
        assert payload["system"]["source"] == "sysfile"
        assert payload["checksum"] == witness_checksum(payload)
        assert payload["engine"]

    def test_from_json_rejects_non_object(self):
        with pytest.raises(WitnessError):
            Witness.from_json(["not", "an", "object"])

    def test_from_json_rejects_missing_step_fields(self, secrecy_result):
        payload = json.loads(json.dumps(secrecy_result["witness"]))
        del payload["steps"][0]["ch"]
        with pytest.raises(WitnessError):
            Witness.from_json(payload)

    def test_unknown_kind_rejected(self):
        with pytest.raises(WitnessError):
            Witness(kind="telepathy", prop={}, steps=())


class TestTamperProperties:
    """Any single-byte corruption of a sealed witness is detected.

    The serialized form is *compact* JSON (no insignificant
    whitespace), so a byte flip either breaks the parse, breaks the
    structural validation, changes a checksummed field, or changes the
    checksum itself — all four are rejections.
    """

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_single_byte_corruption_is_rejected(self, data, secrecy_result):
        encoded = json.dumps(
            secrecy_result["witness"], sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        index = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        original = encoded[index]
        replacement = data.draw(
            st.integers(min_value=0, max_value=255).filter(
                lambda b: b != original
            )
        )
        corrupted = encoded[:index] + bytes([replacement]) + encoded[index + 1:]
        try:
            payload = json.loads(corrupted.decode("utf-8", errors="strict"))
        except (ValueError, UnicodeDecodeError):
            return  # rejected at the parse layer
        try:
            witness = Witness.from_json(payload)
        except WitnessError:
            return  # rejected at the structural layer
        assert not witness.verify_checksum()

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_truncated_trace_never_replays(
        self,
        data,
        freshness_result,
        env_authentication_result,
        authentication_result,
        check_result,
    ):
        # A witness is the path to the *first* violating state in BFS
        # order, so no proper prefix can satisfy the property — even
        # after resealing the truncated payload so its checksum passes.
        results = (
            freshness_result,
            env_authentication_result,
            authentication_result,
            check_result,
        )
        for result in results:
            payload = json.loads(json.dumps(result["witness"]))
            assert len(payload["steps"]) >= 1
            keep = data.draw(
                st.integers(min_value=0, max_value=len(payload["steps"]) - 1)
            )
            payload["steps"] = payload["steps"][:keep]
            payload["checksum"] = witness_checksum(payload)
            report = replay_witness(payload)
            assert not report.ok, (payload["kind"], keep)

    def test_reseal_after_tamper_still_fails_replay(self, secrecy_result):
        # A checksum-passing forgery must still fail the *semantic*
        # check: here the recorded step is redirected to a channel the
        # initial system cannot fire.
        payload = json.loads(json.dumps(secrecy_result["witness"]))
        payload["steps"][0]["ch"] = {"t": "name", "b": "nonexistent", "u": False}
        payload["checksum"] = witness_checksum(payload)
        report = replay_witness(payload)
        assert not report.ok
        assert "step" in (report.reason or "")


class TestCertifiedJobs:
    def test_secrecy_certifies(self, secrecy_result):
        assert secrecy_result["violated"]
        assert secrecy_result["certified"]
        assert replay_witness(secrecy_result["witness"]).ok

    def test_freshness_certifies(self, freshness_result):
        assert freshness_result["violated"]
        assert freshness_result["certified"]
        assert replay_witness(freshness_result["witness"]).ok

    def test_authentication_certifies(self, env_authentication_result):
        result = env_authentication_result
        assert result["violated"]
        assert result["certified"]
        assert replay_witness(result["witness"]).ok

    def test_check_attack_certifies(self, check_result):
        assert check_result["violated"]
        assert check_result["certified"]
        witness = check_result["witness"]
        assert witness["kind"] == "attack"
        assert replay_witness(witness).ok

    @pytest.mark.parametrize(
        "fixture, kind",
        [("authentication_result", "authentication"),
         ("freshness_result", "env-freshness")],
    )
    def test_replay_is_the_same_in_every_reduction_mode(self, request, fixture, kind):
        # Replay matches steps against the raw relation and computes no
        # state key, so symmetry merging cannot change its report.
        from repro.semantics import reduction

        witness = request.getfixturevalue(fixture)["witness"]
        assert witness["kind"] == kind
        reports = {}
        for mode in reduction.MODES:
            previous = reduction.set_reduction_mode(mode)
            try:
                reports[mode] = replay_witness(witness)
            finally:
                reduction.set_reduction_mode(previous)
        assert reports["full"].ok
        assert reports["full"] == reports["none"]

    def test_wrong_engine_is_rejected(self, secrecy_result):
        payload = json.loads(json.dumps(secrecy_result["witness"]))
        payload["engine"] = "0.0.0-other"
        payload["checksum"] = witness_checksum(payload)
        report = replay_witness(payload)
        assert not report.ok
        assert "engine" in (report.reason or "")

    def test_uncertified_without_env(self):
        job = Job(
            id="wtest:plain", kind="secrecy", target={"sysfile": P1},
            secret="M", max_states=4000, max_depth=24,
        )
        result = run_job(job)
        assert result["violated"]
        assert "certified" not in result
        # The witness is still attached — certification is enforcement,
        # not production.
        assert result.get("witness") is not None


class TestWitnessCli:
    def test_replay_command_accepts_witness_file(self, tmp_path, secrecy_result):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(secrecy_result["witness"]))
        status, output = run_cli("witness", "replay", str(path))
        assert status == 0
        assert "witness certified" in output

    def test_replay_command_accepts_result_wrapper(self, tmp_path, secrecy_result):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(secrecy_result))
        status, output = run_cli("witness", "replay", str(path))
        assert status == 0

    def test_replay_command_flags_tampering(self, tmp_path, secrecy_result):
        payload = json.loads(json.dumps(secrecy_result["witness"]))
        payload["property"]["secret"] = "OTHER"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        status, output = run_cli("witness", "replay", str(path))
        assert status == 1
        assert "rejected" in output

    def test_replay_command_json_report(self, tmp_path, secrecy_result):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(secrecy_result["witness"]))
        status, output = run_cli("witness", "replay", str(path), "--json")
        assert status == 0
        assert json.loads(output)["ok"] is True

    def test_replay_command_unreadable_file(self, tmp_path):
        status, _ = run_cli("witness", "replay", str(tmp_path / "gone.json"))
        assert status == 2

    def test_certify_flag_on_property_command(self):
        status, output = run_cli(
            "secrecy", P1, "--secret", "M", "--certify",
        )
        assert status == 1
        assert "certified" in output
        # The env flag must not leak out of the dispatch.
        assert os.environ.get(CERTIFY_ENV) in (None, "")

    def test_certify_flag_on_check_command(self):
        status, output = run_cli("check", P1, P_SPEC, "--certify")
        assert status == 1
        assert "certified: witness replayed independently" in output


class TestStoreVerify:
    def _store_with_witness(self, tmp_path, result) -> str:
        from repro.service.store import VerdictStore, store_key

        directory = str(tmp_path / "store")
        store = VerdictStore(directory)
        job = Job(
            id="wtest:store", kind="secrecy", target={"sysfile": P1},
            secret="M", max_states=4000, max_depth=24,
        )
        store.put(store_key(job), result)
        store.close()
        return directory

    def test_clean_store_verifies(self, tmp_path, secrecy_result):
        directory = self._store_with_witness(tmp_path, secrecy_result)
        status, output = run_cli("store", "verify", directory)
        assert status == 0
        assert "1 witness(es) (1 ok, 0 failed)" in output

    def test_tampered_witness_is_flagged(self, tmp_path, secrecy_result):
        # The mutation recomputes the *record* checksum, so only the
        # witness-level validation can catch it — the test would pass
        # vacuously otherwise.
        import glob

        from repro.service.store import record_checksum

        directory = self._store_with_witness(tmp_path, secrecy_result)
        (path,) = glob.glob(os.path.join(directory, "*.jsonl"))
        record = json.loads(open(path).read().splitlines()[0])
        record["result"]["witness"]["steps"] = []
        record["sum"] = record_checksum(
            record["key"], record["engine"], record["result"]
        )
        with open(path, "w") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        status, output = run_cli("store", "verify", directory)
        assert status == 1
        assert "0 ok, 1 failed" in output
        # --no-replay (checksum-only) catches it too.
        status, _ = run_cli("store", "verify", directory, "--no-replay")
        assert status == 1

    def test_corrupt_record_is_flagged(self, tmp_path, secrecy_result):
        directory = self._store_with_witness(tmp_path, secrecy_result)
        import glob

        (path,) = glob.glob(os.path.join(directory, "*.jsonl"))
        with open(path, "a") as handle:
            handle.write('{"type": "verdict", "key": "k", "result": {}, '
                         '"engine": "x", "sum": "wrong"}\n')
        status, output = run_cli("store", "verify", directory)
        assert status == 1
        assert "1 corrupt" in output

    def test_empty_store_verifies(self, tmp_path):
        status, output = run_cli("store", "verify", str(tmp_path / "empty"))
        assert status == 0
        assert "0 corrupt" in output


class TestCertificationFailure:
    def test_failed_replay_raises_certification_error(self, monkeypatch):
        # Force the replay to reject everything: --certify must turn a
        # violation with a bad witness into a retryable fault upstream,
        # which begins life as this exception.
        import repro.runtime.worker as worker_module

        from repro.semantics.replay import ReplayReport

        monkeypatch.setenv(CERTIFY_ENV, "1")
        monkeypatch.setattr(
            worker_module,
            "replay_result",
            lambda result: ReplayReport(ok=False, reason="forced"),
            raising=False,
        )
        # run_job imports replay_result lazily; patch at the source.
        import repro.semantics.replay as replay_module

        monkeypatch.setattr(
            replay_module,
            "replay_result",
            lambda result: ReplayReport(ok=False, reason="forced"),
        )
        job = Job(
            id="wtest:forced", kind="secrecy", target={"sysfile": P1},
            secret="M", max_states=4000, max_depth=24,
        )
        with pytest.raises(CertificationError):
            run_job(job)


class TestWitnessFromTheVerdictsExploration:
    """A witness is read off the exploration that found the violation:
    no state is expanded a second time to rebuild the run."""

    BUDGET = (2000, 24)

    @pytest.fixture
    def plain_expansions(self, monkeypatch):
        """Canonical keys of every plain-semantics successor computation."""
        from repro.semantics import reduction, transitions

        keys: list[str] = []
        for module in (transitions, reduction):
            def counted(system, original=module.batched_successors):
                keys.append(system.canonical_key())
                return original(system)

            monkeypatch.setattr(module, "batched_successors", counted)
        return keys

    @pytest.fixture
    def env_expansions(self, monkeypatch):
        """Keys of every environment-sensitive state expanded."""
        from repro.analysis import environment

        keys: list[tuple] = []

        def counted(state, *args, original=environment.env_successors, **kwargs):
            keys.append(state.key())
            return original(state, *args, **kwargs)

        monkeypatch.setattr(environment, "env_successors", counted)
        return keys

    @staticmethod
    def _expanded(metrics, family: str) -> int:
        """States the verdict's own exploration expanded."""
        return metrics.counter(f"{family}.expanded").value

    def test_plain_authentication(self, plain_expansions):
        from repro.analysis.intruder import impersonator
        from repro.analysis.properties import authentication
        from repro.core.terms import Name
        from repro.obs.metrics import collecting
        from repro.protocols.library import narration_configuration
        from repro.protocols.zoo import ZOO
        from repro.semantics.lts import Budget

        spec = ZOO["needham-schroeder-sk"]()
        config = narration_configuration(
            spec, observed_role="B", observed_datum="PAYLOAD"
        ).with_part("E", impersonator(Name(spec.channel)))
        with collecting() as metrics:
            verdict = authentication(config, "S", budget=Budget(*self.BUDGET))
        assert not verdict.holds and verdict.witness is not None
        assert len(plain_expansions) == len(set(plain_expansions))
        assert len(plain_expansions) == self._expanded(metrics, "explore")

    def test_plain_freshness(self, plain_expansions):
        from repro.analysis.intruder import replayer
        from repro.analysis.properties import freshness
        from repro.core.terms import Name
        from repro.obs.metrics import collecting
        from repro.semantics.lts import Budget

        from tests.conftest import impl_crypto_multi

        config = impl_crypto_multi().with_part("E", replayer(Name("c")))
        with collecting() as metrics:
            verdict = freshness(config, budget=Budget(1200, 14))
        assert not verdict.holds and verdict.witness is not None
        assert len(plain_expansions) == len(set(plain_expansions))
        assert len(plain_expansions) == self._expanded(metrics, "explore")

    @pytest.mark.parametrize(
        "analysis,path,kwargs",
        [
            ("env_secrecy", P1, {"secret_base": "M"}),
            ("env_authentication", P1, {"sender_role": "A"}),
            ("env_freshness", PM2, {}),
        ],
        ids=["env-secrecy", "env-authentication", "env-freshness"],
    )
    def test_env_verdicts(self, env_expansions, analysis, path, kwargs):
        from repro.analysis import environment
        from repro.obs.metrics import collecting
        from repro.semantics.lts import Budget
        from repro.syntax.sysfile import load_system_file

        config = load_system_file(path).configuration
        with collecting() as metrics:
            verdict = getattr(environment, analysis)(
                config, budget=Budget(*self.BUDGET), **kwargs
            )
        assert not verdict.holds and verdict.witness is not None
        assert len(env_expansions) == len(set(env_expansions))
        assert len(env_expansions) == self._expanded(metrics, "env")

    def test_attack(self, plain_expansions):
        from repro.analysis.attacks import securely_implements
        from repro.analysis.intruder import standard_attackers
        from repro.obs.metrics import collecting
        from repro.semantics.lts import Budget
        from repro.syntax.sysfile import load_system_file

        impl = load_system_file(P1)
        spec = load_system_file(P_SPEC)
        with collecting() as metrics:
            verdict = securely_implements(
                impl.configuration,
                spec.configuration,
                standard_attackers(list(impl.configuration.private)),
                observe=impl.observe,
                roles=("A", "B", "E"),
                budget=Budget(*self.BUDGET),
            )
        assert not verdict.secure and verdict.attack.witness is not None
        # Every successor computation is one the test searches counted
        # as an expansion: nothing re-explored to narrate the attack.
        assert len(plain_expansions) == self._expanded(metrics, "search")


class TestWitnessSearchHonoursControl:
    """Plain secrecy's witness search is the one second pass left; it
    polls the job's control like the exploration before it."""

    @pytest.fixture
    def expire_after_exploration(self, monkeypatch):
        """A controllable clock that jumps past every deadline as soon as
        ``keeps_secret``'s exploration returns."""
        from repro.analysis import secrecy

        clock = [0.0]
        original = secrecy.explore

        def explore_then_expire(*args, **kwargs):
            graph = original(*args, **kwargs)
            clock[0] += 3600.0
            return graph

        monkeypatch.setattr(secrecy, "explore", explore_then_expire)
        return lambda: clock[0]

    def test_expired_control_leaves_witness_none(self, expire_after_exploration):
        import time

        from repro.analysis.intruder import eavesdropper
        from repro.analysis.secrecy import keeps_secret
        from repro.core.terms import Name
        from repro.obs.metrics import collecting
        from repro.protocols.library import narration_configuration
        from repro.protocols.zoo import ZOO
        from repro.runtime.deadline import Deadline, RunControl
        from repro.semantics.lts import Budget

        spec = ZOO["needham-schroeder-sk"]()
        config = narration_configuration(
            spec, observed_role="B", observed_datum="PAYLOAD"
        ).with_part("E", eavesdropper(Name(spec.channel), messages=6))
        control = RunControl(
            deadline=Deadline.after(60.0, clock=expire_after_exploration)
        )
        started = time.monotonic()
        with collecting() as metrics:
            verdict = keeps_secret(config, "NA", budget=Budget(2000, 24), control=control)
        assert time.monotonic() - started < 10.0
        assert not verdict.holds and verdict.exhaustive
        assert verdict.witness is None
        # The witness search stopped before its first expansion.
        assert metrics.counter("search.expanded").value == 0

    def test_certify_degrades_to_certification_error(
        self, monkeypatch, expire_after_exploration
    ):
        from repro.runtime import worker
        from repro.runtime.deadline import Deadline

        monkeypatch.setattr(
            worker.Deadline,
            "after",
            classmethod(
                lambda cls, seconds: Deadline(
                    expire_after_exploration() + seconds, expire_after_exploration
                )
            ),
        )
        monkeypatch.setenv(CERTIFY_ENV, "1")
        job = Job(
            id="wtest:expired", kind="secrecy", target={"zoo": "needham-schroeder-sk"},
            secret="NA", max_states=2000, max_depth=24,
        )
        with pytest.raises(CertificationError):
            run_job(job, deadline=60.0)
