"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import main

EXAMPLE = "a<{M}k>.0 | a(x). case x of {y}k in b<y>.0 | b(r).0"


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


class TestParse:
    def test_inline_expression(self):
        status, output = run_cli("parse", "-e", "a<M>.0")
        assert status == 0
        assert output.strip() == "a<M>.0"

    def test_unicode_flag(self):
        status, output = run_cli("parse", "--unicode", "-e", "(nu m)(c@||0*||1<m>.0)")
        assert status == 0
        assert "ν" in output and "•" in output

    def test_tree_flag(self):
        status, output = run_cli("parse", "--tree", "-e", EXAMPLE)
        assert status == 0
        assert "tree of sequential processes" in output
        assert "<||0||0>" in output

    def test_file_input(self, tmp_path):
        source = tmp_path / "proc.spi"
        source.write_text("a<M>.0")
        status, output = run_cli("parse", str(source))
        assert status == 0 and "a<M>.0" in output

    def test_parse_error_is_reported(self, capsys):
        status, _ = run_cli("parse", "-e", "a<M>.")
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_shows_caret_excerpt(self, capsys):
        status, _ = run_cli("parse", "-e", "a<M>.)x")
        assert status == 2
        err = capsys.readouterr().err
        assert "1 | a<M>.)x" in err
        assert "^" in err
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        status, _ = run_cli("parse", "/nonexistent/path.spi")
        assert status == 2


class TestRun:
    def test_example1_runs_two_steps(self):
        status, output = run_cli("run", "-e", EXAMPLE)
        assert status == 0
        assert "step 1" in output and "step 2" in output
        assert "stuck after 2 steps" in output

    def test_step_budget(self):
        status, output = run_cli("run", "--steps", "1", "-e", EXAMPLE)
        assert status == 0
        assert "stopped after 1 steps (budget)" in output

    def test_inert_system(self):
        status, output = run_cli("run", "-e", "0")
        assert status == 0
        assert "stuck after 0 steps" in output


class TestExplore:
    def test_statistics_printed(self):
        status, output = run_cli("explore", "-e", EXAMPLE)
        assert status == 0
        assert "states" in output and "transitions" in output

    def test_dot_to_stdout(self):
        status, output = run_cli("explore", "--dot", "-", "-e", EXAMPLE)
        assert status == 0
        assert "digraph lts {" in output

    def test_dot_to_file(self, tmp_path):
        target = tmp_path / "graph.dot"
        status, output = run_cli("explore", "--dot", str(target), "-e", EXAMPLE)
        assert status == 0
        assert target.read_text().startswith("digraph lts {")
        assert str(target) in output

    def test_budget_flags(self):
        status, output = run_cli(
            "explore", "--max-states", "2", "--max-depth", "1", "-e", EXAMPLE
        )
        assert status == 0
        assert "(truncated" in output  # now qualified with the tripped limits

    def test_escalate_flag(self):
        status, output = run_cli(
            "explore", "--max-states", "2", "--max-depth", "1", "--escalate",
            "-e", EXAMPLE,
        )
        assert status == 0
        assert "escalation exact" in output
        assert "(truncated" not in output

    def test_deadline_flag(self):
        status, output = run_cli("explore", "--deadline", "30", "-e", EXAMPLE)
        assert status == 0
        assert "states" in output

    def test_checkpoint_and_resume(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        status, output = run_cli(
            "explore", "--max-states", "2", "--max-depth", "1",
            "--checkpoint", path, "-e", EXAMPLE,
        )
        assert status == 0
        assert f"checkpoint written to {path}" in output
        status, output = run_cli("explore", "--resume", path)
        assert status == 0
        assert "resuming from" in output
        assert "(truncated" not in output

    def test_checkpoint_skipped_when_exact(self, tmp_path):
        path = str(tmp_path / "never.ckpt")
        status, output = run_cli("explore", "--checkpoint", path, "-e", EXAMPLE)
        assert status == 0
        assert "no checkpoint needed" in output

    def test_resume_missing_checkpoint_is_an_error(self, tmp_path):
        status, _ = run_cli("explore", "--resume", str(tmp_path / "gone.ckpt"))
        assert status == 2

    def test_resume_corrupt_checkpoint_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"this is not a pickle of a Checkpoint")
        status, _ = run_cli("explore", "--resume", str(path))
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "corrupt checkpoint" in err
        assert "Traceback" not in err

    def test_checkpoint_every_autosaves(self, tmp_path):
        path = str(tmp_path / "auto.ckpt")
        status, output = run_cli(
            "explore", "--max-states", "3", "--max-depth", "2",
            "--checkpoint", path, "--checkpoint-every", "1", "-e", EXAMPLE,
        )
        assert status == 0
        from repro.runtime.checkpoint import Checkpoint

        assert Checkpoint.load(path).graph.state_count() >= 1

    def test_checkpoint_every_requires_checkpoint(self, capsys):
        status, _ = run_cli("explore", "--checkpoint-every", "5", "-e", EXAMPLE)
        assert status == 2
        assert "--checkpoint" in capsys.readouterr().err


class TestSuite:
    def test_spi_file_jobs(self, tmp_path):
        source = tmp_path / "demo.spi"
        source.write_text("a<M>.0 | a(x).b<x>.0")
        status, output = run_cli("suite", str(source), "--jobs", "1")
        assert status == 0
        assert "suite: 1 job(s)" in output

    def test_no_jobs_is_an_error(self, capsys):
        status, _ = run_cli("suite")
        assert status == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_resume_requires_journal(self, capsys):
        status, _ = run_cli("suite", "--zoo", "woo-lam", "--resume")
        assert status == 2
        assert "--journal" in capsys.readouterr().err

    def test_unknown_zoo_protocol(self, capsys):
        status, _ = run_cli("suite", "--zoo", "no-such-protocol")
        assert status == 2
        assert "unknown zoo protocols" in capsys.readouterr().err

    def test_corrupt_journal_on_resume_is_one_line_error(self, tmp_path, capsys):
        journal = tmp_path / "suite.jsonl"
        journal.write_text('{"type": "result", "job": broken!!}\n')
        status, _ = run_cli(
            "suite", "--zoo", "woo-lam",
            "--journal", str(journal), "--resume",
        )
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "corrupt record" in err
        assert "Traceback" not in err

    def test_suite_file_jobs(self, tmp_path):
        import json

        suite = tmp_path / "batch.json"
        suite.write_text(json.dumps([
            {"id": "explore:inline", "kind": "explore",
             "target": {"source": "a<M>.0 | a(x).0"},
             "max_states": 50, "max_depth": 8},
        ]))
        status, output = run_cli(
            "suite", "--suite-file", str(suite), "--jobs", "1"
        )
        assert status == 0
        assert "explore:inline" in output

    def test_malformed_suite_file(self, tmp_path, capsys):
        suite = tmp_path / "batch.json"
        suite.write_text('{"not": "a list"}')
        status, _ = run_cli("suite", "--suite-file", str(suite))
        assert status == 2
        assert "JSON list" in capsys.readouterr().err


class TestUsage:
    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])


SYSTEMS_DIR = __import__("pathlib").Path(__file__).resolve().parent.parent / "examples" / "systems"


class TestExitCodeMatrix:
    """0 = clean, 1 = attack/violation found, 2 = error — across every
    verdicting subcommand, with and without the observability flags."""

    # -- check ---------------------------------------------------------

    def test_check_clean(self):
        status, _ = run_cli(
            "check", str(SYSTEMS_DIR / "p2_impl.spi"), str(SYSTEMS_DIR / "p_spec.spi")
        )
        assert status == 0

    def test_check_attack(self):
        status, output = run_cli(
            "check", str(SYSTEMS_DIR / "p1_impl.spi"), str(SYSTEMS_DIR / "p_spec.spi")
        )
        assert status == 1
        assert "NOT a secure implementation" in output

    def test_check_error(self, capsys):
        status, _ = run_cli("check", "/does/not/exist.spi", str(SYSTEMS_DIR / "p_spec.spi"))
        assert status == 2

    # -- secrecy -------------------------------------------------------

    def test_secrecy_clean(self):
        status, output = run_cli(
            "secrecy", str(SYSTEMS_DIR / "p2_impl.spi"), "--secret", "M"
        )
        assert status == 0
        assert "secret kept" in output or "holds" in output

    def test_secrecy_violation(self):
        status, output = run_cli(
            "secrecy", str(SYSTEMS_DIR / "p1_impl.spi"), "--secret", "M"
        )
        assert status == 1
        assert "VIOLATED" in output

    def test_secrecy_zoo_target(self):
        status, output = run_cli("secrecy", "woo-lam")
        assert status == 0
        assert "secret kept" in output

    def test_secrecy_unknown_target_is_error(self, capsys):
        status, _ = run_cli("secrecy", "no-such-thing")
        assert status == 2
        assert "neither a system file nor" in capsys.readouterr().err

    def test_secrecy_sysfile_without_secret_is_error(self, capsys):
        status, _ = run_cli("secrecy", str(SYSTEMS_DIR / "p2_impl.spi"))
        assert status == 2
        assert "needs a secret" in capsys.readouterr().err

    # -- authentication ------------------------------------------------

    def test_authentication_clean(self):
        status, _ = run_cli(
            "authentication", str(SYSTEMS_DIR / "p2_impl.spi"), "--sender", "A"
        )
        assert status == 0

    def test_authentication_violation(self):
        status, output = run_cli(
            "authentication", str(SYSTEMS_DIR / "p1_impl.spi"), "--sender", "A"
        )
        assert status == 1
        assert "VIOLATED" in output

    def test_authentication_zoo_target(self):
        status, output = run_cli("authentication", "woo-lam")
        assert status == 0
        assert "holds" in output

    # -- suite ---------------------------------------------------------

    def test_suite_clean(self, tmp_path):
        source = tmp_path / "demo.spi"
        source.write_text("a<M>.0 | a(x).0")
        status, _ = run_cli("suite", str(source), "--jobs", "1")
        assert status == 0

    def test_suite_violation(self, tmp_path):
        import json

        suite = tmp_path / "batch.json"
        suite.write_text(json.dumps([
            {"id": "secrecy:p1", "kind": "secrecy",
             "target": {"sysfile": str(SYSTEMS_DIR / "p1_impl.spi")},
             "secret": "M", "max_states": 500, "max_depth": 12},
        ]))
        status, output = run_cli("suite", "--suite-file", str(suite), "--jobs", "1")
        assert status == 1
        assert "violation" in output

    def test_suite_error(self, capsys):
        status, _ = run_cli("suite")
        assert status == 2

    # -- flags preserve the exit code ----------------------------------

    def test_violation_exit_survives_stats_and_trace(self, tmp_path):
        stats = tmp_path / "s.json"
        trace = tmp_path / "t.jsonl"
        status, output = run_cli(
            "secrecy", str(SYSTEMS_DIR / "p1_impl.spi"), "--secret", "M",
            "--stats", str(stats), "--trace", str(trace),
        )
        assert status == 1
        assert stats.exists() and trace.exists()


class TestObservabilityFlags:
    def test_explore_stats_to_stdout(self):
        status, output = run_cli("explore", "--stats", "-e", EXAMPLE)
        assert status == 0
        assert "explore.states" in output

    def test_explore_stats_to_file(self, tmp_path):
        import json

        stats = tmp_path / "s.json"
        status, output = run_cli(
            "explore", "--stats", str(stats), "-e", EXAMPLE
        )
        assert status == 0
        data = json.loads(stats.read_text())
        assert data["metrics"]["counters"]["explore.runs"] == 1
        assert f"stats written to {stats}" in output

    def test_explore_trace_file(self, tmp_path):
        from repro.obs.trace import read_trace

        trace = tmp_path / "t.jsonl"
        status, _ = run_cli("explore", "--trace", str(trace), "-e", EXAMPLE)
        assert status == 0
        names = {event.name for event in read_trace(str(trace))}
        assert "lts.explore" in names

    def test_explore_profile_to_stdout(self):
        status, output = run_cli("explore", "--profile", "-e", EXAMPLE)
        assert status == 0
        assert "function calls" in output

    def test_explore_profile_to_prof_file(self, tmp_path):
        import pstats

        target = tmp_path / "run.prof"
        status, _ = run_cli(
            "explore", "--profile", str(target), "-e", EXAMPLE
        )
        assert status == 0
        assert pstats.Stats(str(target)).total_calls > 0

    def test_suite_stats_json_has_jobs_and_aggregate(self, tmp_path):
        import json

        stats = tmp_path / "stats.json"
        status, _ = run_cli(
            "suite", "--zoo", "woo-lam", "--jobs", "2",
            "--stats", str(stats),
        )
        assert status == 0
        data = json.loads(stats.read_text())
        assert set(data) == {"aggregate", "jobs", "metrics"}
        assert data["aggregate"]["jobs"] == 2
        assert data["aggregate"]["workers"] == 2
        assert data["aggregate"]["states"] > 0
        for row in data["jobs"].values():
            assert row["states"] > 0
            assert row["states_per_s"] > 0

    def test_suite_trace_narrates_scheduling(self, tmp_path):
        from repro.obs.trace import read_trace

        source = tmp_path / "demo.spi"
        source.write_text("a<M>.0 | a(x).0")
        trace = tmp_path / "t.jsonl"
        status, _ = run_cli(
            "suite", str(source), "--jobs", "1", "--trace", str(trace)
        )
        assert status == 0
        names = [event.name for event in read_trace(str(trace))]
        assert "suite.dispatch" in names and "suite.outcome" in names


P1 = str(SYSTEMS_DIR / "p1_impl.spi")
P2 = str(SYSTEMS_DIR / "p2_impl.spi")
P_SPEC = str(SYSTEMS_DIR / "p_spec.spi")


def _masked(text: str) -> str:
    """``text`` with fresh-name suffixes (``M#123``) made run-independent."""
    import re

    return re.sub(r"#\d+", "#", text)


class TestVerdictRuntimeFlags:
    """``analyze``/``check`` under ``--escalate`` and ``--deadline``, and
    their verdict lines against the job machinery ``suite`` runs."""

    SMALL = ("--escalate", "--max-states", "5", "--max-depth", "3")
    LADDER = "escalation exact after 2 attempt(s) [5s/3d -> 20s/6d], "
    LABELS = ("authentication(A): ", "freshness: ", "secrecy(M): ")

    @pytest.mark.parametrize("impl,code", [(P1, 1), (P2, 0)])
    def test_analyze_escalate_ladder_follows_each_label(self, impl, code):
        status, output = run_cli(
            "analyze", impl, "--sender", "A", "--secret", "M", *self.SMALL
        )
        assert status == code
        lines = output.splitlines()
        assert len(lines) == 2 * len(self.LABELS)
        for index, label in enumerate(self.LABELS):
            assert lines[2 * index].startswith(label)
            assert lines[2 * index + 1].startswith("  " + self.LADDER)

    @pytest.mark.parametrize(
        "impl,code,verdict",
        [(P1, 1, "NOT a secure implementation:"), (P2, 0, "securely implements")],
    )
    def test_check_escalate_ladder_precedes_verdict(self, impl, code, verdict):
        status, output = run_cli("check", impl, P_SPEC, *self.SMALL)
        assert status == code
        lines = output.splitlines()
        assert lines[0].startswith(self.LADDER)
        assert lines[1].startswith(verdict)

    @pytest.mark.parametrize("impl,code", [(P1, 1), (P2, 0)])
    def test_analyze_deadline_keeps_exit_codes(self, impl, code):
        status, output = run_cli(
            "analyze", impl, "--sender", "A", "--secret", "M", "--deadline", "60"
        )
        assert status == code
        assert "deadline" not in output

    def test_analyze_expired_deadline_qualifies_every_verdict(self):
        status, output = run_cli(
            "analyze", P1, "--sender", "A", "--secret", "M", "--deadline", "0"
        )
        assert status == 0
        lines = output.splitlines()
        assert len(lines) == len(self.LABELS)
        for line, label in zip(lines, self.LABELS):
            assert line.startswith(label)
            assert line.endswith("(within budget: deadline)")

    def test_expired_deadline_stops_the_escalation_ladder(self):
        status, output = run_cli("check", P2, P_SPEC, *self.SMALL, "--deadline", "0")
        assert status == 0
        lines = output.splitlines()
        assert lines[0].startswith(
            "escalation gave up (interrupted) after 1 attempt(s) [5s/3d]"
        )
        assert lines[1].endswith("(budget-limited: deadline)")

    @pytest.mark.parametrize("impl", [P1, P2])
    def test_verdict_lines_match_run_job(self, impl):
        from repro.runtime.worker import Job, run_job

        _, output = run_cli("check", impl, P_SPEC)
        expected = run_job(Job(
            id="parity:check", kind="check", target={"impl": impl, "spec": P_SPEC},
            max_states=2000, max_depth=24,
        ))
        assert _masked(output) == _masked(expected["summary"] + "\n")

        _, output = run_cli("analyze", impl, "--sender", "A", "--secret", "M")
        target = {"sysfile": impl}
        jobs = (
            Job(id="parity:auth", kind="authentication", target=target, sender="A",
                max_states=4000, max_depth=18),
            Job(id="parity:fresh", kind="freshness", target=target,
                max_states=4000, max_depth=18),
            Job(id="parity:secrecy", kind="secrecy", target=target, secret="M",
                max_states=4000, max_depth=18),
        )
        expected = "".join(
            f"{label}{run_job(job)['summary']}\n"
            for label, job in zip(self.LABELS, jobs)
        )
        assert _masked(output) == _masked(expected)


class TestReduceFlag:
    """``--reduce {none,full}`` on every verdicting command."""

    #: Replicated sessions at a depth both modes exhaust: symmetry
    #: merging folds permuted sessions, so ``full`` expands fewer states.
    PM2 = (
        "secrecy", str(SYSTEMS_DIR / "pm2_impl.spi"), "--secret", "M",
        "--max-states", "100000", "--max-depth", "4",
    )

    def test_modes_change_exploration_not_exit_codes(self):
        for mode, states in (("none", 143), ("full", 88)):
            status, output = run_cli(*self.PM2, "--reduce", mode)
            assert status == 0
            assert f"over {states} states" in output, (mode, output)

    def test_reduction_counters_reach_stats(self, tmp_path):
        import json

        merges = {}
        for mode in ("full", "none"):
            stats = tmp_path / f"{mode}.json"
            status, _ = run_cli(*self.PM2, "--reduce", mode, "--stats", str(stats))
            assert status == 0
            counters = json.loads(stats.read_text())["metrics"]["counters"]
            merges[mode] = counters.get("reduction.sym_merge", 0)
        assert merges["full"] > 0
        assert merges["none"] == 0

    def test_flag_sets_mode_and_env_for_the_run(self, monkeypatch):
        # The env var is what spawned suite/serve/cluster workers
        # inherit; the flag must set it for the duration and restore
        # both it and the in-process mode afterwards.
        import os

        import repro.cli as cli
        from repro.semantics import canonical, reduction

        before = reduction.reduction_mode()
        seen = {}
        real = cli._dispatch_observed

        def spy(args, out):
            seen["mode"] = reduction.reduction_mode()
            seen["env"] = os.environ.get(canonical.REDUCTION_ENV)
            return real(args, out)

        monkeypatch.setattr(cli, "_dispatch_observed", spy)
        monkeypatch.setenv(canonical.REDUCTION_ENV, "full")
        status, _ = run_cli("explore", "--reduce", "none", "-e", EXAMPLE)
        assert status == 0
        assert seen == {"mode": "none", "env": "none"}
        assert reduction.reduction_mode() == before
        assert os.environ.get(canonical.REDUCTION_ENV) == "full"

    def test_exit_codes_stable_across_modes(self):
        for mode in ("none", "full"):
            status, _ = run_cli(
                "secrecy", str(SYSTEMS_DIR / "p1_impl.spi"),
                "--secret", "M", "--reduce", mode,
            )
            assert status == 1, mode
            status, _ = run_cli(
                "secrecy", str(SYSTEMS_DIR / "p2_impl.spi"),
                "--secret", "M", "--reduce", mode,
            )
            assert status == 0, mode

    def test_suite_accepts_reduce(self, tmp_path):
        source = tmp_path / "demo.spi"
        source.write_text("a<M>.0 | a(x).0")
        for mode in ("none", "full"):
            status, output = run_cli(
                "suite", str(source), "--jobs", "1", "--reduce", mode
            )
            assert status == 0, (mode, output)

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("explore", "--reduce", "most", "-e", EXAMPLE)

    @pytest.mark.parametrize("mode", ["por", "sym"])
    def test_retired_modes_rejected(self, mode):
        with pytest.raises(SystemExit) as exc:
            run_cli("explore", "--reduce", mode, "-e", EXAMPLE)
        assert exc.value.code == 2


class TestStatsCommand:
    def _journal(self, tmp_path) -> str:
        journal = tmp_path / "suite.jsonl"
        status, _ = run_cli(
            "suite", "--zoo", "woo-lam", "--jobs", "1",
            "--journal", str(journal),
        )
        assert status == 0
        return str(journal)

    def test_table_rendering(self, tmp_path):
        status, output = run_cli("stats", self._journal(tmp_path))
        assert status == 0
        lines = output.splitlines()
        assert lines[0].split()[:3] == ["job", "status", "att"]
        assert "zoo:woo-lam:secrecy" in output
        assert "stats:" in output

    def test_json_emission(self, tmp_path):
        import json

        journal = self._journal(tmp_path)
        target = tmp_path / "agg.json"
        status, _ = run_cli("stats", journal, "--json", str(target))
        assert status == 0
        data = json.loads(target.read_text())
        assert data["aggregate"]["jobs"] == 2
        assert set(data["jobs"]) == {
            "zoo:woo-lam:secrecy", "zoo:woo-lam:authentication",
        }

    def test_missing_journal_renders_empty(self, tmp_path):
        # A journal that does not exist yet is an empty run, not an
        # error: dashboards and cron jobs point at journals before the
        # first verdict lands.
        status, output = run_cli("stats", str(tmp_path / "gone.jsonl"))
        assert status == 0
        assert "no verdicted jobs" in output

    def test_empty_journal_renders_empty(self, tmp_path):
        journal = tmp_path / "empty.jsonl"
        journal.write_text("")
        status, output = run_cli("stats", str(journal))
        assert status == 0
        assert "no verdicted jobs" in output

    def test_torn_only_journal_renders_empty(self, tmp_path):
        # A crash can leave nothing but a torn, newline-less tail; that
        # reads as zero verdicts, exit 0.
        journal = tmp_path / "torn.jsonl"
        journal.write_text('{"type": "result", "job": "x"')
        status, output = run_cli("stats", str(journal))
        assert status == 0
        assert "no verdicted jobs" in output

    def test_empty_journal_json_aggregate(self, tmp_path):
        import json

        journal = tmp_path / "empty.jsonl"
        journal.write_text("")
        target = tmp_path / "agg.json"
        status, _ = run_cli("stats", str(journal), "--json", str(target))
        assert status == 0
        data = json.loads(target.read_text())
        assert data["aggregate"]["jobs"] == 0
