"""Command-line interface to the calculus.

The subcommands cover the workflows::

    repro-spi parse   FILE           # parse & pretty-print (+ tree view)
    repro-spi run     FILE           # narrated execution, first-choice
    repro-spi explore FILE           # bounded exploration, stats, dot
    repro-spi analyze SYSFILE        # MGA properties of a system file
    repro-spi secrecy TARGET         # one secrecy verdict, exit-coded
    repro-spi authentication TARGET  # one authentication verdict
    repro-spi check   IMPL SPEC      # Definition 4 between system files
    repro-spi suite   [FILE...]      # supervised parallel job batch
    repro-spi stats   JOURNAL        # per-job metrics of a suite journal
    repro-spi serve                  # long-running verification server
    repro-spi cluster                # sharded fault-tolerant cluster
    repro-spi submit  KIND [TARGET]  # one request against a server

``parse``/``run``/``explore`` take a bare process in the concrete
syntax (``-`` reads stdin, ``-e SOURCE`` passes it inline);
``analyze``/``check`` take *system files* (see
:mod:`repro.syntax.sysfile`) describing whole configurations;
``secrecy``/``authentication`` take either a system file path or a
protocol-zoo name.  These four verdicting commands compute every
verdict through :func:`repro.runtime.worker.run_job`, the job machinery
``suite`` and ``serve`` workers run, ``REPRO_CERTIFY`` replay included.

Observability (see :mod:`repro.obs`): ``explore``, ``analyze``,
``secrecy``, ``authentication``, ``check`` and ``suite`` accept
``--trace FILE`` (structured JSONL trace events), ``--stats [FILE]``
(collect metrics; print them, or write JSON — for ``suite`` the file
also carries per-job and aggregate :class:`~repro.obs.stats.SuiteStats`
blocks) and ``--profile [FILE]`` (cProfile the run; ``.prof`` files
take the binary dump, anything else a text table).  The same commands
accept ``--reduce {none,full}``, which switches symmetry merging of
replicated sessions off or on (default ``full``); verdicts are
identical in both modes, only the number of explored states changes.

``explore``/``analyze``/``check`` share the resilient-runtime flags:
``--deadline SECONDS`` bounds the whole command's wall-clock time (a
partial, qualified result is printed instead of an error),
``--escalate`` retries truncated runs with geometrically growing
budgets, and ``explore`` additionally supports ``--checkpoint PATH`` /
``--resume PATH`` to persist and continue interrupted explorations
(``--checkpoint-every N`` autosaves every N explored states, not just
at the end).

``suite`` runs a batch of verification jobs on a pool of supervised
worker processes (see :mod:`repro.runtime.supervisor`): crashed, hung or
OOM-killed workers are restarted and their jobs retried from the last
checkpoint; verdicts stream to a crash-safe ``--journal`` so an
interrupted batch continues with ``--resume`` (add ``--retry-faults``
to also re-run jobs whose journaled verdict was a degraded fault).  A
first SIGINT/SIGTERM *drains* the batch — in-flight jobs finish and are
journaled, queued jobs are left for ``--resume`` — and exits 130; a
second one aborts immediately.

``serve`` / ``submit`` are the service pair (see
:mod:`repro.service`): a long-running server with admission control,
per-protocol circuit breakers and graceful SIGTERM drain, and a
retrying client for it.  ``docs/service.md`` has the wire protocol.
``cluster`` scales ``serve`` out: a health-checked router shards
requests by protocol key across N supervised ``serve`` backends, with
crash respawn, failover, and journal-keyed exactly-once re-drive
(``docs/cluster.md``); ``submit --cluster DIR`` targets it via the
cluster's discovery file.

Exit status: 0 on success, 1 when a check finds an attack or a property
violation, 2 on errors (usage, parse, missing/corrupt files, an
unreachable server), 3 when a served verdict came back degraded or the
server was draining, 130 when interrupted (including a drained
``suite``).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack, contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

from repro.core.errors import ReproError

# The top level stays light: spawned suite/serve/cluster workers
# re-import this module as ``__mp_main__``, so each handler imports what
# it runs (see docs/internals.md, "Import layering").
if TYPE_CHECKING:
    from repro.semantics.system import System


def _read_source(args: argparse.Namespace) -> str:
    if args.expr is not None:
        return args.expr
    if args.file == "-":
        return sys.stdin.read()
    with open(args.file, "r", encoding="utf-8") as handle:
        return handle.read()


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "file", nargs="?", default="-", help="source file ('-' for stdin)"
    )
    parser.add_argument(
        "-e", "--expr", default=None, help="inline source (overrides FILE)"
    )


def _add_runtime_arguments(
    parser: argparse.ArgumentParser, checkpointing: bool = False
) -> None:
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock limit; expiry yields a partial, qualified result",
    )
    parser.add_argument(
        "--escalate",
        action="store_true",
        help="retry truncated runs with geometrically growing budgets",
    )
    if checkpointing:
        parser.add_argument(
            "--checkpoint",
            default=None,
            metavar="PATH",
            help="save the frontier of a truncated exploration here",
        )
        parser.add_argument(
            "--checkpoint-every",
            type=int,
            default=None,
            metavar="STATES",
            help="autosave --checkpoint every N explored states, "
            "not only at the end",
        )
        parser.add_argument(
            "--resume",
            default=None,
            metavar="PATH",
            help="continue an exploration from a saved checkpoint",
        )


def _add_certify_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--certify",
        action="store_true",
        help="require every violation verdict to carry a witness that "
        "replays under the unreduced, uncached semantics; a violation "
        "whose witness fails to replay degrades to a retryable fault "
        "instead of being reported (see docs/verification.md)",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--reduce",
        choices=("none", "full"),
        default=None,
        help="state-space reduction mode: symmetry merging of replicated "
        "sessions ('full', the default) or none ('none'); verdicts are "
        "identical in both modes, only the number of explored states "
        "changes (see docs/performance.md)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write structured JSONL trace events (spans, counters) here",
    )
    parser.add_argument(
        "--stats",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="collect run metrics; print them ('-', the default) or "
        "write them to FILE as JSON",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="cProfile the run; '-' prints a table, *.prof dumps "
        "pstats data, anything else gets the table as text",
    )


def _load_system(args: argparse.Namespace) -> System:
    from repro.semantics.system import instantiate
    from repro.syntax.parser import parse_process

    return instantiate(parse_process(_read_source(args)))


def _show_tree(system: System, out) -> None:
    from repro.core.addresses import location_str
    from repro.syntax.pretty import render_process

    print("tree of sequential processes:", file=out)
    for loc, leaf in system.leaves():
        print(f"  {location_str(loc):14s} {render_process(leaf)}", file=out)


def cmd_parse(args: argparse.Namespace, out) -> int:
    from repro.semantics.system import instantiate
    from repro.syntax.parser import parse_process
    from repro.syntax.pretty import render_process

    proc = parse_process(_read_source(args))
    print(render_process(proc, unicode=args.unicode), file=out)
    if args.tree:
        _show_tree(instantiate(proc), out)
    return 0


def cmd_run(args: argparse.Namespace, out) -> int:
    from repro.semantics.transitions import successors

    system = _load_system(args)
    _show_tree(system, out)
    for step_no in range(1, args.steps + 1):
        options = successors(system)
        if not options:
            print(f"stuck after {step_no - 1} steps", file=out)
            return 0
        chosen = options[0]
        if len(options) > 1:
            print(f"step {step_no} ({len(options)} choices, taking the first):", file=out)
        else:
            print(f"step {step_no}:", file=out)
        print(f"  {chosen.describe(system)}", file=out)
        system = chosen.target
    print(f"stopped after {args.steps} steps (budget)", file=out)
    return 0


def cmd_explore(args: argparse.Namespace, out) -> int:
    from repro.runtime.checkpoint import Checkpoint
    from repro.runtime.deadline import Deadline, RunControl
    from repro.runtime.escalation import explore_escalating
    from repro.semantics.diagnostics import statistics, to_dot
    from repro.semantics.lts import Budget, explore, resume_exploration

    budget = Budget(max_states=args.max_states, max_depth=args.max_depth)
    if args.checkpoint_every is not None and args.checkpoint is None:
        raise ReproError("--checkpoint-every needs --checkpoint PATH to write to")
    sink = None
    if args.checkpoint is not None and args.checkpoint_every:
        sink = lambda graph: Checkpoint(graph, budget).save(args.checkpoint)
    ctl = None
    if args.deadline is not None or sink is not None:
        ctl = RunControl(
            deadline=Deadline.after(args.deadline) if args.deadline is not None else None,
            checkpoint_every=args.checkpoint_every if sink else None,
            on_checkpoint=sink,
        )
    if args.resume is not None:
        checkpoint = Checkpoint.load(args.resume)
        print(
            f"resuming from {args.resume} "
            f"({checkpoint.graph.state_count()} states explored)",
            file=out,
        )
        graph = resume_exploration(checkpoint.graph, budget, ctl)
    elif args.escalate:
        system = _load_system(args)
        graph, report = explore_escalating(
            system, budget, control=ctl, checkpoint_path=args.checkpoint
        )
        print(report.describe(), file=out)
    else:
        system = _load_system(args)
        graph = explore(system, budget, ctl)
    if args.checkpoint is not None and not args.escalate:
        if graph.truncated:
            Checkpoint(graph, budget).save(args.checkpoint)
            print(f"checkpoint written to {args.checkpoint}", file=out)
        else:
            print("exploration exact; no checkpoint needed", file=out)
    print(statistics(graph).describe(), file=out)
    if args.dot is not None:
        dot = to_dot(graph)
        if args.dot == "-":
            print(dot, file=out)
        else:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(dot + "\n")
            print(f"dot graph written to {args.dot}", file=out)
    return 0


def _job(args: argparse.Namespace, name: str, kind: str, target: dict, **fields):
    """A ``kind`` verdict job over ``target`` on the command's budget."""
    from repro.runtime.worker import Job

    return Job(
        id=f"{args.command}:{name}",
        kind=kind,
        target=target,
        max_states=args.max_states,
        max_depth=args.max_depth,
        **fields,
    )


def _run_verdicts(args: argparse.Namespace, jobs: list, out) -> int:
    """Print the verdicts of ``(label, job)`` pairs; return the exit code.

    Each verdict comes from :func:`repro.runtime.worker.run_job`, the
    code ``suite`` and ``serve`` workers run (``REPRO_CERTIFY`` replay
    included).  ``--deadline`` bounds the whole command; ``--escalate``
    re-runs a job with grown budgets.  A label prefixes its verdict and
    puts the escalation ladder below it; an unlabelled verdict follows
    its ladder.
    """
    from dataclasses import replace

    from repro.runtime.deadline import Deadline, RunControl
    from repro.runtime.escalation import escalate
    from repro.runtime.worker import run_job
    from repro.semantics.lts import Budget
    from repro.semantics.replay import CertificationError

    deadline = Deadline.after(args.deadline) if args.deadline is not None else None
    violated = False
    for label, job in jobs:

        def attempt(budget: Budget) -> dict:
            return run_job(
                replace(job, max_states=budget.max_states, max_depth=budget.max_depth),
                deadline=deadline.remaining() if deadline is not None else None,
            )

        budget = Budget(job.max_states, job.max_depth)
        try:
            if getattr(args, "escalate", False):
                # Judged by each result's exhaustion record: a deadline
                # or cancelled attempt ends the ladder, a budget one grows it.
                result, report = escalate(
                    attempt, budget, control=RunControl(deadline=deadline)
                )
            else:
                result, report = attempt(budget), None
        except CertificationError as err:
            # A witness that does not replay is a fault in the search,
            # not a verdict: exit 3 (degraded), never a silent 0 or 1.
            print(f"certification failed: {err}", file=out)
            return 3
        ladder = None
        if report is not None and (len(report.attempts) > 1 or not report.exact):
            ladder = report.describe()
        if label is None:
            if ladder is not None:
                print(ladder, file=out)
            print(result["summary"], file=out)
        else:
            print(f"{label}: {result['summary']}", file=out)
            if ladder is not None:
                print(f"  {ladder}", file=out)
        if result.get("certified"):
            print(
                "certified: witness replayed independently "
                "(reduction and state cache disabled)",
                file=out,
            )
        violated = violated or result["violated"]
    return 1 if violated else 0


def cmd_analyze(args: argparse.Namespace, out) -> int:
    target = {"sysfile": args.sysfile}
    jobs = []
    if args.sender is not None:
        label = f"authentication({args.sender})"
        job = _job(args, label, "authentication", target, sender=args.sender)
        jobs.append((label, job))
    jobs.append(("freshness", _job(args, "freshness", "freshness", target)))
    for secret in args.secret or []:
        label = f"secrecy({secret})"
        jobs.append((label, _job(args, label, "secrecy", target, secret=secret)))
    return _run_verdicts(args, jobs, out)


def cmd_property(args: argparse.Namespace, out) -> int:
    """``secrecy`` / ``authentication``: one exit-coded property verdict.

    The target is a system file path when one exists at that path, a
    protocol-zoo name otherwise.  Like every verdicting command it runs
    through :func:`_run_verdicts`, so the verdict matches what a
    ``suite`` job over the same target would journal — stat block
    included.
    """
    import os

    if os.path.exists(args.target):
        target = {"sysfile": args.target}
    else:
        from repro.protocols.zoo import ZOO

        if args.target not in ZOO:
            raise ReproError(
                f"{args.target!r} is neither a system file nor one of the "
                f"zoo protocols ({', '.join(sorted(ZOO))})"
            )
        target = {"zoo": args.target}
    job = _job(
        args,
        args.target,
        args.command,
        target,
        secret=getattr(args, "secret", None),
        sender=getattr(args, "sender", None),
    )
    return _run_verdicts(args, [(None, job)], out)


def cmd_stats(args: argparse.Namespace, out) -> int:
    """``stats``: render a suite journal's per-job metrics as a table.

    A missing, empty, or wholly torn journal is an *empty* run, not an
    error: operators point dashboards at journals that may not exist
    yet (a cluster that has served no traffic), and a cron'd ``stats``
    call must not page anyone over that.  The table renders with zero
    rows and the exit status is 0.
    """
    import json

    import os

    from repro.obs.stats import SuiteStats, render_job_table
    from repro.runtime.journal import journaled_results

    if os.path.exists(args.journal):
        records = list(journaled_results(args.journal).values())
    else:
        records = []
    print(render_job_table(records), file=out)
    if args.json is not None:
        payload = SuiteStats.from_records(records).to_json()
        if args.json == "-":
            print(json.dumps(payload, indent=2), file=out)
        else:
            from repro.runtime.atomic import atomic_write_json

            atomic_write_json(args.json, payload)
            print(f"stats JSON written to {args.json}", file=out)
    return 0


def cmd_check(args: argparse.Namespace, out) -> int:
    target = {"impl": args.impl, "spec": args.spec}
    return _run_verdicts(args, [(None, _job(args, args.impl, "check", target))], out)


def _suite_jobs(args: argparse.Namespace) -> list:
    """Assemble the job list from positional files, --zoo and --suite-file."""
    import json

    from repro.runtime.supervisor import zoo_jobs
    from repro.runtime.worker import Job, JobError

    jobs = []
    for path in args.files:
        jobs.append(
            Job(
                id=f"explore:{path}",
                kind="explore",
                target={"spi": path},
                max_states=args.max_states,
                max_depth=args.max_depth,
                checkpoint_every=args.checkpoint_every or 400,
            )
        )
    if args.zoo:
        protocols = None if "all" in args.zoo else args.zoo
        jobs.extend(
            zoo_jobs(
                max_states=args.max_states,
                max_depth=args.max_depth,
                protocols=protocols,
            )
        )
    if args.suite_file is not None:
        try:
            with open(args.suite_file, "r", encoding="utf-8") as handle:
                described = json.load(handle)
        except ValueError as err:
            raise ReproError(f"suite file {args.suite_file!r} is not JSON: {err}")
        if not isinstance(described, list):
            raise JobError(f"suite file {args.suite_file!r} must hold a JSON list")
        jobs.extend(Job.from_json(entry) for entry in described)
    if not jobs:
        raise ReproError("nothing to run: give .spi files, --zoo, or --suite-file")
    return jobs


def cmd_suite(args: argparse.Namespace, out) -> int:
    from repro.runtime.faults import FaultPlan
    from repro.runtime.lifecycle import drain_signals
    from repro.runtime.supervisor import run_suite

    if args.resume and args.journal is None:
        raise ReproError("--resume needs --journal PATH to resume from")
    if args.retry_faults and not args.resume:
        raise ReproError("--retry-faults only means something with --resume")
    plan = None
    if args.inject_crash_at or args.inject_fail_at:
        plan = FaultPlan(
            fail_at=tuple(args.inject_fail_at or ()),
            exit_at=tuple(args.inject_crash_at or ()),
        )
    # First SIGINT/SIGTERM drains (in-flight jobs finish and are
    # journaled; queued jobs wait for --resume), a second one aborts.
    with drain_signals() as drain:
        report = run_suite(
            _suite_jobs(args),
            workers=args.jobs,
            retries=args.retries,
            job_deadline=args.job_deadline,
            max_rss_mb=args.max_rss,
            journal_path=args.journal,
            resume=args.resume,
            retry_faults=args.retry_faults,
            checkpoint_dir=args.checkpoint_dir,
            fault_plan=plan,
            on_outcome=lambda outcome: print(outcome.describe(), file=out),
            drain=drain,
            verdict_store=args.verdict_store,
        )
    print(report.describe(), file=out)
    # Stash the report for --stats post-processing (see _dispatch).
    args.suite_report = report
    if report.drained:
        return 130
    return 1 if report.violations else 0


def _parse_tcp(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise ReproError(f"bad --tcp address {spec!r} (expected HOST:PORT)")


def _serve_until_drained(service, socket_path: Optional[str], out) -> int:
    """Bind ``service`` (a server or router) and serve until drained.

    One flushed ``listening on ...`` line per bound endpoint lets
    launchers wait for readiness and discover an ephemeral TCP port.
    """
    from repro.runtime.lifecycle import drain_signals

    service.bind()
    if socket_path is not None:
        print(f"listening on unix:{socket_path}", file=out, flush=True)
    if service.tcp_address is not None:
        bound_host, bound_port = service.tcp_address
        print(f"listening on tcp:{bound_host}:{bound_port}", file=out, flush=True)
    with drain_signals(on_signal=lambda signum: service.request_drain()):
        code = service.serve_forever()
    print("drained", file=out, flush=True)
    return code


def cmd_serve(args: argparse.Namespace, out) -> int:
    """``serve``: run the verification service until drained.

    Serves until SIGINT/SIGTERM (see :func:`_serve_until_drained`),
    then drains gracefully: listeners close, queued requests are shed
    with ``draining`` responses (journaled, so a batch ``--resume``
    completes them), in-flight jobs get ``--drain-grace`` seconds, and
    the exit status is 0.
    """
    from repro.service.server import Server, ServerConfig

    host, port = _parse_tcp(args.tcp) if args.tcp is not None else (None, None)
    server = Server(ServerConfig(
        socket_path=args.socket,
        host=host,
        port=port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        retries=args.retries,
        job_deadline=args.job_deadline,
        max_rss_mb=args.max_rss,
        journal_path=args.journal,
        checkpoint_dir=args.checkpoint_dir,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        breaker_max=args.breaker_max or None,  # 0 = unbounded
        rebuild_breakers=args.rebuild_breakers,
        drain_grace=args.drain_grace,
        allow_fault_injection=args.allow_fault_injection,
        dedupe=args.dedupe,
        verdict_store=args.verdict_store,
    ))
    return _serve_until_drained(server, args.socket, out)


def cmd_cluster(args: argparse.Namespace, out) -> int:
    """``cluster``: run a fault-tolerant sharded cluster until drained.

    Spawns and supervises ``--shards`` local ``serve`` backends under
    ``--dir`` (sockets, journals, logs, and the ``cluster.json``
    discovery file all live there), routes requests to them by protocol
    key over a consistent-hash ring, health-checks them, respawns
    crashes with backoff, and fails over in-flight requests with
    journal-keyed exactly-once dedupe.  See docs/cluster.md.
    """
    from repro.service.router import Router, RouterConfig

    host, port = _parse_tcp(args.tcp) if args.tcp is not None else (None, None)
    config = RouterConfig(
        dir=args.dir,
        socket_path=args.socket,
        host=host,
        port=port,
        shards=args.shards,
        remote=tuple(args.remote or ()),
        workers_per_shard=args.workers_per_shard,
        queue_limit=args.queue_limit,
        retries=args.retries,
        job_deadline=args.job_deadline,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        shard_drain_grace=args.shard_drain_grace,
        drain_grace=args.drain_grace,
        health_interval=args.health_interval,
        health_timeout=args.health_timeout,
        health_failures=args.health_failures,
        health_cooldown=args.health_cooldown,
        respawn_base=args.respawn_base,
        respawn_cap=args.respawn_cap,
        allow_fault_injection=args.allow_fault_injection,
        verdict_store=args.verdict_store,
    )
    return _serve_until_drained(Router(config), args.socket, out)


def _cluster_router_address(cluster_dir: str) -> Any:
    """Resolve the router address from a cluster directory's
    ``cluster.json`` discovery file."""
    import json
    import os

    path = os.path.join(cluster_dir, "cluster.json")
    try:
        with open(path, encoding="utf-8") as handle:
            discovery = json.load(handle)
    except (OSError, ValueError) as err:
        raise ReproError(f"cannot read cluster discovery file {path}: {err}")
    router = discovery.get("router") or {}
    if router.get("socket"):
        return ("unix", router["socket"])
    if router.get("tcp"):
        host, port = router["tcp"]
        return ("tcp", (host, int(port)))
    raise ReproError(f"{path} names no router endpoint")


def cmd_cluster_status(args: argparse.Namespace, out) -> int:
    """``cluster-status``: one-shot health report for a running cluster.

    Reads the router address from ``DIR/cluster.json``, asks it for
    ``status``, and renders the router and per-shard rows as a table
    (or the raw frame with ``--json``).  Exit codes: 0 reachable,
    2 unreachable router / unreadable discovery.
    """
    import json

    from repro.service.client import ServiceClient, ServiceUnavailable

    address = _cluster_router_address(args.dir)
    try:
        reply = ServiceClient(address, timeout=args.timeout, retries=0).call(
            {"kind": "status"}
        )
    except ServiceUnavailable as err:
        print(f"error: router unreachable: {err}", file=out)
        return 2
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True), file=out)
        return 0
    cluster = reply.get("cluster") or {}
    ring = reply.get("ring") or {}
    print(
        f"router pid {cluster.get('pid')}"
        f" uptime {cluster.get('uptime', 0):.1f}s"
        f" draining={cluster.get('draining')}",
        file=out,
    )
    print(
        f"shards {cluster.get('healthy', 0)}/{cluster.get('shards', 0)} healthy"
        f" (ring members: {', '.join(ring.get('members', [])) or 'none'})",
        file=out,
    )
    rows = [
        ("SHARD", "ADDRESS", "PID", "ALIVE", "RESTARTS", "INFLIGHT",
         "HEALTHY", "BREAKER", "LAST_ERROR"),
    ]
    for shard_id, shard in sorted((reply.get("shards") or {}).items()):
        health = shard.get("health") or {}
        breaker = (health.get("breaker") or {}).get("state", "?")
        error = health.get("last_error") or ""
        rows.append((
            shard_id,
            str(shard.get("address", "?")),
            str(shard.get("pid", "-")),
            str(shard.get("alive", "-")),
            str(shard.get("restarts", 0)),
            str(shard.get("inflight", 0)),
            str(health.get("healthy", "?")),
            breaker,
            error[:40],
        ))
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    for row in rows:
        print(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip(),
            file=out,
        )
    return 0


def cmd_witness(args: argparse.Namespace, out) -> int:
    """``witness replay``: independently re-check a stored witness.

    Reads a witness JSON file (as attached to violation verdicts under
    ``--certify``), rebuilds the initial system from the witness's own
    recipe, and replays every recorded step against the *unreduced*,
    *uncached* transition relation before confirming the violated
    property at the end of the trace.  Exit codes: 0 the witness
    replays, 1 it does not (with the reason), 2 unreadable file.
    """
    import json

    from repro.semantics.replay import replay_witness

    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as err:
        raise ReproError(f"cannot read witness file {args.file!r}: {err}")
    # A verdict result object and a bare witness are both accepted —
    # operators paste whichever they have in front of them.  A bare
    # witness is recognised by its own step list; anything else
    # carrying a "witness" object is treated as a wrapper.
    if (
        isinstance(data, dict)
        and "steps" not in data
        and isinstance(data.get("witness"), dict)
    ):
        data = data["witness"]
    if args.max_nodes is not None:
        report = replay_witness(data, max_nodes=args.max_nodes)
    else:
        report = replay_witness(data)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True), file=out)
    else:
        print(report.describe(), file=out)
    return 0 if report.ok else 1


def cmd_store(args: argparse.Namespace, out) -> int:
    """``store``: inspect or maintain a persistent verdict store.

    ``stats`` renders occupancy (segments, records, keys, engine
    versions); ``compact`` rewrites the store as one segment, dropping
    superseded duplicates and stale-engine records; ``verify`` audits
    every record (checksums, and witness replay for current-engine
    violations); ``invalidate`` wipes it (rarely needed — an engine-
    version bump already hides every stored record from lookups).
    See docs/store.md.
    """
    import json

    from repro.service.store import VerdictStore

    store = VerdictStore(args.dir)
    if args.action == "verify":
        report = store.verify(replay=not args.no_replay)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True), file=out)
        else:
            print(
                f"{report['records']} record(s) in {report['segments']} "
                f"segment(s): {report['corrupt']} corrupt, "
                f"{report['torn']} torn tail(s), "
                f"{report['stale_engine']} stale-engine, "
                f"{report['witnesses']} witness(es) "
                f"({report['witness_ok']} ok, "
                f"{report['witness_failed']} failed)",
                file=out,
            )
            for failure in report["failures"]:
                print(f"  {failure}", file=out)
        return 0 if report["ok"] else 1
    if args.action == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True), file=out)
        else:
            print(
                f"{stats['directory']}: {stats['keys']} verdict(s) under engine "
                f"{stats['engine']} ({stats['records']} record(s) in "
                f"{stats['segments']} segment(s), {stats['bytes']} bytes)",
                file=out,
            )
            for engine, count in sorted(stats["engines"].items()):
                stale = "" if engine == stats["engine"] else "  (stale)"
                print(f"  engine {engine}: {count} record(s){stale}", file=out)
        return 0
    if args.action == "compact":
        report = store.compact()
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True), file=out)
        else:
            print(
                f"compacted {report['before']['segments']} segment(s) "
                f"({report['before']['records']} record(s)) to "
                f"{report['after']['segments']} segment(s) "
                f"({report['after']['records']} record(s)); "
                f"dropped {report['dropped_records']}",
                file=out,
            )
        return 0
    wiped = store.invalidate()
    if args.json:
        print(json.dumps({"invalidated": wiped}, indent=2), file=out)
    else:
        print(f"invalidated {wiped} record(s)", file=out)
    return 0


def _submit_target(args: argparse.Namespace) -> dict:
    """Lower the submit positionals to a request ``target`` object,
    mirroring how ``secrecy``/``explore``/``check`` interpret theirs."""
    import os

    if args.kind == "check" or args.kind == "may-preorder":
        if args.target is None or args.spec is None:
            raise ReproError(f"{args.kind} needs TARGET (impl) and --spec")
        return {"impl": args.target, "spec": args.spec}
    if args.target is None:
        raise ReproError(f"{args.kind} needs a TARGET (zoo name or file path)")
    if os.path.exists(args.target):
        key = "spi" if args.kind == "explore" else "sysfile"
        return {key: args.target}
    return {"zoo": args.target}


def cmd_submit(args: argparse.Namespace, out) -> int:
    """``submit``: one request against a running server.

    Exit codes: 0 verdict obtained and no violation, 1 violation found,
    2 unreachable server / request error, 3 degraded or expired verdict
    or server draining.
    """
    import json

    from repro.runtime.deadline import Deadline
    from repro.service.client import ServiceClient

    if args.cluster is not None:
        address = _cluster_router_address(args.cluster)
    elif args.socket is not None:
        address = ("unix", args.socket)
    elif args.tcp is not None:
        address = ("tcp", _parse_tcp(args.tcp))
    else:
        raise ReproError(
            "submit needs --socket PATH, --tcp HOST:PORT, or --cluster DIR"
        )
    client = ServiceClient(
        address, timeout=args.timeout, retries=args.connect_retries
    )
    deadline = Deadline.after(args.deadline) if args.deadline is not None else None
    if args.kind in ("ping", "status"):
        reply = client.call({"kind": args.kind}, deadline=deadline)
    else:
        reply = client.submit(
            args.kind,
            _submit_target(args),
            deadline=deadline,
            id=args.id,
            max_states=args.max_states,
            max_depth=args.max_depth,
            secret=args.secret,
            sender=args.sender,
        )
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True), file=out)
    status = reply.get("status")
    result = reply.get("result") or {}
    if status == "pong":
        if not args.json:
            print(f"pong from pid {reply.get('pid')}", file=out)
        return 0
    if status == "status":
        if not args.json:
            if "cluster" in reply:
                cluster = reply.get("cluster") or {}
                print(
                    f"cluster pid {cluster.get('pid')}: "
                    f"{cluster.get('healthy', 0)}/{cluster.get('shards', 0)} "
                    f"shard(s) healthy, "
                    f"draining={cluster.get('draining')}",
                    file=out,
                )
            else:
                pool = reply.get("pool") or {}
                queue = reply.get("queue") or {}
                print(
                    f"workers {pool.get('busy', 0)}/{pool.get('alive', 0)} busy, "
                    f"queue {queue.get('depth', 0)}/{queue.get('limit', 0)}, "
                    f"{len(reply.get('breakers') or {})} breaker(s) tripped, "
                    f"draining={reply.get('server', {}).get('draining')}",
                    file=out,
                )
        return 0
    if status == "ok":
        if not args.json:
            print(result.get("summary", "ok"), file=out)
        return 1 if result.get("violated") else 0
    if status == "degraded":
        if not args.json:
            print(f"degraded: {reply.get('error')}", file=out)
        return 3
    if status == "expired":
        if not args.json:
            print(f"expired: {reply.get('error')}", file=out)
        return 3
    if status == "draining":
        if not args.json:
            print(f"draining: {reply.get('error')}", file=out)
        return 3
    raise ReproError(f"request failed: {reply.get('error', status)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spi",
        description="spi calculus with authentication primitives (PACT 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse and pretty-print a process")
    _add_source_arguments(p_parse)
    p_parse.add_argument("--unicode", action="store_true", help="use the paper's glyphs")
    p_parse.add_argument("--tree", action="store_true", help="show the location tree")
    p_parse.set_defaults(handler=cmd_parse)

    p_run = sub.add_parser("run", help="execute a system step by step")
    _add_source_arguments(p_run)
    p_run.add_argument("--steps", type=int, default=20, help="max steps (default 20)")
    p_run.set_defaults(handler=cmd_run)

    p_explore = sub.add_parser("explore", help="explore the state space")
    _add_source_arguments(p_explore)
    p_explore.add_argument("--max-states", type=int, default=2000)
    p_explore.add_argument("--max-depth", type=int, default=64)
    p_explore.add_argument("--dot", default=None, help="write Graphviz output ('-' = stdout)")
    _add_runtime_arguments(p_explore, checkpointing=True)
    _add_obs_arguments(p_explore)
    p_explore.set_defaults(handler=cmd_explore)

    p_analyze = sub.add_parser(
        "analyze", help="check MGA properties of a system file"
    )
    p_analyze.add_argument("sysfile", help="system file (see repro.syntax.sysfile)")
    p_analyze.add_argument("--sender", default=None, help="role for authentication")
    p_analyze.add_argument(
        "--secret", action="append", default=None, help="secret base name (repeatable)"
    )
    p_analyze.add_argument("--max-states", type=int, default=4000)
    p_analyze.add_argument("--max-depth", type=int, default=18)
    _add_runtime_arguments(p_analyze)
    _add_obs_arguments(p_analyze)
    p_analyze.set_defaults(handler=cmd_analyze)

    for kind, blurb in (
        ("secrecy", "does the target keep its secret? (exit 1 = leak)"),
        ("authentication", "is the sender authenticated? (exit 1 = violation)"),
    ):
        p_prop = sub.add_parser(kind, help=blurb)
        p_prop.add_argument(
            "target", help="system file path, or a protocol-zoo name"
        )
        if kind == "secrecy":
            p_prop.add_argument(
                "--secret",
                default=None,
                metavar="NAME",
                help="secret base name (required for system files; "
                "default KAB for zoo targets)",
            )
        else:
            p_prop.add_argument(
                "--sender",
                default=None,
                metavar="ROLE",
                help="authenticated sender role (default A)",
            )
        p_prop.add_argument("--max-states", type=int, default=4000)
        p_prop.add_argument("--max-depth", type=int, default=24)
        p_prop.add_argument(
            "--deadline",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock limit; expiry qualifies the verdict",
        )
        _add_certify_argument(p_prop)
        _add_obs_arguments(p_prop)
        p_prop.set_defaults(handler=cmd_property)

    p_check = sub.add_parser(
        "check", help="Definition 4: does IMPL securely implement SPEC?"
    )
    p_check.add_argument("impl", help="implementation system file")
    p_check.add_argument("spec", help="specification system file")
    p_check.add_argument("--max-states", type=int, default=2000)
    p_check.add_argument("--max-depth", type=int, default=24)
    _add_certify_argument(p_check)
    _add_runtime_arguments(p_check)
    _add_obs_arguments(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_suite = sub.add_parser(
        "suite", help="run a batch of verification jobs under supervision"
    )
    p_suite.add_argument(
        "files", nargs="*", help=".spi process files to explore (one job each)"
    )
    p_suite.add_argument(
        "--zoo",
        action="append",
        default=None,
        metavar="PROTOCOL",
        help="add secrecy+authentication jobs for this zoo protocol "
        "(repeatable; 'all' = the whole zoo)",
    )
    p_suite.add_argument(
        "--suite-file",
        default=None,
        metavar="PATH",
        help="JSON list of job descriptions (see repro.runtime.worker.Job)",
    )
    p_suite.add_argument(
        "--jobs", type=int, default=2, metavar="N", help="worker processes (default 2)"
    )
    p_suite.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="K",
        help="extra attempts per job after a crash/OOM/hang (default 2)",
    )
    p_suite.add_argument(
        "--job-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock limit (expiry qualifies the verdict; "
        "a hung worker is killed at 1.5x this plus a grace period)",
    )
    p_suite.add_argument(
        "--max-rss",
        type=float,
        default=None,
        metavar="MB",
        help="kill and retry any worker whose resident set exceeds this",
    )
    p_suite.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="stream verdicts to this crash-safe JSONL journal",
    )
    p_suite.add_argument(
        "--resume",
        action="store_true",
        help="skip jobs already verdicted in --journal",
    )
    p_suite.add_argument(
        "--retry-faults",
        action="store_true",
        help="with --resume, re-run jobs whose journaled verdict was a "
        "degraded fault (completes a drained or crash-looped run)",
    )
    p_suite.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="keep exploration autosaves here (default: temporary)",
    )
    p_suite.add_argument(
        "--verdict-store",
        default=None,
        metavar="DIR",
        help="persistent cross-run verdict cache: serve already-stored "
        "verdicts without dispatching a worker (attempts=0) and write "
        "budget-pure verdicts through (see docs/store.md)",
    )
    p_suite.add_argument("--max-states", type=int, default=4000)
    p_suite.add_argument("--max-depth", type=int, default=40)
    p_suite.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="STATES",
        help="states between exploration autosaves (default 400)",
    )
    p_suite.add_argument(
        "--inject-crash-at",
        type=int,
        action="append",
        default=None,
        metavar="N",
        help="test instrumentation: hard-kill the worker at successor "
        "call N on each job's first attempt",
    )
    p_suite.add_argument(
        "--inject-fail-at",
        type=int,
        action="append",
        default=None,
        metavar="N",
        help="test instrumentation: fail successor call N on each "
        "job's first attempt",
    )
    _add_certify_argument(p_suite)
    _add_obs_arguments(p_suite)
    p_suite.set_defaults(handler=cmd_suite)

    p_stats = sub.add_parser(
        "stats", help="render a suite journal's per-job metrics as a table"
    )
    p_stats.add_argument("journal", help="suite journal (JSONL) to aggregate")
    p_stats.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="also emit the aggregate as JSON ('-' = stdout)",
    )
    p_stats.set_defaults(handler=cmd_stats)

    p_serve = sub.add_parser(
        "serve", help="run the verification service (see docs/service.md)"
    )
    p_serve.add_argument(
        "--socket", default=None, metavar="PATH", help="bind this Unix socket"
    )
    p_serve.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="bind this TCP endpoint (port 0 picks an ephemeral port, "
        "announced on stdout)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="supervised worker processes (default 2)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="admission queue depth; beyond it requests are shed with "
        "fast 'overloaded' responses (default 64)",
    )
    p_serve.add_argument(
        "--retries", type=int, default=1, metavar="K",
        help="extra attempts per request after a worker crash (default 1)",
    )
    p_serve.add_argument(
        "--job-deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request budget (a request's own deadline wins)",
    )
    p_serve.add_argument(
        "--max-rss", type=float, default=None, metavar="MB",
        help="kill and replace any worker whose resident set exceeds this",
    )
    p_serve.add_argument(
        "--journal", default=None, metavar="PATH",
        help="journal every verdict/shed/degrade here (suite-journal "
        "schema; 'suite --resume' over it completes shed work)",
    )
    p_serve.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="keep exploration autosaves here across worker crashes",
    )
    p_serve.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive worker crashes on one protocol that open its "
        "circuit breaker (default 3)",
    )
    p_serve.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="how long an open breaker waits before letting one probe "
        "request through (default 30)",
    )
    p_serve.add_argument(
        "--breaker-max", type=int, default=1024, metavar="N",
        help="most breakers kept on the board; idle CLOSED breakers are "
        "evicted LRU beyond this, open ones never (default 1024, "
        "0 = unbounded)",
    )
    p_serve.add_argument(
        "--rebuild-breakers",
        action="store_true",
        help="replay the journal at startup to rebuild circuit-breaker "
        "state (used by cluster shards so an open breaker survives "
        "the crash that killed the process)",
    )
    p_serve.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="SECONDS",
        help="how long a drain waits for in-flight jobs before killing "
        "their workers (default 10)",
    )
    p_serve.add_argument(
        "--allow-fault-injection",
        action="store_true",
        help="test instrumentation: accept fault_plan fields in requests",
    )
    p_serve.add_argument(
        "--dedupe",
        action="store_true",
        help="idempotent admission: serve repeats of a journaled verdict "
        "from the journal and coalesce duplicate in-flight request ids "
        "(cluster shards run with this so a router re-drive can never "
        "recompute a verdict; needs --journal)",
    )
    p_serve.add_argument(
        "--verdict-store",
        default=None,
        metavar="DIR",
        help="persistent cross-run verdict cache: a stored verdict "
        "short-circuits admission before the worker pool (cached: true, "
        "store.hit metric) and completions write budget-pure verdicts "
        "through; survives restarts, invalidated only by an engine-"
        "version bump (see docs/store.md)",
    )
    _add_certify_argument(p_serve)
    # The obs flags ride along for parity with the other run commands.
    _add_obs_arguments(p_serve)
    p_serve.set_defaults(handler=cmd_serve)

    p_cluster = sub.add_parser(
        "cluster",
        help="run a fault-tolerant sharded cluster (see docs/cluster.md)",
    )
    p_cluster.add_argument(
        "--dir", required=True, metavar="DIR",
        help="cluster working directory: shard sockets, journals, logs "
        "and the cluster.json discovery file live here",
    )
    p_cluster.add_argument(
        "--socket", default=None, metavar="PATH",
        help="bind the router on this Unix socket",
    )
    p_cluster.add_argument(
        "--tcp", default=None, metavar="HOST:PORT",
        help="bind the router on this TCP endpoint (port 0 picks an "
        "ephemeral port, announced on stdout)",
    )
    p_cluster.add_argument(
        "--shards", type=int, default=3, metavar="N",
        help="local serve shards to spawn and supervise (default 3)",
    )
    p_cluster.add_argument(
        "--remote", action="append", default=None, metavar="ADDR",
        help="register a pre-started remote shard (host:port or socket "
        "path); repeatable, not supervised",
    )
    p_cluster.add_argument(
        "--workers-per-shard", type=int, default=2, metavar="N",
        help="worker processes per local shard (default 2)",
    )
    p_cluster.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="admission queue depth per shard (default 64)",
    )
    p_cluster.add_argument(
        "--retries", type=int, default=1, metavar="K",
        help="per-shard retry budget after a worker crash (default 1)",
    )
    p_cluster.add_argument(
        "--job-deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request budget on every shard",
    )
    p_cluster.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="per-protocol breaker threshold on every shard (default 3)",
    )
    p_cluster.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="per-protocol breaker cooldown on every shard (default 30)",
    )
    p_cluster.add_argument(
        "--health-interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between health pings to each shard (default 1)",
    )
    p_cluster.add_argument(
        "--health-timeout", type=float, default=2.0, metavar="SECONDS",
        help="per-ping timeout (default 2)",
    )
    p_cluster.add_argument(
        "--health-failures", type=int, default=2, metavar="N",
        help="consecutive failed pings that eject a shard from the ring "
        "(default 2)",
    )
    p_cluster.add_argument(
        "--health-cooldown", type=float, default=2.0, metavar="SECONDS",
        help="how long an ejected shard waits before its recovery probe "
        "(default 2)",
    )
    p_cluster.add_argument(
        "--respawn-base", type=float, default=0.25, metavar="SECONDS",
        help="respawn backoff for a crashed shard's first death "
        "(doubles per consecutive death, default 0.25)",
    )
    p_cluster.add_argument(
        "--respawn-cap", type=float, default=8.0, metavar="SECONDS",
        help="respawn backoff ceiling (default 8)",
    )
    p_cluster.add_argument(
        "--shard-drain-grace", type=float, default=10.0, metavar="SECONDS",
        help="per-shard --drain-grace when the cluster drains (default 10)",
    )
    p_cluster.add_argument(
        "--drain-grace", type=float, default=15.0, metavar="SECONDS",
        help="how long the router waits for in-flight forwards before "
        "terminating shards (default 15)",
    )
    p_cluster.add_argument(
        "--allow-fault-injection",
        action="store_true",
        help="test instrumentation: shards accept fault_plan fields",
    )
    p_cluster.add_argument(
        "--verdict-store",
        default=None,
        metavar="DIR",
        help="one shared persistent verdict-cache directory passed to "
        "every shard: cluster-wide repeat traffic and failover "
        "re-drives become store hits (see docs/store.md)",
    )
    p_cluster.set_defaults(handler=cmd_cluster)

    p_cstatus = sub.add_parser(
        "cluster-status",
        help="show a running cluster's router and shard health",
    )
    p_cstatus.add_argument(
        "dir", metavar="DIR",
        help="cluster working directory (the router address is read "
        "from its cluster.json)",
    )
    p_cstatus.add_argument(
        "--timeout", type=float, default=10.0, metavar="SECONDS",
        help="status request timeout (default 10)",
    )
    p_cstatus.add_argument(
        "--json", action="store_true", help="print the raw response frame"
    )
    p_cstatus.set_defaults(handler=cmd_cluster_status)

    p_store = sub.add_parser(
        "store",
        help="inspect or maintain a persistent verdict store "
        "(see docs/store.md)",
    )
    p_store.add_argument(
        "action",
        choices=["stats", "compact", "verify", "invalidate"],
        help="stats: occupancy report; compact: rewrite as one segment "
        "dropping duplicates and stale-engine records; verify: audit "
        "record checksums and replay stored witnesses (exit 1 on any "
        "failure); invalidate: wipe the store",
    )
    p_store.add_argument(
        "dir", metavar="DIR", help="verdict store directory (--verdict-store)"
    )
    p_store.add_argument(
        "--no-replay",
        action="store_true",
        help="verify only: check witness checksums without the full "
        "independent replay (fast integrity sweep)",
    )
    p_store.add_argument(
        "--json", action="store_true", help="emit the raw report as JSON"
    )
    p_store.set_defaults(handler=cmd_store)

    p_witness = sub.add_parser(
        "witness",
        help="work with attack witnesses (see docs/verification.md)",
    )
    witness_sub = p_witness.add_subparsers(dest="witness_command", required=True)
    p_replay = witness_sub.add_parser(
        "replay",
        help="independently replay a witness file against the "
        "unreduced, uncached semantics (exit 0 = replays, 1 = not)",
    )
    p_replay.add_argument(
        "file", help="witness JSON file (or a verdict result carrying one)"
    )
    p_replay.add_argument(
        "--max-nodes", type=int, default=None, metavar="N",
        help="backtracking budget for resolving uid-shape ambiguity "
        "(default 50000)",
    )
    p_replay.add_argument(
        "--json", action="store_true", help="emit the replay report as JSON"
    )
    p_replay.set_defaults(handler=cmd_witness)

    p_submit = sub.add_parser(
        "submit", help="submit one request to a running server"
    )
    p_submit.add_argument(
        "kind",
        choices=[
            "ping", "status", "secrecy", "authentication", "freshness",
            "explore", "check", "may-preorder",
        ],
        help="request kind ('may-preorder' is the Definition-4 check)",
    )
    p_submit.add_argument(
        "target", nargs="?", default=None,
        help="zoo protocol name or file path (impl file for check)",
    )
    p_submit.add_argument(
        "--spec", default=None, metavar="PATH",
        help="specification system file (check/may-preorder)",
    )
    p_submit.add_argument(
        "--socket", default=None, metavar="PATH", help="server Unix socket"
    )
    p_submit.add_argument(
        "--tcp", default=None, metavar="HOST:PORT", help="server TCP endpoint"
    )
    p_submit.add_argument(
        "--cluster", default=None, metavar="DIR",
        help="cluster working directory; the router address is read "
        "from its cluster.json discovery file",
    )
    p_submit.add_argument("--id", default=None, help="request id (default: derived)")
    p_submit.add_argument("--max-states", type=int, default=4000)
    p_submit.add_argument("--max-depth", type=int, default=40)
    p_submit.add_argument("--secret", default=None, metavar="NAME")
    p_submit.add_argument("--sender", default=None, metavar="ROLE")
    p_submit.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="total budget: propagated to the server and bounding retries",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-attempt socket timeout (default 60)",
    )
    p_submit.add_argument(
        "--connect-retries", type=int, default=3, metavar="N",
        help="extra attempts on connection errors or overload sheds "
        "(default 3, with jittered backoff)",
    )
    p_submit.add_argument(
        "--json", action="store_true", help="print the raw response frame"
    )
    p_submit.set_defaults(handler=cmd_submit)

    return parser


def _emit_stats(args: argparse.Namespace, metrics, out) -> None:
    """Post-run ``--stats`` output: text to ``out`` or JSON to a file.

    For ``suite`` the payload additionally carries the aggregate and
    per-job :class:`~repro.obs.stats.SuiteStats` blocks assembled from
    the run's outcomes.
    """
    import json

    report = getattr(args, "suite_report", None)
    if args.stats == "-":
        if report is not None:
            print(report.stats().describe(), file=out)
        print(metrics.describe(), file=out)
        return
    from repro.runtime.atomic import atomic_write_json

    payload = {"metrics": metrics.to_json()}
    if report is not None:
        payload.update(report.stats().to_json())
    atomic_write_json(args.stats, payload)
    print(f"stats written to {args.stats}", file=out)


@contextmanager
def _exported(name: str, value: str) -> Iterator[None]:
    """Set environment variable ``name`` to ``value`` for the block.

    The variable is how a choice made by a flag reaches spawned
    suite/serve/cluster workers (and, for certify, ``run_job`` in this
    interpreter too).  The previous value is restored afterwards
    because tests call :func:`main` repeatedly in one interpreter.
    """
    import os

    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


def _dispatch(args: argparse.Namespace, out) -> int:
    """Run the subcommand handler inside the requested observability
    contexts (``--trace`` / ``--stats`` / ``--profile``), honouring
    ``--reduce`` and ``--certify``."""
    with ExitStack() as stack:
        reduce_mode = getattr(args, "reduce", None)
        if reduce_mode is not None:
            from repro.semantics import canonical, reduction

            # The in-process switch covers this interpreter, the
            # exported variable the spawned workers.
            stack.enter_context(_exported(canonical.REDUCTION_ENV, reduce_mode))
            previous_mode = reduction.set_reduction_mode(reduce_mode)
            stack.callback(reduction.set_reduction_mode, previous_mode)
        if getattr(args, "certify", False):
            from repro.runtime.worker import CERTIFY_ENV

            # run_job reads it here and in spawned suite/serve workers;
            # cluster shards get it through their serve subprocesses.
            stack.enter_context(_exported(CERTIFY_ENV, "1"))
        return _dispatch_observed(args, out)


def _dispatch_observed(args: argparse.Namespace, out) -> int:
    trace_to = getattr(args, "trace", None)
    stats_to = getattr(args, "stats", None)
    profile_to = getattr(args, "profile", None)
    if trace_to is None and stats_to is None and profile_to is None:
        return args.handler(args, out)

    from repro.obs import Tracer, collecting, profile, tracing

    metrics = None
    with ExitStack() as stack:
        if stats_to is not None:
            metrics = stack.enter_context(collecting())
        if trace_to is not None:
            tracer = stack.enter_context(Tracer.to_path(trace_to))
            stack.enter_context(tracing(tracer))
        if profile_to is not None:
            stack.enter_context(
                profile(None if profile_to == "-" else profile_to, stream=out)
            )
        code = args.handler(args, out)
    if metrics is not None:
        _emit_stats(args, metrics, out)
    if trace_to is not None:
        print(f"trace written to {trace_to}", file=out)
    return code


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns the exit status instead of raising SystemExit
    so it is directly testable."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, out)
    except (ReproError, OSError) as error:
        # Every library failure mode subclasses ReproError (parse errors,
        # corrupt checkpoints/journals, malformed jobs...): one line on
        # stderr, exit 2 — never a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Interrupts *inside* an exploration are absorbed cooperatively
        # (the loop returns a partial graph); reaching here means the
        # interrupt hit outside any recoverable loop.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
