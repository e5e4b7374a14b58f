"""Operate a cloning fleet from the command line.

::

    python -m repro.fleet submit --store DIR --workload twotier
        [--qps 2000] [--duration 0.015] [--platform A] [--seed 17]
        [--validate] [--tolerance METRIC=REL ...] [--fast]
        [--tune-iterations N] [--no-finetune] [--name NAME]
        [--priority P] [--max-crashes N] [--flight]
    python -m repro.fleet run    --store DIR [--executor auto]
        [--max-workers N] [--telemetry] [--save RUN.json] [--flight]
        [--serve [HOST]:PORT] [--serve-linger SECONDS]
        [--chaos PLAN.json]
    python -m repro.fleet dlq    --store DIR list
    python -m repro.fleet dlq    --store DIR retry JOB
    python -m repro.fleet list   --store DIR [--state submitted ...]
    python -m repro.fleet watch  --store DIR JOB [--timeout 300]
    python -m repro.fleet show   --store DIR JOB
    python -m repro.fleet cancel --store DIR JOB
    python -m repro.fleet retire --store DIR JOB
    python -m repro.fleet top    --store DIR [--interval 2]
        [--iterations 1]
    python -m repro.fleet drift  --store DIR [--warn 0.8] [--window 3]
        [--strict] [--json] [--limit N]
    python -m repro.fleet trace  --store DIR --out TRACE.json
        [--run RUN.json]

``submit`` prints the new job id (the only stdout line, so shell
scripts can capture it). Migrations are queued by ``python -m
repro.migrate BUNDLE --destination B --store DIR``, which prints its
job id the same way; from then on a migration is an ordinary job —
its preflight, re-tune and gate show up as ``profiling``, ``tuning``
and ``validating``, and it publishes a ``ditto-migration/1`` artifact
or fails with the refusing stage in its error (``migration_<stage>``).
``watch`` exits **0** when the job publishes,
**1** when it fails or is dead-lettered, **2** when it was cancelled
and **3** on timeout. ``run`` drains the queue and exits 0 unless some
job failed; SIGTERM/SIGINT drain it gracefully (in-flight jobs finish,
the rest stay queued; a second signal hard-stops). The store directory
is shared state: submit from one shell, run the scheduler in another,
watch from a third.

Chaos: ``run --chaos PLAN.json`` installs a crashpoint plan (see
``repro.fleet.chaos``) for the whole run — a ``kill`` action exits the
process with status **70** at the named crashpoint, leaving the store
for the next ``run`` to recover. A job that keeps killing its workers
exhausts its crash budget (``submit --max-crashes``, default from the
store config) and lands in the dead-letter queue: ``dlq list`` shows
it, ``dlq retry JOB`` requeues it with a fresh budget.

Observability: ``--flight`` (on ``submit`` or ``run``) enables the
store's flight recorder — every later process sharing the store joins
the log automatically. ``run --serve :9090`` serves ``/metrics``,
``/jobs`` and ``/healthz`` while draining (``--serve-linger`` keeps it
up afterwards, e.g. for CI to curl). ``run --telemetry`` prints the
full telemetry report for the drained fleet; ``top`` renders the live
dashboard, ``drift`` the fidelity-drift table (exit 1 with ``--strict``
when any series is DRIFTING), and ``trace`` exports the flight log —
optionally merged with a saved telemetry run's spans — as a Perfetto/
``chrome://tracing`` file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.app.service import Deployment
from repro.app.workloads import DEPLOYMENT_BUILDERS, WORKLOAD_BUILDERS
from repro.core.pipeline import EXECUTOR_MODES
from repro.core.request import CloneRequest
from repro.fleet.client import FleetClient
from repro.fleet.job import JobState
from repro.hw.platform import _PLATFORMS, platform_by_name
from repro.loadgen.generator import LoadSpec
from repro.profiling.artifacts import ProfilingBudget
from repro.runtime.experiment import ExperimentConfig
from repro.util.errors import ReproError
from repro.validation.gate import FidelityGate, parse_tolerances

#: a deliberately small profiling budget for smoke runs (same shape the
#: test suite uses) — clones stay deterministic, just coarser
FAST_BUDGET = ProfilingBudget(
    sampled_requests=6, max_accesses_per_spec=384,
    max_istream_per_block=1024, branch_outcomes_per_site=96,
    max_sites_per_population=6, dep_samples_per_block=32,
    profile_duration_s=0.012,
)

WATCH_EXIT = {JobState.PUBLISHED: 0, JobState.RETIRED: 0,
              JobState.FAILED: 1, JobState.DEAD_LETTERED: 1,
              JobState.CANCELLED: 2}


def _workload_names() -> List[str]:
    return sorted(set(WORKLOAD_BUILDERS) | set(DEPLOYMENT_BUILDERS))


def _build_deployment(name: str) -> Deployment:
    if name in DEPLOYMENT_BUILDERS:
        return DEPLOYMENT_BUILDERS[name]()
    return Deployment.single(WORKLOAD_BUILDERS[name]())


def _build_request(args: argparse.Namespace) -> CloneRequest:
    deployment = _build_deployment(args.workload)
    load = LoadSpec.open_loop(args.qps)
    config = ExperimentConfig(platform=platform_by_name(args.platform),
                              duration_s=args.duration, seed=args.seed)
    validate: Optional[FidelityGate] = None
    if args.validate:
        # float values are taken as relative bounds by the gate
        validate = FidelityGate(tolerances=parse_tolerances(args.tolerance))
    return CloneRequest(
        deployment=deployment,
        load=load,
        config=config,
        seed=args.seed,
        budget=FAST_BUDGET if args.fast else None,
        fine_tune_tiers=False if args.no_finetune else None,
        max_tune_iterations=args.tune_iterations,
        validate=validate,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.fleet.store import JobStore
    store = JobStore(args.store, flight=True if args.flight else None)
    client = FleetClient(store)
    record = client.submit(_build_request(args), name=args.name,
                           priority=args.priority,
                           max_crashes=args.max_crashes)
    print(record.job_id)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.fleet.chaos import ChaosPlan
    from repro.fleet.scheduler import FleetScheduler
    from repro.fleet.store import JobStore
    from repro.telemetry.session import Telemetry
    session = Telemetry(label="fleet") if args.telemetry else None
    store = JobStore(args.store,
                     registry=session.registry if session else None,
                     flight=True if args.flight else None)
    chaos = ChaosPlan.from_file(args.chaos) if args.chaos else None
    with FleetScheduler(store, executor=args.executor,
                        max_workers=args.max_workers,
                        telemetry=session, serve_metrics=args.serve,
                        chaos=chaos) as scheduler:
        if scheduler.status_server is not None:
            print(f"serving fleet status on "
                  f"{scheduler.status_server.url}", file=sys.stderr)
        outcomes = scheduler.run_until_idle()
        failed = 0
        for outcome in outcomes:
            line = f"{outcome.job_id}  {outcome.state.value}"
            if outcome.error:
                line += f"  [{outcome.error}]"
            print(line, file=sys.stderr)
            if outcome.state is JobState.FAILED:
                failed += 1
        drained = " (drained)" if scheduler.draining else ""
        print(f"{len(outcomes)} job(s) finished, {failed} failed"
              f"{drained}", file=sys.stderr)
        if session is not None:
            def total(name: str) -> int:
                metric = session.registry.get(name)
                return int(metric.total()) if metric is not None else 0
            print("telemetry: shared-cache hits="
                  f"{total('ditto_fleet_shared_cache_hits_total')} "
                  f"stores={total('ditto_fleet_shared_cache_stores_total')} "
                  "profile reuses="
                  f"{total('ditto_fleet_profile_reuse_total')}",
                  file=sys.stderr)
            from repro.telemetry.report import render_report
            print(render_report(session.snapshot()), file=sys.stderr)
            if args.save:
                session.save(args.save)
                print(f"saved telemetry run to {args.save}",
                      file=sys.stderr)
        if args.serve_linger and scheduler.status_server is not None \
                and not scheduler.draining:
            time.sleep(args.serve_linger)
    return 1 if failed else 0


def _cmd_dlq(args: argparse.Namespace) -> int:
    client = FleetClient(args.store)
    if args.action == "list":
        records = client.dead_letters()
        for record in records:
            print(f"{record.describe()}  "
                  f"(crashes: {record.crash_count})")
        if not records:
            print("dead-letter queue is empty", file=sys.stderr)
        return 0
    if not args.job_id:
        print("error: dlq retry takes a job id", file=sys.stderr)
        return 2
    record = client.retry_dead_letter(args.job_id)
    print(record.describe())
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    states = ([JobState(state) for state in args.state]
              if args.state else None)
    for record in FleetClient(args.store).list(states):
        print(record.describe())
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    client = FleetClient(args.store)
    try:
        record = client.watch(args.job_id, timeout_s=args.timeout,
                              poll_s=args.poll)
    except TimeoutError as error:
        print(error, file=sys.stderr)
        return 3
    print(record.describe())
    return WATCH_EXIT.get(record.state, 1)


def _cmd_show(args: argparse.Namespace) -> int:
    client = FleetClient(args.store)
    record = client.get(args.job_id)
    print(record.describe())
    print(f"  spec digest: {record.spec_digest}")
    print(f"  remediation attempts: {record.attempts}")
    if record.crash_count:
        print(f"  crashes survived: {record.crash_count}")
    if record.result_digest:
        print(f"  result digest: {record.result_digest}")
    for edge in record.history:
        reason = f"  ({edge.reason})" if edge.reason else ""
        print(f"  {edge.from_state.value} -> {edge.to_state.value}{reason}")
    if record.state is JobState.PUBLISHED or record.result_digest:
        try:
            result = client.result(args.job_id)
        except (ReproError, FileNotFoundError):
            return 0
        print(f"  executor: {result.executor}; cache hits/misses "
              f"{result.cache_stats.hits}/{result.cache_stats.misses}")
        if result.remediation:
            print("  remediation ladder:")
            for rung, reason in enumerate(result.remediation, 1):
                print(f"    {rung}. {reason}")
        if result.fidelity is not None:
            print(f"  fidelity: "
                  f"{'PASS' if result.fidelity.get('passed') else 'FAIL'}")
            from repro.validation.gate import FidelityReport
            report = FidelityReport.from_dict(result.fidelity)
            for line in report.summary().splitlines():
                print(f"    {line}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.fleet.obs.flight import read_flight_log
    from repro.fleet.obs.top import render_top
    from repro.fleet.store import JobStore
    store = JobStore(args.store, flight=False)
    for iteration in range(max(1, args.iterations)):
        if iteration:
            time.sleep(args.interval)
            print()
        flight = read_flight_log(store.flight_path)
        print(render_top(store, flight))
    return 0


def _cmd_drift(args: argparse.Namespace) -> int:
    from repro.fleet.obs.drift import (
        analyze_drift,
        load_fidelity_history,
        render_drift_report,
    )
    from repro.fleet.store import JobStore
    store = JobStore(args.store, flight=False)
    histories = load_fidelity_history(store.fidelity_dir)
    report = analyze_drift(histories, warn_fraction=args.warn,
                           trend_window=args.window)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_drift_report(report, store_root=args.store,
                                  limit=args.limit))
    return 1 if (args.strict and report.drifting()) else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.fleet.obs.flight import read_flight_log
    from repro.fleet.store import JobStore
    from repro.telemetry.chrometrace import chrome_trace
    store = JobStore(args.store, flight=False)
    flight = read_flight_log(store.flight_path)
    if not flight.events:
        print("no flight events recorded — enable the recorder with "
              "'run --flight' first", file=sys.stderr)
        return 1
    spans = []
    if args.run:
        from repro.telemetry.report import load_run, run_events
        spans = [event for event in run_events(load_run(args.run))
                 if event.clock is None]
    doc = chrome_trace(spans + flight.trace_events(),
                       metadata={"source": "ditto fleet flight recorder",
                                 "store": args.store})
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    merged = f" merged with {len(spans)} pipeline spans" if spans else ""
    print(f"wrote {args.out}: {len(flight.events)} flight events"
          f"{merged}"
          + (f" ({flight.skipped} corrupt lines skipped)"
             if flight.skipped else ""),
          file=sys.stderr)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    record = FleetClient(args.store).cancel(args.job_id)
    print(record.describe())
    return 0


def _cmd_retire(args: argparse.Namespace) -> int:
    record = FleetClient(args.store).retire(args.job_id)
    print(record.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="operate a Ditto cloning fleet")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--store", required=True,
                        help="job store root directory")
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser("submit", parents=[common],
                                 help="queue one clone job")
    submit.add_argument("--workload", required=True,
                        choices=_workload_names())
    submit.add_argument("--qps", type=float, default=2000.0)
    submit.add_argument("--duration", type=float, default=0.015,
                        help="profiling duration, seconds")
    submit.add_argument("--platform", default="A",
                        choices=sorted(_PLATFORMS))
    submit.add_argument("--seed", type=int, default=17)
    submit.add_argument("--fast", action="store_true",
                        help="smoke-test profiling budget")
    submit.add_argument("--validate", action="store_true",
                        help="gate the clone through a FidelityGate")
    submit.add_argument("--tolerance", action="append", default=[],
                        metavar="METRIC=REL")
    submit.add_argument("--tune-iterations", type=int, default=None)
    submit.add_argument("--no-finetune", action="store_true")
    submit.add_argument("--name", default="")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--max-crashes", type=int, default=None,
                        help="crash budget before dead-lettering "
                        "(default: the store's)")
    submit.add_argument("--flight", action="store_true",
                        help="enable the store's flight recorder")
    submit.set_defaults(func=_cmd_submit)

    run = commands.add_parser("run", parents=[common],
                              help="drain the queue, then exit")
    run.add_argument("--executor", default="auto",
                     choices=EXECUTOR_MODES)
    run.add_argument("--max-workers", type=int, default=None)
    run.add_argument("--telemetry", action="store_true",
                     help="aggregate fleet telemetry while running and "
                     "print the full report")
    run.add_argument("--save", default="", metavar="RUN.json",
                     help="with --telemetry: save the session document")
    run.add_argument("--flight", action="store_true",
                     help="enable the store's flight recorder")
    run.add_argument("--serve", nargs="?", const=True, default=None,
                     metavar="[HOST]:PORT",
                     help="serve /metrics, /jobs and /healthz while "
                     "draining (no value = ephemeral localhost port)")
    run.add_argument("--serve-linger", type=float, default=0.0,
                     metavar="SECONDS",
                     help="keep the status endpoint up after draining")
    run.add_argument("--chaos", default="", metavar="PLAN.json",
                     help="install a chaos crashpoint plan for the run")
    run.set_defaults(func=_cmd_run)

    dlq = commands.add_parser("dlq", parents=[common],
                              help="inspect or retry dead-lettered jobs")
    dlq.add_argument("action", choices=("list", "retry"))
    dlq.add_argument("job_id", nargs="?", default="")
    dlq.set_defaults(func=_cmd_dlq)

    list_cmd = commands.add_parser("list", parents=[common],
                                   help="list jobs in the store")
    list_cmd.add_argument("--state", action="append", default=[],
                          choices=[state.value for state in JobState])
    list_cmd.set_defaults(func=_cmd_list)

    watch = commands.add_parser("watch", parents=[common],
                                help="wait for a job to finish")
    watch.add_argument("job_id")
    watch.add_argument("--timeout", type=float, default=300.0)
    watch.add_argument("--poll", type=float, default=0.2)
    watch.set_defaults(func=_cmd_watch)

    show = commands.add_parser("show", parents=[common],
                               help="one job's record and history")
    show.add_argument("job_id")
    show.set_defaults(func=_cmd_show)

    cancel = commands.add_parser("cancel", parents=[common],
                                 help="cancel a queued or running job")
    cancel.add_argument("job_id")
    cancel.set_defaults(func=_cmd_cancel)

    retire = commands.add_parser("retire", parents=[common],
                                 help="retire a published clone")
    retire.add_argument("job_id")
    retire.set_defaults(func=_cmd_retire)

    top = commands.add_parser("top", parents=[common],
                              help="textual fleet dashboard")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=int, default=1,
                     help="frames to render (default: one snapshot)")
    top.set_defaults(func=_cmd_top)

    drift = commands.add_parser("drift", parents=[common],
                                help="fidelity-drift report")
    drift.add_argument("--warn", type=float, default=0.8,
                       help="tolerance fraction flagged as DRIFTING")
    drift.add_argument("--window", type=int, default=3,
                       help="jobs a widening trend must span for WATCH")
    drift.add_argument("--limit", type=int, default=0,
                       help="show at most N series (0 = all)")
    drift.add_argument("--json", action="store_true",
                       help="machine-readable report document")
    drift.add_argument("--strict", action="store_true",
                       help="exit 1 when any series is DRIFTING")
    drift.set_defaults(func=_cmd_drift)

    trace = commands.add_parser("trace", parents=[common],
                                help="export the flight log as a "
                                "Perfetto/chrome trace")
    trace.add_argument("--out", required=True, metavar="TRACE.json")
    trace.add_argument("--run", default="", metavar="RUN.json",
                       help="merge spans from a saved telemetry run")
    trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.fleet.chaos import ChaosKill
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ChaosKill as error:
        # A chaos kill action fired: die the way a real crash would
        # (leases and records left in place for the next run's
        # recovery), but with a distinct status for harnesses.
        print(f"chaos: {error}", file=sys.stderr)
        return 70
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
