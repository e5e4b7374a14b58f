"""CLI: migrate a saved clone bundle to a destination platform.

::

    python -m repro.migrate BUNDLE.json --destination B
        [--out MIGRATED.json] [--preflight-json PREFLIGHT.json]
        [--source-platform A] [--platform-file SPEC.json ...]
        [--destination-nodes N] [--allow-degraded] [--seed 17]
        [--duration 0.25] [--max-tune-iterations 5]
        [--tolerance METRIC=REL ...] [--max-sim-events N]
        [--sim-deadline SIM_S] [--quiet]
        [--store DIR [--name NAME] [--priority P] [--max-crashes N]
                     [--flight]]

The request is built once. Without ``--store`` the migration runs
inline; with ``--store DIR`` it is queued as an ordinary fleet job (run
it with ``python -m repro.fleet run --store DIR``) and its job id is
the only stdout line. ``--name``, ``--priority``, ``--max-crashes`` and
``--flight`` describe that job and are rejected without ``--store``;
``--out`` and ``--preflight-json`` describe an inline run and are
rejected with it (a queued job publishes into the store).

Exit codes (CI discriminates on them):

- ``0`` — published: destination gate passed, stamped
  ``ditto-migration/1`` artifact written (or, with ``--store``, the
  job was queued);
- ``1`` — work was spent but the migration was refused (destination
  gate failed, or re-tune exhausted its simulation budgets);
- ``2`` — refused at preflight with zero tuning work (blocking
  verdicts, missing source platform, or a corrupt/quarantined source
  bundle);
- ``3`` — the migration could not run at all (bad arguments, I/O).

``--preflight-json`` writes the verdict sheet even on refusal, so CI
can always upload the report artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.hw.platform import load_platform_spec, platform_by_name
from repro.migrate.engine import migrate_request
from repro.migrate.preflight import PreflightReport
from repro.migrate.request import MigrationRequest
from repro.util.errors import (
    ArtifactIntegrityError,
    ConfigurationError,
    MigrationError,
    ReproError,
)
from repro.validation.gate import parse_tolerances

EXIT_PUBLISHED = 0
EXIT_REFUSED = 1
EXIT_PREFLIGHT = 2
EXIT_ERROR = 3

#: flags that describe a queued fleet job / an inline run only
_FLEET_FLAGS = ("name", "priority", "max_crashes", "flight")
_INLINE_FLAGS = ("out", "preflight_json")


def _write_preflight(path: Optional[str],
                     report: Optional[PreflightReport]) -> None:
    if not path or report is None:
        return
    with open(path, "w") as handle:
        json.dump(report.to_dict(), handle, indent=1, sort_keys=True)
        handle.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.migrate",
        description="Migrate a saved clone bundle to a destination "
                    "platform: preflight, warm re-tune, destination "
                    "fidelity gate — inline, or queued as a fleet job.")
    parser.add_argument("bundle", help="path to the source clone bundle")
    parser.add_argument("--destination", required=True,
                        help="destination platform name (built-in A/B/C "
                             "or registered via --platform-file)")
    parser.add_argument("--out", default=None,
                        help="output path for the migrated bundle "
                             "(default: <bundle>.migrated.json)")
    parser.add_argument("--source-platform", default=None,
                        help="override the bundle's embedded source "
                             "platform (required for legacy bundles)")
    parser.add_argument("--platform-file", action="append", default=[],
                        metavar="SPEC.json",
                        help="register an extra platform spec before "
                             "resolving names (repeatable)")
    parser.add_argument("--destination-nodes", type=int, default=None,
                        help="destination cluster size bound "
                             "(default: unconstrained)")
    parser.add_argument("--allow-degraded", action="store_true",
                        help="consolidate the tier DAG onto fewer nodes "
                             "instead of refusing at preflight")
    parser.add_argument("--seed", type=int, default=17,
                        help="re-tune/gate seed (default: 17)")
    parser.add_argument("--duration", type=float, default=0.25,
                        help="simulated seconds per measurement run "
                             "(default: 0.25)")
    parser.add_argument("--max-tune-iterations", type=int, default=5,
                        help="warm-started re-tune budget per tier "
                             "(default: 5)")
    parser.add_argument("--tolerance", action="append", default=[],
                        metavar="METRIC=REL",
                        help="override a destination-gate relative "
                             "tolerance, e.g. ipc=0.1 (repeatable)")
    parser.add_argument("--max-sim-events", type=int, default=None,
                        help="event-budget watchdog per measurement run")
    parser.add_argument("--sim-deadline", type=float, default=None,
                        metavar="SIM_S",
                        help="simulated-time deadline watchdog per "
                             "measurement run, in simulated seconds")
    parser.add_argument("--preflight-json", default=None,
                        help="write the preflight verdict sheet here "
                             "(written even when the migration refuses)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the verdict/fidelity tables")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="queue the migration as a job in this fleet "
                             "store instead of running it inline")
    parser.add_argument("--name", default=None,
                        help="fleet job name (with --store)")
    parser.add_argument("--priority", type=int, default=None,
                        help="fleet job priority (with --store)")
    parser.add_argument("--max-crashes", type=int, default=None,
                        help="crash budget before dead-lettering "
                             "(with --store; default: the store's)")
    parser.add_argument("--flight", action="store_true", default=None,
                        help="enable the store's flight recorder "
                             "(with --store)")
    return parser


def _build_request(options: argparse.Namespace) -> MigrationRequest:
    stray = [name for name in (_INLINE_FLAGS if options.store
                               else _FLEET_FLAGS)
             if getattr(options, name) is not None]
    if stray:
        raise ConfigurationError(
            ", ".join("--" + name.replace("_", "-") for name in stray)
            + (": not valid with --store" if options.store
               else ": valid only with --store"))
    for spec_path in options.platform_file:
        load_platform_spec(spec_path)
    return MigrationRequest(
        bundle_path=options.bundle,
        destination=platform_by_name(options.destination),
        source_platform=(platform_by_name(options.source_platform)
                         if options.source_platform else None),
        destination_nodes=options.destination_nodes,
        allow_degraded=options.allow_degraded,
        seed=options.seed,
        duration_s=options.duration,
        max_tune_iterations=options.max_tune_iterations,
        tolerances=parse_tolerances(options.tolerance),
        max_sim_events=options.max_sim_events,
        sim_deadline_s=options.sim_deadline,
    )


def _queue(request: MigrationRequest, options: argparse.Namespace) -> int:
    from repro.fleet.client import FleetClient
    from repro.fleet.store import JobStore
    store = JobStore(options.store, flight=options.flight)
    record = FleetClient(store).submit(
        request, name=options.name or "", priority=options.priority or 0,
        max_crashes=options.max_crashes)
    print(record.job_id)
    return EXIT_PUBLISHED


def main(argv: Optional[List[str]] = None) -> int:
    options = build_parser().parse_args(argv)
    try:
        request = _build_request(options)
        if options.store:
            return _queue(request, options)
    except (ReproError, OSError) as error:
        print(f"migration could not start: {error}", file=sys.stderr)
        return EXIT_ERROR

    out_path = options.out or f"{options.bundle}.migrated.json"
    try:
        result = migrate_request(request, out_path)
    except ArtifactIntegrityError as error:
        print(f"source bundle integrity failure: {error}",
              file=sys.stderr)
        return EXIT_PREFLIGHT
    except MigrationError as error:
        report = error.report
        if isinstance(report, PreflightReport):
            _write_preflight(options.preflight_json, report)
            if not options.quiet:
                print(report.summary())
        elif report is not None and not options.quiet:
            print(report.summary())
        print(f"migration refused at {error.stage or 'unknown'}: {error}",
              file=sys.stderr)
        return (EXIT_PREFLIGHT if error.stage == "preflight"
                else EXIT_REFUSED)
    except (ReproError, OSError) as error:
        print(f"migration failed to run: {error}", file=sys.stderr)
        return EXIT_ERROR

    _write_preflight(options.preflight_json, result.preflight)
    if not options.quiet:
        print(result.preflight.summary())
        print()
        print(result.fidelity.summary())
        if result.remediation:
            print()
            for step in result.remediation:
                print(f"remediation: {step}")
    print(f"migrated {options.bundle} → {result.path} "
          f"({result.preflight.source}→{result.preflight.destination}, "
          f"gate PASS)")
    return EXIT_PUBLISHED


if __name__ == "__main__":
    sys.exit(main())
