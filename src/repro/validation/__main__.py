"""Validate a saved clone bundle from the command line.

::

    python -m repro.validation bundle.json [--platform A] [--seed 17]
        [--duration 0.5] [--json report.json] [--tolerance ipc=0.1 ...]

Loads the bundle (integrity-checked: a corrupted file is quarantined
and the run fails), regenerates each tier with its recorded knobs and
generator seed, runs every tier stand-alone at its profiled load on the
chosen platform, and gates the measured counters against the bundle's
``target_counters`` through :func:`~repro.validation.gate
.gate_bundle_tiers`, the bundle gate a migration's destination stage
runs too. Prints one per-metric table per tier and exits **0** only
when every tier passes — wire it straight into CI.

``--json`` additionally writes the full machine-readable report (one
:meth:`FidelityReport.to_dict` per tier plus a roll-up verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.bundle import bundle_tiers, read_bundle_document
from repro.hw.platform import _PLATFORMS, platform_by_name
from repro.runtime.experiment import ExperimentConfig
from repro.util.errors import (
    ArtifactIntegrityError,
    ConfigurationError,
    ReproError,
)
from repro.validation.gate import (
    FidelityGate,
    FidelityReport,
    gate_bundle_tiers,
    parse_tolerances,
)


def validate_bundle(
    path: str,
    *,
    platform_name: str = "A",
    seed: int = 17,
    duration_s: float = 1.0,
    gate: Optional[FidelityGate] = None,
) -> List[FidelityReport]:
    """Gate every tier of a saved bundle; returns one report per tier.

    ``gate`` defaults to :class:`FidelityGate`'s default tolerances.
    """
    features, generators = bundle_tiers(read_bundle_document(path))
    config = ExperimentConfig(platform=platform_by_name(platform_name),
                              duration_s=duration_s, seed=seed)
    return list(gate_bundle_tiers(
        features, generators, gate if gate is not None else FidelityGate(),
        config).values())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validation",
        description="Gate a saved clone bundle against its profiled "
                    "target counters.")
    parser.add_argument("bundle", help="path to a ditto-clone-bundle JSON")
    parser.add_argument("--platform", default="A",
                        choices=sorted(_PLATFORMS),
                        help="platform model to replay on (default: A)")
    parser.add_argument("--seed", type=int, default=17,
                        help="replay seed (default: 17)")
    parser.add_argument("--duration", type=float, default=1.0,
                        help="simulated seconds per tier (default: 1.0)")
    parser.add_argument("--tolerance", action="append", default=[],
                        metavar="METRIC=REL",
                        help="override a relative tolerance, e.g. ipc=0.1 "
                             "(repeatable)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="also write the machine-readable report here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-tier tables")
    options = parser.parse_args(argv)
    try:
        tolerances = parse_tolerances(options.tolerance)
    except ConfigurationError as error:
        raise SystemExit(str(error)) from None

    try:
        reports = validate_bundle(
            options.bundle,
            platform_name=options.platform,
            seed=options.seed,
            duration_s=options.duration,
            gate=FidelityGate(tolerances),
        )
    except ArtifactIntegrityError as error:
        print(f"bundle integrity failure: {error}", file=sys.stderr)
        return 2
    except (ReproError, OSError) as error:
        print(f"validation failed to run: {error}", file=sys.stderr)
        return 2

    passed = all(report.passed for report in reports)
    if not options.quiet:
        for report in reports:
            print(report.summary())
            print()
    if options.json_path:
        document = {
            "format": "ditto-validation-report/1",
            "bundle": options.bundle,
            "platform": options.platform,
            "seed": options.seed,
            "passed": passed,
            "tiers": [report.to_dict() for report in reports],
        }
        with open(options.json_path, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(f"{len(reports)} tier(s) gated on platform {options.platform}: "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
