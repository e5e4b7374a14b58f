"""Three-stage clone migration: preflight → warm re-tune → destination gate.

The operational form of Ditto's fig7 cross-platform result. A saved
clone bundle is carried to a new environment in three stages, each a
robustness surface:

1. **preflight** — the bundle is loaded through the integrity layer
   (corruption quarantines, never a partial migrate) and every per-tier
   knob/object is classified by :func:`repro.migrate.preflight
   .run_preflight`. Any blocking verdict refuses the migration with a
   typed :class:`~repro.util.errors.MigrationError` before a single
   simulation is run.
2. **re-tune** — ``NEEDS_RETUNE`` knobs are re-calibrated on the
   destination with :func:`repro.core.finetune.fine_tune`, warm-started
   from the source knob values and *scoped* to the metrics paired with
   the stale knobs. Sim watchdogs bound every run; trips climb the
   :class:`~repro.validation.remediate.RemediationPolicy` ladder.
3. **destination gate** — each tier is replayed on the destination and
   gated by :class:`~repro.validation.gate.FidelityGate` against the
   source bundle's recorded ``target_counters``. Gate failures climb
   the same remediation ladder (re-seed + widened re-tune); exhaustion
   refuses publication.

A successful migration publishes a stamped ``ditto-migration/1``
artifact: a strict superset of the clone-bundle document (so every
bundle consumer — ``load_bundle``, ``deployment_from_bundle``,
``python -m repro.validation`` — works on it unchanged) plus a
``migration`` stanza embedding the preflight report, the destination
fidelity report, and the per-knob retune deltas.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.body_gen import GeneratorConfig, TuningKnobs
from repro.core.bundle import (
    MIGRATION_FORMAT,
    MIGRATION_VERSION,
    bundle_source_platform,
    decode_features,
    read_bundle_document,
)
from repro.core.cloner import CloneObserver
from repro.core.finetune import KNOB_FOR_METRIC, _measure, fine_tune
from repro.hw.platform import PlatformSpec, platform_to_dict
from repro.loadgen.generator import LoadSpec
from repro.migrate.preflight import PreflightReport, run_preflight
from repro.migrate.request import MigrationRequest
from repro.runtime.experiment import ExperimentConfig
from repro.util.errors import (
    MigrationError,
    SimBudgetExceededError,
)
from repro.validation import integrity
from repro.validation.gate import (
    FidelityGate,
    FidelityReport,
    MetricTolerance,
)
from repro.validation.remediate import RemediationPolicy

__all__ = [
    "MIGRATION_TOLERANCES",
    "MigrationResult",
    "migrate_request",
    "write_migration_document",
]

#: gate/tune metric order (fixed so scoped subsets stay deterministic)
_TUNE_METRICS = ("ipc", "branch", "l1i", "l1d", "llc")

#: The documented §6/fig7 *cross-platform* error envelope the
#: destination gate enforces. Metrics a knob can steer on the
#: destination keep validation-tight bounds (l1i/l1d via the memory
#: knobs, branch via transition_scale). Structure-bound metrics get
#: destination-width bounds: l2 has no paired knob at all (L2 occupancy
#: follows the destination's geometry), and llc/ipc saturate at the
#: knob clamp range when the source and destination hierarchies differ
#: severalfold (a 1MB→256KB L2 or 2.1→3.5GHz core moves the physical
#: counters further than any knob can chase — exactly the drift fig7
#: plots). Caller ``tolerances`` override per metric.
MIGRATION_TOLERANCES = {
    "ipc": MetricTolerance("ipc", relative=0.45),
    "l1i": MetricTolerance("l1i", relative=0.25, absolute=0.03),
    "l1d": MetricTolerance("l1d", relative=0.25, absolute=0.03),
    "l2": MetricTolerance("l2", relative=0.0, absolute=0.40),
    "llc": MetricTolerance("llc", relative=0.80, absolute=0.40),
    "branch": MetricTolerance("branch", relative=0.35, absolute=0.01),
}


@dataclass
class MigrationResult:
    """Outcome of a published (gate-passing) migration."""

    preflight: PreflightReport
    fidelity: FidelityReport
    #: final per-tier knob vectors written into the migrated bundle
    knobs: Dict[str, TuningKnobs]
    #: tier → knob → {"from": source value, "to": destination value}
    retune_deltas: Dict[str, Dict[str, Dict[str, float]]]
    tuning_iterations: Dict[str, int]
    #: human-readable remediation ladder steps taken (empty = clean run)
    remediation: List[str] = field(default_factory=list)
    #: the full stamped ``ditto-migration/1`` document
    document: dict = field(default_factory=dict)
    #: where the artifact was written (None = caller kept it in memory)
    path: Optional[Path] = None


def _tier_load(features) -> LoadSpec:
    """The load discipline the tier was profiled (and tuned) under."""
    if features.observed_closed_loop:
        return LoadSpec.closed_loop(max(1, features.observed_connections))
    return LoadSpec.open_loop(max(100.0, features.observed_qps))


def _scoped_metrics(needed: List[str]) -> tuple:
    """The tune/update metric subset paired with the stale knobs."""
    wanted = set(needed)
    return tuple(
        metric for metric in _TUNE_METRICS
        if (metric == "ipc" and "ilp_scale" in wanted)
        or KNOB_FOR_METRIC.get(metric) in wanted)


def migrate_request(
    request: MigrationRequest,
    out_path=None,
    *,
    observer: Optional[CloneObserver] = None,
) -> MigrationResult:
    """Migrate ``request.bundle_path`` to ``request.destination``.

    Returns a :class:`MigrationResult` whose document was written
    atomically to ``out_path`` (when given). Refusals raise a typed
    :class:`~repro.util.errors.MigrationError` whose ``stage`` is
    ``"preflight"`` (blocking verdicts, zero tuning work spent),
    ``"retune"`` (watchdog budgets exhausted the remediation ladder) or
    ``"gate"`` (destination fidelity failed after remediation); a
    corrupt source bundle raises ``ArtifactIntegrityError`` after
    quarantining the file. ``observer`` hears the stages through the
    cloner's hooks — preflight as phase ``"profiling"``, re-tune as
    ``"tuning"`` (re-entered per remediation rung, after
    ``on_remediation``), the gate as ``"validating"`` — which is how a
    fleet job runs a migration through the clone lifecycle states.

    Determinism: same bundle bytes + same request → byte-identical
    output document (no timestamps, named-stream remediation seeds,
    deterministic tuning), which is what lets the fleet's crash/resume
    tests diff a recovered migration against a never-crashed control.
    """
    observer = observer if observer is not None else CloneObserver()
    bundle_path = request.bundle_path
    destination = request.destination
    seed = request.seed
    max_tune_iterations = request.max_tune_iterations
    document = read_bundle_document(bundle_path)
    observer.on_phase("profiling", reason="preflight")
    source = (request.source_platform
              if request.source_platform is not None
              else bundle_source_platform(document))
    if source is None:
        raise MigrationError(
            f"{bundle_path}: bundle records no source platform "
            "(pre-provenance bundle) — pass source_platform explicitly",
            stage="preflight", blocking=["bundle/source_platform"])
    preflight = run_preflight(
        document, source=source, destination=destination,
        destination_nodes=request.destination_nodes,
        allow_degraded=request.allow_degraded)
    if not preflight.passed:
        blocking = preflight.blocking()
        raise MigrationError(
            f"preflight refused {source.name}→{destination.name} "
            f"migration of {bundle_path}: blocking objects "
            + ", ".join(blocking),
            stage="preflight", blocking=blocking, report=preflight)

    features = {name: decode_features(data)
                for name, data in document["tiers"].items()}
    stored_knobs = {name: TuningKnobs(**data)
                    for name, data in
                    document.get("tuned_knobs", {}).items()}
    retune = preflight.retune_knobs()
    policy = (request.remediation if request.remediation is not None
              else RemediationPolicy())
    gate = FidelityGate({**MIGRATION_TOLERANCES,
                         **(request.tolerances or {})})

    def config_for(run_seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            platform=destination, duration_s=request.duration_s,
            seed=run_seed, max_sim_events=request.max_sim_events,
            sim_deadline_s=request.sim_deadline_s)

    def tune_tier(tier: str, run_seed: int, budget: int,
                  metrics: tuple):
        return fine_tune(
            features[tier], config_for(run_seed),
            load=_tier_load(features[tier]),
            base_config=GeneratorConfig(
                knobs=stored_knobs.get(tier, TuningKnobs())),
            max_iterations=budget, tolerance=request.tune_tolerance,
            metrics=metrics or _TUNE_METRICS)

    # ------------------------------------------------------------- #
    # stage 2: warm-started, scoped re-tune of NEEDS_RETUNE knobs
    # ------------------------------------------------------------- #
    observer.on_phase("tuning", reason="retune")
    knobs: Dict[str, TuningKnobs] = {}
    iterations: Dict[str, int] = {}
    remediation_log: List[str] = []
    for tier in sorted(features):
        base = stored_knobs.get(tier, TuningKnobs())
        stale = retune.get(tier, [])
        if not stale:
            knobs[tier] = base
            iterations[tier] = 0
            continue
        metrics = _scoped_metrics(stale)
        attempt, run_seed, budget = 0, seed, max_tune_iterations
        while True:
            try:
                result = tune_tier(tier, run_seed, budget, metrics)
            except SimBudgetExceededError as trip:
                step = policy.plan(
                    attempt + 1, reason="sim_budget", base_seed=seed,
                    base_tune_iterations=max_tune_iterations)
                if step is None:
                    raise MigrationError(
                        f"{tier}: destination re-tune exhausted the "
                        f"remediation ladder on simulation budgets "
                        f"({trip})", stage="retune",
                        blocking=[f"{tier}/{knob}" for knob in stale],
                        report=preflight) from trip
                attempt = step.attempt
                run_seed, budget = step.seed, step.max_tune_iterations
                remediation_log.append(
                    f"{tier}: sim_budget → attempt {attempt} "
                    f"(seed {run_seed}, {budget} iterations)")
                observer.on_remediation(step)
                observer.on_phase("tuning", attempt=attempt,
                                  reason=step.reason)
                continue
            break
        knobs[tier] = result.knobs
        iterations[tier] = result.iterations

    # ------------------------------------------------------------- #
    # stage 3: destination fidelity gate (with remediation ladder)
    # ------------------------------------------------------------- #
    observer.on_phase("validating", reason="gate")

    def gate_tier(tier: str, run_seed: int) -> FidelityReport:
        measured, _spec = _measure(
            features[tier], GeneratorConfig(knobs=knobs[tier]),
            config_for(run_seed), _tier_load(features[tier]))
        return gate.compare_counters(
            tier, features[tier].target_counters, measured,
            platform=destination.name, seed=run_seed)

    gated = [tier for tier in sorted(features)
             if features[tier].target_counters is not None]
    tier_reports: Dict[str, FidelityReport] = {}
    failed: List[str] = []
    for tier in gated:
        tier_reports[tier] = gate_tier(tier, seed)
        if not tier_reports[tier].passed:
            failed.append(tier)
    attempt = 0
    while failed:
        attempt += 1
        step = policy.plan(
            attempt, reason="gate_failure", base_seed=seed,
            base_tune_iterations=max_tune_iterations)
        if step is None:
            merged = _merge_reports(tier_reports, document, destination,
                                    seed)
            blocking = [f"{tier}/{check.metric}" for tier in failed
                        for check in tier_reports[tier].failures()]
            raise MigrationError(
                f"destination gate failed for {', '.join(failed)} on "
                f"{destination.name} after exhausting the remediation "
                "ladder — refusing to publish",
                stage="gate", blocking=blocking, report=merged)
        remediation_log.append(
            f"{'+'.join(failed)}: gate_failure → attempt {step.attempt} "
            f"(seed {step.seed}, {step.max_tune_iterations} iterations)")
        observer.on_remediation(step)
        observer.on_phase("tuning", attempt=step.attempt,
                          reason=step.reason)
        for tier in failed:
            # A gate failure widens the scope: re-tune over the full
            # metric set, still warm-started from the source knobs.
            try:
                result = tune_tier(tier, step.seed,
                                   step.max_tune_iterations,
                                   _TUNE_METRICS)
            except SimBudgetExceededError as trip:
                raise MigrationError(
                    f"{tier}: remediation re-tune tripped its "
                    f"simulation budget ({trip})", stage="retune",
                    blocking=[f"{tier}/remediation"],
                    report=preflight) from trip
            knobs[tier] = result.knobs
            iterations[tier] = iterations.get(tier, 0) + result.iterations
        observer.on_phase("validating", attempt=step.attempt,
                          reason="gate")
        still_failed = []
        for tier in failed:
            tier_reports[tier] = gate_tier(tier, step.seed)
            if not tier_reports[tier].passed:
                still_failed.append(tier)
        failed = still_failed

    fidelity = _merge_reports(tier_reports, document, destination, seed)
    deltas = {
        tier: {
            knob: {"from": getattr(stored_knobs.get(tier, TuningKnobs()),
                                   knob),
                   "to": getattr(knobs[tier], knob)}
            for knob in (f.name for f in dataclasses.fields(TuningKnobs))
            if getattr(stored_knobs.get(tier, TuningKnobs()), knob)
            != getattr(knobs[tier], knob)
        }
        for tier in sorted(features)
    }
    deltas = {tier: changed for tier, changed in deltas.items() if changed}

    # ------------------------------------------------------------- #
    # publish: stamped ditto-migration/1 superset document
    # ------------------------------------------------------------- #
    out_document = {
        "format": MIGRATION_FORMAT,
        "version": MIGRATION_VERSION,
        "entry_service": document["entry_service"],
        "placements": (dict(preflight.consolidated_placements)
                       or dict(document.get("placements", {}))),
        "tiers": document["tiers"],
        "tuned_knobs": {tier: dataclasses.asdict(vector)
                        for tier, vector in knobs.items()},
        "source_platform": platform_to_dict(source),
        "migration": {
            "source": source.name,
            "destination": destination.name,
            "destination_platform": platform_to_dict(destination),
            "seed": seed,
            "preflight": preflight.to_dict(),
            "fidelity": fidelity.to_dict(),
            "retune": deltas,
            "tuning_iterations": dict(iterations),
            "remediation": list(remediation_log),
        },
    }
    integrity.stamp_json(out_document)
    path = None
    if out_path is not None:
        path = write_migration_document(out_document, out_path)
    return MigrationResult(
        preflight=preflight, fidelity=fidelity, knobs=knobs,
        retune_deltas=deltas, tuning_iterations=iterations,
        remediation=remediation_log, document=out_document, path=path)


def write_migration_document(document: dict, path) -> Path:
    """Atomically write a stamped ``ditto-migration/1`` document.

    Same bytes discipline as :func:`repro.core.bundle.save_bundle`
    (sorted keys, ``indent=1``, tmp + ``os.replace``), so a crash
    mid-publish leaves the previous artifact, never half of the new
    one — and the same document always serialises to the same bytes.
    """
    path = Path(path)
    scratch = Path(f"{path}.tmp-{os.getpid()}")
    scratch.write_text(json.dumps(document, indent=1, sort_keys=True))
    os.replace(scratch, path)
    return path


def _merge_reports(tier_reports: Dict[str, FidelityReport],
                   document: dict, destination: PlatformSpec,
                   seed: int) -> FidelityReport:
    """Fold per-tier gate reports into one deployment-level report."""
    merged = FidelityReport(
        label=document.get("entry_service", ""),
        platform=destination.name, seed=seed, mode="counters")
    for tier in sorted(tier_reports):
        merged.checks.extend(tier_reports[tier].checks)
    return merged

