"""Text summary of a saved telemetry run (or a fleet's artifacts).

``python -m repro.telemetry.report run.json`` prints where a clone run
spent its time (wall-clock stages aggregated from pipeline spans),
experiment-cache effectiveness, the leading metrics, and what the
simulated-time timeline recorded. ``--prometheus`` additionally dumps
the raw registry in text exposition format.

Inputs are detected per path:

- a :meth:`repro.telemetry.session.Telemetry.save` document
  (``ditto-telemetry-run/2``) → the classic run summary; a document
  of any other format is refused;
- a fleet fidelity artifact (``ditto-fleet-fidelity/1``, written next
  to every gated published job) → the per-metric fidelity table;
- a migrated clone bundle (``ditto-migration/1``, published by
  ``python -m repro.migrate``) → the preflight verdict sheet, re-tuned
  knob deltas and destination-gate table;
- a fleet store *directory* → one section per job (state history,
  remediation ladder, fidelity verdict) plus the flight-log summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from repro.telemetry.chrometrace import TraceEvent
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.session import RUN_FORMAT
from repro.util.errors import ConfigurationError

__all__ = [
    "load_run",
    "main",
    "render_fidelity_artifact",
    "render_fleet_report",
    "render_migration_document",
    "render_report",
    "run_events",
]

#: how many metric series the "top metrics" section shows
TOP_METRICS = 15


def load_run(path: str) -> dict:
    """Read a saved telemetry run document from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_events(doc: dict) -> List[TraceEvent]:
    """The events of a saved telemetry run; refuses any other document."""
    if doc.get("format") != RUN_FORMAT:
        raise ConfigurationError(
            f"not a saved telemetry run: format {doc.get('format')!r} "
            f"(expected {RUN_FORMAT!r})")
    return [TraceEvent.from_dict(entry) for entry in doc["events"]]


def _stage_table(spans: List[TraceEvent]) -> List[str]:
    lines = [f"{'stage':<32}{'count':>7}{'total s':>12}{'mean s':>12}"
             f"{'max s':>12}"]
    grouped: Dict[str, List[TraceEvent]] = {}
    for record in spans:
        grouped.setdefault(record.name, []).append(record)
    ordered = sorted(grouped.items(),
                     key=lambda item: -sum(r.dur for r in item[1]))
    for name, records in ordered:
        durations = [r.duration_s for r in records]
        total = sum(durations)
        lines.append(f"{name:<32}{len(records):>7}{total:>12.4f}"
                     f"{total / len(durations):>12.4f}"
                     f"{max(durations):>12.4f}")
    return lines


def _cache_table(metrics: dict) -> Optional[List[str]]:
    def series(metric_name: str) -> Dict[str, float]:
        entry = metrics.get(metric_name)
        if entry is None:
            return {}
        return {s["labels"].get("cache", ""): s["value"]
                for s in entry["series"]}

    hits = series("ditto_expcache_hits_total")
    misses = series("ditto_expcache_misses_total")
    bypasses = series("ditto_expcache_bypasses_total")
    evictions = series("ditto_expcache_evictions_total")
    caches = sorted(set(hits) | set(misses) | set(bypasses)
                    | set(evictions))
    if not caches:
        return None
    lines = [f"{'cache':<24}{'hits':>8}{'misses':>8}{'bypass':>8}"
             f"{'evict':>8}{'hit rate':>10}"]
    totals = [0.0, 0.0, 0.0, 0.0]
    for cache in caches:
        row = (hits.get(cache, 0.0), misses.get(cache, 0.0),
               bypasses.get(cache, 0.0), evictions.get(cache, 0.0))
        totals = [t + v for t, v in zip(totals, row)]
        lookups = row[0] + row[1]
        rate = row[0] / lookups if lookups else 0.0
        lines.append(f"{cache:<24}{row[0]:>8.0f}{row[1]:>8.0f}"
                     f"{row[2]:>8.0f}{row[3]:>8.0f}{rate:>10.1%}")
    if len(caches) > 1:
        lookups = totals[0] + totals[1]
        rate = totals[0] / lookups if lookups else 0.0
        lines.append(f"{'(all)':<24}{totals[0]:>8.0f}{totals[1]:>8.0f}"
                     f"{totals[2]:>8.0f}{totals[3]:>8.0f}{rate:>10.1%}")
    return lines


def _top_metrics(metrics: dict) -> List[str]:
    rows = []
    for name in sorted(metrics):
        entry = metrics[name]
        if entry["type"] == "histogram":
            for s in entry["series"]:
                labels = _label_text(s["labels"])
                rows.append((s["count"],
                             f"{name}{labels} count={s['count']} "
                             f"sum={s['sum']:.4g}"))
        else:
            for s in entry["series"]:
                labels = _label_text(s["labels"])
                rows.append((abs(s["value"]),
                             f"{name}{labels} = {s['value']:g}"))
    rows.sort(key=lambda row: -row[0])
    return [text for _, text in rows[:TOP_METRICS]]


def _label_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) \
        + "}"


def _timeline_lines(events: List[TraceEvent], dropped: int) -> List[str]:
    if not events:
        return ["(no simulated-time events recorded)"]
    lines = []
    per_run: Dict[int, List[TraceEvent]] = {}
    for event in events:
        per_run.setdefault(event.clock, []).append(event)
    for run in sorted(per_run):
        in_run = per_run[run]
        tracks = sorted({e.track for e in in_run})
        extent_us = max(e.ts + e.dur for e in in_run)
        lines.append(f"run {run} ({in_run[0].row}): {len(in_run)} events, "
                     f"{len(tracks)} tracks, {extent_us / 1e3:.2f} ms sim "
                     f"time")
        lines.append("  tracks: " + ", ".join(tracks[:8])
                     + (" ..." if len(tracks) > 8 else ""))
    if dropped:
        lines.append(f"(capped: {dropped} simulated-time events dropped)")
    return lines


def render_report(doc: dict) -> str:
    """Render the saved-run document as the summary table."""
    events = run_events(doc)
    sections: List[str] = []
    label = doc.get("label") or "(unlabelled run)"
    sections.append(f"telemetry report — {label}")
    spans = [event for event in events if event.clock is None]
    sections.append("\n== pipeline stages (wall clock) ==")
    if spans:
        rows = {record.row for record in spans}
        sections.extend(_stage_table(spans))
        sections.append(f"({len(spans)} spans from {len(rows)} "
                        f"process{'es' if len(rows) != 1 else ''})")
    else:
        sections.append("(no spans recorded)")
    metrics = doc.get("metrics", {})
    cache_lines = _cache_table(metrics)
    if cache_lines:
        sections.append("\n== experiment cache ==")
        sections.extend(cache_lines)
    sections.append("\n== top metrics ==")
    top = _top_metrics(metrics)
    sections.extend(top if top else ["(registry is empty)"])
    sections.append("\n== simulated timeline ==")
    sections.extend(_timeline_lines(
        [event for event in events if event.clock is not None],
        doc["sim_dropped"]))
    return "\n".join(sections)


def render_fidelity_artifact(doc: dict) -> str:
    """Summarize one fleet fidelity artifact (per-metric table)."""
    from repro.validation.gate import FidelityReport
    report = FidelityReport.from_dict(doc.get("report", doc))
    job_id = doc.get("job_id", "")
    header = (f"fleet fidelity artifact — job {job_id}" if job_id
              else "fidelity artifact")
    return header + "\n" + report.summary()


def render_migration_document(doc: dict) -> str:
    """Summarize one ``ditto-migration/1`` artifact.

    Three sections mirror the pipeline's three stages: the preflight
    verdict sheet, the warm-start re-tune (knob deltas + iterations per
    tier), and the destination fidelity gate's per-metric table.
    """
    from repro.migrate.preflight import PreflightReport
    from repro.validation.gate import FidelityReport

    migration = doc.get("migration", {})
    sections = [f"migration artifact — {migration.get('source', '?')} -> "
                f"{migration.get('destination', '?')} "
                f"(entry {doc.get('entry_service', '?')}, "
                f"seed {migration.get('seed', '?')})"]
    sections.append("\n== preflight ==")
    sections.append(PreflightReport.from_dict(
        migration.get("preflight", {})).summary())
    sections.append("\n== re-tune ==")
    deltas = migration.get("retune", {})
    iterations = migration.get("tuning_iterations", {})
    if deltas:
        for tier in sorted(deltas):
            spent = iterations.get(tier, 0)
            sections.append(f"{tier} ({spent} iteration"
                            f"{'s' if spent != 1 else ''}):")
            for knob, move in sorted(deltas[tier].items()):
                sections.append(f"  {knob:<20} {move['from']:.4g} -> "
                                f"{move['to']:.4g}")
    else:
        sections.append("(every knob transferred unchanged)")
    for step in migration.get("remediation", []):
        sections.append(f"remediation: {step}")
    sections.append("\n== destination gate ==")
    sections.append(FidelityReport.from_dict(
        migration.get("fidelity", {})).summary())
    return "\n".join(sections)


def render_fleet_report(store_root: str) -> str:
    """One section per fleet job, plus the flight-log summary.

    Imports stay local so the telemetry layer keeps no hard dependency
    on the fleet package (it is the fleet that builds on telemetry).
    """
    from repro.fleet.obs.flight import read_flight_log
    from repro.fleet.store import JobStore
    from repro.validation.gate import FidelityReport

    store = JobStore(store_root, flight=False)
    sections = [f"fleet report — {store_root}"]
    records = store.list()
    if not records:
        sections.append("(store holds no jobs)")
    for record in records:
        sections.append(f"\n== job {record.job_id} "
                        f"({record.state.value}) ==")
        sections.append(record.spec.describe())
        for edge in record.history:
            reason = f"  ({edge.reason})" if edge.reason else ""
            sections.append(f"  {edge.from_state.value} -> "
                            f"{edge.to_state.value}{reason}")
        if record.attempts:
            sections.append(f"  remediation rungs climbed: "
                            f"{record.attempts}")
        if record.error:
            sections.append(f"  error: {record.error}")
        fidelity_path = store.fidelity_path(record.job_id)
        if os.path.exists(fidelity_path):
            try:
                artifact = load_run(fidelity_path)
                report = FidelityReport.from_dict(
                    artifact.get("report", {}))
            except (ValueError, KeyError, TypeError):
                sections.append("  (fidelity artifact unreadable)")
            else:
                sections.extend("  " + line
                                for line in report.summary().splitlines())
    flight = read_flight_log(store.flight_path)
    if flight.events or flight.skipped:
        sections.append("\n== flight log ==")
        counts = sorted(flight.counts().items(),
                        key=lambda kv: (-kv[1], kv[0]))
        sections.append(f"{len(flight.events)} events"
                        + (f", {flight.skipped} corrupt skipped"
                           if flight.skipped else ""))
        sections.extend(f"  {kind}: {count}" for kind, count in counts)
    return "\n".join(sections)


def _render_any(path: str, prometheus: bool) -> None:
    if os.path.isdir(path):
        print(render_fleet_report(path))
        return
    doc = load_run(path)
    if doc.get("format") == "ditto-fleet-fidelity/1":
        print(render_fidelity_artifact(doc))
        return
    if doc.get("format") == "ditto-migration":
        print(render_migration_document(doc))
        return
    print(render_report(doc))
    if prometheus:
        registry = MetricsRegistry().merge(doc.get("metrics", {}))
        print("\n== prometheus exposition ==")
        print(registry.to_prometheus_text(), end="")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: summarize runs, fleet artifacts, or stores."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report",
        description="Summarize saved Ditto telemetry runs and fleet "
                    "artifacts.")
    parser.add_argument("run", nargs="+",
                        help="telemetry run JSON (Telemetry.save "
                        "output), fleet fidelity artifact, or a fleet "
                        "store directory")
    parser.add_argument("--prometheus", action="store_true",
                        help="also dump the metrics registry in "
                        "Prometheus text exposition format")
    args = parser.parse_args(argv)
    for index, path in enumerate(args.run):
        if index:
            print()
        try:
            _render_any(path, args.prometheus)
        except ConfigurationError as error:
            print(f"{path}: {error}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":    # pragma: no cover - exercised via CLI
    raise SystemExit(main())
