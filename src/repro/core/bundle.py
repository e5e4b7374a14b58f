"""Shareable clone bundles (§7.2's confidentiality story, made concrete).

The whole point of Ditto is that an application owner can hand a third
party something that *performs* like the production service without
*being* it. The shareable artifact is the per-tier feature set — post-
processed statistics plus the skeleton — and nothing else. This module
serialises :class:`~repro.core.features.ServiceFeatures` to a versioned
JSON bundle, deserialises it, and regenerates a runnable synthetic
deployment from the bundle alone. A small audit helper verifies the
bundle leaks none of the original's identifiers.

Bundle v2 adds two things on top of v1's tier features:

- an embedded ``integrity`` stanza (canonical-JSON SHA-256, see
  :func:`repro.validation.integrity.stamp_json`) so a damaged bundle is
  quarantined and reported instead of silently regenerating a wrong
  clone — v1 bundles (no stanza) still load;
- optional per-tier **tuned knobs** (the fine-tuner's output), so a
  consumer regenerates the *calibrated* clone, not the pre-tuning one —
  which is what ``python -m repro.validation`` gates a bundle on.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.app.service import Deployment, Placement, ServiceSpec
from repro.core.body_gen import GeneratorConfig, TuningKnobs, generate_program
from repro.core.features import ServiceFeatures
from repro.core.skeleton_gen import generate_skeleton
from repro.app.skeleton import ClientNetworkModel, ServerNetworkModel
from repro.hw.core import BlockTiming
from repro.profiling.branches import BranchProfile
from repro.profiling.deps import DependencyDistanceProfile
from repro.profiling.instmix import InstructionMixProfile
from repro.profiling.netmodel import NetworkModelProfile
from repro.profiling.syscalls import SyscallProfile, SyscallTemplateEntry
from repro.profiling.threads import (
    ReconstructedThreadClass,
    ThreadModelProfile,
)
from repro.runtime.metrics import ServiceMetrics
from repro.util.errors import ArtifactIntegrityError, ConfigurationError
from repro.util.stats import Histogram, OnlineStats
from repro.validation import integrity

BUNDLE_FORMAT = "ditto-clone-bundle"
BUNDLE_VERSION = 2

#: migrated bundles: a superset of the clone-bundle document (same
#: tiers/knobs/placements, loadable by everything below) plus a
#: ``migration`` stanza holding the preflight verdicts, per-knob retune
#: deltas and the destination fidelity report — see ``repro.migrate``
MIGRATION_FORMAT = "ditto-migration"
MIGRATION_VERSION = 1


# --------------------------------------------------------------------- #
# per-piece encoders/decoders
# --------------------------------------------------------------------- #
def _encode_mix(mix: InstructionMixProfile) -> dict:
    return {
        "mix": {str(k): v for k, v in mix.mix.counts.items()},
        "instructions_per_request": mix.instructions_per_request,
        "by_handler": dict(mix.instructions_per_request_by_handler),
        "rep_counts": dict(mix.rep_counts),
        "clusters": [list(c) for c in mix.clusters],
    }


def _decode_mix(data: dict) -> InstructionMixProfile:
    profile = InstructionMixProfile()
    profile.mix = Histogram(dict(data["mix"]))
    profile.instructions_per_request = data["instructions_per_request"]
    profile.instructions_per_request_by_handler = dict(data["by_handler"])
    profile.rep_counts = dict(data["rep_counts"])
    profile.clusters = [list(c) for c in data["clusters"]]
    return profile


def _encode_branches(branches: BranchProfile) -> dict:
    return {
        "bins": [
            {"m": m, "n": n, "taken_dominant": bool(direction),
             "weight": weight}
            for (m, n, direction), weight in
            branches.rate_distribution.counts.items()
        ],
        "static_sites": branches.static_sites,
        "mean_taken_rate": branches.mean_taken_rate,
        "mean_transition_rate": branches.mean_transition_rate,
    }


def _decode_branches(data: dict) -> BranchProfile:
    profile = BranchProfile()
    for entry in data["bins"]:
        profile.rate_distribution.add(
            (entry["m"], entry["n"], entry["taken_dominant"]),
            entry["weight"])
    profile.static_sites = data["static_sites"]
    profile.mean_taken_rate = data["mean_taken_rate"]
    profile.mean_transition_rate = data["mean_transition_rate"]
    return profile


def _encode_deps(deps: DependencyDistanceProfile) -> dict:
    return {
        "raw": {str(k): v for k, v in deps.raw.items()},
        "war": {str(k): v for k, v in deps.war.items()},
        "waw": {str(k): v for k, v in deps.waw.items()},
        "pointer_chase_frac": deps.pointer_chase_frac,
    }


def _decode_deps(data: dict) -> DependencyDistanceProfile:
    return DependencyDistanceProfile(
        raw={int(k): v for k, v in data["raw"].items()},
        war={int(k): v for k, v in data["war"].items()},
        waw={int(k): v for k, v in data["waw"].items()},
        pointer_chase_frac=data["pointer_chase_frac"],
    )


def _encode_syscalls(syscalls: SyscallProfile) -> dict:
    return {
        "templates": {
            operation: [
                {"name": e.name, "count": e.count_per_request,
                 "bytes": e.mean_bytes, "file": e.file, "write": e.write,
                 "position": e.mean_position}
                for e in entries
            ]
            for operation, entries in syscalls.templates.items()
        },
        "counts_per_request": dict(syscalls.counts_per_request),
        "files_seen": dict(syscalls.files_seen),
    }


def _decode_syscalls(data: dict) -> SyscallProfile:
    profile = SyscallProfile()
    for operation, entries in data["templates"].items():
        profile.templates[operation] = [
            SyscallTemplateEntry(
                name=e["name"], count_per_request=e["count"],
                mean_bytes=e["bytes"], file=e["file"], write=e["write"],
                mean_position=e["position"])
            for e in entries
        ]
    profile.counts_per_request = dict(data["counts_per_request"])
    profile.files_seen = dict(data["files_seen"])
    return profile


def _encode_threads(threads: ThreadModelProfile) -> dict:
    return {
        "classes": [
            {"name": c.name, "role": c.role, "count": c.count,
             "scales": c.scales_with_connections, "trigger": c.trigger,
             "short_lived": c.short_lived}
            for c in threads.classes
        ]
    }


def _decode_threads(data: dict) -> ThreadModelProfile:
    return ThreadModelProfile(classes=[
        ReconstructedThreadClass(
            name=c["name"], role=c["role"], count=c["count"],
            scales_with_connections=c["scales"], trigger=c["trigger"],
            short_lived=c["short_lived"])
        for c in data["classes"]
    ])


def _encode_network(network: NetworkModelProfile) -> dict:
    return {
        "server_model": network.server_model.value,
        "client_model": network.client_model.value,
        "rx_mean": network.rx_bytes.mean,
        "rx_count": network.rx_bytes.count,
        "tx_mean": network.tx_bytes.mean,
        "tx_count": network.tx_bytes.count,
        "waits_per_request": network.waits_per_request,
        "rx_per_request": network.rx_per_request,
        "tx_per_request": network.tx_per_request,
    }


def _decode_network(data: dict) -> NetworkModelProfile:
    rx = OnlineStats(count=data["rx_count"], mean=data["rx_mean"])
    tx = OnlineStats(count=data["tx_count"], mean=data["tx_mean"])
    return NetworkModelProfile(
        server_model=ServerNetworkModel(data["server_model"]),
        client_model=ClientNetworkModel(data["client_model"]),
        rx_bytes=rx, tx_bytes=tx,
        waits_per_request=data["waits_per_request"],
        rx_per_request=data["rx_per_request"],
        tx_per_request=data["tx_per_request"],
    )


def _encode_counters(counters: Optional[ServiceMetrics]) -> Optional[dict]:
    if counters is None:
        return None
    return {
        "ipc": counters.ipc,
        "branch": counters.branch_mispredict_rate,
        "l1i": counters.l1i_miss_rate,
        "l1d": counters.l1d_miss_rate,
        "l2": counters.l2_miss_rate,
        "llc": counters.llc_miss_rate,
        "instructions_per_request": counters.instructions_per_request,
    }


def _decode_counters(data: Optional[dict]) -> Optional[ServiceMetrics]:
    if data is None:
        return None
    # Reconstruct a ServiceMetrics whose derived properties reproduce the
    # exported values (the tuner only consumes the derived metrics).
    cycles = 1e9
    instructions = data["ipc"] * cycles
    branches = max(1.0, instructions * 0.1)
    l1i_accesses = max(1.0, instructions / 4.0)
    l1d_accesses = max(1.0, instructions * 0.3)
    l2_accesses = max(1.0, l1d_accesses * max(1e-9, data["l1d"]))
    llc_accesses = max(1.0, l2_accesses * max(1e-9, data["l2"]))
    metrics = ServiceMetrics()
    metrics.absorb(BlockTiming(
        cycles=cycles,
        instructions=instructions,
        uops=instructions * 1.1,
        branches=branches,
        branch_mispredictions=branches * data["branch"],
        l1i_accesses=l1i_accesses,
        l1i_misses=l1i_accesses * data["l1i"],
        l1d_accesses=l1d_accesses,
        l1d_misses=l1d_accesses * data["l1d"],
        l2_accesses=l2_accesses,
        l2_misses=l2_accesses * data["l2"],
        llc_accesses=llc_accesses,
        llc_misses=llc_accesses * data["llc"],
    ))
    ipr = data.get("instructions_per_request", 0.0)
    metrics.requests = int(instructions / ipr) if ipr else 0
    return metrics


# --------------------------------------------------------------------- #
# bundle-level API
# --------------------------------------------------------------------- #
def encode_features(features: ServiceFeatures) -> dict:
    """Serialise one tier's feature set to a JSON-safe dict."""
    return {
        "service": features.service,
        "mix": _encode_mix(features.mix),
        "branches": _encode_branches(features.branches),
        "deps": _encode_deps(features.deps),
        "syscalls": _encode_syscalls(features.syscalls),
        "threads": _encode_threads(features.threads),
        "network": _encode_network(features.network),
        "data_wsets": {str(k): v for k, v in features.data_wsets.items()},
        "instr_wsets": {str(k): v for k, v in features.instr_wsets.items()},
        "regular_ratio": features.regular_ratio,
        "regular_ratio_large": features.regular_ratio_large,
        "chase_ratio_large": features.chase_ratio_large,
        "shared_ratio": features.shared_ratio,
        "write_frac": features.write_frac,
        "handler_mix": dict(features.handler_mix),
        "rpc_calls": {
            handler: [list(call) for call in calls]
            for handler, calls in features.rpc_calls.items()
        },
        "resident_bytes": features.resident_bytes,
        "hot_code_bytes": features.hot_code_bytes,
        "file_sizes": dict(features.file_sizes),
        "target_counters": _encode_counters(features.target_counters),
        "observed_qps": features.observed_qps,
        "observed_connections": features.observed_connections,
        "observed_closed_loop": features.observed_closed_loop,
    }


def decode_features(data: dict) -> ServiceFeatures:
    """Deserialise one tier's feature set."""
    return ServiceFeatures(
        service=data["service"],
        mix=_decode_mix(data["mix"]),
        branches=_decode_branches(data["branches"]),
        deps=_decode_deps(data["deps"]),
        syscalls=_decode_syscalls(data["syscalls"]),
        threads=_decode_threads(data["threads"]),
        network=_decode_network(data["network"]),
        data_wsets={int(k): v for k, v in data["data_wsets"].items()},
        instr_wsets={int(k): v for k, v in data["instr_wsets"].items()},
        regular_ratio=data["regular_ratio"],
        regular_ratio_large=data["regular_ratio_large"],
        chase_ratio_large=data["chase_ratio_large"],
        shared_ratio=data["shared_ratio"],
        write_frac=data["write_frac"],
        handler_mix=dict(data["handler_mix"]),
        rpc_calls={
            handler: [tuple(call) for call in calls]
            for handler, calls in data["rpc_calls"].items()
        },
        resident_bytes=data["resident_bytes"],
        hot_code_bytes=data["hot_code_bytes"],
        file_sizes=dict(data["file_sizes"]),
        target_counters=_decode_counters(data["target_counters"]),
        observed_qps=data["observed_qps"],
        observed_connections=data["observed_connections"],
        observed_closed_loop=data["observed_closed_loop"],
    )


def save_bundle(
    features_by_service: Dict[str, ServiceFeatures],
    path,
    entry_service: str,
    placements: Optional[Dict[str, str]] = None,
    tuned_knobs: Optional[Dict[str, TuningKnobs]] = None,
    source_platform=None,
) -> Path:
    """Write a shareable clone bundle to ``path``.

    The document is digest-stamped (canonical-JSON SHA-256 embedded in
    an ``integrity`` stanza) and written atomically — a crash mid-write
    leaves the previous bundle, never half of the new one. Pass the
    fine-tuner's per-tier knobs as ``tuned_knobs`` so consumers
    regenerate the calibrated clone, and the profiling platform as
    ``source_platform`` so migration preflight knows what environment
    the ``target_counters`` were tuned on. The stanza is only added
    when a platform is given — bundles written without one keep their
    historical bytes (and digests) exactly.
    """
    if entry_service not in features_by_service:
        raise ConfigurationError(
            f"entry service {entry_service!r} not among the tiers")
    for name in tuned_knobs or {}:
        if name not in features_by_service:
            raise ConfigurationError(
                f"tuned knobs for unknown tier {name!r}")
    document = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "entry_service": entry_service,
        "placements": dict(placements or {}),
        "tiers": {
            name: encode_features(features)
            for name, features in features_by_service.items()
        },
        "tuned_knobs": {
            name: dataclasses.asdict(knobs)
            for name, knobs in (tuned_knobs or {}).items()
        },
    }
    if source_platform is not None:
        from repro.hw.platform import platform_to_dict
        document["source_platform"] = platform_to_dict(source_platform)
    integrity.stamp_json(document)
    path = Path(path)
    scratch = Path(f"{path}.tmp-{os.getpid()}")
    scratch.write_text(json.dumps(document, indent=1, sort_keys=True))
    os.replace(scratch, path)
    return path


def read_bundle_document(path) -> dict:
    """Parse and integrity-check a bundle file; returns the raw document.

    Undecodable or digest-mismatching bundles are quarantined (moved to
    ``<path>.quarantined``, counted in telemetry) and raise
    :class:`~repro.util.errors.ArtifactIntegrityError` — a corrupt
    bundle must never silently regenerate a wrong clone. v1 documents
    (written before stamping existed) carry no stanza and pass.
    """
    text = Path(path).read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        moved = integrity.quarantine_and_report(
            str(path), schema=BUNDLE_FORMAT, reason="undecodable")
        raise ArtifactIntegrityError(
            f"{path}: bundle is not valid JSON ({error})"
            + (f"; quarantined to {moved}" if moved else ""),
            path=str(path), reason="undecodable",
            quarantined_to=moved) from error
    fmt = document.get("format")
    if fmt == BUNDLE_FORMAT:
        if document.get("version") not in range(1, BUNDLE_VERSION + 1):
            raise ConfigurationError(
                f"unsupported bundle version {document.get('version')}")
    elif fmt == MIGRATION_FORMAT:
        # A migrated bundle is a strict superset of a clone bundle, so
        # everything downstream (load/regenerate/validate) just works.
        if document.get("version") not in range(1, MIGRATION_VERSION + 1):
            raise ConfigurationError(
                f"unsupported migration version {document.get('version')}")
    else:
        raise ConfigurationError(f"{path} is not a clone bundle")
    try:
        integrity.verify_json(document, path=str(path))
    except ArtifactIntegrityError as error:
        moved = integrity.quarantine_and_report(
            str(path), schema=fmt, reason=error.reason)
        raise ArtifactIntegrityError(
            f"{error}" + (f"; quarantined to {moved}" if moved else ""),
            path=str(path), reason=error.reason,
            quarantined_to=moved) from error
    return document


def load_bundle(path) -> Tuple[Dict[str, ServiceFeatures], str, Dict[str, str]]:
    """Read a clone bundle; returns (features, entry service, placements)."""
    document = read_bundle_document(path)
    features = {
        name: decode_features(data)
        for name, data in document["tiers"].items()
    }
    return features, document["entry_service"], dict(document["placements"])


def bundle_tuned_knobs(path) -> Dict[str, TuningKnobs]:
    """The per-tier tuned knobs stored in a bundle (empty for v1)."""
    document = read_bundle_document(path)
    return {
        name: TuningKnobs(**data)
        for name, data in document.get("tuned_knobs", {}).items()
    }


def bundle_source_platform(document: dict):
    """The source platform embedded in a bundle *document*, or None.

    Bundles written before the stanza existed (and bundles whose
    authors chose not to disclose their platform) return None —
    migration preflight then needs an explicit ``--source-platform``.
    """
    data = document.get("source_platform")
    if not data:
        return None
    from repro.hw.platform import platform_from_dict
    return platform_from_dict(data)


def deployment_from_bundle(
    path,
    config: Optional[GeneratorConfig] = None,
    default_node: str = "node0",
    use_tuned_knobs: bool = True,
) -> Deployment:
    """Regenerate a runnable synthetic deployment from a bundle alone.

    This is the consumer side of the sharing story: a hardware vendor
    with only the bundle (never the original code, binary, or traces)
    builds and runs the synthetic service. When the bundle carries
    tuned knobs (v2) and ``use_tuned_knobs`` is on, each tier is
    generated with its calibrated knob set; an explicit non-default
    ``config.knobs`` wins over the bundle's. ``path`` may also be a
    bundle document already in memory (e.g. a fresh migration result).
    """
    document = path if isinstance(path, dict) else read_bundle_document(path)
    features_by_service = {
        name: decode_features(data)
        for name, data in document["tiers"].items()
    }
    entry_service = document["entry_service"]
    placements = dict(document["placements"])
    knobs_by_tier: Dict[str, TuningKnobs] = {}
    if use_tuned_knobs:
        caller_tuned = config is not None and config.knobs != TuningKnobs()
        if not caller_tuned:
            knobs_by_tier = {
                name: TuningKnobs(**data)
                for name, data in document.get("tuned_knobs", {}).items()
            }
    services: Dict[str, ServiceSpec] = {}
    for name, features in features_by_service.items():
        tier_config = config
        if name in knobs_by_tier:
            tier_config = dataclasses.replace(
                config or GeneratorConfig(), knobs=knobs_by_tier[name])
        program, files = generate_program(features, tier_config)
        services[name] = ServiceSpec(
            name=name,
            skeleton=generate_skeleton(features.threads, features.network),
            program=program,
            request_mix=dict(features.handler_mix) or None,
            files=files,
        )
    return Deployment(
        services=services,
        placements=[
            Placement(name, placements.get(name, default_node))
            for name in services
        ],
        entry_service=entry_service,
    )


def audit_bundle_confidentiality(
    path,
    original: Deployment,
) -> List[str]:
    """Return identifiers from the original that leak into the bundle.

    Checks block names, file names, and instruction-block structure (the
    things §4.1's Abstraction principle conceals). Service and handler
    names are interface-level — the paper explicitly keeps the RPC graph
    — so they are not counted as leaks.
    """
    text = Path(path).read_text()
    leaks: List[str] = []
    for spec in original.services.values():
        for block in spec.program.all_blocks():
            if block.name in text:
                leaks.append(f"block name {block.name!r}")
        for fname in spec.files:
            if f'"{fname}"' in text:
                leaks.append(f"file name {fname!r}")
    return leaks
