"""Shareable clone bundles (§7.2's confidentiality story, made concrete).

The whole point of Ditto is that an application owner can hand a third
party something that *performs* like the production service without
*being* it. The shareable artifact is the per-tier feature set — post-
processed statistics plus the skeleton — and nothing else. This module
serialises :class:`~repro.core.features.ServiceFeatures` to a versioned
JSON bundle, deserialises it, and regenerates a runnable synthetic
deployment from the bundle alone. A small audit helper verifies the
bundle leaks none of the original's identifiers.

Bundle v2 adds three things on top of v1's tier features:

- an embedded ``integrity`` stanza (canonical-JSON SHA-256, see
  :func:`repro.validation.integrity.stamp_json`) so a damaged bundle is
  quarantined and reported instead of silently regenerating a wrong
  clone — v1 bundles (no stanza) still load;
- optional per-tier **tuned knobs** (the fine-tuner's output) and
  **generator seeds** (:attr:`~repro.core.cloner.CloneReport
  .generator_seeds`), plus the clone's non-default **generator
  switches** (the Fig. 9 stage switches and ``max_blocks``), so a
  consumer regenerates the calibrated clone bit for bit — the program
  the knobs were tuned on. Bundles without seeds regenerate with
  ``GeneratorConfig().seed``, and bundles without switches with the
  default ones.

Every consumer decodes tiers, knobs and seeds through
:func:`bundle_tiers`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, List, NoReturn, Optional, Tuple

from repro.app.service import Deployment, Placement
from repro.core.body_gen import GeneratorConfig, TuningKnobs
from repro.core.features import ServiceFeatures
from repro.core.synthesis import synthesize_service
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
#: readable document formats and the newest version of each
_FORMAT_VERSIONS = {BUNDLE_FORMAT: BUNDLE_VERSION,
                    MIGRATION_FORMAT: MIGRATION_VERSION}


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
#: ServiceFeatures fields a bundle stores as they are
_PLAIN_FIELDS = (
    "service", "regular_ratio", "regular_ratio_large", "chase_ratio_large",
    "shared_ratio", "write_frac", "resident_bytes", "hot_code_bytes",
    "observed_qps", "observed_connections", "observed_closed_loop",
)
#: (encode, decode) of an int-keyed table (JSON keys are strings)
_INT_KEYED = (lambda table: {str(k): v for k, v in table.items()},
              lambda table: {int(k): v for k, v in table.items()})
#: the other ServiceFeatures fields: name -> (encode, decode)
_FIELD_CODECS = {
    "mix": (_encode_mix, _decode_mix),
    "branches": (_encode_branches, _decode_branches),
    "deps": (_encode_deps, _decode_deps),
    "syscalls": (_encode_syscalls, _decode_syscalls),
    "threads": (_encode_threads, _decode_threads),
    "network": (_encode_network, _decode_network),
    "target_counters": (_encode_counters, _decode_counters),
    "data_wsets": _INT_KEYED,
    "instr_wsets": _INT_KEYED,
    "handler_mix": (dict, dict),
    "file_sizes": (dict, dict),
    "rpc_calls": (
        lambda calls: {handler: [list(call) for call in entries]
                       for handler, entries in calls.items()},
        lambda calls: {handler: [tuple(call) for call in entries]
                       for handler, entries in calls.items()}),
}


def encode_features(features: ServiceFeatures) -> dict:
    """Serialise one tier's feature set to a JSON-safe dict."""
    data = {name: getattr(features, name) for name in _PLAIN_FIELDS}
    for name, (encode, _decode) in _FIELD_CODECS.items():
        data[name] = encode(getattr(features, name))
    return data


def decode_features(data: dict) -> ServiceFeatures:
    """Deserialise one tier's feature set."""
    return ServiceFeatures(
        **{name: data[name] for name in _PLAIN_FIELDS},
        **{name: decode(data[name])
           for name, (_encode, decode) in _FIELD_CODECS.items()})


def save_bundle(
    features_by_service: Dict[str, ServiceFeatures],
    path,
    entry_service: str,
    placements: Optional[Dict[str, str]] = None,
    tuned_knobs: Optional[Dict[str, TuningKnobs]] = None,
    source_platform=None,
    generator_seeds: Optional[Dict[str, int]] = None,
    generator_config: Optional[GeneratorConfig] = None,
) -> Path:
    """Write a shareable clone bundle to ``path``.

    The document is digest-stamped (canonical-JSON SHA-256 embedded in
    an ``integrity`` stanza) and written atomically — a crash mid-write
    leaves the previous bundle, never half of the new one. Pass the
    fine-tuner's per-tier knobs as ``tuned_knobs`` and the clone
    report's ``generator_seeds`` and the request's ``generator_config``
    so consumers regenerate the clone bit for bit, and the profiling
    platform as ``source_platform`` so migration preflight knows where
    the ``target_counters`` were tuned. The seed and platform stanzas
    are only added when given, and the generator stanza only holds the
    stage switches and ``max_blocks`` that differ from
    ``GeneratorConfig()`` — bundles written without them keep their
    historical bytes exactly.
    """
    if entry_service not in features_by_service:
        raise ConfigurationError(
            f"entry service {entry_service!r} not among the tiers")
    for name in {**(tuned_knobs or {}), **(generator_seeds or {})}:
        if name not in features_by_service:
            raise ConfigurationError(
                f"tuned knobs or seed for unknown tier {name!r}")
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
    if generator_seeds:
        document["generator_seeds"] = dict(generator_seeds)
    if generator_config is not None:
        default = GeneratorConfig()
        changed = {
            field.name: getattr(generator_config, field.name)
            for field in dataclasses.fields(GeneratorConfig)
            if field.name not in ("knobs", "seed")
            and getattr(generator_config, field.name)
            != getattr(default, field.name)}
        if changed:
            document["generator"] = changed
    if source_platform is not None:
        from repro.hw.platform import platform_to_dict
        document["source_platform"] = platform_to_dict(source_platform)
    integrity.stamp_json(document)
    return write_bundle_document(document, path)


def write_bundle_document(document: dict, path) -> Path:
    """Atomically write a stamped bundle (or migration) document: the
    same document always gives the same bytes, and a crash mid-write
    leaves the previous file, never half of the new one."""
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
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        _quarantine(path, BUNDLE_FORMAT, "undecodable",
                    f"{path}: bundle is not valid JSON ({error})", error)
    fmt = document.get("format")
    if fmt not in _FORMAT_VERSIONS:
        raise ConfigurationError(f"{path} is not a clone bundle")
    if document.get("version") not in range(1, _FORMAT_VERSIONS[fmt] + 1):
        raise ConfigurationError(
            f"unsupported {fmt} version {document.get('version')}")
    try:
        integrity.verify_json(document, path=str(path))
    except ArtifactIntegrityError as error:
        _quarantine(path, fmt, error.reason, str(error), error)
    return document


def _quarantine(path, schema: str, reason: str, message: str,
                cause: Exception) -> NoReturn:
    moved = integrity.quarantine_and_report(str(path), schema=schema,
                                            reason=reason)
    raise ArtifactIntegrityError(
        message + (f"; quarantined to {moved}" if moved else ""),
        path=str(path), reason=reason, quarantined_to=moved) from cause


def bundle_tiers(
    document: dict,
) -> Tuple[Dict[str, ServiceFeatures], Dict[str, GeneratorConfig]]:
    """Each tier's features and the generator config of its clone.

    A tier is named by its key in the document. Its config carries the
    bundle's recorded stage switches and ``max_blocks`` (the defaults
    when none are recorded), the tier's tuned knobs (default knobs when
    it has none) and its recorded generator seed
    (``GeneratorConfig().seed`` for bundles written before seeds were
    recorded).
    """
    base = GeneratorConfig(**document.get("generator", {}))
    knobs = document.get("tuned_knobs", {})
    seeds = document.get("generator_seeds", {})
    features: Dict[str, ServiceFeatures] = {}
    generators: Dict[str, GeneratorConfig] = {}
    for name, data in document["tiers"].items():
        features[name] = dataclasses.replace(decode_features(data),
                                             service=name)
        generators[name] = dataclasses.replace(
            base, knobs=TuningKnobs(**knobs.get(name, {})),
            seed=seeds.get(name, base.seed))
    return features, generators


def load_bundle(path) -> Tuple[Dict[str, ServiceFeatures], str, Dict[str, str]]:
    """Read a clone bundle; returns (features, entry service, placements)."""
    document = read_bundle_document(path)
    features, _generators = bundle_tiers(document)
    return features, document["entry_service"], dict(document["placements"])


def deployment_from_bundle(path) -> Deployment:
    """Regenerate a runnable synthetic deployment from a bundle alone.

    This is the consumer side of the sharing story: a hardware vendor
    with only the bundle (never the original code, binary, or traces)
    builds and runs the synthetic service — each tier generated with
    its recorded knobs and seed (see :func:`bundle_tiers`), so a bundle
    saved from a clone regenerates that clone. ``path`` may also be a
    bundle document already in memory (e.g. a fresh migration result).
    """
    document = path if isinstance(path, dict) else read_bundle_document(path)
    features, generators = bundle_tiers(document)
    placements = document["placements"]
    return Deployment(
        services={name: synthesize_service(features[name], generators[name])
                  for name in features},
        placements=[Placement(name, placements.get(name, "node0"))
                    for name in features],
        entry_service=document["entry_service"],
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
