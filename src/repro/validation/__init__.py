"""Clone-fidelity validation: acceptance gates, artifact integrity,
self-healing remediation.

The paper's evaluation (§6) argues a Ditto clone is *interchangeable*
with its original for systems studies. This package makes that claim
operational:

- :mod:`repro.validation.gate` — :class:`FidelityGate` replays clone
  and original under matched seeds and enforces per-metric tolerances,
  producing a typed :class:`FidelityReport`;
- :mod:`repro.validation.integrity` — digest-stamped, atomically
  written artifact envelopes with quarantine-on-corruption semantics
  for checkpoints, profiles and bundles;
- :mod:`repro.validation.remediate` — the deterministic escalation
  ladder (:class:`RemediationPolicy`) the cloner climbs when a gate
  fails or a simulation watchdog trips.

``python -m repro.validation bundle.json`` validates a saved clone
bundle from the command line and exits nonzero on gate failure; its
gate, :func:`gate_bundle_tiers`, is also a migration's destination
gate.
"""

from repro.validation.gate import (
    DEFAULT_TOLERANCES,
    FidelityGate,
    FidelityReport,
    MetricCheck,
    MetricTolerance,
    gate_bundle_tiers,
)
from repro.validation.integrity import (
    load_object,
    quarantine,
    read_envelope,
    save_object,
    stamp_json,
    verify_json,
    write_envelope,
)
from repro.validation.remediate import RemediationPolicy, RemediationStep

__all__ = [
    "DEFAULT_TOLERANCES",
    "FidelityGate",
    "FidelityReport",
    "MetricCheck",
    "MetricTolerance",
    "RemediationPolicy",
    "RemediationStep",
    "gate_bundle_tiers",
    "load_object",
    "quarantine",
    "read_envelope",
    "save_object",
    "stamp_json",
    "verify_json",
    "write_envelope",
]
