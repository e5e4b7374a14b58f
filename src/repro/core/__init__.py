"""Ditto's core: feature extraction, generation, fine tuning, cloning.

The pipeline mirrors Fig. 3 of the paper:

1. :func:`repro.tracing.analyze_topology` — learn the RPC dependency
   graph from distributed traces (§4.2); profiling reduces its spans
   with it, so the profile carries the graph;
2. :mod:`repro.core.skeleton_gen` — reconstruct each tier's thread and
   network models (§4.3);
3. :mod:`repro.core.body_gen` — generate the application body: system
   calls (§4.4.1), instruction mix (§4.4.2), branch bitmask behaviour
   (§4.4.3), working-set data memory (Eq. 1, §4.4.4), instruction-memory
   blocks (Eq. 2, §4.4.5), and register-assigned data dependencies
   (§4.4.6); :func:`~repro.core.synthesis.synthesize_service` joins
   skeleton and body into one runnable tier;
4. :mod:`repro.core.finetune` — the feedback calibration loop (§4.5);
5. :mod:`repro.core.cloner` — end-to-end orchestration producing a
   drop-in synthetic deployment;
6. :mod:`repro.core.codegen` — the shareable x86-flavoured assembly
   listing of the generated body.
"""

from repro.core.features import ServiceFeatures, extract_service_features
from repro.core.body_gen import GeneratorConfig, TuningKnobs, generate_program
from repro.core.skeleton_gen import generate_skeleton
from repro.core.synthesis import synthesize_service, tier_load
from repro.core.finetune import (
    DEFAULT_MAX_TUNE_ITERATIONS,
    FineTuneResult,
    fine_tune,
)
from repro.core.cloner import (
    CloneObserver,
    CloneReport,
    CloneResult,
    DittoCloner,
)
from repro.core.request import CloneRequest
from repro.core.pipeline import (
    TierOutcome,
    TierTask,
    clone_tier,
    derive_tier_seed,
    run_tier_pipeline,
)
from repro.core.codegen import emit_assembly
from repro.core.bundle import (
    audit_bundle_confidentiality,
    deployment_from_bundle,
    load_bundle,
    save_bundle,
)

__all__ = [
    "CloneObserver",
    "CloneReport",
    "CloneRequest",
    "CloneResult",
    "DEFAULT_MAX_TUNE_ITERATIONS",
    "audit_bundle_confidentiality",
    "deployment_from_bundle",
    "load_bundle",
    "save_bundle",
    "DittoCloner",
    "FineTuneResult",
    "GeneratorConfig",
    "ServiceFeatures",
    "TierOutcome",
    "TierTask",
    "TuningKnobs",
    "clone_tier",
    "derive_tier_seed",
    "emit_assembly",
    "extract_service_features",
    "fine_tune",
    "generate_program",
    "generate_skeleton",
    "run_tier_pipeline",
    "synthesize_service",
    "tier_load",
]
