"""One tier's synthetic service from its features (§4.3–§4.4).

The per-tier pipeline, the fine tuner, a bundle's regenerated
deployment and the bundle gate all build a tier's
:class:`~repro.app.service.ServiceSpec` here, so the same features and
:class:`~repro.core.body_gen.GeneratorConfig` always give the same
service.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.app.program import Handler, Program, RpcOp
from repro.app.service import Deployment, ServiceSpec
from repro.core.body_gen import GeneratorConfig, generate_program
from repro.core.features import ServiceFeatures
from repro.core.skeleton_gen import generate_skeleton
from repro.loadgen.generator import LoadSpec
from repro.runtime.expcache import ExperimentCache
from repro.runtime.experiment import ExperimentConfig, run_experiment
from repro.runtime.metrics import ServiceMetrics

__all__ = ["measure_standalone", "synthesize_service", "tier_load"]


def synthesize_service(
    features: ServiceFeatures,
    config: Optional[GeneratorConfig] = None,
    *,
    standalone: bool = False,
) -> ServiceSpec:
    """Generate the tier's skeleton and body as a runnable service.

    ``standalone`` drops the downstream calls, so the tier runs alone
    (fine-tuning and gating measure one tier at a time).
    """
    program, files = generate_program(features, config)
    spec = ServiceSpec(
        name=features.service,
        skeleton=generate_skeleton(features.threads, features.network),
        program=program,
        request_mix=dict(features.handler_mix) or None,
        files=files,
    )
    return _standalone(spec) if standalone else spec


def tier_load(features: ServiceFeatures) -> LoadSpec:
    """The load discipline the tier was profiled (and tuned) under.

    A closed-loop-profiled service saturates at its observed throughput,
    so driving it open-loop at that rate would sit on the hockey stick.
    """
    if features.observed_closed_loop:
        return LoadSpec.closed_loop(max(1, features.observed_connections))
    return LoadSpec.open_loop(max(100.0, features.observed_qps))


def measure_standalone(
    features: ServiceFeatures,
    service: ServiceSpec,
    platform_config: ExperimentConfig,
    cache: Optional[ExperimentCache] = None,
) -> ServiceMetrics:
    """The counters of ``service``, the tier generated from
    ``features``, run alone at :func:`tier_load`; ``cache`` memoizes
    the run."""
    deployment = Deployment.single(_standalone(service))
    load = tier_load(features)
    if cache is not None:
        result = cache.run(deployment, load, platform_config)
    else:
        result = run_experiment(deployment, load, platform_config)
    return result.service(features.service)


def _standalone(service: ServiceSpec) -> ServiceSpec:
    """``service`` without downstream calls, so it can run alone."""
    program = service.program
    handlers = {}
    for name, handler in program.handlers.items():
        ops = tuple(op for op in handler.ops if not isinstance(op, RpcOp))
        if not ops:
            ops = handler.ops
        handlers[name] = Handler(name, ops)
    return replace(service, program=Program(
        handlers=handlers,
        background_blocks=program.background_blocks,
        hot_code_bytes=program.hot_code_bytes,
        resident_bytes=program.resident_bytes,
    ))
