"""Service specifications and multi-tier deployments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.app.program import Program
from repro.app.skeleton import Skeleton
from repro.util.dag import topological_order
from repro.util.errors import ConfigurationError
from repro.util.stats import Histogram


@dataclass(frozen=True)
class ServiceSpec:
    """One service (a monolith, or one tier of a microservice graph).

    ``request_mix`` weights the program's handlers: incoming requests
    sample a handler from it. ``files`` declares the on-disk datasets the
    service touches (registered with the node's VFS at deployment).
    """

    name: str
    skeleton: Skeleton
    program: Program
    request_mix: Mapping[str, float] = field(default_factory=dict)
    files: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        mix = self.request_mix or {
            name: 1.0 for name in self.program.handlers
        }
        object.__setattr__(self, "request_mix", dict(mix))
        for handler_name in self.request_mix:
            self.program.handler(handler_name)  # validates
        if any(weight < 0 for weight in self.request_mix.values()):
            raise ConfigurationError("request mix weights must be non-negative")
        if sum(self.request_mix.values()) <= 0:
            raise ConfigurationError("request mix must have positive total weight")
        for fname, size in self.files.items():
            if size <= 0:
                raise ConfigurationError(f"file {fname!r} must be non-empty")

    def mix_histogram(self) -> Histogram:
        """The request mix as a sampleable histogram."""
        return Histogram(dict(self.request_mix))


@dataclass(frozen=True)
class Placement:
    """Maps one service onto a node name."""

    service: str
    node: str


@dataclass
class Deployment:
    """A set of services placed on nodes, forming a DAG of tiers.

    ``entry_service`` receives client load; other tiers receive RPCs.
    """

    services: Dict[str, ServiceSpec]
    placements: List[Placement]
    entry_service: str

    def __post_init__(self) -> None:
        if self.entry_service not in self.services:
            raise ConfigurationError(
                f"entry service {self.entry_service!r} not in deployment"
            )
        placed = {p.service for p in self.placements}
        for name in self.services:
            if name not in placed:
                raise ConfigurationError(f"service {name!r} has no placement")
        for placement in self.placements:
            if placement.service not in self.services:
                raise ConfigurationError(
                    f"placement references unknown service {placement.service!r}"
                )
        calls = self._calls()
        for name, targets in calls.items():
            for target in targets:
                if target not in calls:
                    raise ConfigurationError(
                        f"{name!r} calls unknown service {target!r}"
                    )
        cyclic = set(calls).difference(topological_order(calls))
        if cyclic:
            raise ConfigurationError(f"RPC cycle through {sorted(cyclic)}")

    def _calls(self) -> Dict[str, List[str]]:
        """Each service's RPC targets, entry service first."""
        calls = {self.entry_service: []}
        for name, spec in self.services.items():
            calls[name] = spec.program.downstream_services()
        return calls

    def node_of(self, service: str) -> str:
        """The node a service is placed on."""
        for placement in self.placements:
            if placement.service == service:
                return placement.node
        raise ConfigurationError(f"service {service!r} has no placement")

    def node_names(self) -> List[str]:
        """All distinct node names, in placement order."""
        names: List[str] = []
        for placement in self.placements:
            if placement.node not in names:
                names.append(placement.node)
        return names

    def services_on(self, node: str) -> List[str]:
        """Services placed on ``node``."""
        return [p.service for p in self.placements if p.node == node]

    def tier_order(self) -> List[str]:
        """Services in topological order (callers first, entry first)."""
        return topological_order(self._calls())

    @staticmethod
    def single(service: ServiceSpec, node: str = "node0") -> "Deployment":
        """Convenience: deploy one monolithic service on one node."""
        return Deployment(
            services={service.name: service},
            placements=[Placement(service.name, node)],
            entry_service=service.name,
        )
