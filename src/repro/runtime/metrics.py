"""Measurement containers: per-service counters and run results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.hw.core import BlockTiming
from repro.hw.topdown import TopDownBreakdown
from repro.loadgen.generator import LatencyRecorder
from repro.runtime.pricing import row_timing, timing_row
from repro.util.errors import ConfigurationError

#: charge-log entries a service folds at a time; bounds the fold's
#: scratch array (the folded totals do not depend on it)
FOLD_CHUNK = 1024


@dataclass
class ServiceMetrics:
    """Aggregated hardware counters and I/O volumes for one service."""

    timing: BlockTiming = field(default_factory=BlockTiming)
    requests: int = 0
    cold_wakeups: int = 0
    context_switches: int = 0
    net_tx_bytes: float = 0.0
    net_rx_bytes: float = 0.0
    disk_read_bytes: float = 0.0
    disk_write_bytes: float = 0.0
    # Resilience/fault accounting (all zero on a clean, bare-RPC run).
    #: requests whose handler aborted on an error (injected fault,
    #: exhausted retries, open breaker)
    failed_requests: int = 0
    #: requests rejected at admission by load shedding
    shed_requests: int = 0
    #: RPC attempts that exceeded their per-attempt timeout
    rpc_timeouts: int = 0
    #: RPC re-attempts made after a failed attempt
    rpc_retries: int = 0
    #: RPC calls rejected by an open circuit breaker
    circuit_rejections: int = 0

    def absorb(self, timing: BlockTiming) -> None:
        """Fold one block execution's counters in."""
        self.timing = self.timing + timing

    def fold(self, table: np.ndarray, rows: Sequence[int]) -> None:
        """Fold the pricing rows ``table[rows]`` in, in order.

        ``np.add.accumulate`` along axis 0 is a strict left fold: each
        output row is the previous output row plus the next input row,
        with no pairwise regrouping. Every field therefore sees the same
        sequence of ``+`` as one :meth:`absorb` per row, and the totals
        are bit-identical to that chain.
        """
        if len(rows) == 0:
            return
        stacked = np.vstack((timing_row(self.timing), table[rows]))
        totals = np.add.accumulate(stacked, axis=0)[-1]
        self.timing = row_timing(totals.tolist())

    # ------------------------------------------------------------------ #
    # derived metrics (the Fig. 5/7 radar axes)
    # ------------------------------------------------------------------ #
    @property
    def ipc(self) -> float:
        """Instructions per cycle across user+kernel on-core work."""
        return self.timing.ipc

    @property
    def cpi(self) -> float:
        """Cycles per instruction (Fig. 8's y-axis)."""
        if self.timing.instructions <= 0:
            return 0.0
        return self.timing.cycles / self.timing.instructions

    def _rate(self, misses: float, accesses: float) -> float:
        if accesses <= 0:
            return 0.0
        return min(1.0, misses / accesses)

    @property
    def branch_mispredict_rate(self) -> float:
        """Mispredictions / executed conditional branches."""
        return self._rate(self.timing.branch_mispredictions,
                          self.timing.branches)

    @property
    def l1i_miss_rate(self) -> float:
        """L1i misses / L1i accesses."""
        return self._rate(self.timing.l1i_misses, self.timing.l1i_accesses)

    @property
    def l1d_miss_rate(self) -> float:
        """L1d misses / L1d accesses."""
        return self._rate(self.timing.l1d_misses, self.timing.l1d_accesses)

    @property
    def l2_miss_rate(self) -> float:
        """L2 misses / L2 accesses."""
        return self._rate(self.timing.l2_misses, self.timing.l2_accesses)

    @property
    def llc_miss_rate(self) -> float:
        """LLC misses / LLC accesses."""
        return self._rate(self.timing.llc_misses, self.timing.llc_accesses)

    def mpki(self, misses: float) -> float:
        """Misses per kilo-instruction for any counter."""
        if self.timing.instructions <= 0:
            return 0.0
        return 1000.0 * misses / self.timing.instructions

    @property
    def topdown(self) -> TopDownBreakdown:
        """Aggregated top-down slot breakdown."""
        return self.timing.topdown

    @property
    def instructions_per_request(self) -> float:
        """Average dynamic instructions per served request."""
        if self.requests <= 0:
            return 0.0
        return self.timing.instructions / self.requests

    def metric(self, name: str) -> float:
        """Look a derived metric up by its figure label."""
        table = {
            "ipc": self.ipc,
            "cpi": self.cpi,
            "branch": self.branch_mispredict_rate,
            "l1i": self.l1i_miss_rate,
            "l1d": self.l1d_miss_rate,
            "l2": self.l2_miss_rate,
            "llc": self.llc_miss_rate,
        }
        if name not in table:
            raise ConfigurationError(f"unknown metric {name!r}")
        return table[name]

    def snapshot(self) -> Dict[str, float]:
        """All derived metrics plus raw volumes, as a plain dict.

        A comparison-friendly view: two runs measured the same thing iff
        their snapshots are equal (used by the experiment cache and the
        serial-vs-parallel determinism tests).
        """
        out = {name: self.metric(name)
               for name in ("ipc", "cpi", "branch", "l1i", "l1d", "l2",
                            "llc")}
        out.update(
            requests=float(self.requests),
            instructions=float(self.timing.instructions),
            cycles=float(self.timing.cycles),
            cold_wakeups=float(self.cold_wakeups),
            context_switches=float(self.context_switches),
            net_tx_bytes=self.net_tx_bytes,
            net_rx_bytes=self.net_rx_bytes,
            disk_read_bytes=self.disk_read_bytes,
            disk_write_bytes=self.disk_write_bytes,
            failed_requests=float(self.failed_requests),
            shed_requests=float(self.shed_requests),
            rpc_timeouts=float(self.rpc_timeouts),
            rpc_retries=float(self.rpc_retries),
            circuit_rejections=float(self.circuit_rejections),
        )
        return out

    @property
    def error_rate(self) -> float:
        """Failed fraction of requests this service finished."""
        finished = self.requests + self.failed_requests
        if finished <= 0:
            return 0.0
        return self.failed_requests / finished


@dataclass
class RunResult:
    """Everything one experiment run produced."""

    duration_s: float
    services: Dict[str, ServiceMetrics]
    latency: LatencyRecorder
    node_utilisation: Dict[str, float] = field(default_factory=dict)
    disk_utilisation: Dict[str, float] = field(default_factory=dict)
    #: the injected-fault record when the run carried a fault plan
    #: (:class:`~repro.faults.injector.FaultTimeline`); None otherwise
    faults: Optional[object] = None
    #: final circuit-breaker state per service per downstream target:
    #: ``{service: {target: {"state": ..., "open_transitions": n,
    #: "rejections": n}}}`` — populated only when the run carried a
    #: resilience config (observability for recovery tests/dashboards;
    #: deliberately excluded from result digests)
    breakers: Dict[str, Dict[str, Dict[str, object]]] = field(
        default_factory=dict)
    #: total queue entries the engine dispatched to produce this result
    #: (observability for the perf harness; deliberately excluded from
    #: result digests — it is a property of the runner, not of the
    #: simulated system)
    events_dispatched: Optional[int] = None

    def service(self, name: str) -> ServiceMetrics:
        """Metrics for one service."""
        found = self.services.get(name)
        if found is None:
            raise ConfigurationError(f"no metrics for service {name!r}")
        return found

    @property
    def throughput(self) -> float:
        """Completed requests per second at the entry service."""
        if self.duration_s <= 0:
            return 0.0
        return self.latency.completed / self.duration_s

    def net_bandwidth(self, service: str) -> float:
        """Service egress+ingress bandwidth in bytes/s."""
        metrics = self.service(service)
        return (metrics.net_tx_bytes + metrics.net_rx_bytes) / self.duration_s

    def disk_bandwidth(self, service: str) -> float:
        """Service disk traffic in bytes/s."""
        metrics = self.service(service)
        return (
            metrics.disk_read_bytes + metrics.disk_write_bytes
        ) / self.duration_s

    def latency_ms(self, q: Optional[float] = None) -> float:
        """Latency in milliseconds: mean when ``q`` is None, else percentile."""
        if q is None:
            return self.latency.mean * 1e3
        return self.latency.percentile(q) * 1e3

    @property
    def error_rate(self) -> float:
        """Client-observed failed fraction of finished requests."""
        return self.latency.error_rate

    def outcome_counts(self) -> Dict[str, int]:
        """Client-observed request outcomes (ok/timeout/shed/error)."""
        return self.latency.outcome_counts()
