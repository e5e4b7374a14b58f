"""Deterministic chaos injection for the fleet control plane.

The control plane's crash story (leases, recovery, tier checkpoints,
integrity envelopes) is only as good as the crashes it has actually
survived. This module turns the PR-3 fault-injection discipline inward,
on the fleet itself: every store/worker/scheduler mutation is bracketed
by a **named crashpoint** (:data:`CRASHPOINTS`), and a seeded,
serializable :class:`ChaosPlan` decides what goes wrong there:

- ``kill`` — raise :class:`ChaosKill` (a ``BaseException``, like a
  ``kill -9`` unwinding the process: no handler converts it into job
  state, the record stays wherever the crash left it);
- ``raise`` — a recoverable :class:`~repro.util.errors.
  FaultInjectionError` (the worker's ordinary failure surface);
- ``torn_write`` — truncate the file named by the crashpoint's
  ``path`` context mid-write, then die (the integrity layer must
  quarantine, never trust, the remains);
- ``enospc`` — ``OSError(ENOSPC)``, the disk-full path;
- ``delay`` — sleep, widening race windows (heartbeat staleness,
  cancel-vs-claim) without killing anything;
- ``signal`` — deliver a real signal to this process (how the graceful
  drain path is exercised end to end).

Plans carry **no randomness**: probabilistic actions name a
probability, and the injector draws every decision from a named RNG
stream (``derive_seed(seed, "chaos", point, index)``) — the same
discipline as :mod:`repro.faults`. Identical (seed, plan) pairs produce
identical chaos timelines, and an **empty plan is bit-identical** to
running with no injector at all: :func:`crashpoint` is a dictionary
lookup away from a no-op and touches no random stream.

The injector is installed per process (module global — crashpoints are
called deep inside the store, far from any place a handle could be
threaded through). :class:`~repro.fleet.scheduler.FleetScheduler`
installs its plan for the duration of ``run_until_idle`` and forwards
it to process-pool workers, which re-install it in their own process;
hit counters are therefore per-process, which is what "the Nth write
*this attempt*" means during a crash-restart cycle.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.util.errors import ConfigurationError, FaultInjectionError
from repro.util.rng import make_rng

__all__ = [
    "CRASHPOINTS",
    "ChaosAction",
    "ChaosKill",
    "ChaosPlan",
    "active",
    "crashpoint",
    "current_injector",
    "install",
    "maybe_active",
    "uninstall",
]

#: every named crashpoint the control plane is instrumented with.
#: The coverage test asserts a full fleet run visits all of them (so an
#: instrumentation point cannot silently disappear), and
#: :class:`ChaosAction` refuses to target a name that is not here (so a
#: plan cannot silently test nothing).
CRASHPOINTS: Tuple[str, ...] = (
    # store: record persistence
    "store.submit.post_claim",        # job id allocated, record not saved
    "store.save.pre_write",           # before the envelope tmp+replace
    "store.save.post_write",          # record durable, caller not told
    "store.transition.post_save",     # edge persisted, counters pending
    # store: lease lifecycle
    "lease.claim.pre_persist",        # epoch minted, lease not linked
    "lease.claim.post_create",        # lease durable, claim not returned
    "lease.heartbeat.pre_replace",    # refreshed beat not yet visible
    "lease.release.pre_unlink",       # release decided, lease still on
    # scheduler: round structure
    "scheduler.round.pre_claim",      # queue collected, nothing claimed
    "scheduler.round.post_claim",     # leases held, batch not started
    # worker: execution and publish (clone and migration jobs alike)
    "worker.start.post_load",         # record loaded, nothing mutated
    "worker.phase.post_transition",   # running-state edge persisted
    "worker.profile.post_save",       # shared profile durable
    "worker.publish.pre_artifact",    # clone done, result not written
    "worker.publish.post_result",     # result durable, bundle pending
    "worker.publish.pre_transition",  # artifacts durable, state stale
    "worker.publish.post_transition",  # published, outcome not returned
)

#: action kinds a plan may schedule (see the module doc)
ACTIONS = ("kill", "raise", "torn_write", "enospc", "delay", "signal")


class ChaosKill(BaseException):
    """A simulated hard kill (``kill -9``) at a crashpoint.

    Deliberately a ``BaseException``: no ``except Exception`` boundary
    in the worker or scheduler may convert it into job state — exactly
    like the real signal, it unwinds everything, and recovery has to
    pick up whatever was on disk.
    """


@dataclass(frozen=True)
class ChaosAction:
    """One scheduled misfortune at one crashpoint (frozen, picklable).

    ``on_hit`` selects which visit fires (1-based; ``0`` = every
    visit); ``probability`` thins firings below that via the injector's
    named RNG stream. The extra knobs apply per action kind:
    ``delay_s`` to ``delay``, ``signum`` to ``signal``.
    """

    point: str
    action: str = "kill"
    on_hit: int = 1
    probability: float = 1.0
    delay_s: float = 0.01
    signum: int = 15  # SIGTERM

    def __post_init__(self) -> None:
        if self.point not in CRASHPOINTS:
            raise ConfigurationError(
                f"unknown crashpoint {self.point!r} "
                f"(see repro.fleet.chaos.CRASHPOINTS)")
        if self.action not in ACTIONS:
            raise ConfigurationError(
                f"unknown chaos action {self.action!r} "
                f"(one of {', '.join(ACTIONS)})")
        if not isinstance(self.on_hit, int) or self.on_hit < 0:
            raise ConfigurationError(
                f"on_hit must be an int >= 0, got {self.on_hit!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability!r}")
        if self.delay_s < 0:
            raise ConfigurationError(
                f"delay_s cannot be negative, got {self.delay_s!r}")
        if not isinstance(self.signum, int) or self.signum < 1:
            raise ConfigurationError(
                f"signum must be a positive int, got {self.signum!r}")

    def to_dict(self) -> dict:
        return {"point": self.point, "action": self.action,
                "on_hit": self.on_hit, "probability": self.probability,
                "delay_s": self.delay_s, "signum": self.signum}

    @staticmethod
    def from_dict(payload: dict) -> "ChaosAction":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"a chaos action must be an object, got {payload!r}")
        unknown = set(payload) - {"point", "action", "on_hit",
                                  "probability", "delay_s", "signum"}
        if unknown:
            raise ConfigurationError(
                f"unknown chaos action fields: {sorted(unknown)}")
        return ChaosAction(**payload)


@dataclass(frozen=True)
class ChaosPlan:
    """An ordered collection of chaos actions for one fleet run.

    Like :class:`~repro.faults.plan.FaultPlan`, a plan is pure
    specification — no randomness, no state. Action ``i`` draws its
    probability decisions from stream ``chaos/<point>/<i>`` of
    ``seed``, so two runs of the same (seed, plan) misbehave
    identically.
    """

    seed: int = 0
    actions: Tuple[ChaosAction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError(
                f"chaos seed must be an int, got {self.seed!r}")
        for action in self.actions:
            if not isinstance(action, ChaosAction):
                raise ConfigurationError(
                    f"not a chaos action: {action!r}")

    @staticmethod
    def empty() -> "ChaosPlan":
        """A plan that injects nothing (bit-identical to no injector)."""
        return ChaosPlan()

    @property
    def is_empty(self) -> bool:
        return not self.actions

    def __bool__(self) -> bool:
        return bool(self.actions)

    # ------------------------------------------------------------------ #
    # serialization (the CLI's ``run --chaos plan.json``)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {"format": "ditto-chaos-plan/1", "seed": self.seed,
                "actions": [action.to_dict() for action in self.actions]}

    @staticmethod
    def from_dict(payload: dict) -> "ChaosPlan":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"a chaos plan must be an object, got {payload!r}")
        fmt = payload.get("format", "ditto-chaos-plan/1")
        if fmt != "ditto-chaos-plan/1":
            raise ConfigurationError(
                f"unsupported chaos plan format {fmt!r}")
        actions = payload.get("actions", [])
        if not isinstance(actions, list):
            raise ConfigurationError("chaos plan 'actions' must be a list")
        return ChaosPlan(
            seed=payload.get("seed", 0),
            actions=tuple(ChaosAction.from_dict(entry)
                          for entry in actions))

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)

    @staticmethod
    def from_file(path: str) -> "ChaosPlan":
        with open(path, encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except ValueError as error:
                raise ConfigurationError(
                    f"chaos plan {path}: not valid JSON ({error})"
                    ) from error
        return ChaosPlan.from_dict(payload)


class ChaosInjector:
    """Executes a plan's actions as crashpoints are visited.

    Tracks per-point hit counts and the set of :attr:`visited` points
    (the coverage test's evidence). Thread-safe: the worker's heartbeat
    thread and the main execution path may hit points concurrently.
    """

    def __init__(self, plan: ChaosPlan) -> None:
        if not isinstance(plan, ChaosPlan):
            raise ConfigurationError(
                f"injector takes a ChaosPlan, got {plan!r}")
        self.plan = plan
        self.hits: Dict[str, int] = {}
        self.visited: Set[str] = set()
        self._lock = threading.Lock()
        self._by_point: Dict[str, List[Tuple[int, ChaosAction]]] = {}
        for index, action in enumerate(plan.actions):
            self._by_point.setdefault(action.point, []).append(
                (index, action))
        self._rngs = {
            (action.point, index): make_rng(plan.seed, "chaos",
                                            action.point, str(index))
            for index, action in enumerate(plan.actions)
            if action.probability < 1.0
        }

    def hit(self, point: str, **context) -> None:
        """Record a visit to ``point`` and fire any scheduled action."""
        if point not in CRASHPOINTS:
            raise ConfigurationError(
                f"unregistered crashpoint {point!r} — add it to "
                f"repro.fleet.chaos.CRASHPOINTS")
        with self._lock:
            count = self.hits.get(point, 0) + 1
            self.hits[point] = count
            self.visited.add(point)
            armed = []
            for index, action in self._by_point.get(point, ()):
                if action.on_hit and action.on_hit != count:
                    continue
                rng = self._rngs.get((point, index))
                if rng is not None and rng.random() >= action.probability:
                    continue
                armed.append(action)
        for action in armed:
            self._fire(action, point, context)

    def _fire(self, action: ChaosAction, point: str, context: dict) -> None:
        if action.action == "delay":
            time.sleep(action.delay_s)
            return
        if action.action == "signal":
            os.kill(os.getpid(), action.signum)
            return
        if action.action == "raise":
            raise FaultInjectionError(
                f"chaos fault injected at {point}",
                kind="chaos", scope=point)
        if action.action == "enospc":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                          str(context.get("path", point)))
        if action.action == "torn_write":
            self._tear(context.get("path"))
            raise ChaosKill(f"chaos torn write at {point}")
        raise ChaosKill(f"chaos kill at {point}")

    @staticmethod
    def _tear(path: Optional[str]) -> None:
        """Truncate ``path`` to half its size — the on-disk shape of a
        process dying inside a non-atomic write."""
        if not path or not os.path.exists(path):
            return
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)


# ---------------------------------------------------------------------- #
# the per-process installation point
# ---------------------------------------------------------------------- #
_INSTALLED: Optional[ChaosInjector] = None


def crashpoint(point: str, **context) -> None:
    """Mark one crashpoint visit (a no-op unless an injector is live).

    ``context`` gives actions something to aim at — notably ``path``
    for ``torn_write``/``enospc``. Hot-path cost with chaos off is one
    global read and a None check.
    """
    injector = _INSTALLED
    if injector is not None:
        injector.hit(point, **context)


def current_injector() -> Optional[ChaosInjector]:
    """The process-wide injector, or None when chaos is off."""
    return _INSTALLED


def install(plan: ChaosPlan) -> ChaosInjector:
    """Install ``plan`` process-wide; raises if one is already live."""
    global _INSTALLED
    if _INSTALLED is not None:
        raise ConfigurationError(
            "a chaos injector is already installed (uninstall first)")
    _INSTALLED = ChaosInjector(plan)
    return _INSTALLED


def uninstall() -> None:
    """Remove the process-wide injector (idempotent)."""
    global _INSTALLED
    _INSTALLED = None


@contextmanager
def active(plan: ChaosPlan):
    """Install ``plan`` for the duration of the block.

    Installs even an empty plan — that is how the coverage test tracks
    :attr:`ChaosInjector.visited` without changing behaviour.
    """
    injector = install(plan)
    try:
        yield injector
    finally:
        uninstall()


@contextmanager
def maybe_active(plan: Optional[ChaosPlan]):
    """``active(plan)`` unless ``plan`` is None or an injector is
    already installed (re-entry: the scheduler installs once, serial
    and thread workers inherit it; process workers install their own).
    """
    if plan is None or _INSTALLED is not None:
        yield _INSTALLED
        return
    with active(plan) as injector:
        yield injector
