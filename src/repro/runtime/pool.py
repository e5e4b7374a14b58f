"""One clone's worker pool, and the fan-out its stages share.

Profiling, the tier stage and the fidelity gate of a process clone all
run tasks on one :class:`WorkerPool` (:func:`worker_pool`). A task's
telemetry is folded into the parent's session. A task runs once: its
exception fails the stage that submitted it. A worker that dies breaks
the pool; the tasks it left unfinished, and the rest of the clone, run
in the parent.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from typing import Any, Callable, Dict, Iterator, Mapping, Optional

from repro.telemetry.session import Telemetry, current_session
from repro.util.errors import ConfigurationError

__all__ = ["EXECUTOR_MODES", "WorkerPool", "fan_out", "resolve_executor",
           "worker_pool"]

EXECUTOR_MODES = ("auto", "process", "serial")


def resolve_executor(executor: str = "auto", *, n_tasks: int,
                     max_workers: Optional[int] = None) -> str:
    """Map an executor request to the concrete mode that will run.

    ``"auto"`` picks ``"process"`` when fan-out can help (more than one
    task, more than one CPU, more than one worker allowed) and
    ``"serial"`` otherwise. Explicit modes are honoured as-is.
    """
    if executor not in EXECUTOR_MODES:
        raise ConfigurationError(
            f"unknown executor {executor!r}; expected one of {EXECUTOR_MODES}")
    if executor != "auto":
        return executor
    cpus = os.cpu_count() or 1
    workers = max_workers if max_workers is not None else cpus
    if n_tasks > 1 and cpus > 1 and workers > 1:
        return "process"
    return "serial"


class WorkerPool:
    """A process pool a clone's stages share until a worker dies."""

    def __init__(self, workers: int) -> None:
        self.executor = ProcessPoolExecutor(max_workers=workers)
        #: set once a worker died; nothing is sent to the pool after that
        self.broken = False

    def degrade(self) -> None:
        """Mark the pool broken, counting it once."""
        if not self.broken:
            self.broken = True
            session = current_session()
            if session is not None:
                session.registry.counter(
                    "ditto_pipeline_degradations_total",
                    "executor degradations after a broken worker pool",
                    ("from_mode", "to_mode"),
                ).inc(1, from_mode="process", to_mode="serial")

    def _submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        return self.executor.submit(Telemetry.record_in_worker,
                                    current_session() is not None, fn, *args)

    def submit(self, fn: Callable[..., Any], *args: Any) -> Optional[Future]:
        """Start ``fn(*args)`` in a worker; None when the pool is broken."""
        try:
            return None if self.broken else self._submit(fn, *args)
        except BrokenExecutor:
            self.degrade()
            return None

    def result(self, future: Future) -> Optional[Any]:
        """``future``'s result; None when the pool broke, and the caller
        then runs the task itself. A task's own exception propagates."""
        try:
            return _unpack(future)
        except BrokenExecutor:
            self.degrade()
            return None


def _unpack(future: Future) -> Any:
    """A finished task's result; its telemetry joins this session's."""
    result, payload = future.result()
    session = current_session()
    if session is not None:
        session.absorb(payload)
    return result


@contextlib.contextmanager
def worker_pool(executor: str, *, n_tasks: int,
                max_workers: Optional[int] = None
                ) -> Iterator[Optional[WorkerPool]]:
    """The pool for ``n_tasks`` tiers, or None when ``executor``
    resolves to serial. On exit it cancels queued tasks and joins its
    workers, so no child process outlives it."""
    if max_workers is not None and max_workers < 1:
        raise ConfigurationError("max_workers must be >= 1")
    if resolve_executor(executor, n_tasks=n_tasks,
                        max_workers=max_workers) != "process":
        yield None
        return
    workers = max_workers if max_workers is not None else os.cpu_count()
    pool = WorkerPool(max(1, min(workers or 1, n_tasks)))
    try:
        yield pool
    finally:
        pool.executor.shutdown(wait=True, cancel_futures=True)


def _reraise(_key: Any, error: Exception) -> None:
    raise error


def fan_out(pool: Optional[WorkerPool], fn: Callable[[Any], Any],
            tasks: Mapping[Any, Any], complete: Callable[[Any, Any], None],
            fail: Callable[[Any, Exception], None] = _reraise) -> str:
    """Run ``fn(task)`` once for every task, in ``pool`` when there is one.

    ``complete(key, result)`` hears each result as it lands. A task that
    raises ends the fan-out: ``fail(key, error)`` raises in its place
    (by default the task's own error). A broken pool hands its
    unfinished tasks to this process, once. Returns the mode that
    finished the work, ``"process"`` or ``"serial"``.
    """
    pending: Dict[Any, Any] = dict(tasks)
    if pool is not None and not pool.broken and pending:
        active: Dict[Future, Any] = {}
        try:
            for key, task in pending.items():
                active[pool._submit(fn, task)] = key
            while active:
                done, _ = wait(set(active), return_when=FIRST_COMPLETED)
                for future in done:
                    key = active.pop(future)
                    try:
                        result = _unpack(future)
                    except BrokenExecutor:
                        raise
                    except Exception as error:  # noqa: BLE001
                        fail(key, error)
                        raise
                    del pending[key]
                    complete(key, result)
            return "process"
        except BrokenExecutor:
            pool.degrade()
        finally:
            for future in active:
                future.cancel()
    for key, task in pending.items():
        try:
            result = fn(task)
        except Exception as error:  # noqa: BLE001
            fail(key, error)
            raise
        complete(key, result)
    return "serial"
