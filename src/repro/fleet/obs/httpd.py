"""Live fleet status over HTTP (stdlib-only, off by default).

A :class:`FleetStatusServer` is a daemon-threaded
:class:`~http.server.ThreadingHTTPServer` bound next to a
:class:`~repro.fleet.store.JobStore`, serving three read-only routes:

- ``/metrics`` — Prometheus text exposition of the fleet's registries
  (the scheduler's telemetry session and the store's own counters,
  merged at scrape time);
- ``/jobs`` — the job table as JSON: state, durations, remediation
  attempts, digests and errors per job, read fresh from the store on
  every request so any process sharing the store root can be watched;
- ``/healthz`` — liveness plus a per-state job census.

Start it via ``FleetScheduler(serve_metrics=":9090")`` or
``python -m repro.fleet run --serve :9090``; pass ``True``/``0`` for an
ephemeral port (the bound port is on :attr:`FleetStatusServer.port`).
Everything here is wall-clock-side observation — no route mutates the
store, and clone output is bit-identical with the server on or off.
"""

from __future__ import annotations

import json
import threading
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple, Union

from repro.fleet.job import JobState
from repro.telemetry.registry import MetricsRegistry
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fleet.store import JobStore

__all__ = ["FleetStatusServer", "parse_serve_address"]


def parse_serve_address(
    spec: Union[bool, int, str, None],
) -> Optional[Tuple[str, int]]:
    """Normalize a ``serve_metrics`` knob to ``(host, port)`` or None.

    ``None``/``False`` disable the server; ``True`` binds an ephemeral
    port on localhost; an int is a localhost port; a string is
    ``host:port`` with an empty host meaning localhost (``":9090"``).
    """
    if spec is None or spec is False:
        return None
    if spec is True:
        return ("127.0.0.1", 0)
    if isinstance(spec, int):
        return ("127.0.0.1", spec)
    if isinstance(spec, str):
        host, sep, port = spec.rpartition(":")
        if not sep:
            host, port = "", spec
        try:
            return (host or "127.0.0.1", int(port))
        except ValueError:
            pass
    raise ConfigurationError(
        f"serve_metrics takes True, a port, or 'host:port', got {spec!r}")


def _job_entry(record) -> dict:
    return {
        "job_id": record.job_id,
        "name": record.spec.name,
        "state": record.state.value,
        "priority": record.spec.priority,
        "spec_digest": record.spec_digest,
        "result_digest": record.result_digest,
        "remediation_attempts": record.attempts,
        "crashes": record.crash_count,
        "transitions": len(record.history),
        "error": record.error,
        "created_at": record.created_at,
        "updated_at": record.updated_at,
        "duration_s": max(0.0, record.updated_at - record.created_at),
    }


class FleetStatusServer:
    """Serve ``/metrics``, ``/jobs`` and ``/healthz`` for one store."""

    def __init__(self, store: "JobStore", *,
                 registries: Iterable[MetricsRegistry] = (),
                 address: Union[bool, int, str, None] = True) -> None:
        # Lazy: http.server loads http.client, ssl and email.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        parsed = parse_serve_address(address)
        if parsed is None:
            raise ConfigurationError(
                f"cannot serve on a disabled address ({address!r})")
        self.store = store
        # Dedupe by identity: the store registry is often also the
        # session registry, and double-merging would double counters.
        seen: List[MetricsRegistry] = []
        for registry in (*registries, store.registry):
            if not any(registry is existing for existing in seen):
                seen.append(registry)
        self.registries = seen
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, *_args) -> None:  # keep stderr quiet
                pass

            def do_GET(self) -> None:  # noqa: N802 — http.server API
                try:
                    route = self.path.split("?", 1)[0]
                    if route == "/metrics":
                        body = server.metrics_text().encode("utf-8")
                        ctype = "text/plain; version=0.0.4; charset=utf-8"
                    elif route == "/jobs":
                        body = json.dumps(server.jobs_document(),
                                          indent=2).encode("utf-8")
                        ctype = "application/json"
                    elif route == "/healthz":
                        body = json.dumps(server.health_document(),
                                          indent=2).encode("utf-8")
                        ctype = "application/json"
                    else:
                        self.send_error(404, "unknown route")
                        return
                except Exception as error:  # noqa: BLE001 — keep serving
                    self.send_error(500, type(error).__name__)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._httpd = ThreadingHTTPServer(parsed, _Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="ditto-fleet-status", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------ #
    # route bodies (also the test surface — no HTTP needed)
    # ------------------------------------------------------------------ #
    def metrics_text(self) -> str:
        """Prometheus exposition over the merged fleet registries."""
        if len(self.registries) == 1:
            return self.registries[0].to_prometheus_text()
        merged = MetricsRegistry()
        for registry in self.registries:
            merged.merge(registry.snapshot())
        return merged.to_prometheus_text()

    def jobs_document(self) -> List[dict]:
        """The job table, newest update first."""
        records = sorted(self.store.list(),
                         key=lambda r: -r.updated_at)
        return [_job_entry(record) for record in records]

    def health_document(self) -> dict:
        counts = {state.value: 0 for state in JobState}
        for record in self.store.list():
            counts[record.state.value] += 1
        return {
            "status": "ok",
            "store": self.store.root,
            "jobs": counts,
            "queue_depth": counts[JobState.SUBMITTED.value],
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
