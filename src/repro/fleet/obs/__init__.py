"""Fleet observability: flight recorder, status endpoint, drift monitor.

Three read-side views of a running (or crashed) fleet, all stdlib-only
and all strictly on the wall-clock side of the determinism boundary —
enabling any of them leaves clone digests bit-identical:

- :mod:`repro.fleet.obs.flight` — the append-only, integrity-enveloped
  event log every fleet process writes;
- :mod:`repro.fleet.obs.httpd` — ``/metrics``, ``/jobs``, ``/healthz``
  over a daemon-threaded stdlib HTTP server;
- :mod:`repro.fleet.obs.drift` — per-spec fidelity histories and the
  tolerance-erosion report;
- :mod:`repro.fleet.obs.top` — the textual dashboard frame.
"""

from repro.fleet.obs.drift import (DriftFlag, DriftReport, analyze_drift,
                                   load_fidelity_history,
                                   render_drift_report)
from repro.fleet.obs.flight import (FLIGHT_FORMAT, FlightEvent, FlightLog,
                                    FlightRecorder, read_flight_log)
from repro.fleet.obs.httpd import FleetStatusServer, parse_serve_address
from repro.fleet.obs.top import render_top

__all__ = [
    "FLIGHT_FORMAT",
    "DriftFlag",
    "DriftReport",
    "FleetStatusServer",
    "FlightEvent",
    "FlightLog",
    "FlightRecorder",
    "analyze_drift",
    "load_fidelity_history",
    "parse_serve_address",
    "render_drift_report",
    "render_top",
    "read_flight_log",
]
