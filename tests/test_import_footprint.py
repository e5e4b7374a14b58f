"""Cold-start footprint: ``import repro`` loads numpy and stdlib only.

Every set-up interpreter, CLI and pool worker imports ``repro``. Stacks
that only optional features use (the fleet status server's
``http.server``) are imported where they are used, and the dependency
graph needs no graph library.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

#: Modules a plain ``import repro`` must not load.
HEAVY = ("networkx", "scipy", "http.server", "http.client", "ssl", "email")

_LOADED_HEAVY = f"""
import sys
import repro
from repro.fleet import FleetClient
print(" ".join(name for name in {HEAVY!r} if name in sys.modules))
"""

_TOPOLOGY_WITHOUT_NETWORKX = """
import sys
sys.modules["networkx"] = None  # any import of it now fails
from repro.core import analyze_topology
from repro.tracing import SpanKind, Tracer

tracer = Tracer()
for _ in range(2):
    trace = tracer.start_trace()
    root = tracer.start_span(trace, "front", "get", SpanKind.SERVER, 0.0)
    call = tracer.start_span(trace, "front", "call", SpanKind.CLIENT, 0.001,
                             parent_id=root.span_id)
    leaf = tracer.start_span(trace, "back", "read", SpanKind.SERVER, 0.002,
                             parent_id=call.span_id)
    for span in (leaf, call, root):
        span.finish(0.01)
summary = analyze_topology(tracer.finished_spans())
print(summary.tiers, summary.edges)
"""


def _run(script: str) -> str:
    src = str(Path(repro.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


class TestImportFootprint:
    def test_import_loads_no_optional_stack(self):
        assert _run(_LOADED_HEAVY) == ""

    def test_topology_analysis_runs_without_networkx(self):
        assert _run(_TOPOLOGY_WITHOUT_NETWORKX) == (
            "['front', 'back'] [('front', 'back', 2)]")
