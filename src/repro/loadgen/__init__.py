"""Load generators.

Mirrors the paper's drivers (§6.1.2): open-loop generators (the mutated
Memcached generator, tcpkali, the open-loop wrk2 fork) inject requests at
a target rate regardless of completions; closed-loop generators (YCSB for
MongoDB/Redis) keep one outstanding request per connection, which is why
the paper's MongoDB/Redis latencies stay flat at saturation.
"""

from repro.loadgen.generator import (
    REQUEST_OUTCOMES,
    ClosedLoopGenerator,
    LatencyRecorder,
    LoadSpec,
    OpenLoopGenerator,
    build_generator,
    classify_failure,
)

__all__ = [
    "ClosedLoopGenerator",
    "LatencyRecorder",
    "LoadSpec",
    "OpenLoopGenerator",
    "REQUEST_OUTCOMES",
    "build_generator",
    "classify_failure",
]
