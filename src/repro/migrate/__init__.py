"""Cross-environment clone migration (fig7 as an operational workflow).

``repro.migrate`` carries a saved clone bundle to a new platform in
three audited stages — preflight classification, warm-started re-tune,
destination fidelity gate — and publishes a stamped
``ditto-migration/1`` artifact or refuses with a typed
:class:`~repro.util.errors.MigrationError`. One function,
:func:`migrate_request`, runs a :class:`MigrationRequest`; one CLI,
``python -m repro.migrate``, runs it inline or (with ``--store``)
queues it as an ordinary fleet job, whose preflight, re-tune and gate
show up as the ``profiling``, ``tuning`` and ``validating`` states.
"""

from repro.migrate.engine import (
    MIGRATION_TOLERANCES,
    MigrationResult,
    migrate_request,
)
from repro.migrate.preflight import (
    ObjectVerdict,
    PreflightReport,
    Verdict,
    run_preflight,
)
from repro.migrate.request import MigrationRequest
from repro.util.errors import MigrationError

__all__ = [
    "MIGRATION_TOLERANCES",
    "MigrationError",
    "MigrationRequest",
    "MigrationResult",
    "ObjectVerdict",
    "PreflightReport",
    "Verdict",
    "migrate_request",
    "run_preflight",
]
