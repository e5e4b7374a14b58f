"""Migration matrix: four tuned clones x destination platforms A, B, C.

Each single-tier clone is profiled and fine-tuned on platform A, saved
as an integrity-stamped bundle (with the new ``source_platform``
stanza), and then carried to every platform by the full migration
pipeline — preflight knob classification, warm-started re-tune, and the
destination fidelity gate scored against the fig7 error envelope
(:data:`~repro.migrate.MIGRATION_TOLERANCES`).

Expected shape: A->A is a pure transfer (every knob classified
TRANSFERS, zero re-tune iterations); A->B and A->C flag the
cache-geometry-derived knobs as NEEDS_RETUNE and spend a few warm-start
iterations before clearing the destination gate.
"""

from conftest import APPS, RUN_SECONDS, write_result

from repro.core.bundle import save_bundle
from repro.hw import PLATFORM_A, PLATFORM_B, PLATFORM_C
from repro.migrate import MigrationError, MigrationRequest, migrate_request

PLATFORMS = (PLATFORM_A, PLATFORM_B, PLATFORM_C)


def test_migration_matrix(benchmark, single_tier_clones, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("migration-bundles")
    bundles = {}
    for name in APPS:
        _original, _synthetic, report = single_tier_clones[name]
        bundles[name] = save_bundle(
            report.features, outdir / f"{name}.bundle.json",
            entry_service=name,
            tuned_knobs={tier: t.knobs for tier, t in report.tuning.items()},
            source_platform=PLATFORM_A)

    def run_matrix():
        cells = {}
        for name, bundle in bundles.items():
            for platform in PLATFORMS:
                out = outdir / f"{name}.{platform.name}.migrated.json"
                try:
                    cells[(name, platform.name)] = migrate_request(
                        MigrationRequest(
                            bundle_path=str(bundle), destination=platform,
                            seed=11, duration_s=RUN_SECONDS,
                            max_tune_iterations=3), out)
                except MigrationError as error:
                    cells[(name, platform.name)] = error
        return cells

    cells = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    lines = [f"{'workload':<12}"
             + "".join(f"{p.name:>24}" for p in PLATFORMS)]
    for name in bundles:
        row = [f"{name:<12}"]
        for platform in PLATFORMS:
            cell = cells[(name, platform.name)]
            if isinstance(cell, MigrationError):
                row.append(f"refused[{cell.stage}]".rjust(24))
                continue
            stale = sum(len(k) for k in
                        cell.preflight.retune_knobs().values())
            iters = sum(cell.tuning_iterations.values())
            row.append(f"PASS e={cell.fidelity.mean_error:4.2f}"
                       f" it={iters} k={stale}".rjust(24))
        lines.append("".join(row))
    failing = sorted(
        {f"{check.service}/{check.metric}"
         for cell in cells.values()
         if not isinstance(cell, MigrationError)
         for check in cell.fidelity.failures()})
    lines.append(f"failing metrics anywhere: {failing or 'none'}")
    write_result("migration_matrix", "\n".join(lines))

    # Same-platform migration is pure transfer: the preflight classifies
    # every knob TRANSFERS and the gate passes without touching a tuner.
    for name in bundles:
        home = cells[(name, "A")]
        assert not isinstance(home, MigrationError), name
        assert home.preflight.retune_knobs() == {}, name
        assert sum(home.tuning_iterations.values()) == 0, name
    # Cross-platform cells flag the geometry-derived knobs for re-tune.
    for name in bundles:
        for dest in ("B", "C"):
            cell = cells[(name, dest)]
            if not isinstance(cell, MigrationError):
                assert cell.preflight.retune_knobs(), (name, dest)
    # The fig7 envelope holds across the bulk of the matrix even on the
    # never-profiled platforms.
    published = [c for c in cells.values()
                 if not isinstance(c, MigrationError)]
    assert len(published) / len(cells) >= 0.75, (
        f"{len(published)}/{len(cells)} migrations published")
    benchmark.extra_info["cells"] = len(cells)
    benchmark.extra_info["publish_rate"] = round(
        len(published) / len(cells), 4)
