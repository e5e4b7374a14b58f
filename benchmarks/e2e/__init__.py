"""End-to-end clone benchmark: four workloads, per-layer attribution."""
