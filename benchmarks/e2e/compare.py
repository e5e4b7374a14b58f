"""Compare two groups of benchmark sets, metric by metric.

For every (workload, end-to-end metric) pair, each run of a workload
(one per set) gives one value: the median it reported. The values of
each side are pooled across its files, and the pair gets one verdict:

- ``unresolved`` — either side's run-to-run spread (q3 − q1 of its
  values, as a share of their median) exceeds the metric's bound,
  unless every new run beats every base run (then ``better``);
- ``regression`` — the new median reads worse than the base median by
  more than the bound;
- ``better`` — it reads better by more than the bound;
- ``ok`` — within the bound.

A rise in the failed fraction (failed ÷ attempted) is a regression too,
and so is every pair of a workload whose new output was wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from benchmarks.e2e.harness import summary


def load_sets(path: Path) -> List[dict]:
    """The sets a file holds: one ``run``/``trace`` output, or the
    ``sets`` list of a baseline file."""
    doc = json.loads(Path(path).read_text())
    return doc["sets"] if "sets" in doc else [doc]


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    base: Dict[str, float]
    new: Dict[str, float]
    #: how much worse the new median reads, as a share of the base
    #: median (negative when better)
    worse: float
    verdict: str


def _spread(side: Dict[str, float]) -> float:
    return (side["q3"] - side["q1"]) / side["value"] if side["value"] else 0.0


def judge(workload: str, metric: str, spec: dict, base: Sequence[float],
          new: Sequence[float]) -> Row:
    """The verdict for one metric's pooled run values on each side."""
    a, b = summary(base), summary(new)
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    worse = (1.0 if lower else -1.0) * (b["value"] - a["value"]) / a["value"]
    if max(_spread(a), _spread(b)) > bound:
        beats_all = max(new) < min(base) if lower else min(new) > max(base)
        verdict = "better" if beats_all else "unresolved"
    elif worse > bound:
        verdict = "regression"
    elif worse < -bound:
        verdict = "better"
    else:
        verdict = "ok"
    return Row(workload, metric, spec["unit"], a, b, worse, verdict)


def compare(base_sets: List[dict], new_sets: List[dict],
            end_to_end: Dict[str, dict]) -> List[Row]:
    """One row per (workload, metric) both sides measured, plus a
    ``failed_frac`` row per workload."""
    rows = []
    workloads = sorted(set.intersection(
        *(set(s["workloads"]) for s in base_sets + new_sets)))
    for workload in workloads:
        base = [s["workloads"][workload] for s in base_sets]
        new = [s["workloads"][workload] for s in new_sets]
        wrong = not all(r["correct"] for r in new)
        for name, spec in end_to_end.items():
            row = judge(workload, name, spec,
                        [r["metrics"][name]["value"] for r in base],
                        [r["metrics"][name]["value"] for r in new])
            if wrong:
                row.verdict = "regression"
            rows.append(row)
        fractions = [sum(r["failed"] for r in side)
                     / sum(r["attempted"] for r in side)
                     for side in (base, new)]
        point = [{"value": f, "q1": f, "q3": f, "n": len(side)}
                 for f, side in zip(fractions, (base, new))]
        rows.append(Row(workload, "failed_frac", "ratio", *point,
                        worse=fractions[1] - fractions[0],
                        verdict=("regression"
                                 if wrong or fractions[1] > fractions[0]
                                 else "ok")))
    return rows


def render(rows: List[Row]) -> str:
    """The comparison as a text table."""
    lines = [f"{'workload':16} {'metric':12} {'base median [q1, q3]':>34} "
             f"{'new median [q1, q3]':>34} {'worse':>8}  verdict"]
    for row in rows:
        sides = [f"{s['value']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] "
                 f"n={s['n']}" for s in (row.base, row.new)]
        lines.append(f"{row.workload:16} {row.metric:12} {sides[0]:>34} "
                     f"{sides[1]:>34} {row.worse:+8.2%}  {row.verdict}")
    return "\n".join(lines)
