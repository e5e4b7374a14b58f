"""Command line of the end-to-end benchmark.

One workload, as the command in ``BENCHMARK.json`` runs it
(the last stdout line is the JSON result)::

    python3 -m benchmarks.e2e --workload sim_socialnet --seed 7 \\
        --seconds 15 --trace 0

A whole set, each workload in a fresh interpreter, printed as a table
and written as one JSON file (the options go before the command)::

    python3 -m benchmarks.e2e [--seed N] [--seconds S] [--out F] run
    python3 -m benchmarks.e2e [--seed N] [--seconds S] [--out F] trace

Two groups of sets against ``BENCHMARK.json``'s bounds::

    python3 -m benchmarks.e2e compare --base A.json... --new B.json...

``run`` and ``trace`` exit 1 when any workload's output is wrong;
``compare`` exits 1 on any regression or unresolved pair.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e.harness import (
    REPRO,
    ROOT,
    SRC,
    WORKDIR,
    benchmark_spec,
    child_env,
    declared_metrics,
    result_line,
)

DEFAULT_SEED = 7


def _require_sources() -> None:
    if not REPRO.is_dir():
        sys.exit(f"error: no repro sources at {REPRO}; run from a full "
                 f"checkout of the repository")
    sys.path.insert(0, str(SRC))


def _one_workload(args) -> int:
    _require_sources()
    from benchmarks.e2e.harness import measure

    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(json.dumps(result_line(record)))
    return 0 if record["correct"] else 1


def _print_record(record: dict) -> None:
    verdict = "correct" if record["correct"] else "WRONG"
    pinned = "pinned ok" if record["pinned"] else "not pinned at this seed"
    print(f"{record['workload']}  {verdict}  attempted={record['attempted']}"
          f" {record['unit']}  failed={record['failed']}  "
          f"digest={record['digest'][:16]} ({pinned})")
    for problem in record["problems"]:
        print(f"    ! {problem}")
    for name, m in record["metrics"].items():
        print(f"    {name:32} {m['value']:>14.6g} {m['unit']:10} "
              f"[{m['q1']:.6g}, {m['q3']:.6g}] n={m['n']}")
    for name, m in record.get("per_layer", {}).items():
        print(f"    {name:32} {m['value']:>14.6g} {m['unit']}")


def _set(args) -> int:
    """Run every workload in its own interpreter; write one set file."""
    _require_sources()
    traced = args.command == "trace"
    out = Path(args.out or WORKDIR / time.strftime(
        f"{args.command}-%Y%m%d-%H%M%S.json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    workloads, status = {}, 0
    for name in (w["name"] for w in benchmark_spec()["workloads"]):
        part = WORKDIR / f"{name}.part.json"
        command = [sys.executable, "-m", "benchmarks.e2e",
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(int(traced)), "--out", str(part)]
        code = subprocess.run(command, cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL).returncode
        if not part.exists():
            print(f"{name}: failed with exit code {code}")
            status = 1
            continue
        workloads[name] = json.loads(part.read_text())
        part.unlink()
        status |= code != 0
        _print_record(workloads[name])
    doc = {"format": "ditto-e2e-set/1", "command": args.command,
           "seed": args.seed, "seconds": args.seconds,
           "host": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "machine": platform.machine()},
           "workloads": workloads}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return status


def _compare(args) -> int:
    from benchmarks.e2e.compare import compare, load_sets, render

    end_to_end, _ = declared_metrics()
    rows = compare([s for p in args.base for s in load_sets(p)],
                   [s for p in args.new for s in load_sets(p)], end_to_end)
    print(render(rows))
    flagged = [r for r in rows if r.verdict in ("regression", "unresolved")]
    print(f"{len(flagged)} of {len(rows)} pairs flagged")
    return 1 if flagged else 0


def build_parser() -> argparse.ArgumentParser:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e",
        description="end-to-end clone benchmark")
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the JSON here")
    commands = parser.add_subparsers(dest="command")
    for command in ("run", "trace"):
        commands.add_parser(command, help=f"{command} every workload")
    cmp = commands.add_parser("compare", help="compare two groups of sets")
    cmp.add_argument("--base", nargs="+", required=True, type=Path)
    cmp.add_argument("--new", nargs="+", required=True, type=Path)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("run", "trace"):
        return _set(args)
    if args.command == "compare":
        return _compare(args)
    if args.workload is None:
        parser.error("--workload or a command is required")
    return _one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
