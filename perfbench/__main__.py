"""Command line: run workloads, or compare saved reports.

Run (from the repository root)::

    python3 -m perfbench [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke] [--out FILE]
    python3 -m perfbench compare A1.json [A2.json ...] -- B1.json [...]

Every metric is printed as ``workload metric value unit``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the ``end_to_end`` metrics of
``BENCHMARK.json`` (or, with ``--trace 1``, its ``per_layer`` ones).
Without ``--workload`` every workload runs, each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

from perfbench import ROOT, load_benchmark
from perfbench.compare import compare
from perfbench.runner import WORK_DIR, InvalidPlanError, WorkloadResult, run_workload
from perfbench.workloads import DEFAULT_SEED, SMOKE, WORKLOADS

from repro.context.store import atomic_write_text


def _json_safe(value):
    """NaN and infinities become ``null``; JSON has no literal for them."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_safe(item) for item in value]
    return value


def _report_entry(result: WorkloadResult) -> Dict[str, object]:
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            metric.name: {"value": metric.value, "unit": metric.unit}
            for metric in result.metrics
        },
        "mismatches": result.mismatches,
    }


def _write_report(path: str, args, entries: Dict[str, Dict[str, object]]) -> None:
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "workloads": entries,
    }
    atomic_write_text(path, json.dumps(_json_safe(report), indent=2) + "\n")


def _result_line(entry: Dict[str, object], trace: int) -> str:
    """The contract's last line: the BENCHMARK.json metrics of one run."""
    section = "per_layer" if trace else "end_to_end"
    names = [spec["name"] for spec in load_benchmark()[section]]
    return json.dumps(_json_safe({
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {name: entry["metrics"][name] for name in names},
    }))


def _run_one(args) -> int:
    workloads = SMOKE if args.smoke else WORKLOADS
    try:
        result = run_workload(
            workloads[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except InvalidPlanError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    for metric in result.metrics:
        print(f"{result.workload} {metric.name} {metric.value!r} {metric.unit}")
    for mismatch in result.mismatches:
        print(f"perfbench: cost mismatch {json.dumps(mismatch)}", file=sys.stderr)
    entry = _report_entry(result)
    if args.out:
        _write_report(args.out, args, {result.workload: entry})
    print(_result_line(entry, args.trace), flush=True)
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so memory and warm state stay its own."""
    entries: Dict[str, Dict[str, object]] = {}
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
        for name in WORKLOADS:
            out = os.path.join(workdir, f"{name}.json")
            command = [
                sys.executable, "-m", "perfbench", "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", out,
            ] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            # Pass the metric lines through; the child's JSON line is its own.
            sys.stdout.write("".join(child.stdout.splitlines(True)[:-1]))
            if child.returncode != 0:
                print(f"perfbench: workload {name} failed", file=sys.stderr)
                return child.returncode
            with open(out, encoding="utf-8") as handle:
                entries.update(json.load(handle)["workloads"])
    if args.out:
        _write_report(args.out, args, entries)
    print(json.dumps({
        "correct": all(entry["correct"] for entry in entries.values()),
        "attempted": sum(entry["attempted"] for entry in entries.values()),
        "failed": sum(entry["failed"] for entry in entries.values()),
        "metrics": {
            f"{workload}.{name}": metric
            for workload, entry in entries.items()
            for name, metric in entry["metrics"].items()
        },
    }), flush=True)
    return 0


def _compare(argv: List[str]) -> int:
    if "--" not in argv:
        print("usage: python -m perfbench compare A.json [...] -- B.json [...]",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("perfbench compare: each side needs at least one report", file=sys.stderr)
        return 2
    try:
        lines, worse = compare(a_paths, b_paths, load_benchmark())
    except ValueError as error:
        print(f"perfbench compare: {error}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return _compare(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=load_benchmark()["run_seconds"],
                        help="measured seconds per run (default: run_seconds of "
                             "BENCHMARK.json, %(default)s); compare refuses "
                             "reports of different lengths")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: wrap the layers and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pools, one pass per workload, no time limit")
    parser.add_argument("--out", help="also write the full report as JSON here")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    if args.workload:
        return _run_one(args)
    return _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
