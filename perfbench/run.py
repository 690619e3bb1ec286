"""The AN5D benchmark: one command, three seeded workloads.

Usage::

    python3 perfbench/run.py --workload table3-tune|verify-exec|service-mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root (no install needed: ``src/`` is put on the
import path).  The run prints the host facts the numbers depend on, a table
of every metric it measured (name, value, unit, sample count), and as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``; a layer the workload never crosses
reads 0).  End-to-end metrics carry shared names across workloads; each
workload's table maps them to its own (``op_ms_p50`` is ``tune_ms_p50`` on
``table3-tune``, ``verify_ms_p50`` on ``verify-exec`` and
``predict_ms_p50`` on ``service-mixed``; ``op_ms_tail`` is the highest
percentile that repeats from run to run on that workload).  ``op2_*`` and
``op3_ms_p50`` cover a workload's second and third operation classes:
``/tune`` requests and campaigns (submit to done) on ``service-mixed``,
the 3-D and the 2-D items on ``table3-tune`` and ``verify-exec`` (where
the 3-D tail is the mean of the slowest tenth of the item medians).
Latencies, rates and set-up times are scaled to a reference host speed
measured during the run (see ``harness.python_speed``); the table also
prints the unscaled ``..._raw`` figures.

The exit code is 0 only when every attempted operation succeeded and every
output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from typing import Dict, List, Optional

from harness import ROOT, SRC, Report, prepare_environment

WORKLOADS = ("table3-tune", "verify-exec", "service-mixed")


def host_facts() -> Dict[str, str]:
    import numpy

    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if os.environ.get("REPRO_NO_NATIVE", "0") == "1":
        compiler = None
    rev = "unknown"
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if completed.returncode == 0:
            rev = completed.stdout.strip()
    return {
        "nproc": str(os.cpu_count()),
        "native_compiler": compiler or "none (NumPy kernel tier only)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
    }


def load_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def result_metrics(report: Report, spec: Dict[str, object], names: Dict[str, str], trace: bool) -> Dict[str, Dict[str, object]]:
    """The metrics the final JSON line carries, in ``BENCHMARK.json`` order."""
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        source = names.get(name, name)
        measured = report.metrics.get(source)
        if measured is None and not trace and "_ms_" in source:
            # Too few samples for this tail (short runs only): the median
            # is the highest percentile with ten samples beyond it.
            fallback = source.rsplit("_", 1)[0] + "_p50"
            measured = report.metrics.get(fallback)
            report.notes.append(f"{name}: too few samples, reporting {fallback}")
        if measured is None:
            if not trace:
                raise RuntimeError(f"end-to-end metric {name!r} was not measured")
            value = 0.0  # this workload never crosses that layer
        else:
            value = measured.value
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def print_report(workload: str, report: Report, facts: Dict[str, str], names: Dict[str, str]) -> None:
    print(f"== {workload} ==")
    print("host: " + "  ".join(f"{key}={value}" for key, value in facts.items()))
    aliases = {local: shared for shared, local in names.items()}
    for name in sorted(report.metrics):
        metric = report.metrics[name]
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        print(f"  {name:32s} {metric.value:14.4f} {metric.unit:9s} n={metric.samples}{alias}")
    frac = report.failed / report.attempted if report.attempted else 0.0
    print(f"  {'failed_frac':32s} {frac:14.4f} {'ratio':9s} n={report.attempted}")
    for note in report.notes:
        print(f"  note: {note}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true",
        help="a few operations only (the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2

    env = prepare_environment()
    spec = load_spec()
    if args.workload == "table3-tune":
        import table3_tune as module
    elif args.workload == "verify-exec":
        import verify_exec as module
    else:
        import service_mixed as module
    report = module.run(args.seed, args.seconds, bool(args.trace), env, short=args.short)
    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": result_metrics(report, spec, module.E2E_NAMES, bool(args.trace)),
    }
    print_report(args.workload, report, host_facts(), module.E2E_NAMES)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
