"""One cold set-up, measured in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py table3-tune|verify-exec``

Prints one JSON line: the seconds spent importing the library, the
milliseconds of the first piece of real work a user of that workload waits
for (the first tuned stencil, or the first native kernel build), and the
host speed measured before and after both (see ``harness.python_speed``).
"""

from __future__ import annotations

import json
import sys
import time

from harness import python_speed


def main(workload: str) -> None:
    speed_before = python_speed()
    start = time.perf_counter()
    from repro.codegen import generate_cuda
    from repro.core.transform import an5d_transform
    from repro.frontend.stencil_detect import parse_stencil
    from repro.ir.compile import CompileError, compile_pattern
    from repro.stencils.library import get_benchmark
    from repro.tuning.autotuner import AutoTuner
    from repro.tuning.search_space import default_search_space

    imported = time.perf_counter()
    benchmark = get_benchmark("j2d5pt")
    native = False
    if workload == "table3-tune":
        pattern = parse_stencil(benchmark.source, name=benchmark.name, dtype="float").pattern
        grid = benchmark.default_grid()
        tuner = AutoTuner("V100", top_k=5)
        space = default_search_space(pattern)
        result = tuner.tune_ranked(pattern, grid, tuner.rank(pattern, grid, space), explored=space.size())
        generate_cuda(an5d_transform(pattern, result.best_config))
    elif workload == "verify-exec":
        pattern = benchmark.pattern("float")
        try:
            compile_pattern(pattern, mode="native")
            native = True
        except CompileError:
            compile_pattern(pattern, mode="compiled")
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    done = time.perf_counter()
    print(json.dumps({
        "import_s": imported - start,
        "first_ms": 1000.0 * (done - imported),
        "native": native,
        "speeds": [speed_before, python_speed()],
    }))


if __name__ == "__main__":
    main(sys.argv[1])
