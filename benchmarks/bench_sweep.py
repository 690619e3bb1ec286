"""Search-space sweep throughput: scalar vs batched model engine.

Times a cold exhaustive sweep (full pruned space x register limits) of the
paper's j2d5pt and star3d1r search spaces through the batch engine and the
scalar oracle (``reference_search``), verifies the answers are identical
(same best configuration, exactly equal GFLOPS), and measures the
cold-campaign delta: one model-only campaign matrix (tune + predict jobs) run
once as shipped and once with stage-1 ranking and predict jobs on the scalar
model.  Results go to ``BENCH_sweep.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep.py [--quick] [--check]

``--quick`` shrinks the grids for CI smoke runs; ``--check`` exits non-zero
if any engine pair diverges, the batch sweep speedup falls below 5x, or
observability — metrics instrumentation plus an armed, actively sampling
profiler — adds more than 5% to the campaign wall time.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from benchmarks.common import write_bench  # noqa: E402
from repro import model as model_pkg  # noqa: E402
from repro.campaign import CampaignScheduler, CampaignSpec, ResultStore  # noqa: E402
from repro.ir.stencil import GridSpec  # noqa: E402
from repro.stencils.library import load_pattern  # noqa: E402
from repro.tuning.exhaustive import exhaustive_search, reference_search  # noqa: E402
from repro.tuning.search_space import REGISTER_LIMITS, default_search_space  # noqa: E402

#: CI acceptance threshold for the batch/scalar cold-sweep speedup (the
#: observed ratio is far higher; 5x keeps the gate robust on noisy runners).
SWEEP_SPEEDUP_MIN = 5.0

#: Maximum fraction the metrics instrumentation may add to campaign wall
#: time.  The obs layer observes per job/commit, never per config, so the
#: real overhead is far below this; 5% absorbs runner noise.
OVERHEAD_MAX = 0.05


def _scalar_predict_jobs(specs):
    """Stand-in for ``run_predict_jobs`` on the scalar model: one
    ``predict_performance`` and one ``simulate_performance`` call per job,
    building the payload the batch path stores."""
    from repro.campaign.jobs import _json_safe, _predict_config
    from repro.model.gpu_specs import get_gpu
    from repro.model.roofline import predict_performance
    from repro.sim.timing import simulate_performance

    payloads = []
    for spec in specs:
        pattern = load_pattern(spec.pattern, spec.dtype)
        config = _predict_config(spec, pattern)
        grid = spec.grid()
        predicted = predict_performance(pattern, grid, config, get_gpu(spec.gpu))
        simulated = simulate_performance(pattern, grid, config, spec.gpu)
        payloads.append(
            _json_safe(
                {
                    "bT": config.bT,
                    "bS": list(config.bS),
                    "hS": config.hS,
                    "regs": config.register_limit,
                    "model_gflops": predicted.gflops,
                    "simulated_gflops": simulated.gflops,
                    "model_bottleneck": predicted.bottleneck,
                    "simulated_bottleneck": simulated.bottleneck,
                }
            )
        )
    return payloads


@contextmanager
def _scalar_everything():
    """Run a campaign's model work on the scalar oracle.

    Swaps the tuner's stage-1 ranking for :func:`reference_rank` and the
    scheduler's batched predict runner for :func:`_scalar_predict_jobs`, so
    tune jobs rank and predict jobs evaluate one configuration at a time
    through the scalar model.  The tuner's stage 2 has no scalar path: it
    runs batched on both sides.
    """
    import repro.campaign.scheduler as scheduler_module
    from repro.tuning.autotuner import AutoTuner, reference_rank

    rank = AutoTuner.rank
    run_predict_jobs = scheduler_module.run_predict_jobs
    AutoTuner.rank = lambda self, pattern, grid, space=None: reference_rank(
        pattern, grid, self.gpu, space
    )
    scheduler_module.run_predict_jobs = _scalar_predict_jobs
    try:
        yield
    finally:
        AutoTuner.rank = rank
        scheduler_module.run_predict_jobs = run_predict_jobs


def bench_sweeps(quick: bool) -> list[dict]:
    """Cold full-space sweep of both paper spaces through both engines."""
    workloads = [
        ("j2d5pt", GridSpec((2048, 2048), 200) if quick else GridSpec((16384, 16384), 1000)),
        ("star3d1r", GridSpec((128, 128, 128), 200) if quick else GridSpec((512, 512, 512), 1000)),
    ]
    results = []
    for name, grid in workloads:
        pattern = load_pattern(name, "float")
        space = default_search_space(pattern)

        model_pkg.clear_model_caches()
        start = time.perf_counter()
        batched = exhaustive_search(pattern, grid, "V100", space=space)
        t_batch = time.perf_counter() - start

        model_pkg.clear_model_caches()
        start = time.perf_counter()
        scalar = reference_search(pattern, grid, "V100", space=space)
        t_scalar = time.perf_counter() - start

        identical = (
            batched.best_config == scalar.best_config
            and batched.best_gflops == scalar.best_gflops
            and batched.evaluated == scalar.evaluated
        )
        results.append(
            {
                "pattern": name,
                "grid": list(grid.interior),
                "time_steps": grid.time_steps,
                "space_size": space.size(),
                "register_limits": len(REGISTER_LIMITS),
                "evaluated": batched.evaluated,
                "identical": identical,
                "batch_seconds": t_batch,
                "scalar_seconds": t_scalar,
                "batch_configs_per_s": batched.evaluated / t_batch,
                "scalar_configs_per_s": scalar.evaluated / t_scalar,
                "speedup": t_scalar / t_batch,
            }
        )
    return results


def bench_campaign(quick: bool) -> dict:
    """Cold model-only campaign matrix: batched engines vs scalar-everything."""
    benchmarks = ("j2d5pt", "star3d1r") if quick else ("j2d5pt", "j2d9pt", "gradient2d", "star3d1r")
    spec = CampaignSpec(
        benchmarks=benchmarks,
        gpus=("V100", "P100"),
        dtypes=("float",),
        kinds=("tune", "predict"),
        time_steps=200 if quick else 1000,
        interior_2d=(2048, 2048) if quick else (16384, 16384),
        interior_3d=(128, 128, 128) if quick else (512, 512, 512),
    )

    def cold_run():
        model_pkg.clear_model_caches()
        with ResultStore(":memory:") as store:
            start = time.perf_counter()
            outcome = CampaignScheduler(spec, store).run()
            elapsed = time.perf_counter() - start
            records = store.export_records()
        return outcome, elapsed, records

    batch_outcome, t_batch, batch_records = cold_run()
    with _scalar_everything():
        scalar_outcome, t_scalar, scalar_records = cold_run()

    return {
        "jobs": batch_outcome.total,
        "kinds": list(spec.kinds),
        "benchmarks": list(benchmarks),
        "identical": batch_records == scalar_records,
        "batch_seconds": t_batch,
        "scalar_seconds": t_scalar,
        "batch_configs_per_s": batch_outcome.configs_per_s,
        "scalar_configs_per_s": scalar_outcome.configs_per_s,
        "speedup": t_scalar / t_batch,
    }


def bench_overhead(quick: bool, iterations: int = 320) -> dict:
    """Instrumentation overhead: the same campaign with metrics on and off.

    Runs the batched model-only campaign against the live default registry
    — with the sampling profiler armed *and actively sampling*, the worst
    observability-on case — and against :data:`NULL_REGISTRY` with the
    profiler off (every observe a no-op).  Cold single-campaign iterations
    of the two kinds are interleaved one-for-one (order flipping each
    round, so neither kind systematically rides warmer CPU state), and
    the overhead is the ratio of the per-kind *minimum* iteration times:
    scheduler and machine jitter are strictly additive, so the minima
    converge on the true floors while a mean or median would inherit
    whatever load the runner was under.  A quick campaign takes ~4-5 ms,
    so its fixed costs weigh heavily: 320 iterations per kind steady the
    quick reading, where 80 swung by several points run to run.
    """
    from repro.obs import NULL_REGISTRY, PROFILER, MetricsRegistry, set_registry

    benchmarks = ("j2d5pt", "star3d1r") if quick else ("j2d5pt", "j2d9pt", "gradient2d", "star3d1r")
    spec = CampaignSpec(
        benchmarks=benchmarks,
        gpus=("V100",),
        dtypes=("float",),
        kinds=("tune", "predict"),
        time_steps=200 if quick else 1000,
        interior_2d=(2048, 2048) if quick else (16384, 16384),
        interior_3d=(128, 128, 128) if quick else (512, 512, 512),
    )

    iterations = iterations if quick else max(4, iterations // 10)

    def cold_iteration() -> float:
        model_pkg.clear_model_caches()
        with ResultStore(":memory:") as store:
            start = time.perf_counter()
            CampaignScheduler(spec, store).run()
            return time.perf_counter() - start

    # One long-lived registry, as deployed: a fresh registry per iteration
    # would bill every series' first-touch allocation to the timed region,
    # which is start-up cost, not steady-state overhead.
    registry = MetricsRegistry()

    def instrumented_iteration() -> float:
        set_registry(registry)
        # Armed profiler: the scheduler's hot-path window really samples
        # during the run (the sampler period is shorter than one quick
        # campaign, so even the fastest iteration contains a tick) — the
        # gate covers streaming-era observability at its most expensive,
        # not just metric increments.  Holding our own acquisition keeps
        # the sampler-thread spawn/join outside the timed region: the
        # scheduler's window then just refcounts, as it does on real
        # campaigns whose seconds-long runs amortize the thread churn this
        # millisecond-sized benchmark campaign cannot.
        PROFILER.arm()
        PROFILER.start()
        try:
            return cold_iteration()
        finally:
            PROFILER.stop()
            PROFILER.disarm()

    def bare_iteration() -> float:
        set_registry(NULL_REGISTRY)
        return cold_iteration()

    instrumented, bare = [], []
    # Warmup both kinds: first-touch costs (model caches, registry series,
    # sampler thread) must not land on any timed iteration.
    bare_iteration()
    instrumented_iteration()
    try:
        for index in range(iterations):
            if index % 2 == 0:
                instrumented.append(instrumented_iteration())
                bare.append(bare_iteration())
            else:
                bare.append(bare_iteration())
                instrumented.append(instrumented_iteration())
    finally:
        PROFILER.disarm()
        set_registry(MetricsRegistry())

    def floor(times: list) -> float:
        # Mean of the k fastest: converges like the minimum but does not
        # hinge the whole estimate on a single lucky (or unlucky) sample.
        fastest = sorted(times)[: max(1, len(times) // 16)]
        return sum(fastest) / len(fastest)

    t_on, t_off = floor(instrumented), floor(bare)
    overhead = (t_on - t_off) / t_off if t_off > 0 else 0.0
    return {
        "jobs_per_run": len(benchmarks) * 2,  # tune + predict per benchmark
        "iterations_per_kind": iterations,
        "profiler_armed": True,
        "profiler_samples": PROFILER.samples,
        "instrumented_seconds": t_on,
        "null_registry_seconds": t_off,
        "overhead_fraction": overhead,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI-sized workloads")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on divergence or sweep speedup < 5x",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_sweep.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    print(f"== bench_sweep ({'quick' if args.quick else 'full'}) ==")
    sweeps = bench_sweeps(args.quick)
    for sweep in sweeps:
        print(
            f"{sweep['pattern']:<10}: batch {sweep['batch_configs_per_s']:10.0f} configs/s "
            f"(scalar {sweep['scalar_configs_per_s']:8.0f}) -> {sweep['speedup']:.1f}x "
            f"over {sweep['evaluated']} runs, identical={sweep['identical']}"
        )

    campaign = bench_campaign(args.quick)
    print(
        f"campaign  : batch {campaign['batch_seconds']:.2f}s "
        f"(scalar {campaign['scalar_seconds']:.2f}s) -> {campaign['speedup']:.1f}x "
        f"over {campaign['jobs']} cold jobs, identical={campaign['identical']}"
    )

    overhead = bench_overhead(args.quick)
    print(
        f"overhead  : instrumented {overhead['instrumented_seconds']:.2f}s "
        f"(null registry {overhead['null_registry_seconds']:.2f}s) -> "
        f"{overhead['overhead_fraction'] * 100:+.1f}%"
    )

    identical = all(sweep["identical"] for sweep in sweeps) and campaign["identical"]
    speedup_ok = all(sweep["speedup"] >= SWEEP_SPEEDUP_MIN for sweep in sweeps)
    overhead_ok = overhead["overhead_fraction"] <= OVERHEAD_MAX
    met = identical and speedup_ok and overhead_ok

    output = Path(args.output)
    write_bench(
        output,
        "sweep",
        {
            "quick": args.quick,
            "sweeps": sweeps,
            "campaign": campaign,
            "overhead": overhead,
            "thresholds": {
                "sweep_speedup_min": SWEEP_SPEEDUP_MIN,
                "overhead_max": OVERHEAD_MAX,
                "identical": identical,
                "overhead_ok": overhead_ok,
                "met": met,
            },
        },
        units={
            "batch_seconds": "s",
            "scalar_seconds": "s",
            "batch_configs_per_s": "configs/s",
            "scalar_configs_per_s": "configs/s",
            "speedup": "ratio",
            "overhead_fraction": "ratio",
        },
    )
    print(f"wrote {output}")
    print(
        f"thresholds (identical results, sweep >= {SWEEP_SPEEDUP_MIN}x, "
        f"overhead <= {OVERHEAD_MAX:.0%}): {'MET' if met else 'NOT MET'}"
    )
    if args.check and not met:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
