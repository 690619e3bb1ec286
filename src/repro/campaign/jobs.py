"""Job specifications for campaign runs.

A :class:`JobSpec` is a fully serialisable description of one unit of work:
"tune j2d5pt for V100 in double precision on the paper's grid".  Specs carry
only primitives (names, tuples, numbers) so they pickle cheaply into worker
processes and hash deterministically; patterns, GPU specs and grids are
resolved inside the worker.

The content address (:meth:`JobSpec.key`) is a SHA-256 over the canonical
JSON encoding of the spec plus the code version, so a result computed by an
older incompatible version of the library is never mistaken for current.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

import repro
from repro.core.config import BlockingConfig
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.gpu_specs import GPUS, get_gpu
from repro.stencils.generators import fuzz_name, fuzz_stencil, parse_fuzz_name
from repro.stencils.library import (
    BENCHMARKS,
    DEFAULT_2D_GRID,
    DEFAULT_3D_GRID,
    DEFAULT_TIME_STEPS,
    get_benchmark,
    load_pattern,
)

if TYPE_CHECKING:
    from repro.model.batch import BatchMeasurement, BatchPrediction
    from repro.tuning.autotuner import TuningResult

#: The kinds of work a campaign can schedule.
JOB_KINDS: Tuple[str, ...] = ("tune", "exhaustive", "verify", "baseline", "predict", "fuzz")

#: Baseline frameworks expanded by the ``baseline`` job kind.
BASELINE_FRAMEWORKS: Tuple[str, ...] = ("loop", "hybrid", "stencilgen")

#: Small grids used by ``verify`` jobs — functional verification runs the
#: NumPy executors, which would never finish on the paper's full grids.
VERIFY_GRID_2D: Tuple[int, ...] = (96, 96)
VERIFY_GRID_3D: Tuple[int, ...] = (32, 48, 48)
VERIFY_TIME_STEPS = 8


def _canonical(value: object) -> object:
    """Make a value JSON-canonical (tuples become lists, keys sorted later)."""
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    return value


def shard_of_key(key: str, shards: int) -> int:
    """Stable shard of a job *content address* in ``[0, shards)``.

    Callers that already hold the key (the store, the coordinator's status
    aggregation) use this directly instead of re-hashing the spec.
    """
    return int(key[:8], 16) % max(1, shards)


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit of campaign work.

    ``params`` holds kind-specific settings (``top_k`` for tuning, blocking
    parameters for verify/predict, the framework name for baselines) as a
    sorted tuple of key/value pairs so the spec stays hashable.
    """

    kind: str
    pattern: str
    gpu: str
    dtype: str
    interior: Tuple[int, ...]
    time_steps: int
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}")
        # GPU aliases ("v100", "volta") normalise to the registry's canonical
        # short name here, in the spec itself, so every submit route — CLI
        # matrix expansion, direct construction, HTTP wire decode — produces
        # the same content address for the same work.
        object.__setattr__(self, "gpu", _canonical_gpu_name(self.gpu))
        object.__setattr__(self, "interior", tuple(int(v) for v in self.interior))
        object.__setattr__(
            self, "params", tuple(sorted((str(k), _freeze(v)) for k, v in self.params))
        )

    # -- identity ------------------------------------------------------------
    def params_dict(self) -> Dict[str, object]:
        return {k: v for k, v in self.params}

    def canonical(self, code_version: Optional[str] = None) -> str:
        """Canonical JSON encoding used for content addressing."""
        payload = {
            "kind": self.kind,
            "pattern": self.pattern,
            "gpu": self.gpu,
            "dtype": self.dtype,
            "interior": list(self.interior),
            "time_steps": self.time_steps,
            "params": _canonical(self.params_dict()),
            "version": code_version if code_version is not None else repro.__version__,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def key(self, code_version: Optional[str] = None) -> str:
        """Deterministic content address of this job."""
        return hashlib.sha256(self.canonical(code_version).encode()).hexdigest()

    def shard(self, shards: int) -> int:
        """Stable shard assignment in ``[0, shards)``."""
        return shard_of_key(self.key(), shards)

    def grid(self) -> GridSpec:
        return GridSpec(self.interior, self.time_steps)

    def describe(self) -> str:
        grid = "x".join(str(v) for v in self.interior)
        extra = ""
        framework = self.params_dict().get("framework")
        if framework:
            extra = f" [{framework}]"
        return f"{self.kind} {self.pattern} on {self.gpu}/{self.dtype} ({grid}){extra}"

    # -- wire format ---------------------------------------------------------
    _JSON_FIELDS = ("kind", "pattern", "gpu", "dtype", "interior", "time_steps", "params")

    def to_json(self) -> Dict[str, object]:
        """JSON-safe mapping; ``from_json`` round-trips it key-identically."""
        return {
            "kind": self.kind,
            "pattern": self.pattern,
            "gpu": self.gpu,
            "dtype": self.dtype,
            "interior": list(self.interior),
            "time_steps": self.time_steps,
            "params": _canonical(self.params_dict()),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "JobSpec":
        """Decode a spec from untrusted JSON.

        Strict by design: unknown fields are rejected (a typo like
        ``"patern"`` must not silently submit default work), and the decoded
        spec normalises GPU aliases exactly like direct construction, so the
        content address is stable across submit routes.
        """
        if not isinstance(data, Mapping):
            raise ValueError("job spec must be a JSON object")
        unknown = sorted(set(data) - set(cls._JSON_FIELDS))
        if unknown:
            raise ValueError(f"unknown job spec field(s): {', '.join(unknown)}")
        missing = [f for f in cls._JSON_FIELDS if f != "params" and f not in data]
        if missing:
            raise ValueError(f"missing job spec field(s): {', '.join(missing)}")
        params = data.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError("job spec params must be a JSON object")
        if isinstance(data["interior"], (str, Mapping)):
            # tuple("512") would silently become (5, 1, 2).
            raise ValueError("job spec field 'interior' must be a JSON array")
        return cls(
            kind=str(data["kind"]),
            pattern=str(data["pattern"]),
            gpu=str(data["gpu"]),
            dtype=str(data["dtype"]),
            interior=tuple(data["interior"]),  # type: ignore[arg-type]
            time_steps=int(data["time_steps"]),  # type: ignore[arg-type]
            params=tuple(params.items()),
        )


def _freeze(value: object) -> object:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _unique(values) -> Tuple:
    """Drop repeats while keeping first-seen order."""
    seen: Dict[object, None] = {}
    for value in values:
        seen.setdefault(value)
    return tuple(seen)


def _canonical_gpu_name(name: str) -> str:
    """The registry's short name ("V100") for any accepted alias."""
    spec = get_gpu(name)  # raises KeyError for unknown GPUs
    return next(short_name for short_name, registered in GPUS.items() if registered is spec)


# ---------------------------------------------------------------------------
# Job execution
# ---------------------------------------------------------------------------


def _json_safe(value: object) -> object:
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, float):
        # Canonical float formatting keeps exports byte-stable across runs.
        return round(value, 10)
    return value


def _tune_payload(result: TuningResult) -> Dict[str, object]:
    """The payload of a tune job: the tuned configuration and its numbers."""
    config = result.best_config
    return _json_safe(
        {
            "bT": config.bT,
            "bS": list(config.bS),
            "hS": config.hS,
            "regs": config.register_limit,
            "tuned_gflops": result.best.measured_gflops,
            "model_gflops": result.best.predicted_gflops,
            "model_accuracy": result.model_accuracy,
            "explored": result.explored,
            "pruned_to": result.pruned_to,
        }
    )


def _run_tune(spec: JobSpec) -> Dict[str, object]:
    from repro.tuning.autotuner import AutoTuner

    params = spec.params_dict()
    pattern = load_pattern(spec.pattern, spec.dtype)
    tuner = AutoTuner(spec.gpu, top_k=int(params.get("top_k", 5)))
    return _tune_payload(tuner.tune(pattern, spec.grid()))


def _run_exhaustive(spec: JobSpec) -> Dict[str, object]:
    from repro.tuning.exhaustive import exhaustive_search

    pattern = load_pattern(spec.pattern, spec.dtype)
    result = exhaustive_search(pattern, spec.grid(), spec.gpu)
    config = result.best_config
    return {
        "bT": config.bT,
        "bS": list(config.bS),
        "hS": config.hS,
        "regs": config.register_limit,
        "best_gflops": result.best_gflops,
        "evaluated": result.evaluated,
    }


def _run_verify(spec: JobSpec) -> Dict[str, object]:
    from repro.sim.executor import verify_blocking

    params = spec.params_dict()
    pattern = load_pattern(spec.pattern, spec.dtype)
    config = BlockingConfig(
        bT=int(params.get("bT", 4)),
        bS=tuple(params.get("bS", (32,))),
        hS=params.get("hS"),
    )
    result = verify_blocking(pattern, spec.grid(), config, seed=int(params.get("seed", 0)))
    return {
        "bT": config.bT,
        "bS": list(config.bS),
        "matches": bool(result.matches),
        "max_relative_error": result.max_relative_error,
    }


def _run_baseline(spec: JobSpec) -> Dict[str, object]:
    from repro.baselines import HybridTilingBaseline, LoopTilingBaseline, StencilGenBaseline

    params = spec.params_dict()
    framework = str(params.get("framework", "stencilgen"))
    pattern = load_pattern(spec.pattern, spec.dtype)
    gpu = get_gpu(spec.gpu)
    simulators = {
        "loop": LoopTilingBaseline,
        "hybrid": HybridTilingBaseline,
        "stencilgen": StencilGenBaseline,
    }
    if framework not in simulators:
        raise ValueError(f"unknown baseline framework {framework!r}")
    result = simulators[framework](gpu).simulate(pattern, spec.grid())
    return {"framework": framework, "gflops": result.gflops, "time_s": result.time_s}


def _run_fuzz(spec: JobSpec) -> Dict[str, object]:
    """One differential-fuzzing job: four independent oracle comparisons.

    1. frontend round trip — generated C source, parsed back, must lower to
       IR bit-equal to the directly-built pattern;
    2. compiled kernel vs. the tree-walking interpreter oracle, bit-exact;
    3. blocked executor vs. the NumPy reference (tolerance of reassociation);
    4. batched model engine vs. the scalar model, exact float equality.

    The payload is a structured pass/divergence record with no timestamps or
    environment-dependent fields, so store exports stay byte-identical
    across runs and machines.
    """
    import numpy as np

    from repro.frontend.stencil_detect import parse_stencil
    from repro.ir.compile import compile_pattern
    from repro.model.batch import BatchModelEngine, ConfigBatch
    from repro.model.roofline import predict_performance
    from repro.sim.executor import verify_blocking
    from repro.sim.timing import simulate_performance
    from repro.stencils.reference import ReferenceExecutor, make_initial_grid
    from repro.tuning.search_space import REGISTER_LIMITS

    params = spec.params_dict()
    seed = int(params.get("seed", 0))
    benchmark = get_benchmark(spec.pattern)
    pattern = load_pattern(spec.pattern, spec.dtype)
    grid = spec.grid()
    checks: List[Dict[str, object]] = []

    def record(check: str, passed: bool, detail: str = "") -> None:
        checks.append({"check": check, "passed": bool(passed), "detail": detail})

    # Fuzz jobs are named fuzz-SEED-INDEX: the generator builds the IR
    # directly, bypassing the frontend.
    reference = fuzz_stencil(*parse_fuzz_name(spec.pattern)).build_pattern(spec.dtype)
    parsed = parse_stencil(benchmark.source, name=spec.pattern, dtype=spec.dtype).pattern
    same = (
        parsed.expr == reference.expr
        and parsed.ndim == reference.ndim
        and parsed.array == reference.array
    )
    record("frontend_roundtrip", same, "" if same else "parsed IR differs from direct IR")

    initial = make_initial_grid(pattern, grid, seed=seed)
    oracle = ReferenceExecutor(pattern, compile_pattern(pattern, mode="interpreter"))
    compiled = ReferenceExecutor(pattern, compile_pattern(pattern, mode="compiled"))
    same = bool(
        np.array_equal(
            oracle.run(initial, grid.time_steps),
            compiled.run(initial, grid.time_steps),
            equal_nan=True,
        )
    )
    record(
        "compiled_vs_interpreter", same,
        "" if same else "compiled kernel diverges from the interpreter oracle",
    )

    # The largest standard verify degree the stencil's halo admits: high-order
    # stencils (e.g. radius 4 on a 32-wide block) leave no compute region at
    # bT=4, so the degree backs off deterministically per pattern.  Fuzz radii
    # (at most 4 in 2-D, 3 in 3-D) always leave one at bT=1.
    bS = (32,) if pattern.ndim == 2 else (16, 16)
    degrees = (4, 3, 2, 1) if pattern.ndim == 2 else (2, 1)
    config = next(
        candidate
        for bT in degrees
        for candidate in [BlockingConfig(bT=bT, bS=bS)]
        if candidate.is_valid(pattern)
    )
    # Each fuzz stencil has its own random coefficients, so its kernel
    # runs this once and a native build would never be reused.
    blocked = verify_blocking(pattern, grid, config, seed=seed, kernel_mode="compiled")
    record(
        "blocked_vs_reference", blocked.matches,
        "" if blocked.matches else f"max_relative_error={blocked.max_relative_error:.3e}",
    )

    # Every register limit, capped ones included: the tuner's stage 2 reads
    # the capped rows from the batch engine.
    model_configs = [
        BlockingConfig(bT=bT, bS=(32,) if pattern.ndim == 2 else (16, 16), register_limit=limit)
        for bT in (1, 2, 4)
        for limit in REGISTER_LIMITS
    ]
    # Fuzz stencils are 2-D or 3-D, inside the batch engine's support, and
    # bT=1 is valid for every one of them.
    model_configs = [c for c in model_configs if c.is_valid(pattern)]
    gpu = get_gpu(spec.gpu)
    engine = BatchModelEngine(pattern, grid, gpu)
    batch = ConfigBatch.from_configs(model_configs)
    traffic = engine.traffic(batch)
    predicted = engine.predict(batch, traffic)
    simulated = engine.simulate(batch, traffic)
    same = all(
        float(predicted.gflops[index])
        == predict_performance(pattern, grid, config, gpu).gflops
        and float(simulated.gflops[index])
        == simulate_performance(pattern, grid, config, spec.gpu).gflops
        for index, config in enumerate(model_configs)
    )
    record(
        "batch_vs_scalar_model", same,
        "" if same else "batch engine diverges from the scalar model",
    )

    divergences = sum(1 for check in checks if not check["passed"])
    return {
        "ndim": pattern.ndim,
        "offsets": len(pattern.offsets),
        "checks": checks,
        "divergences": divergences,
        "passed": divergences == 0,
    }


_RUNNERS = {
    "tune": _run_tune,
    "exhaustive": _run_exhaustive,
    "verify": _run_verify,
    "baseline": _run_baseline,
    "fuzz": _run_fuzz,
}


def run_job(spec: JobSpec) -> Dict[str, object]:
    """Execute one job and return its JSON-safe result payload.

    A predict job runs as a batch group of one (:func:`run_predict_jobs`),
    so every predict answer comes from the batched model engine.
    """
    if spec.kind == "predict":
        (result,) = run_predict_jobs([spec])
        if isinstance(result, Exception):
            raise result
        return result
    return _json_safe(_RUNNERS[spec.kind](spec))


# ---------------------------------------------------------------------------
# Batched model-only execution
# ---------------------------------------------------------------------------


def predict_batch_key(spec: JobSpec) -> Tuple[object, ...]:
    """Jobs sharing this key evaluate against one (pattern, grid, GPU)."""
    return (spec.pattern, spec.gpu, spec.dtype, spec.interior, spec.time_steps)


def _predict_config(spec: JobSpec, pattern: StencilPattern) -> BlockingConfig:
    """The blocking configuration a predict job describes, validated."""
    params = spec.params_dict()
    config = BlockingConfig(
        bT=int(params.get("bT", 4)),
        bS=tuple(params.get("bS", (256,) if pattern.ndim == 2 else (32, 32))),
        hS=params.get("hS"),
        register_limit=params.get("regs"),
    )
    config.validate(pattern)
    return config


def _predict_payload(
    config: BlockingConfig,
    predicted: BatchPrediction,
    simulated: BatchMeasurement,
    row: int,
) -> Dict[str, object]:
    """The payload of a predict job: row ``row`` of the batch engine's results."""
    return _json_safe(
        {
            "bT": config.bT,
            "bS": list(config.bS),
            "hS": config.hS,
            "regs": config.register_limit,
            "model_gflops": float(predicted.gflops[row]),
            "simulated_gflops": float(simulated.gflops[row]),
            "model_bottleneck": predicted.bottleneck_name(row),
            "simulated_bottleneck": simulated.bottleneck_name(row),
        }
    )


def run_predict_jobs(specs: List[JobSpec]) -> List[Union[Dict[str, object], Exception]]:
    """Execute the predict jobs of one batch group in a single model pass.

    All specs must share :func:`predict_batch_key`.  Each result is the
    job's payload, or the error its own parameters raise (typically a
    :class:`~repro.core.config.ConfigurationError`); the valid rows are
    evaluated together either way.  Errors that concern the whole group —
    an unknown stencil, a grid the stencil cannot run on — are raised.
    """
    from repro.model.batch import BatchModelEngine, ConfigBatch

    if len({predict_batch_key(spec) for spec in specs}) != 1:
        raise ValueError("predict batch mixes incompatible jobs")
    pattern = load_pattern(specs[0].pattern, specs[0].dtype)
    configs: List[Union[BlockingConfig, Exception]] = []
    for spec in specs:
        try:
            configs.append(_predict_config(spec, pattern))
        except (TypeError, ValueError) as error:
            configs.append(error)
    valid = [config for config in configs if isinstance(config, BlockingConfig)]
    if not valid:
        return configs  # type: ignore[return-value]
    engine = BatchModelEngine(pattern, specs[0].grid(), get_gpu(specs[0].gpu))
    batch = ConfigBatch.from_configs(valid)
    traffic = engine.traffic(batch)
    predicted = engine.predict(batch, traffic)
    simulated = engine.simulate(batch, traffic)
    rows = iter(range(len(valid)))
    return [
        _predict_payload(config, predicted, simulated, next(rows))
        if isinstance(config, BlockingConfig)
        else config
        for config in configs
    ]


# ---------------------------------------------------------------------------
# Campaign expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative campaign: benchmarks x GPUs x dtypes x job kinds.

    ``expand()`` produces the full deterministic job list; the scheduler
    dedupes it against the result store before running anything.
    """

    benchmarks: Tuple[str, ...] = ()
    gpus: Tuple[str, ...] = ("V100",)
    dtypes: Tuple[str, ...] = ("float",)
    kinds: Tuple[str, ...] = ("tune",)
    time_steps: int = DEFAULT_TIME_STEPS
    interior_2d: Tuple[int, ...] = DEFAULT_2D_GRID
    interior_3d: Tuple[int, ...] = DEFAULT_3D_GRID
    top_k: int = 5
    fuzz_seed: int = 0
    fuzz_count: int = 0

    def __post_init__(self) -> None:
        benchmarks = _unique(self.benchmarks) or tuple(BENCHMARKS)
        object.__setattr__(self, "benchmarks", benchmarks)
        # Normalise GPU aliases ("v100", "volta") to the registry's canonical
        # short name, then drop repeats, so equivalent campaigns — however
        # they were spelled — share one canonical spec and content address.
        object.__setattr__(
            self, "gpus", _unique(_canonical_gpu_name(gpu) for gpu in self.gpus)
        )
        object.__setattr__(self, "dtypes", _unique(self.dtypes))
        object.__setattr__(self, "kinds", _unique(self.kinds))
        object.__setattr__(self, "interior_2d", tuple(int(v) for v in self.interior_2d))
        object.__setattr__(self, "interior_3d", tuple(int(v) for v in self.interior_3d))
        for name in self.benchmarks:
            get_benchmark(name)  # raises KeyError with the available names
        for dtype in self.dtypes:
            if dtype not in ("float", "double"):
                raise ValueError(f"unknown dtype {dtype!r}; expected 'float' or 'double'")
        for kind in self.kinds:
            if kind not in JOB_KINDS:
                raise ValueError(f"unknown job kind {kind!r}; expected one of {JOB_KINDS}")
        if self.fuzz_count < 0:
            raise ValueError("fuzz_count must be non-negative")
        if ("fuzz" in self.kinds) != (self.fuzz_count > 0):
            raise ValueError(
                "the fuzz kind and fuzz_count > 0 go together: set both or neither"
            )

    def _interior(self, ndim: int) -> Tuple[int, ...]:
        return tuple(self.interior_2d) if ndim == 2 else tuple(self.interior_3d)

    def expand(self) -> List[JobSpec]:
        """All unique jobs of the campaign, in deterministic declaration order.

        Repeated matrix entries (``gpus=("V100", "v100")``) collapse to one
        job: expansion dedupes by content address, so the scheduler's
        totals/cache accounting always refer to distinct work.
        """
        jobs: List[JobSpec] = []
        seen: set = set()
        for kind in self.kinds:
            if kind == "fuzz":
                for job in self._fuzz_jobs():
                    key = job.key()
                    if key not in seen:
                        seen.add(key)
                        jobs.append(job)
                continue
            for name in self.benchmarks:
                benchmark = get_benchmark(name)
                for gpu in self.gpus:
                    for dtype in self.dtypes:
                        for job in self._jobs_for(kind, name, benchmark.ndim, gpu, dtype):
                            key = job.key()
                            if key not in seen:
                                seen.add(key)
                                jobs.append(job)
        return jobs

    def _fuzz_jobs(self) -> List[JobSpec]:
        """The seeded fuzz matrix: ``fuzz_count`` generated stencils per GPU.

        The benchmarks/dtypes axes do not apply — each generated stencil
        carries its own dtype, and functional checks run on the verify-sized
        grids regardless of the campaign's evaluation interiors.
        """
        jobs: List[JobSpec] = []
        for gpu in self.gpus:
            for index in range(self.fuzz_count):
                stencil = fuzz_stencil(self.fuzz_seed, index)
                interior = VERIFY_GRID_2D if stencil.ndim == 2 else VERIFY_GRID_3D
                jobs.append(
                    JobSpec(
                        "fuzz",
                        fuzz_name(self.fuzz_seed, index),
                        gpu,
                        stencil.dtype,
                        interior,
                        VERIFY_TIME_STEPS,
                    )
                )
        return jobs

    def _jobs_for(
        self, kind: str, name: str, ndim: int, gpu: str, dtype: str
    ) -> List[JobSpec]:
        if kind == "verify":
            interior = VERIFY_GRID_2D if ndim == 2 else VERIFY_GRID_3D
            params = (("bT", 4), ("bS", (32,))) if ndim == 2 else (("bT", 2), ("bS", (16, 16)))
            return [
                JobSpec(
                    kind, name, gpu, dtype, interior, VERIFY_TIME_STEPS, params
                )
            ]
        interior = self._interior(ndim)
        if kind == "baseline":
            return [
                JobSpec(
                    kind, name, gpu, dtype, interior, self.time_steps,
                    (("framework", framework),),
                )
                for framework in BASELINE_FRAMEWORKS
            ]
        if kind == "tune":
            return [
                JobSpec(
                    kind, name, gpu, dtype, interior, self.time_steps,
                    (("top_k", self.top_k),),
                )
            ]
        return [JobSpec(kind, name, gpu, dtype, interior, self.time_steps)]

    def size(self) -> int:
        return len(self.expand())

    def describe(self) -> str:
        if self.kinds == ("fuzz",):
            return (
                f"fuzz seed {self.fuzz_seed}: {self.fuzz_count} generated stencil(s) x "
                f"{len(self.gpus)} GPU(s)"
            )
        text = (
            f"{len(self.benchmarks)} benchmark(s) x {len(self.gpus)} GPU(s) x "
            f"{len(self.dtypes)} dtype(s) x kinds {', '.join(self.kinds)}"
        )
        if self.fuzz_count > 0:
            text += f" + fuzz seed {self.fuzz_seed} x {self.fuzz_count}"
        return text

    # -- wire format ---------------------------------------------------------
    _JSON_FIELDS = (
        "benchmarks",
        "gpus",
        "dtypes",
        "kinds",
        "time_steps",
        "interior_2d",
        "interior_3d",
        "top_k",
        "fuzz_seed",
        "fuzz_count",
    )

    def to_json(self) -> Dict[str, object]:
        """Canonical JSON-safe mapping of the (normalised) campaign.

        The fuzz fields are emitted only when the campaign actually carries a
        fuzz matrix, so every pre-existing campaign keeps its exact canonical
        encoding — and therefore its content address and short id.
        """
        data: Dict[str, object] = {
            "benchmarks": list(self.benchmarks),
            "gpus": list(self.gpus),
            "dtypes": list(self.dtypes),
            "kinds": list(self.kinds),
            "time_steps": self.time_steps,
            "interior_2d": list(self.interior_2d),
            "interior_3d": list(self.interior_3d),
            "top_k": self.top_k,
        }
        if self.fuzz_count > 0:
            data["fuzz_seed"] = self.fuzz_seed
            data["fuzz_count"] = self.fuzz_count
        return data

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "CampaignSpec":
        """Decode a campaign from untrusted JSON (strict: no unknown fields).

        Omitted fields take the same defaults as direct construction, so a
        minimal ``{"benchmarks": ["j2d5pt"]}`` submission and the equivalent
        CLI invocation expand to identical job keys.
        """
        if not isinstance(data, Mapping):
            raise ValueError("campaign spec must be a JSON object")
        unknown = sorted(set(data) - set(cls._JSON_FIELDS))
        if unknown:
            raise ValueError(f"unknown campaign spec field(s): {', '.join(unknown)}")
        for name in ("benchmarks", "gpus", "dtypes", "kinds", "interior_2d", "interior_3d"):
            if name in data and isinstance(data[name], (str, Mapping)):
                raise ValueError(f"campaign spec field {name!r} must be a JSON array")
        defaults = {
            "gpus": ("V100",),
            "dtypes": ("float",),
            "kinds": ("tune",),
        }
        return cls(
            benchmarks=tuple(data.get("benchmarks", ())),  # type: ignore[arg-type]
            gpus=tuple(data.get("gpus", defaults["gpus"])),  # type: ignore[arg-type]
            dtypes=tuple(data.get("dtypes", defaults["dtypes"])),  # type: ignore[arg-type]
            kinds=tuple(data.get("kinds", defaults["kinds"])),  # type: ignore[arg-type]
            time_steps=int(data.get("time_steps", DEFAULT_TIME_STEPS)),  # type: ignore[arg-type]
            interior_2d=tuple(data.get("interior_2d", DEFAULT_2D_GRID)),  # type: ignore[arg-type]
            interior_3d=tuple(data.get("interior_3d", DEFAULT_3D_GRID)),  # type: ignore[arg-type]
            top_k=int(data.get("top_k", 5)),  # type: ignore[arg-type]
            fuzz_seed=int(data.get("fuzz_seed", 0)),  # type: ignore[arg-type]
            fuzz_count=int(data.get("fuzz_count", 0)),  # type: ignore[arg-type]
        )

    def canonical(self) -> str:
        """Canonical JSON encoding used for the campaign's content address."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def key(self) -> str:
        """Deterministic content address of the (normalised) campaign.

        Unlike job keys this is version-independent: the same matrix keeps
        one campaign id across code versions; the *job* keys underneath it
        decide what is actually recomputed.
        """
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def short_id(self) -> str:
        """Short campaign/submission id: ``"c"`` + content-address prefix.

        Shared by the HTTP service's campaign ids and the cluster layer's
        submission ids, so one spec resolves to the same id on every
        instance and on the coordinator.
        """
        return "c" + self.key()[:12]
