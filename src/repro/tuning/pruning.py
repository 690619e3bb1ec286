"""Search-space pruning (Section 6.3), as the scalar oracle.

Two families of configurations are discarded before the model ever runs:

* configurations that are structurally invalid for the stencil — the spatial
  block leaves no compute region after subtracting the ``2 * bT * rad`` halo,
  or the thread block exceeds 1024 threads, and
* configurations whose estimated register demand (``bT*(2*rad+1) + bT + 20``
  for float, ``2*bT*(2*rad+1) + bT + 30`` for double) exceeds the 255
  registers-per-thread or 64K registers-per-SM hardware limits.

The tuning paths apply both rules as boolean masks over the batched layout
(:func:`repro.model.batch.prune_mask`).  The functions here apply them one
configuration at a time through the scalar predicates
(``BlockingConfig.is_valid`` / ``register_pressure_ok``): they are the
oracle the masks are tested against, and they serve the scalar reference
searches.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.config import BlockingConfig
from repro.ir.stencil import StencilPattern
from repro.model.gpu_specs import GpuSpec
from repro.model.registers import register_pressure_ok


def prune_configurations(
    pattern: StencilPattern,
    configurations: Iterable[BlockingConfig],
    gpu: GpuSpec,
) -> List[BlockingConfig]:
    """Return the configurations that survive validity and register pruning."""
    return [
        config
        for config in configurations
        if config.is_valid(pattern) and register_pressure_ok(pattern, config, gpu)
    ]


def pruning_statistics(
    pattern: StencilPattern,
    configurations: Iterable[BlockingConfig],
    gpu: GpuSpec,
) -> dict[str, int]:
    """How many configurations each pruning rule removes (for reporting)."""
    total = invalid = register_pruned = 0
    for config in configurations:
        total += 1
        if not config.is_valid(pattern):
            invalid += 1
        elif not register_pressure_ok(pattern, config, gpu):
            register_pruned += 1
    return {
        "total": total,
        "invalid": invalid,
        "register_pruned": register_pruned,
        "kept": total - invalid - register_pruned,
    }
