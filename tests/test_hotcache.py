"""The hot model cache's resident entry, against the scalar views it replaces."""

from __future__ import annotations

import pytest

from repro.campaign.jobs import JobSpec
from repro.service.hotcache import HotModelCache, _config_key
from repro.stencils.library import BENCHMARKS, get_benchmark


@pytest.mark.parametrize("gpu", ["V100", "P100"])
@pytest.mark.parametrize("dtype", ["float", "double"])
def test_the_column_built_index_equals_the_config_index(gpu, dtype):
    for name in BENCHMARKS:
        grid = get_benchmark(name).default_grid()
        spec = JobSpec("predict", name, gpu, dtype, grid.interior, grid.time_steps)
        entry = HotModelCache._build_entry(spec)
        survivors = entry.ranking.survivors
        expected = {_config_key(survivors.config(i)): i for i in range(survivors.size)}
        assert survivors.size > 0
        assert entry.index == expected, name
