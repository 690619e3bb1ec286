"""Shared fixtures for the AN5D reproduction test-suite."""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.core.config import BlockingConfig
from repro.ir.stencil import GridSpec
from repro.model.gpu_specs import get_gpu
from repro.stencils.library import load_pattern


@pytest.fixture(scope="session", autouse=True)
def session_temp_dir(tmp_path_factory):
    """A temp directory of the session's own, so native kernels build into
    an empty cache (see ``repro.ir.compile.native_cache_dir``) and a run
    neither reads nor fills the user's.  Subprocesses inherit ``TMPDIR``."""
    root = str(tmp_path_factory.mktemp("tmp"))
    saved = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"], tempfile.tempdir = root, None
    yield root
    if saved[0] is None:
        os.environ.pop("TMPDIR", None)
    else:
        os.environ["TMPDIR"] = saved[0]
    tempfile.tempdir = saved[1]


@pytest.fixture(scope="session")
def j2d5pt():
    """The paper's running example (Fig. 4), single precision."""
    return load_pattern("j2d5pt", "float")


@pytest.fixture(scope="session")
def j2d9pt():
    """Second-order 2D star stencil."""
    return load_pattern("j2d9pt", "float")


@pytest.fixture(scope="session")
def box2d1r():
    """First-order 2D box stencil."""
    return load_pattern("box2d1r", "float")


@pytest.fixture(scope="session")
def star3d1r():
    """First-order 3D star stencil."""
    return load_pattern("star3d1r", "float")


@pytest.fixture(scope="session")
def j3d27pt():
    """3D 27-point box stencil."""
    return load_pattern("j3d27pt", "float")


@pytest.fixture(scope="session")
def gradient2d():
    """Non-associative stencil with sqrt and division."""
    return load_pattern("gradient2d", "float")


@pytest.fixture(scope="session")
def v100():
    return get_gpu("V100")


@pytest.fixture(scope="session")
def p100():
    return get_gpu("P100")


@pytest.fixture
def small_2d_grid():
    """A grid small enough for functional execution in tests."""
    return GridSpec((72, 72), 9)


@pytest.fixture
def small_3d_grid():
    return GridSpec((20, 28, 28), 5)


@pytest.fixture
def config_2d():
    return BlockingConfig(bT=3, bS=(32,), hS=None)


@pytest.fixture
def config_3d():
    return BlockingConfig(bT=2, bS=(16, 16), hS=None)


@pytest.fixture(scope="session")
def eval_2d_grid():
    """The paper's 2D evaluation grid (16,384^2, 1,000 steps)."""
    return GridSpec((16384, 16384), 1000)


@pytest.fixture(scope="session")
def eval_3d_grid():
    """The paper's 3D evaluation grid (512^3, 1,000 steps)."""
    return GridSpec((512, 512, 512), 1000)
