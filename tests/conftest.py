from __future__ import annotations

import contextlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from egoview.scene import load_scene
from egoview.geometry import CameraIntrinsics, CameraPose

# A failing property test's report imports this module and libcst, whose
# import raises a DeprecationWarning; under a test's "error" filter that ends
# the session with an INTERNALERROR and no falsifying example.  Imported
# here, its own warnings ignored, it is loaded before any test runs.
with contextlib.suppress(ImportError), warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


def pytest_collection_modifyitems(items):
    """Any warning fails a test of this directory, a numpy RuntimeWarning
    first among them.  Set here, not in the ini options, so the benchmark's
    own tests keep their outcome."""
    here = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(here):
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def intr() -> CameraIntrinsics:
    return CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


@pytest.fixture
def identity_pose() -> CameraPose:
    return CameraPose(rotation=np.eye(3), translation=np.zeros(3))


@pytest.fixture
def scene_a():
    return load_scene(DATA_DIR / "scenes" / "scene-a.json")


@pytest.fixture
def scene_b():
    return load_scene(DATA_DIR / "scenes" / "scene-b.json")


@pytest.fixture
def scenes(scene_a, scene_b):
    return {"scene-a": scene_a, "scene-b": scene_b}
