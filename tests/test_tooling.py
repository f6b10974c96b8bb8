"""The per-layer tracer in perfbench/ names private functions of the package; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_extra_targets_resolve(tracer):
    # Tracer._targets reads each one with vars(owner)[attr]; a renamed target would crash --trace 1
    for short, paths in tracer.EXTRA.items():
        module = importlib.import_module(f"holonomy.{short}")
        for path in paths:
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            assert callable(vars(owner).get(attr)), f"{short}.{path} is not defined"


def test_every_target_wraps(tracer):
    for short in tracer.MODULES:
        importlib.import_module(f"holonomy.{short}")
    names = {name for name, *_ in tracer.Tracer()._targets()}
    assert "propagate._eval_nodes" in names and "linalg.expm_skew_many" in names
