"""The benchmark tracer wraps ncg functions by name; every name it wraps
must exist, so a rename fails here instead of in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
TARGETS = [(module, path) for module, path, _ in tracer.SPANS + tracer.COUNTS]
TARGETS.append(("coefficients", "CoefficientModel.pullback"))


def test_tracer_modules_are_ncg_modules():
    for name in tracer.NCG_MODULES:
        importlib.import_module(f"ncg.{name}")


@pytest.mark.parametrize("module,path", TARGETS,
                         ids=[f"{m}.{p}" for m, p in TARGETS])
def test_tracer_target_resolves(module, path):
    assert module in tracer.NCG_MODULES
    owner = importlib.import_module(f"ncg.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
