"""The benchmark's input contract: before any timing, `perfbench/run.py`
generates its manifests, checks each with `ncg validate` and loads every
workload source.  A change that breaks one of those steps fails here
instead of in a benchmark run."""

import sys
from pathlib import Path

import pytest

from ncg.cli import main
from ncg.fixtures import load_fixture
from ncg.forms import AbReducer
from ncg.io import load_manifest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
        import workloads
        yield inputs, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_generated_inputs_validate_and_load(perfbench, tmp_path, capsys):
    inputs, workloads = perfbench
    manifests = inputs.generate(tmp_path)
    assert set(manifests) == {workloads.ROTATION_MANIFEST}
    for path in manifests.values():
        assert main(["validate", path]) == 0
    capsys.readouterr()
    for name in workloads.WORKLOADS:
        for source in workloads.sources(name, manifests):
            load_manifest(source)


def test_reducer_rank_is_an_int():
    """The tracer adds `AbReducer.rank` after every construction."""
    assert type(AbReducer(load_fixture("z3").groupoid).rank) is int
