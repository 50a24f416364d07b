"""Input generation: manifest files the workloads pass to `ncg verify`.

The only generated input is a file manifest for z3 carrying its order-three
`rank2-rotation` bundle, which `ncg.fixtures` builds but no suite uses.
It is written from public API only: `io.groupoid_to_json` for the groupoid
and the bundle's action and group-averaged metric for the bundle file.
"""

import json
from pathlib import Path

from ncg.fixtures import load_fixture
from ncg.io import groupoid_to_json, load_manifest

from workloads import ROTATION_MANIFEST


def _matrix(mat):
    return [[str(v) for v in row] for row in mat]


def bundle_to_json(bundle) -> dict:
    return {
        "name": bundle.name,
        "rank": bundle.rank,
        "action": {f"({p}, {a})": _matrix(mat)
                   for (p, a), mat in sorted(bundle.action.items())},
        "metric": {p: _matrix(mat) for p, mat in sorted(bundle.metric.items())},
        "grading": list(bundle.grading),
    }


def write_rotation_manifest(directory: Path) -> Path:
    fixture = load_fixture("z3")
    bundle = fixture.bundles["rank2-rotation"]
    (directory / "z3-groupoid.json").write_text(
        json.dumps(groupoid_to_json(fixture.groupoid), indent=1))
    (directory / "z3-rotation-bundle.json").write_text(
        json.dumps(bundle_to_json(bundle), indent=1))
    manifest = directory / "z3-rotation.json"
    manifest.write_text(json.dumps({
        "name": "z3-rotation",
        "groupoid": "z3-groupoid.json",
        "space": "right_regular",
        "bundle": "z3-rotation-bundle.json",
        "h": "canonical",
    }, indent=1))
    loaded = load_manifest(str(manifest)).bundle()
    if loaded.action != bundle.action or loaded.metric != bundle.metric:
        raise RuntimeError("the rotation manifest does not reload to the "
                           "bundle it was written from")
    return manifest


def generate(directory: Path) -> dict:
    """Write every generated input; maps workload placeholders to paths."""
    directory.mkdir(parents=True, exist_ok=True)
    return {ROTATION_MANIFEST: str(write_rotation_manifest(directory))}
