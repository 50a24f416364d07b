"""JSON file formats: groupoids, spaces, bundles, sections, forms, kernels,
connections, and the fixture manifest tying them together.

Scalar coefficients are encoded as "a/b" or "a/b+c/d*i" with signs on
numerators only; chart coefficients as lists of records
{"exps": [...], "form": [...], "coeff": "..."}.  Composition is written
as triples [f, g, fg] with fg defined exactly when src(f) == tgt(g).
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Dict, Mapping

from .coefficients import (SCALAR_MODEL, CoefficientModel, GaussRat, PolyFormCoeff,
                           sparse_put)
from .fixtures import Fixture, bundled_fixtures, load_fixture
from .forms import NCForm
from .groupoid import (EquivariantBundle, FiberedSpace, GroupoidError,
                       GroupoidSpec, PartitionFunction, canonical_h,
                       right_regular_space, validate_bundle, validate_groupoid,
                       validate_space)
from .kernels import SmoothingKernel, set_flags


class LoadError(ValueError):
    """Raised on malformed input files, carrying the first witness."""


def _read(path_or_data) -> dict:
    if isinstance(path_or_data, (str, Path)):
        with open(path_or_data) as fh:
            return json.load(fh)
    return path_or_data


def _exact(number):
    """number itself, unless it is a float that is not an integer: JSON
    numbers are read exactly or rejected."""
    if isinstance(number, float) and not number.is_integer():
        raise LoadError(f"non-exact number {number!r}")
    return number


def _coeff_from_json(model: CoefficientModel, data):
    if isinstance(data, str):
        return model.from_gauss(GaussRat.parse(data))
    if isinstance(data, (int, float)):
        return model.from_gauss(GaussRat(int(_exact(data))))
    if isinstance(data, list):
        if model.kind != "chart":
            raise LoadError("record-list coefficients need a chart groupoid")
        return PolyFormCoeff.from_records(model.dim, data)
    raise LoadError(f"cannot parse coefficient {data!r}")


def coeff_to_json(coeff):
    if isinstance(coeff, GaussRat):
        return str(coeff)
    return coeff.to_records()


def _matrix_from_json(model, rows):
    return tuple(tuple(_coeff_from_json(model, v) for v in row) for row in rows)


# ---------------------------------------------------------------------------
# Groupoid files
# ---------------------------------------------------------------------------

def load_groupoid(source) -> GroupoidSpec:
    data = _read(source)
    try:
        objects = list(data["objects"])
        arrows = [a["id"] for a in data["arrows"]]
        src = {a["id"]: a["src"] for a in data["arrows"]}
        tgt = {a["id"]: a["tgt"] for a in data["arrows"]}
        compose = {(f, g): fg for f, g, fg in data["compose"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(f"malformed groupoid file: {exc}") from exc
    units = data.get("units")
    if units is None:
        units = _derive_units(objects, arrows, src, tgt, compose)
    model = CoefficientModel("scalar")
    chart = data.get("chart")
    if chart:
        matrices = {label: _matrix_from_json(SCALAR_MODEL, mat)
                    for label, mat in chart["matrices"].items()}
        model = CoefficientModel("chart", dim=int(chart["dim"]), matrices=matrices)
    try:
        spec = GroupoidSpec(objects, arrows, src, tgt, compose, units,
                            inverse=data.get("inverse"), model=model,
                            name=data.get("name", "groupoid"))
    except GroupoidError as exc:
        raise LoadError(str(exc)) from exc
    report = validate_groupoid(spec)
    if not report.ok:
        raise LoadError(str(report))
    return spec


def _derive_units(objects, arrows, src, tgt, compose) -> Dict[str, str]:
    units = {}
    for x in objects:
        for u in arrows:
            if src[u] != x or tgt[u] != x:
                continue
            if all(compose.get((u, a)) == a for a in arrows if tgt[a] == x) and \
               all(compose.get((a, u)) == a for a in arrows if src[a] == x):
                units[x] = u
                break
        else:
            raise LoadError(f"object {x!r} has no unit arrow in the table")
    return units


def groupoid_to_json(g: GroupoidSpec) -> dict:
    data = {
        "name": g.name,
        "objects": list(g.objects),
        "arrows": [{"id": a, "src": g.src[a], "tgt": g.tgt[a]} for a in g.arrows],
        "compose": [[f, s, fs] for (f, s), fs in sorted(g.compose_table.items())],
        "inverse": dict(sorted(g.inverse_table.items())),
        "units": dict(sorted(g.unit.items())),
    }
    if g.model.kind == "chart":
        data["chart"] = {
            "dim": g.model.dim,
            "matrices": {label: [[str(v) for v in row] for row in mat]
                         for label, mat in sorted(g.model.matrices.items())},
        }
    return data


# ---------------------------------------------------------------------------
# Space, bundle, section, connection files
# ---------------------------------------------------------------------------

def load_space(source, groupoid: GroupoidSpec) -> FiberedSpace:
    if source == "right_regular":
        return right_regular_space(groupoid)
    data = _read(source)
    try:
        points = list(data["points"])
        moment = dict(data["moment"])
        action = {(p, a): q for p, a, q in data["action"]}
        measure = {p: Fraction(_exact(v)) for p, v in data.get(
            "measure", {p: 1 for p in points}).items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(f"malformed space file: {exc}") from exc
    space = FiberedSpace(groupoid, points, moment, action, measure,
                         name=data.get("name", "space"))
    report = validate_space(space)
    if not report.ok:
        raise LoadError(str(report))
    return space


def load_bundle(source, space: FiberedSpace) -> EquivariantBundle:
    data = _read(source)
    try:
        rank = int(data["rank"])
        action = {}
        for key, mat in data["action"].items():
            p, arrow = [part.strip() for part in key.strip("()").split(",")]
            action[(p, arrow)] = _matrix_from_json(SCALAR_MODEL, mat)
        metric = None
        if "metric" in data:
            metric = {p: _matrix_from_json(SCALAR_MODEL, mat)
                      for p, mat in data["metric"].items()}
        grading = data.get("grading")
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(f"malformed bundle file: {exc}") from exc
    bundle = EquivariantBundle(space, rank, action, metric=metric,
                               grading=grading, name=data.get("name", "bundle"))
    report = validate_bundle(bundle)
    if not report.ok:
        raise LoadError(str(report))
    return bundle


def load_partition(source, space: FiberedSpace) -> PartitionFunction:
    if source == "canonical":
        return canonical_h(space)
    data = _read(source) if not isinstance(source, Mapping) else source
    try:
        values = {p: Fraction(_exact(v)) for p, v in data.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise LoadError(f"malformed partition function: {exc}") from exc
    return PartitionFunction(space, values)


# ---------------------------------------------------------------------------
# Form and kernel files
# ---------------------------------------------------------------------------

def load_form(source, groupoid: GroupoidSpec,
              reject_degenerate: bool = False) -> NCForm:
    data = _read(source)
    try:
        m, n = data["bidegree"]
        entries = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(f"malformed form file: {exc}") from exc
    values = {}
    dropped = []
    for rec in entries:
        key = tuple(rec["tuple"])
        if any(groupoid.is_unit(a) for a in key[1:]):
            dropped.append(key)
            continue
        coeff = _coeff_from_json(groupoid.model, rec["coeff"])
        if coeff:
            sparse_put(values, key, coeff)
    if dropped:
        if reject_degenerate:
            raise LoadError(f"degenerate tuples in form file: {dropped}")
        warnings.warn(f"projected out {len(dropped)} degenerate tuple(s) "
                      f"while loading a form", stacklevel=2)
    form = NCForm(groupoid, int(n), values)
    if groupoid.model.kind == "scalar" and int(m) != 0:
        raise LoadError("scalar groupoids carry no de Rham degree")
    return form


def form_to_json(form: NCForm) -> dict:
    degrees = sorted(form.form_degrees()) or [0]
    return {
        "bidegree": [degrees[-1], form.degree],
        "entries": [{"tuple": list(k), "coeff": coeff_to_json(c)}
                    for k, c in form.entries()],
    }


def load_kernel(source, bundle: EquivariantBundle) -> SmoothingKernel:
    data = _read(source)
    model = bundle.groupoid.model
    try:
        slots = int(data["slots"])
        entries = {}
        for rec in data["entries"]:
            key = (rec["p"], tuple(rec["gammas"]), rec["q"])
            entries[key] = _matrix_from_json(model, rec["matrix"])
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(f"malformed kernel file: {exc}") from exc
    return set_flags(SmoothingKernel(bundle, slots, entries))


def kernel_to_json(kernel: SmoothingKernel) -> dict:
    return {
        "slots": kernel.degree,
        "entries": [{"p": p, "gammas": list(gam), "q": q,
                     "matrix": [[coeff_to_json(v) for v in row] for row in mat]}
                    for (p, gam, q), mat in kernel.entries()],
        "flags": {"equivariant": kernel.equivariant, "cocycle": kernel.cocycle},
    }


# ---------------------------------------------------------------------------
# Fixture manifests
# ---------------------------------------------------------------------------

def load_manifest(source) -> Fixture:
    """A manifest names a bundled fixture or assembles one from files.

    {"fixture": "z2"} or {"groupoid": path, "space": "right_regular"|path,
     "bundle": path, "h": "canonical"|{...}, "connection": {...}?,
     "suite": {"seed": 0, "trials": 20, "max_degree": 4, "u": [...]}}
    """
    if isinstance(source, str) and source in bundled_fixtures():
        return load_fixture(source)
    data = _read(source)
    base = Path(source).parent if isinstance(source, (str, Path)) else Path(".")

    def resolve(value):
        if isinstance(value, str) and value not in ("right_regular", "canonical") \
                and not value.startswith("{"):
            path = Path(value)
            return path if path.is_absolute() else base / path
        return value

    if "fixture" in data:
        fixture = load_fixture(data["fixture"])
        return fixture
    try:
        groupoid = load_groupoid(resolve(data["groupoid"]))
        space = load_space(resolve(data.get("space", "right_regular")), groupoid)
        bundle = load_bundle(resolve(data["bundle"]), space)
    except KeyError as exc:
        raise LoadError(f"manifest is missing {exc}") from exc
    h = load_partition(data.get("h", "canonical"), space)
    horizontal = None
    if data.get("connection"):
        conn = _read(resolve(data["connection"]))
        if conn.get("horizontal"):
            horizontal = {p: _matrix_from_json(groupoid.model, mat)
                          for p, mat in conn["horizontal"].items()}
    bundles = {"main": bundle}
    return Fixture(data.get("name", "manifest"), groupoid, space, h, bundles,
                   horizontal={"main": horizontal} if horizontal else None,
                   default_bundle="main")


def suite_parameters(source) -> dict:
    """Suite parameter block of a manifest (defaults when absent)."""
    defaults = {"seed": 0, "trials": 20, "max_degree": 4,
                "u": ["0", "1/2", "1"]}
    if isinstance(source, str) and source in bundled_fixtures():
        return defaults
    data = _read(source)
    out = dict(defaults)
    out.update(data.get("suite", {}))
    return out
