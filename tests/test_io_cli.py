import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncg

from ncg.cli import main
from ncg.coefficients import GaussRat, GR_ONE
from ncg.fixtures import bundled_fixtures, load_fixture
from ncg.forms import GradedSum, NCForm
from ncg.io import (LoadError, form_to_json, groupoid_to_json, kernel_to_json,
                    load_form, load_groupoid, load_kernel, load_manifest,
                    suite_parameters)
from ncg.kernels import KernelSampler, SmoothingKernel
from ncg.modules import ModuleForm


def test_bundled_fixture_inventory():
    names = bundled_fixtures()
    assert len(names) >= 5
    for required in ("unit2", "z2", "pair2", "z2swap", "z2chart"):
        assert required in names


def test_chart_fixture_declares_action():
    fx = load_fixture("z2chart")
    model = fx.groupoid.model
    assert model.kind == "chart" and model.dim == 1
    assert model.matrix("g1") == ((GaussRat(-1),),)


def test_groupoid_roundtrip(fixture):
    data = groupoid_to_json(fixture.groupoid)
    loaded = load_groupoid(data)
    assert loaded.arrows == fixture.groupoid.arrows
    assert loaded.compose_table == fixture.groupoid.compose_table
    assert loaded.model == fixture.groupoid.model


def test_groupoid_corruption_is_reported():
    data = groupoid_to_json(load_fixture("pair2").groupoid)
    triples = [t for t in data["compose"]]
    for t in triples:
        if t[0] == "1>2" and t[1] == "2>1":
            t[2] = "1>2"
    data["compose"] = triples
    del data["inverse"], data["units"]
    with pytest.raises(LoadError) as err:
        load_groupoid(data)
    assert "1>2" in str(err.value)


def test_form_file_roundtrip(fixture, rng):
    from ncg.suites import random_form
    g = fixture.groupoid
    w = random_form(g, 1, rng)
    assert load_form(form_to_json(w), g) == w


def test_form_loader_degenerate_tuples():
    g = load_fixture("z2").groupoid
    data = {"bidegree": [0, 1],
            "entries": [{"tuple": ["g1", "e"], "coeff": "1/1"},
                        {"tuple": ["g1", "g1"], "coeff": "2/1"}]}
    with pytest.warns(UserWarning, match="degenerate"):
        form = load_form(data, g)
    assert set(form.values) == {("g1", "g1")}
    with pytest.raises(LoadError):
        load_form(data, g, reject_degenerate=True)


def test_kernel_file_roundtrip(fixture, rng):
    b = fixture.bundle("rank2")
    sampler = KernelSampler(b, 1)
    K = sampler.sample(rng)
    if K is None:
        return
    loaded = load_kernel(kernel_to_json(K), b)
    assert loaded == K
    assert loaded.equivariant and loaded.cocycle


def _write_z2_manifest(tmp_path):
    """A file manifest for z2 whose only bundle is the manifest's `main`."""
    fx = load_fixture("z2")
    gpath = tmp_path / "groupoid.json"
    gpath.write_text(json.dumps(groupoid_to_json(fx.groupoid)))
    bpath = tmp_path / "bundle.json"
    bpath.write_text(json.dumps({
        "rank": 1,
        "grading": [1],
        "action": {f"{p},{a}": [["1/1"]]
                   for p in fx.space.points
                   for a in fx.groupoid.target_fiber(fx.space.moment[p])},
        "metric": {p: [["1/1"]] for p in fx.space.points},
    }))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "name": "custom-z2",
        "groupoid": "groupoid.json",
        "space": "right_regular",
        "bundle": "bundle.json",
        "h": "canonical",
        "suite": {"seed": 3, "trials": 7},
    }))
    return manifest


def _write_chart_manifest(tmp_path, key="rank2"):
    """A file manifest for z2chart's bundle `key`, with no connection."""
    fx = load_fixture("z2chart")
    bundle = fx.bundle(key)
    gpath = tmp_path / "groupoid.json"
    gpath.write_text(json.dumps(groupoid_to_json(fx.groupoid)))
    bpath = tmp_path / "bundle.json"
    bpath.write_text(json.dumps({
        "rank": bundle.rank,
        "grading": list(bundle.grading),
        "action": {f"{p},{a}": [[str(v) for v in row] for row in mat]
                   for (p, a), mat in bundle.action.items()},
        "metric": {p: [[str(v) for v in row] for row in mat]
                   for p, mat in bundle.metric.items()},
    }))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "name": "chart-no-connection",
        "groupoid": "groupoid.json",
        "space": "right_regular",
        "bundle": "bundle.json",
        "h": "canonical",
    }))
    return manifest


QUARTER_TURNS = ("e", "r", "r2", "r3")


def _quarter_turn_groupoid_json():
    """Z/4 acting on R^2 by quarter turns: a dimension-2 chart groupoid."""
    turn = {"e": [["1", "0"], ["0", "1"]], "r": [["0", "-1"], ["1", "0"]],
            "r2": [["-1", "0"], ["0", "-1"]], "r3": [["0", "1"], ["-1", "0"]]}
    n = len(QUARTER_TURNS)
    return {"name": "z4-quarter-turns", "objects": ["*"],
            "arrows": [{"id": a, "src": "*", "tgt": "*"} for a in QUARTER_TURNS],
            "compose": [[a, b, QUARTER_TURNS[(i + j) % n]]
                        for i, a in enumerate(QUARTER_TURNS)
                        for j, b in enumerate(QUARTER_TURNS)],
            "chart": {"dim": 2, "matrices": turn}}


def _write_quarter_turn_manifest(tmp_path):
    """The quarter-turn groupoid with a trivial rank-1 bundle and no
    connection."""
    (tmp_path / "groupoid.json").write_text(json.dumps(_quarter_turn_groupoid_json()))
    (tmp_path / "bundle.json").write_text(json.dumps({
        "rank": 1,
        "grading": [1],
        "action": {f"{p},{a}": [["1"]] for p in QUARTER_TURNS for a in QUARTER_TURNS},
        "metric": {p: [["1"]] for p in QUARTER_TURNS},
    }))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "name": "z4-quarter-turns",
        "groupoid": "groupoid.json",
        "space": "right_regular",
        "bundle": "bundle.json",
        "h": "canonical",
    }))
    return manifest


def test_cli_chern_on_dimension_two_chart(tmp_path, capsys):
    """The unit-space connection of the chern suite is built in the chart's
    own dimension, so a dimension-2 chart runs (it once exited 2)."""
    manifest = _write_quarter_turn_manifest(tmp_path)
    assert main(["verify", "--suite", "chern", "--fixture", str(manifest),
                 "--max-degree", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    cases = {c["name"]: c for c in report["cases"]}
    assert cases["vb-closedness-tau^1"]["certificate"]
    assert all(cases[f"main-closedness-degree-2-u-{u}"]["certificate"]
               for u in ("0", "1/2", "1"))


def test_invariant_radial_form():
    """The chern suite's unit-space connection form: the chart group's
    average of sum_i x_i dx_i, x dx on z2chart."""
    from ncg.coefficients import PolyFormCoeff
    from ncg.suites import _invariant_radial_form
    model = load_fixture("z2chart").groupoid.model
    assert _invariant_radial_form(model) == PolyFormCoeff.monomial(1, (1,), (1,))
    model = load_groupoid(_quarter_turn_groupoid_json()).model
    form = _invariant_radial_form(model)
    assert form == (PolyFormCoeff.monomial(2, (1, 0), (1,))
                    + PolyFormCoeff.monomial(2, (0, 1), (2,)))
    assert all(model.pullback(form, a) == form for a in QUARTER_TURNS)


def _write_short_grading_manifest(tmp_path):
    """z3 with its rank-2 rotation bundle, whose grading lists one entry."""
    fx = load_fixture("z3")
    bundle = fx.bundles["rank2-rotation"]
    (tmp_path / "groupoid.json").write_text(json.dumps(groupoid_to_json(fx.groupoid)))
    (tmp_path / "bundle.json").write_text(json.dumps({
        "rank": 2,
        "grading": [1],
        "action": {f"({p}, {a})": [[str(v) for v in row] for row in mat]
                   for (p, a), mat in bundle.action.items()},
        "metric": {p: [[str(v) for v in row] for row in mat]
                   for p, mat in bundle.metric.items()},
    }))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"groupoid": "groupoid.json",
                                    "bundle": "bundle.json"}))
    return manifest


@pytest.mark.parametrize("argv", [["validate"],
                                  ["verify", "--suite", "algebra", "--fixture"]])
def test_cli_short_grading_exits_2(tmp_path, capsys, argv):
    manifest = _write_short_grading_manifest(tmp_path)
    assert main(argv + [str(manifest)]) == 2
    assert "grading length differs from rank" in capsys.readouterr().err


def test_manifest_from_files(tmp_path):
    manifest = _write_z2_manifest(tmp_path)
    fixture = load_manifest(str(manifest))
    assert fixture.name == "custom-z2"
    assert fixture.bundle().rank == 1
    params = suite_parameters(str(manifest))
    assert params["seed"] == 3 and params["trials"] == 7
    assert params["max_degree"] == 4  # default preserved


def test_cli_validate_ok(capsys):
    assert main(["validate", "z2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(c["valid"] for c in out["components"])


def _write_z2_space(tmp_path, measure):
    fx = load_fixture("z2")
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "points": list(fx.space.points),
        "moment": fx.space.moment,
        "action": [[p, a, q] for (p, a), q in sorted(fx.space.action.items())],
        "measure": {p: measure for p in fx.space.points},
    }))
    return path.name


@pytest.mark.parametrize("part,exact,inexact", [
    ("metric", 1.0, 1.5), ("action", 1.0, 1.5),
    ("measure", "1/10", 0.1), ("h", "1/2", 0.5)])
def test_cli_validate_rejects_inexact_json_numbers(tmp_path, capsys, part,
                                                   exact, inexact):
    """A JSON number is read exactly or rejected: a float that is not an
    integer is malformed input, wherever in a file manifest it appears."""
    manifest = _write_z2_manifest(tmp_path)
    bpath = tmp_path / "bundle.json"
    for value, code in ((exact, 0), (inexact, 2)):
        data = json.loads(manifest.read_text())
        bundle = json.loads(bpath.read_text())
        if part in ("metric", "action"):
            bundle[part] = {k: [[value]] for k in bundle[part]}
        elif part == "measure":
            data["space"] = _write_z2_space(tmp_path, value)
        else:
            data["h"] = {"e": value, "g1": value}
        bpath.write_text(json.dumps(bundle))
        manifest.write_text(json.dumps(data))
        assert main(["validate", str(manifest)]) == code, (part, value)
        if code:
            assert "non-exact number" in capsys.readouterr().err


@pytest.mark.parametrize("h", [{"e": None, "g1": None}, ["e", "g1"],
                               {"e": [1], "g1": 1}])
def test_cli_validate_rejects_a_malformed_partition_function(tmp_path, capsys, h):
    manifest = _write_z2_manifest(tmp_path)
    data = json.loads(manifest.read_text())
    data["h"] = h
    manifest.write_text(json.dumps(data))
    assert main(["validate", str(manifest)]) == 2
    assert "malformed partition function" in capsys.readouterr().err


def test_cli_validate_corrupted_exits_2(tmp_path, capsys):
    data = groupoid_to_json(load_fixture("pair2").groupoid)
    for t in data["compose"]:
        if t[0] == "1>2" and t[1] == "2>1":
            t[2] = "1>2"
    del data["inverse"], data["units"]
    gpath = tmp_path / "broken.json"
    gpath.write_text(json.dumps(data))
    bpath = tmp_path / "bundle.json"
    bpath.write_text(json.dumps({"rank": 1, "action": {}, "metric": {}}))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"groupoid": "broken.json",
                                    "bundle": "bundle.json"}))
    assert main(["validate", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert "1>2" in err


def test_cli_verify_deterministic(capsys):
    assert main(["verify", "--suite", "algebra", "--fixture", "z2",
                 "--seed", "5", "--trials", "12"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "algebra", "--fixture", "z2",
                 "--seed", "5", "--trials", "12"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["suite"] == "algebra" and report["passed"]
    assert report["cases"] == sorted(report["cases"], key=lambda c: c["name"])


def test_cli_verify_multiple_fixtures(capsys):
    assert main(["verify", "--suite", "bisection", "--fixture", "z2", "pair2",
                 "--trials", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {r["fixture"] for r in out["reports"]} == {"z2", "pair2"}


def test_cli_kernels_sample_and_check(tmp_path, capsys):
    kpath = tmp_path / "kernel.json"
    assert main(["kernels", "sample", "z2", "--slots", "1", "--seed", "2",
                 "--output", str(kpath)]) == 0
    capsys.readouterr()
    assert main(["kernels", "check", "z2", "--kernel", str(kpath)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivariant"] and payload["cocycle"]


def test_cli_kernels_check_reports_two_slot_violations(tmp_path, capsys):
    b = load_fixture("z3").bundle()
    identity = tuple(tuple(GR_ONE if i == j else GaussRat(0)
                           for j in range(b.rank)) for i in range(b.rank))
    single = SmoothingKernel(b, 2, {("e", ("g1", "g2"), "g1"): identity})
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps(kernel_to_json(single)))
    assert main(["kernels", "check", "z3", "--kernel", str(kpath)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["slots"] == 2
    assert payload["violations"]["boundary"]


def test_cli_kernels_mul(tmp_path, capsys):
    k1 = tmp_path / "k1.json"
    k2 = tmp_path / "k2.json"
    main(["kernels", "sample", "z2", "--seed", "1", "--output", str(k1)])
    main(["kernels", "sample", "z2", "--seed", "2", "--output", str(k2)])
    capsys.readouterr()
    assert main(["kernels", "mul", "z2", "--kernel", str(k1),
                 "--other", str(k2)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["slots"] == 2


def test_cli_kernels_empty_sampler(capsys):
    assert main(["kernels", "sample", "unit2", "--slots", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sampler"] == "empty"


def test_cli_bisect_with_form(tmp_path, capsys):
    g = load_fixture("z2").groupoid
    form = NCForm(g, 1, {("e", "g1"): GR_ONE, ("g1", "g1"): GaussRat(2)})
    fpath = tmp_path / "form.json"
    fpath.write_text(json.dumps(form_to_json(form)))
    assert main(["bisect", "z2", "--form", str(fpath)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reconstructs"] is True
    assert len(payload["decomposition"]) == 2


def test_cli_chern_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["chern", "z2", "--u", "1/3", "--max-degree", "4",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["u"] == "1/3"
    assert all(c["verdict"] == "PASS" for c in payload["cases"])
    assert "0" in payload["components"]


def test_cli_unknown_fixture_is_input_error(capsys):
    assert main(["validate", "no-such-fixture.json"]) == 2


def test_cli_verify_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a doctored suite result must drive the exit code to 1
    import ncg.cli as cli_mod
    def fake(name, fixture, **kw):
        return {"suite": name, "fixture": fixture.name, "passed": False,
                "cases": [{"name": "forced", "verdict": "FAIL",
                           "residue": {"coordinate": "x", "value": "1"}}]}
    monkeypatch.setattr(cli_mod, "run_suite", fake)
    assert main(["verify", "--suite", "algebra", "--fixture", "z2"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["cases"][0]["residue"]["coordinate"] == "x"


def test_cli_bisection_on_single_bundle_manifest(tmp_path, capsys):
    manifest = _write_z2_manifest(tmp_path)
    assert list(load_manifest(str(manifest)).bundles) == ["main"]
    assert main(["verify", "--suite", "bisection", "--fixture", str(manifest),
                 "--trials", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["fixture"] == "custom-z2"


def test_cli_verification_error_exits_1(capsys, monkeypatch):
    # an internal fault is not malformed input, though it is a ValueError
    import ncg.cli as cli_mod
    from ncg.chern import VerificationError

    def fake(name, fixture, **kw):
        raise VerificationError("pipeline used inconsistently")
    monkeypatch.setattr(cli_mod, "run_suite", fake)
    assert main(["verify", "--suite", "theorem", "--fixture", "z2"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "pipeline used inconsistently"}


def test_cli_failed_self_check_exits_1(capsys, monkeypatch):
    # the commutator's operator-side self-check fails: a fault of the
    # program, not malformed input
    import ncg.kernels as kernels_mod
    monkeypatch.setattr(kernels_mod, "apply_kernel_sum",
                        lambda kernels, f: GradedSum(ModuleForm, kernels.owner))
    assert main(["verify", "--suite", "theorem", "--fixture", "z3",
                 "--trials", "1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "commutator kernel disagrees with the operator side"}


def test_cli_malformed_kernel_exits_2(tmp_path, capsys):
    kpath = tmp_path / "kernel.json"
    assert main(["kernels", "sample", "z2", "--slots", "1",
                 "--output", str(kpath)]) == 0
    data = json.loads(kpath.read_text())
    data["slots"] = 2  # every key now has the wrong slot count
    kpath.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["kernels", "check", "z2", "--kernel", str(kpath)]) == 2
    assert "wrong slot count" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("argv, message", [
    (["chern", "z3", "--u", "1/0"], "zero denominator"),
    (["verify", "--suite", "chern", "--fixture", "z3", "--u", "1/0"],
     "zero denominator"),
    (["verify", "--suite", "chern", "--fixture", "z3", "--max-degree", "-1"],
     "max degree must be at least 0, got -1"),
    (["chern", "z3", "--max-degree", "-1"],
     "max degree must be at least 0, got -1"),
    (["verify", "--suite", "theorem", "--fixture", "z3", "--trials", "0"],
     "trials must be at least 1, got 0"),
    (["verify", "--suite", "theorem", "--fixture", "z3", "--trials", "-2"],
     "trials must be at least 1, got -2"),
])
def test_cli_rejects_out_of_range_input(capsys, argv, message):
    # malformed input exits 2 with a message, neither a traceback nor a
    # PASS over nothing
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in json.loads(captured.err)["error"]


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "chern", "--fixture", "z3", "--max-degree", "2"],
    ["verify", "--suite", "theorem", "--fixture", "pair2", "--trials", "3"],
])
def test_cli_reports_independent_of_hash_seed(argv):
    src = str(Path(ncg.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("0", "1"):
        paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(paths))
        run = subprocess.run([sys.executable, "-m", "ncg.cli", *argv],
                             capture_output=True, text=True, env=env, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["passed"]


@pytest.mark.parametrize("key", ["rank1", "rank2"])
def test_cli_theorem_on_chart_manifest_without_connection(tmp_path, capsys, key):
    manifest = _write_chart_manifest(tmp_path, key)
    fixture = load_manifest(str(manifest))
    assert fixture.groupoid.model.kind == "chart" and fixture.horizontal is None
    assert main(["verify", "--suite", "theorem", "--fixture", str(manifest),
                 "--trials", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["fixture"] == "chart-no-connection"


# SHA-256 of the stdout of fast commands, pinned so that a change which
# moves any verdict, certificate or component shows up here.
GOLDEN_REPORTS = [
    (["verify", "--suite", "chern", "--fixture", "z3", "--max-degree", "2"],
     "8a07677e4a2d3fab50af9a30f45cf8aae573ffcc38c4241649713f058902d20b"),
    (["verify", "--suite", "theorem", "--fixture", "pair2", "--trials", "3"],
     "e94ec098b4494c41cca49f77bbfff90f0bf903df965a54017b304fc03cb91eba"),
    (["verify", "--suite", "module", "--fixture", "z2chart", "--trials", "5"],
     "fc6f3fad34049c2eb5eade0c7635adff55f4536d8e0b06ab7cb70682727145b7"),
    (["verify", "--suite", "theorem", "--fixture", "z2chart", "--trials", "2"],
     "2764117c11a4b08bf3debb76155820604f7e8e81ecf7cc9bd1ba4684864d1992"),
    (["chern", "z3", "--u", "1/2", "--max-degree", "2"],
     "767a5c09562b3cc2a622a0dcbf96802ef8872f55d18e380844f7e9427c7ab4a3"),
    (["chern", "z2chart", "--u", "1/2", "--max-degree", "2"],
     "666435a1bb18ed6a63de6bccea1fced138fecc9bb2c902bfb1a7215eedc32782"),
    (["verify", "--suite", "chern", "--fixture", "z2chart", "--max-degree", "2"],
     "db561e86837a2ca2b16dabc4abda00407b368b0ea2855ce8d039633b31e09eac"),
    (["verify", "--suite", "algebra", "--fixture", "z2chart", "--trials", "4"],
     "e776e5e8280d018494194f4aaccd86978b4f2afe5feaf53e192cd852fa1f7f2d"),
    (["kernels", "sample", "z3", "--slots", "2", "--seed", "1"],
     "d2b082bf6e9c2e3197dba7a776954d0bebdc2beda54e9765eab727df7605e2e6"),
    (["kernels", "sample", "z2chart", "--slots", "2", "--seed", "1"],
     "16ee1aaf460c398a2cf5b6c86104fbf19b472429bf5fc20b7921fb409168b647"),
    (["verify", "--suite", "kernels", "--fixture", "z3", "--trials", "8"],
     "a191e6d1b2599a627e7f9c679c09607d008675ba1dd525082edbf33bfad55315"),
    (["verify", "--suite", "chern", "--fixture", "z2chart"],
     "028715d4b2d4a064651ed12d7cd38fa0b0bee93f479da6fe32de27a71e50a784"),
    (["chern", "z2chart"],
     "fe5821aa3501f4d8e4286953b02a9affb78f94d46b05be9bf800adb1470ce19f"),
    (["verify", "--suite", "module", "--fixture", "z3", "--trials", "20"],
     "f1517f4472b0aaba1886fc032e587e1f2a57f8967e2c4c420cb8cc31b08fa5c8"),
    (["verify", "--suite", "bisection", "--fixture", "z2swap", "--trials", "20"],
     "62e95d1f8dd4b9d88bf23134ea422901ad11d8173b35376c712ce9b9a60456d7"),
    (["verify", "--suite", "chern", "--fixture", "z3"],
     "f163c7a8fc023b032824b45e03b211caad2e2d2528951835c097bc55e71791e5"),
    (["chern", "z2chart", "--u", "0", "--max-degree", "4"],
     "30ff2bedbd035ad161c2120427fac9331bcee14b557218866597c48102f184f1"),
    (["verify", "--suite", "module", "--fixture", "z2chart", "--trials", "20",
      "--u", "0", "--u", "1/3", "--u", "1"],
     "df252f3e16ca59298550d00ba68b4d7e684b54f4fdeb8322f1f4d66999cb6b49"),
    (["verify", "--suite", "theorem", "--fixture", "z3", "--trials", "4"],
     "5bb11fd9ed2ad3f33b3daf17e2975fb9c251d0fa3c6175557f74c1ff5f241d33"),
    (["verify", "--suite", "theorem", "--fixture", "z2chart", "--trials", "3",
      "--u", "0", "--u", "1/3", "--u", "1"],
     "cf071f7f1b8199d7bb4f37dab1a2722ffe0a7c97ca2a68dc8adfb67b5f99780b"),
    (["verify", "--suite", "chern", "--fixture", "pair2",
      "--u", "0", "--u", "1/3", "--u", "1"],
     "646549c35ce735c2d4f787a463f5bf2a46f6d2367ae9de17540c6a4bebd3a311"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_REPORTS,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_REPORTS])
def test_cli_golden_reports(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
