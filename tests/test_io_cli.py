import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pmm.cli import main
from pmm.errors import SchemaError, ValidationError
from pmm.io import (
    barcode_payload, load_input, load_model, load_pcomplex_map, model_payload, )
from pmm.pcomplex import interval_complex, zero_complex
from pmm.persistence import Grid
from pmm.pminimal import (
    build_persistent_minimal_model, homotopy_barcode, validate_model,
)

from .dense import dense_key, monomials, sparse_key
from .golden import add_degree_one_generator

FIXTURES = Path(__file__).parent / "fixtures"


def run_module(module, argv, **kwargs):
    """`python -m module *argv` in a fresh process, this checkout's src first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, **kwargs)


def fixture(name):
    with open(FIXTURES / f"{name}.json") as fh:
        return json.load(fh)


def test_load_input_example1():
    tower = load_input(fixture("example1_case1"))
    assert len(tower.grid) == 4
    assert tower.user_cap == 5
    model = build_persistent_minimal_model(tower)
    payload = barcode_payload(homotopy_barcode(model).bars, model.grid)
    assert payload == [
        {"degree": 2, "birth": "0", "death": "2"},
        {"degree": 3, "birth": "1", "death": "3"},
    ]


def test_load_input_rejects_bad_documents():
    doc = fixture("example1_case1")
    bad = dict(doc)
    bad["grid"] = ["0", "0", "1", "2"]
    with pytest.raises(SchemaError):
        load_input(bad)
    bad = json.loads(json.dumps(doc))
    bad["stages"][1]["generators"][1]["d"] = "alpha"  # wrong degree
    with pytest.raises((SchemaError, ValidationError)):
        load_input(bad)
    bad = json.loads(json.dumps(doc))
    del bad["maps"][0]["images"]["alpha"]
    with pytest.raises(SchemaError):
        load_input(bad)


def test_load_input_rejects_non_simply_connected():
    doc = {
        "grid": ["0"], "degree_cap": 3,
        "stages": [{"type": "free",
                    "generators": [{"name": "t", "degree": 1, "d": "0"}]}],
        "maps": [],
    }
    with pytest.raises(ValidationError):
        load_input(doc)


# -- equal stage documents: one stage object -----------------------------------
#
# longgrid_runs holds wedges of two spheres (stages 0, 1, 3, 4, ...) and of
# one (stages 2, 5, ...): runs of equal stages, and equal stages that come
# back after a different one, joined by automorphisms of the wedge.


def test_equal_stage_documents_give_one_stage_object():
    doc = fixture("longgrid_runs")
    tower = load_input(doc)
    stages = doc["stages"]
    pairs = [(q, r) for r in range(len(stages)) for q in range(r)]
    assert all((tower.stages[q] is tower.stages[r]) == (stages[q] == stages[r])
               for q, r in pairs)
    assert len({id(a) for a in tower.stages}) == 2
    assert validate_model(build_persistent_minimal_model(tower))["ok"]


def _tagged(doc):
    """doc with a distinct unused key in each stage document: no two equal."""
    out = json.loads(json.dumps(doc))
    for r, stage in enumerate(out["stages"]):
        stage["unused"] = r
    return out


def test_a_build_that_shares_no_stage_writes_the_same_files(tmp_path):
    # The tagged stage documents are all distinct, so nothing is shared: this
    # second build is the oracle for the first.
    doc = fixture("longgrid_runs")
    assert len({id(a) for a in load_input(_tagged(doc)).stages}) == len(doc["stages"])
    out = {}
    for name, d in (("plain", doc), ("tagged", _tagged(doc))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d))
        assert main(["build", "--input", str(path), "--output", str(tmp_path / name),
                     "--emit", "barcode,presentation,report,model"]) == 0
        assert main(["check", "--input", str(tmp_path / name / "model.json"),
                     "--output", str(tmp_path / name / "check")]) == 0
        out[name] = {f: (tmp_path / name / f).read_bytes() for f in (
            "barcode.json", "presentation.txt", "report.json", "model.json",
            "check/report.json")}
    plain, tagged = out["plain"], out["tagged"]
    for f in ("barcode.json", "presentation.txt", "report.json", "check/report.json"):
        assert plain[f] == tagged[f], f
    # model.json also holds the input document, tags and all.
    plain_model, tagged_model = (json.loads(plain.pop("model.json")),
                                 json.loads(tagged.pop("model.json")))
    assert tagged_model["input"] == _tagged(doc) and plain_model["input"] == doc
    assert tagged_model["model"] == plain_model["model"]


@pytest.mark.parametrize("where, value", [(0, False), (1, 2.0)])
def test_a_stage_equal_to_an_earlier_one_only_under_python_eq_is_refused(
        tmp_path, capsys, where, value):
    # Stage 1 equals stage 0 but for a degree written as 2.0 or false: Python
    # says 2 == 2.0 and 0 == False, JSON and `_int` do not.  It is refused as
    # it is when no earlier stage equals it.
    errors = []
    for alone in (False, True):
        doc = fixture("longgrid_runs")
        doc["stages"][1]["basis"][where]["degree"] = value
        if alone:
            doc["stages"][0]["unused"] = 0
        assert doc["stages"][1] == doc["stages"][0] or alone
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(doc))
        assert main(["build", "--input", str(path), "--output", str(tmp_path / "out")]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"schema error: bad integer {value!r} in stage 1\n"


def test_equal_stages_too_deep_to_compare_are_each_built():
    # Each of two equal stage documents holds an unused key nested past the
    # recursion limit, so neither == nor json.dumps can compare them: each
    # stage is built by itself, as it is alone.  json.load refuses such
    # nesting first, so only a document built in Python gets here.
    doc = fixture("sphere2")
    for stage in doc["stages"]:
        deep = []
        for _ in range(3 * sys.getrecursionlimit()):
            deep = [deep]
        stage["unused"] = deep
    tower = load_input(doc)
    assert tower.stages[0] is not tower.stages[1]
    assert validate_model(build_persistent_minimal_model(tower))["ok"]


def test_a_repeated_invalid_stage_is_refused_at_its_first_occurrence(tmp_path, capsys):
    doc = fixture("longgrid_runs")
    bad = doc["stages"][2]  # one sphere; stages 5, 7, 8, ... are equal to it
    bad["products"][0]["value"] = "b"
    for r, stage in enumerate(doc["stages"]):
        if stage["basis"] == bad["basis"]:
            doc["stages"][r] = bad
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    assert main(["build", "--input", str(path), "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("schema error: stage 2: product a0,a0: ")


def test_model_round_trip():
    doc = fixture("example3")
    tower = load_input(doc)
    model = build_persistent_minimal_model(tower)
    payload = model_payload(model, doc)
    tower2, model2 = load_model(json.loads(json.dumps(payload)))
    report = validate_model(model2, against=tower2)
    assert report["ok"], report
    assert homotopy_barcode(model2).as_multiset() == \
        homotopy_barcode(model).as_multiset()
    # Emission is canonical-form stable.
    assert model_payload(model2, doc) == payload


TOWER_FIXTURES = ("example1_case1", "example1_case2", "example2", "example3",
                  "sphere2", "sphere2_bounded", "sphere3")


@pytest.mark.parametrize("name", TOWER_FIXTURES)
def test_the_check_path_computes_no_class_representatives(name, monkeypatch):
    # pmm check audits connectivity, which reads only dim H: no space there
    # needs its representatives or class coordinates, so the reverse echelon
    # of its boundaries is never made (nor any complement).
    from pmm import cochain, exactla
    doc = fixture(name)
    payload = json.loads(json.dumps(model_payload(
        build_persistent_minimal_model(load_input(doc)), doc)))
    calls = []
    for module in (cochain, exactla):
        monkeypatch.setattr(module, "reverse_echelon",
                            lambda *a, r=exactla.reverse_echelon: calls.append(a) or r(*a))
    tower, model = load_model(payload)
    assert validate_model(model, against=tower)["ok"]
    assert calls == []


@pytest.mark.parametrize("name", TOWER_FIXTURES)
def test_the_check_path_builds_extension_bases_down_the_chain(name, monkeypatch):
    # load_model attaches the saved generators degree by degree, a chain of
    # extensions from the unit algebras; each extension takes its base's
    # bases below its first added generator.  Bases are shared by degree
    # tuple, so no (degree tuple, degree) pair is enumerated twice, however
    # many algebras read it: a second check while the first one's model is
    # alive enumerates nothing again.  Then every algebra of the chain, in
    # every degree, lists the monomials of the reference enumeration over
    # all its generators, sorted by (total exponent, lex).
    import gc
    from pmm import cdga
    doc = fixture(name)
    payload = json.loads(json.dumps(model_payload(
        build_persistent_minimal_model(load_input(doc)), doc)))
    gc.collect()  # the build's tables go with the build
    made, full = [], []
    init, enumerate_monomials = cdga.FreeCDGA.__init__, cdga._monomials

    def record_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def counting(degrees, n):
        if degrees:
            full.append((tuple(degrees), n))
        return enumerate_monomials(degrees, n)

    monkeypatch.setattr(cdga.FreeCDGA, "__init__", record_init)
    monkeypatch.setattr(cdga, "_monomials", counting)
    checked = [load_model(payload) for _ in range(2)]
    for tower, model in checked:
        assert validate_model(model, against=tower)["ok"]
    assert len(set(full)) == len(full)
    monkeypatch.setattr(cdga, "_monomials", enumerate_monomials)
    for alg in made:
        degrees = [g.degree for g in alg.generators]
        for n in range(alg.degree_cap + 1):
            dense = sorted((dense_key(m, len(degrees)) for m in monomials(degrees, n)),
                           key=lambda m: (sum(m), m))
            want = [sparse_key(m) for m in dense]
            assert list(alg.basis_keys(n)) == want, (name, n)
            assert [alg.key_position(n, m) for m in want] == list(range(len(want)))


@pytest.mark.parametrize("seed", ["0", "1"])
def test_a_tower_built_after_others_in_one_process_writes_the_same_files(tmp_path, seed):
    # Bases are shared by generator degrees among all the algebras alive in
    # a process.  example3 built while the models of example1_case1 and
    # example2 are alive (their algebras share its degree tuples) writes the
    # files it writes built alone.
    emit = ["--emit", "barcode,presentation,report,model"]
    script = ("import json, sys\n"
              "from pmm.cli import main\n"
              "from pmm.io import load_input\n"
              "from pmm.pminimal import build_persistent_minimal_model\n"
              "alive = [build_persistent_minimal_model(load_input(json.load(open(p))))\n"
              "         for p in sys.argv[1:-1]]\n"
              "sys.exit(main(['build', '--input', sys.argv[-2], '--output', sys.argv[-1]]\n"
              f"              + {emit!r}))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    inputs = [str(FIXTURES / f"{name}.json") for name in ("example1_case1", "example2", "example3")]
    after = subprocess.run([sys.executable, "-c", script, *inputs, str(tmp_path / "after")],
                           env=env, capture_output=True, text=True)
    alone = subprocess.run([sys.executable, "-m", "pmm", "build", "--input", inputs[-1],
                            "--output", str(tmp_path / "alone"), *emit],
                           env=env, capture_output=True, text=True)
    assert after.returncode == alone.returncode == 0, after.stderr + alone.stderr
    assert after.stdout == alone.stdout
    for name in ("barcode.json", "presentation.txt", "report.json", "model.json"):
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def test_model_tamper_detected():
    doc = fixture("example3")
    tower = load_input(doc)
    model = build_persistent_minimal_model(tower)
    payload = json.loads(json.dumps(model_payload(model, doc)))
    victim = next(g for g in payload["model"]["generators"]
                  if g["endpoint"] not in (None, "0"))
    victim["endpoint"] = "2*" + victim["endpoint"]
    try:
        tower2, model2 = load_model(payload)
        report = validate_model(model2, against=tower2)
        assert not report["ok"]
    except (ValidationError, SchemaError):
        pass  # rejected at load time is equally acceptable


def test_cli_build(tmp_path, capsys):
    rc = main(["build", "--input", str(FIXTURES / "example1_case1.json"),
               "--degree-cap", "5", "--output", str(tmp_path),
               "--emit", "barcode,presentation,report,model"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"]
    assert (tmp_path / "barcode.json").exists()
    assert (tmp_path / "presentation.txt").exists()
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "model.json").exists()
    bars = json.loads((tmp_path / "barcode.json").read_text())
    assert bars == [{"degree": 2, "birth": "0", "death": "2"},
                    {"degree": 3, "birth": "1", "death": "3"}]
    text = (tmp_path / "presentation.txt").read_text()
    assert "pΛ(" in text and "^2" in text


def test_cli_build_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = main(["build", "--input", str(FIXTURES / "example2.json"),
                   "--output", str(out)])
        assert rc == 0
    capsys.readouterr()
    for name in ("barcode.json", "presentation.txt", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_check_model_and_tamper(tmp_path, capsys):
    rc = main(["build", "--input", str(FIXTURES / "example3.json"),
               "--output", str(tmp_path), "--emit", "model"])
    assert rc == 0
    model_file = tmp_path / "model.json"
    rc = main(["check", "--input", str(model_file), "--output", str(tmp_path)])
    assert rc == 0
    doc = json.loads(model_file.read_text())
    victim = next(g for g in doc["model"]["generators"]
                  if g["endpoint"] not in (None, "0"))
    victim["endpoint"] = "0"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    rc = main(["check", "--input", str(tampered), "--output", str(tmp_path)])
    capsys.readouterr()
    assert rc == 1


def test_cli_check_reports_an_altered_homotopy_start(tmp_path, capsys):
    # H(x2_0) no longer starts at bottom o left: the square fails, and with it
    # the integration identity on x2_0.
    doc = _built_model("example1_case1")
    doc["model"]["homotopies"][0]["x2_0"]["poly"]["0"] = "2*alpha"
    f = tmp_path / "model.json"
    f.write_text(json.dumps(doc))
    rc = main(["check", "--input", str(f), "--output", str(tmp_path)])
    capsys.readouterr()
    assert rc == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["homotopy_identities"]["status"] == "fail"
    assert report["homotopy_identities"]["failures"] == [
        "stage 0: homotopy start mismatch on x2_0 at stage 0"]


def wedge_document(cap=6):
    """W_2 as an input document: H*(S^2 v S^2) -> H*(S^2), killing a1."""
    def stage(labels):
        return {"type": "finite", "unit": "one",
                "basis": [{"degree": 0, "labels": ["one"]}, {"degree": 2, "labels": labels}],
                "products": [{"left": x, "right": y, "value": "0"}
                             for x in labels for y in labels]}
    return {"grid": ["0", "1"], "degree_cap": cap,
            "stages": [stage(["a0", "a1"]), stage(["a0"])],
            "maps": [{"images": {"one": "one", "a0": "a0", "a1": "0"}}]}


@pytest.mark.parametrize("reorder", ["reverse", "shuffle"])
def test_cli_check_accepts_reordered_generators(tmp_path, capsys, reorder):
    # The reload attaches the saved generators degree by degree, so their
    # order in the file does not matter.
    doc = wedge_document()
    payload = json.loads(json.dumps(model_payload(
        build_persistent_minimal_model(load_input(doc)), doc)))
    gens = payload["model"]["generators"]
    assert len(gens) == 16
    before = list(gens)
    if reorder == "reverse":
        gens.reverse()
    else:
        random.Random(1).shuffle(gens)
    assert [g["degree"] for g in gens] != sorted(g["degree"] for g in gens)
    assert sorted(map(json.dumps, gens)) == sorted(map(json.dumps, before))
    f = tmp_path / "model.json"
    f.write_text(json.dumps(payload))
    rc = main(["check", "--input", str(f), "--output", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0


def test_cli_check_reports_a_doubled_birth_differential(tmp_path, capsys):
    doc = _built_model("example1_case1")
    victim = next(g for g in doc["model"]["generators"] if g["degree"] == 3)
    assert victim["d"] == "x2_0^2"
    victim["d"] = "2*x2_0^2"
    f = tmp_path / "model.json"
    f.write_text(json.dumps(doc))
    rc = main(["check", "--input", str(f), "--output", str(tmp_path)])
    capsys.readouterr()
    assert rc == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["structure"]["status"] == "fail"


def test_cli_check_reports_a_degree_one_generator_once(tmp_path, capsys):
    # Every stage algebra holds y1, so every stage fails minimality; the
    # report names the first failure only.
    doc = _built_model("example3")
    add_degree_one_generator(doc["model"])
    f = tmp_path / "model.json"
    f.write_text(json.dumps(doc))
    rc = main(["check", "--input", str(f), "--output", str(tmp_path)])
    capsys.readouterr()
    assert rc == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["minimality"] == {"status": "fail",
                                    "failures": ["generator y1 has degree 1 < 2"]}


def test_cli_check_reports_a_stage_image_of_the_wrong_degree(tmp_path, capsys):
    # The cone of a stage model with a degree-0 image of x4_0 cannot be
    # assembled; the check reports that under connectivity, with the rest.
    doc = _built_model("example3")
    doc["model"]["stage_models"][0]["x4_0"] = "1"
    f = tmp_path / "model.json"
    f.write_text(json.dumps(doc))
    rc = main(["check", "--input", str(f), "--output", str(tmp_path)])
    capsys.readouterr()
    assert rc == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["structure"]["failures"] == ["m(0): image of x4_0 has wrong degree"]
    assert report["homotopy_identities"]["failures"] == [
        "stage 0: homotopy start mismatch on x4_0 at stage 0"]
    assert report["connectivity"]["failures"] == [
        "C_m(0): term 1 of degree 0 in degree-4 vector"]
    assert all(c["status"] == "pass" for c in report["hirsch_certificates"])


def test_cli_check_reports_an_inhomogeneous_stage_image(tmp_path, capsys):
    # a + one mixes degrees 2 and 0: the structure check names x2_0 and goes
    # on to x3_0, and the cone of stage model 0 cannot be assembled.
    doc = _built_model("sphere2")
    assert doc["model"]["stage_models"][0]["x2_0"] == "a"
    doc["model"]["stage_models"][0]["x2_0"] = "a + one"
    f = tmp_path / "model.json"
    f.write_text(json.dumps(doc))
    rc = main(["check", "--input", str(f), "--output", str(tmp_path)])
    capsys.readouterr()
    assert rc == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["structure"]["failures"] == [
        "m(0): image of x2_0 is inhomogeneous", "m(0): d-compatibility fails on generator x3_0"]
    assert report["connectivity"]["failures"] == [
        "C_m(0): term one of degree 0 in degree-2 vector"]


@pytest.mark.parametrize("name", ["example1_case1", "example3", "sphere3"])
def test_reload_attaches_the_builds_algebras_and_maps(name):
    doc = fixture(name)
    model = build_persistent_minimal_model(load_input(doc))
    _, loaded = load_model(json.loads(json.dumps(model_payload(model, doc))))
    for alg, old in zip(loaded.algebras, model.algebras, strict=True):
        assert alg.generators == old.generators
        assert all(alg.generator_diff(g.name).terms == old.generator_diff(g.name).terms
                   for g in alg.generators)
    for sigma, old in zip(loaded.sigmas, model.sigmas, strict=True):
        assert {x: img.terms for x, img in sigma.gen_images.items()} == \
            {x: img.terms for x, img in old.gen_images.items()}


def test_cli_unknown_emit_kind_is_refused_before_the_build(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["build", "--input", str(FIXTURES / "sphere2.json"),
               "--output", str(out), "--emit", "barcode,bogus"])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("schema error:"), err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("check", ["--emit", "bogus"]),
    ("check", ["--verbose-relations"]),
    ("decompose", ["--format", "text"]),
    ("decompose", ["--degree-cap", "5"]),
    ("factor", ["--emit", "barcode"]),
])
def test_cli_subcommand_refuses_an_option_it_does_not_take(tmp_path, capsys, command, extra):
    f = tmp_path / "model.json"
    f.write_text(json.dumps(_built_model("example1_case1")
                            if command == "check" else _interval_sphere()))
    rc = main([command, "--input", str(f), "--output", str(tmp_path / "out")] + extra)
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"schema error: unrecognized arguments: {' '.join(extra)}\n", err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, reason", [
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
    (["build"], "the following arguments are required: --input"),
    (["build", "--input", "x.json", "--degree-cap", "two"],
     "argument --degree-cap: invalid int value: 'two'"),
], ids=["unknown-subcommand", "missing-subcommand", "missing-option", "bad-value"])
def test_cli_bad_command_line_is_one_schema_error_line(capsys, argv, reason):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"schema error: {reason}"), err


@pytest.mark.parametrize("command", ["build", "check", "decompose", "factor"])
def test_cli_json_nested_past_the_recursion_limit_is_one_schema_error_line(tmp_path, command):
    # The decoder recurses once per nesting level: a document opened 100,000
    # levels deep is malformed input, not an internal error.
    f = tmp_path / "deep.json"
    f.write_text("[" * 100000)
    proc = run_module("pmm", [command, "--input", str(f), "--output", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("schema error:"), \
        proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: pmm" in capsys.readouterr().out


def test_cli_check_refuses_a_degree_cap_for_a_saved_model(tmp_path, capsys):
    f = tmp_path / "model.json"
    f.write_text(json.dumps(_built_model("example1_case1")))
    rc = main(["check", "--input", str(f), "--output", str(tmp_path / "out"),
               "--degree-cap", "99"])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("schema error:"), err
    assert not (tmp_path / "out").exists()


def test_cli_check_on_input_takes_degree_cap_and_format(tmp_path, capsys):
    rc = main(["check", "--input", str(FIXTURES / "sphere2.json"),
               "--output", str(tmp_path), "--degree-cap", "5", "--format", "text"])
    assert rc == 0
    assert "ok: True" in capsys.readouterr().out.splitlines()


def test_cli_decompose_module(tmp_path, capsys):
    rc = main(["decompose", "--input", str(FIXTURES / "module_dims121.json"),
               "--output", str(tmp_path)])
    assert rc == 0
    bars = json.loads((tmp_path / "barcode.json").read_text())
    assert {"degree": 0, "birth": "0", "death": "2"} in bars
    assert {"degree": 0, "birth": "1", "death": None} in bars
    capsys.readouterr()


def test_cli_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["build", "--input", str(bad), "--output", str(tmp_path)])
    assert rc == 2
    empty = tmp_path / "empty_grid.json"
    empty.write_text(json.dumps({"grid": [], "degree_cap": 4,
                                 "stages": [], "maps": []}))
    rc = main(["build", "--input", str(empty), "--output", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()


def test_cli_validation_error_exit_code(tmp_path, capsys):
    doc = {
        "grid": ["0"], "degree_cap": 3,
        "stages": [{"type": "free",
                    "generators": [{"name": "t", "degree": 1, "d": "0"}]}],
        "maps": [],
    }
    f = tmp_path / "h1.json"
    f.write_text(json.dumps(doc))
    rc = main(["build", "--input", str(f), "--output", str(tmp_path)])
    assert rc == 1
    capsys.readouterr()


def test_cli_factor(tmp_path, capsys):
    # The fixture is 0 -> I^2_[1,3) on a 4-point grid as a map document.
    f = load_pcomplex_map(fixture("map_zero_to_interval"))
    g = Grid((0, 1, 2, 3))
    want = interval_complex(g, 2, 1, 3, max_degree=3)
    assert f.source.labels == zero_complex(g, 3).labels and f.target.labels == want.labels
    assert all(f.target.sigma_mat(r, k) == want.sigma_mat(r, k)
               for r in range(3) for k in range(4))
    rc = main(["factor", "--input", str(FIXTURES / "map_zero_to_interval.json"),
               "--output", str(tmp_path)])
    assert rc == 0
    cert = json.loads((tmp_path / "factorization.json").read_text())
    assert cert["verified"]
    assert len(cert["stage1"]) == 1 and cert["stage1"][0]["degree"] == 3
    capsys.readouterr()


def test_sphere_fixtures_build(tmp_path, capsys):
    for name, expected in (("sphere2", [(2, "0", None), (3, "0", None)]),
                           ("sphere3", [(3, "0", None)])):
        rc = main(["build", "--input", str(FIXTURES / f"{name}.json"),
                   "--output", str(tmp_path / name)])
        assert rc == 0
        bars = json.loads((tmp_path / name / "barcode.json").read_text())
        assert [(b["degree"], b["birth"], b["death"]) for b in bars] == expected
    capsys.readouterr()


def test_cli_verbose_relations(tmp_path, capsys):
    rc = main(["build", "--input", str(FIXTURES / "example2.json"),
               "--output", str(tmp_path), "--verbose-relations"])
    assert rc == 0
    text = (tmp_path / "presentation.txt").read_text()
    # Example II has only trivial relations; verbose mode prints them.
    assert "d x" in text and "= 0" in text
    capsys.readouterr()


@pytest.mark.parametrize("verbose, relations", [
    (False, "d x3_0 = x2_0^2"), (True, "d x2_0 = 0 ; d x3_0 = x2_0^2")],
    ids=["plain", "verbose-relations"])
def test_cli_build_text_format_prints_the_presentation_and_the_barcode(
        tmp_path, capsys, verbose, relations):
    argv = ["build", "--input", str(FIXTURES / "sphere2.json"), "--output", str(tmp_path),
            "--degree-cap", "5", "--format", "text"]
    rc = main(argv + ["--verbose-relations"] * verbose)
    assert rc == 0
    assert capsys.readouterr().out == (
        f"pΛ( x2_0 : deg 2 on [0,inf) ; x3_0 : deg 3 on [0,inf) | {relations} )\n"
        "pi_2: [0, inf)\npi_3: [0, inf)\n")


def test_fractional_grid_round_trip(tmp_path, capsys):
    doc = fixture("example1_case1")
    doc["grid"] = ["0", "1/3", "1/2", "7/2"]
    f = tmp_path / "frac.json"
    f.write_text(json.dumps(doc))
    rc = main(["build", "--input", str(f), "--output", str(tmp_path)])
    assert rc == 0
    bars = json.loads((tmp_path / "barcode.json").read_text())
    assert bars == [{"degree": 2, "birth": "0", "death": "1/2"},
                    {"degree": 3, "birth": "1/3", "death": "7/2"}]
    capsys.readouterr()


def _interval_sphere():
    # An interval sphere S^2_[0,2) on a 3-point grid, serialized by hand:
    # degree-2 line from stage 0, bounded in degree 1 from stage 2.
    return {
        "grid": ["0", "1", "2"],
        "max_degree": 2,
        "stages": [
            {"basis": {"2": ["x"]}, "d": {}},
            {"basis": {"2": ["x"]}, "d": {}},
            {"basis": {"1": ["y"], "2": ["x"]}, "d": {"1": [["1"]]}},
        ],
        "maps": [{"2": [["1"]]}, {"2": [["1"]]}],
    }


def test_cli_decompose_pcomplex(tmp_path, capsys):
    # A complex holds nothing above max_degree, so its top degree is read
    # like any other: S^2_[0,2) gives its bar whether it is written with
    # max_degree 2 or with an empty degree 3 above it.
    doc = _interval_sphere()
    for max_degree in (2, 3):
        doc["max_degree"] = max_degree
        f = tmp_path / f"sphere{max_degree}.json"
        f.write_text(json.dumps(doc))
        rc = main(["decompose", "--input", str(f), "--output", str(tmp_path)])
        assert rc == 0
        bars = json.loads((tmp_path / "barcode.json").read_text())
        assert bars == [{"degree": 2, "birth": "0", "death": "2"}]
        capsys.readouterr()


def test_cli_check_on_input(tmp_path, capsys):
    rc = main(["check", "--input", str(FIXTURES / "example1_case1.json"),
               "--output", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["ok"]
    assert report["connectivity"]["status"] == "pass"
    assert report["homotopy_identities"] == "pass"
    assert report["endpoint_law"] == "pass"
    assert all(c["status"] == "pass" for c in report["hirsch_certificates"])
    capsys.readouterr()


@pytest.mark.parametrize("module", ["pmm", "pmm.cli"])
def test_python_m_entry_points(tmp_path, module):
    # `python -m pmm` and `python -m pmm.cli` run the driver and keep its
    # exit-code contract: a missing input is a schema error (exit 2).
    proc = run_module(module, ["build", "--input", str(tmp_path / "missing.json"),
                               "--output", str(tmp_path)], timeout=120)
    assert proc.returncode == 2
    assert "schema error" in proc.stderr


def _degree_word(doc):
    doc["stages"][0]["basis"][1]["degree"] = "two"
    return doc


def _null_images(doc):
    doc["maps"][0]["images"] = None
    return doc


def _null_stages(doc):
    doc["stages"] = None
    return doc


def _top_level_array(doc):
    return [doc]


def _deep_parentheses(doc):
    doc["maps"][0]["images"]["a"] = "(" * 3000 + "a" + ")" * 3000
    return doc


def _null_products(doc):
    doc["stages"][1]["products"] = None
    return doc


def _null_differentials(doc):
    doc["stages"][1]["differentials"] = None
    return doc


def _fractional_degree(doc):
    doc["stages"][0]["basis"][1]["degree"] = 2.5
    return doc


def _string_cap(doc):
    doc["degree_cap"] = "5"
    return doc


def _built_model(name):
    doc = fixture(name)
    model = build_persistent_minimal_model(load_input(doc))
    return json.loads(json.dumps(model_payload(model, doc)))


def _null_poly(doc):
    model = _built_model("example1_case1")
    model["model"]["homotopies"][0]["x2_0"]["poly"] = None
    return model


def _null_generator(doc):
    model = _built_model("example1_case1")
    model["model"]["generators"][1] = None
    return model


def _string_birth(doc):
    model = _built_model("example1_case1")
    model["model"]["generators"][0]["birth"] = "0"
    return model


def _null_stage_model(doc):
    model = _built_model("example1_case1")
    model["model"]["stage_models"][0] = None
    return model


def _null_homotopy(doc):
    model = _built_model("example1_case1")
    model["model"]["homotopies"][0] = None
    return model


def _short_stage_models(doc):
    model = _built_model("example1_case1")
    model["model"]["stage_models"].pop()
    return model


def _short_homotopies(doc):
    model = _built_model("example1_case1")
    model["model"]["homotopies"].pop()
    return model


def _list_generator_name(doc):
    doc = fixture("example1_case1")
    doc["stages"][0]["generators"][0]["name"] = ["alpha"]
    return doc


def _list_basis_label(doc):
    doc["stages"][0]["basis"][1]["labels"] = [["a"]]
    return doc


def _dict_product_factor(doc):
    doc["stages"][0]["products"][0]["left"] = {"a": 1}
    return doc


def _list_model_generator_name(doc):
    model = _built_model("example1_case1")
    model["model"]["generators"][0]["name"] = ["x2_0"]
    return model


def _unknown_finite_image(doc):
    doc["maps"][0]["images"]["b"] = "0"
    return doc


def _unknown_free_image(doc):
    doc = fixture("example1_case1")
    doc["maps"][0]["images"]["gamma"] = "0"
    return doc


def _unknown_stage_model_key(doc):
    model = _built_model("example1_case1")
    model["model"]["stage_models"][0]["x9_0"] = "0"
    return model


def _unknown_homotopy_key(doc):
    model = _built_model("example1_case1")
    model["model"]["homotopies"][0]["x9_0"] = {"poly": {}, "dt": {}}
    return model


def _endpoint_of_higher_degree(doc):
    model = _built_model("example1_case1")
    model["model"]["generators"][0]["endpoint"] = "x3_0"  # x2_0 ends in degree 2
    return model


def _model_degree_cap(value):
    def mutate(doc):
        model = _built_model("example1_case1")
        if value is None:
            del model["model"]["degree_cap"]
        else:
            model["model"]["degree_cap"] = value
        return model
    mutate.__name__ = "_no_model_degree_cap" if value is None else f"_model_degree_cap_{value}"
    return mutate


def _null_complex_map(doc):
    x = _interval_sphere()
    x["maps"][0] = None
    return x


def _extra_complex_map(doc):
    x = _interval_sphere()
    x["maps"].append({"2": [["1"]]})
    return x


def _d_key_at_max_degree(doc):
    x = _interval_sphere()
    x["stages"][0]["d"]["2"] = []
    return x


def _null_component(doc):
    x = _interval_sphere()
    ident = [{"2": [["1"]]}, {"2": [["1"]]}, {"1": [["1"]], "2": [["1"]]}]
    ident[1] = None
    return {"source": x, "target": _interval_sphere(), "components": ident}


def _huge_map_key(doc):
    x = _interval_sphere()
    x["maps"][0] = {"9" * 5000: [["1"]]}
    return x


def _leading_zero_map_key(doc):
    # With max_degree 12, "02" is not longer than the largest key.
    x = _interval_sphere()
    x["max_degree"] = 12
    x["maps"][0] = {"02": [["1"]]}
    return x


def _leading_zero_basis_key(doc):
    x = _interval_sphere()
    x["stages"][0]["basis"]["02"] = ["z"]
    return x


def _grid_time(value):
    def mutate(doc):
        doc["grid"][1] = value
        return doc
    mutate.__name__ = f"_grid_time_{value!r}"
    return mutate


def _float_matrix_entry(doc):
    x = _interval_sphere()
    x["maps"][0]["2"] = [[1.0]]
    return x


@pytest.mark.parametrize("mutate", [_degree_word, _null_images, _null_stages,
                                    _top_level_array, _deep_parentheses,
                                    _null_products, _null_differentials,
                                    _fractional_degree, _string_cap,
                                    _null_poly, _null_generator, _string_birth,
                                    _null_stage_model, _null_homotopy,
                                    _short_stage_models, _short_homotopies,
                                    _null_complex_map, _extra_complex_map,
                                    _d_key_at_max_degree, _null_component,
                                    _huge_map_key, _leading_zero_map_key,
                                    _leading_zero_basis_key, _grid_time("1e9999"),
                                    _grid_time("1e3"), _grid_time(1.5),
                                    _grid_time(" 2 "), _float_matrix_entry,
                                    _list_generator_name, _list_basis_label,
                                    _dict_product_factor, _list_model_generator_name,
                                    _unknown_finite_image, _unknown_free_image,
                                    _unknown_stage_model_key, _unknown_homotopy_key,
                                    _endpoint_of_higher_degree,
                                    _model_degree_cap(50), _model_degree_cap(-1),
                                    _model_degree_cap(None)])
def test_cli_malformed_input_is_one_line_schema_error(tmp_path, capsys, mutate):
    # Mutations of sphere2.json go to `build`, those of a built model to
    # `check`, of a persistent complex to `decompose`, of a map to `factor`.
    bad = mutate(fixture("sphere2"))
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad))
    command = ("check" if "model" in bad else "decompose" if "max_degree" in bad
               else "factor" if "components" in bad else "build")
    rc = main([command, "--input", str(f), "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("schema error:"), err


@pytest.mark.parametrize("where, value, reason", [
    ("image", "\u00b2*a", "map 0: image of 'a': unexpected character '\u00b2'"),
    ("image", "\u0661*a", "map 0: image of 'a': unexpected character '\u0661'"),
    ("image", "1" * 101 + "*a", "map 0: image of 'a': number longer than 100 digits"),
    ("image", "1" * 5001 + "*a", "map 0: image of 'a': number longer than 100 digits"),
    ("product", "\u00b2*a", "stage 0: product a,a: unexpected character '\u00b2'"),
    ("differential", "\u00b2*a", "stage 0: d(a): unexpected character '\u00b2'"),
], ids=["superscript-image", "arabic-indic-image", "101-digit-image", "5001-digit-image",
        "superscript-product", "superscript-differential"])
def test_cli_build_refuses_a_number_that_is_not_short_ascii_digits(tmp_path, capsys, where,
                                                                   value, reason):
    # int() would take the Arabic-Indic digit for 1 and raise ValueError
    # (exit 3) on the superscript and on 5,001 digits.
    doc = fixture("sphere2")
    if where == "image":
        doc["maps"][0]["images"]["a"] = value
    elif where == "product":
        doc["stages"][0]["products"][0]["value"] = value
    else:
        doc["stages"][0]["differentials"].append({"of": "a", "value": value})
    f = tmp_path / "tower.json"
    f.write_text(json.dumps(doc))
    rc = main(["build", "--input", str(f), "--output", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"schema error: {reason} (line 1, column 1)\n", err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("poly", [{"0": "a", "1": "-a", "01": "7*a"},
                                  {"0": "a", "\u0661": "-a"},
                                  {"00": "a", "1": "-a"}],
                         ids=["leading-zero", "arabic-indic-digit", "double-zero"])
def test_cli_check_refuses_a_non_canonical_homotopy_key(tmp_path, capsys, poly):
    # "01" and "\u0661" name the t-power that "1" names, and "00" the one "0"
    # names, so the document is ambiguous; it is refused before any check runs.
    model = _built_model("sphere2_bounded")
    assert model["model"]["homotopies"][0]["x2_0"]["poly"] == {"0": "a", "1": "-a"}
    model["model"]["homotopies"][0]["x2_0"]["poly"] = poly
    f = tmp_path / "model.json"
    f.write_text(json.dumps(model))
    rc = main(["check", "--input", str(f)])
    err = capsys.readouterr().err
    bad = next(k for k in poly if k not in ("0", "1"))
    assert rc == 2
    assert err == f"schema error: bad integer key {bad!r} in homotopy 0 of 'x2_0'\n"


def test_cli_decompose_refuses_an_input_degree_key_with_a_leading_zero(tmp_path, capsys):
    doc = _interval_sphere()
    doc["max_degree"] = 12
    doc["stages"][2]["d"] = {"01": [["1"]]}
    f = tmp_path / "complex.json"
    f.write_text(json.dumps(doc))
    rc = main(["decompose", "--input", str(f), "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "schema error: bad integer key '01' in d of stage 2\n"


def test_cli_unexpected_exception_is_one_line_exit_3(tmp_path, capsys, monkeypatch):
    def boom(doc):
        raise RuntimeError("unexpected\nfailure")

    monkeypatch.setattr("pmm.cli.load_input", boom)
    rc = main(["build", "--input", str(FIXTURES / "sphere2.json"),
               "--output", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "internal error: RuntimeError: unexpected failure\n"


@pytest.mark.parametrize("time_literal", ['"9999999999999999999999999e-99999999"', "1" * 5000],
                         ids=["exponent-string", "5000-digit-integer"])
def test_cli_oversized_grid_time_is_refused_quickly(tmp_path, time_literal):
    # Fraction("...e-99999999") builds a 10^99999999 denominator, and a JSON
    # integer of 5,000 digits is past int()'s digit limit: both must exit 2
    # well within the timeout, in a fresh process.
    doc = fixture("sphere2")
    doc["grid"][1] = "@"
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc).replace('"@"', time_literal))
    proc = run_module("pmm", ["build", "--input", str(f), "--output", str(tmp_path)],
                      timeout=20)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("schema error:")


def _empty_complex(stages, max_degree):
    return {"grid": list(range(stages)), "max_degree": max_degree,
            "stages": [{"basis": {}}] * stages, "maps": [{}] * (stages - 1)}


@pytest.mark.parametrize("max_degree", [-1, -5])
def test_cli_refuses_a_negative_max_degree(tmp_path, capsys, max_degree):
    # Empty stages, so the degree is the only fault.
    f = tmp_path / "complex.json"
    f.write_text(json.dumps(_empty_complex(3, max_degree)))
    rc = main(["decompose", "--input", str(f), "--output", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"schema error: complex max_degree {max_degree} is negative\n"


@pytest.mark.parametrize("command", ["decompose", "factor"])
def test_cli_refuses_an_oversized_complex_before_building_it(tmp_path, command):
    # 8 empty stages with max_degree 10^7: a document of about 200 bytes
    # with 8 * 10^7 (stage, degree) slots.  It must exit 2 before one label
    # list per slot is built: in a fresh process with its address space
    # capped at 1 GiB (a MemoryError would exit 3), well within the timeout.
    import resource

    huge = _empty_complex(8, 10_000_000)
    doc = huge if command == "decompose" else {
        "source": huge, "target": huge, "components": [{}] * 8}
    f = tmp_path / "huge.json"
    f.write_text(json.dumps(doc))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = run_module("pmm", [command, "--input", str(f), "--output", str(tmp_path)],
                      timeout=20, preexec_fn=cap_memory)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("schema error: complex too large: 8 stages x 10000001 degrees "
                           "is over 100000 (stage, degree) slots\n")


def test_complex_slot_bound_is_inclusive(tmp_path, capsys, monkeypatch):
    # grid length x (max_degree + 1) at the bound loads; one degree more exits 2.
    monkeypatch.setattr("pmm.io.MAX_COMPLEX_SLOTS", 8)
    for max_degree, want in ((3, 0), (4, 2)):
        f = tmp_path / f"complex{max_degree}.json"
        f.write_text(json.dumps(_empty_complex(2, max_degree)))
        rc = main(["decompose", "--input", str(f), "--output", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == want, err
    assert err == ("schema error: complex too large: 2 stages x 5 degrees "
                   "is over 8 (stage, degree) slots\n")


def test_each_submodule_name_binds_the_module_on_the_package():
    # `from pmm import homotopy` must give the module, as perfbench/spans.py
    # imports submodules that way: no name the package exports may shadow one.
    import importlib
    import pkgutil

    import pmm

    names = [m.name for m in pkgutil.iter_modules(pmm.__path__) if not m.name.startswith("_")]
    assert {"cdga", "cli", "homotopy", "io", "pminimal"} <= set(names)
    for name in names:
        module = importlib.import_module(f"pmm.{name}")
        assert getattr(pmm, name) is module, name


def _one_stage_complex(**stage):
    return {"grid": ["0"], "max_degree": 1, "stages": [stage], "maps": []}


def _with_component(doc):
    doc["components"][1] = {"2": 5}
    return doc


@pytest.mark.parametrize("command, doc, message", [
    ("decompose", {"grid": ["0"], "dims": [-1], "maps": []},
     "module dimension -1 is negative"),
    ("decompose", {"grid": ["0", "1"], "dims": [1, 1], "maps": [[["1"]], [["1"]]]},
     "module has 2 maps for 1 stage pairs"),
    ("decompose", {"grid": ["0"], "dims": [200_000], "maps": []},
     "module too large: total dimension 200000 is over 2000"),
    ("decompose", {"grid": ["0", "1"], "dims": [1, 1], "maps": [[1]]},
     "module map 0: a matrix must be a JSON array of arrays"),
    ("decompose", _one_stage_complex(basis={"0": ["a"], "1": ["b"]}, d={"0": 5}),
     "d(0,0): a matrix must be a JSON array of arrays"),
    ("decompose", {**_empty_complex(2, 0), "maps": [{"0": [1]}]},
     "sigma(0,0): a matrix must be a JSON array of arrays"),
    ("decompose", _one_stage_complex(basis={"0": [1, 2]}),
     "bad name 1 in complex stage basis: want a JSON string"),
    ("factor", _with_component(fixture("map_zero_to_interval")),
     "component (1,2): a matrix must be a JSON array of arrays"),
    ("decompose", {"grid": ["0", "1"], "dims": [200, 200], "maps": [[[1] * 200] * 200]},
     "module too large: 40000 nonzero map entries is over 1000"),
    ("decompose", _one_stage_complex(basis={"0": [f"a{i}" for i in range(2001)]}),
     "complex too large: 2001 basis labels is over 2000"),
    ("factor", {"source": _one_stage_complex(basis={"1": [f"a{i}" for i in range(5000)]}),
                "target": _one_stage_complex(basis={}), "components": [{}]},
     "complex too large: 5000 basis labels is over 2000"),
], ids=["negative-dim", "extra-map", "huge-dim", "flat-module-map", "int-complex-d",
        "flat-sigma", "int-labels", "int-component", "dense-module-map", "many-labels",
        "many-source-labels"])
def test_cli_refuses_a_malformed_module_or_complex(tmp_path, capsys, command, doc, message):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    rc = main([command, "--input", str(f), "--output", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"schema error: {message}\n"


def _line_complex(stages, labels):
    return {"grid": [str(r) for r in range(stages)], "max_degree": 0,
            "stages": [{"basis": {"0": labels}} for _ in range(stages)],
            "maps": [{"0": [["1"]]}] * (stages - 1)}


@pytest.mark.parametrize("command, doc, message", [
    ("decompose", _one_stage_complex(basis={"0": ["a"], "1": ["b"], "2": ["c"]},
                                     d={"0": [["1"]], "1": [["1"]]}) | {"max_degree": 2},
     "complex invalid: d*d != 0 at stage 0, degree 0"),
    ("factor", {"source": _line_complex(2, ["a"]), "target": _line_complex(2, ["a"]),
                "components": [{"0": [["1"]]}, {"0": [["2"]]}]},
     "map invalid: map fails sigma-naturality at (0,0)")],
    ids=["complex-d-squared", "map-not-natural"])
def test_cli_refuses_a_complex_or_map_that_fails_a_square(tmp_path, capsys, command, doc,
                                                          message):
    # Well-formed documents whose matrices break d*d = 0 or sigma f = f sigma
    # are refused by the library's validators: exit 1 and one line.
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    rc = main([command, "--input", str(f), "--output", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"validation error: {message}\n"


def test_module_dimension_bound_is_inclusive():
    from pmm.io import MAX_MODULE_DIM, load_persistence_module

    at = {"grid": ["0", "1"], "dims": [MAX_MODULE_DIM - 1, 1],
          "maps": [[[0] * (MAX_MODULE_DIM - 1)]]}
    assert load_persistence_module(at).dims == (MAX_MODULE_DIM - 1, 1)
    over = {**at, "dims": [MAX_MODULE_DIM, 1], "maps": [[[0] * MAX_MODULE_DIM]]}
    with pytest.raises(SchemaError, match=f"total dimension {MAX_MODULE_DIM + 1} is over"):
        load_persistence_module(over)


def test_module_nonzero_bound_is_inclusive():
    # Three stages of dimension bound + 1, 1, 1: the two maps' nonzero
    # entries count together, zeros and "0" strings not at all.
    from pmm.io import MAX_MODULE_NONZEROS, load_persistence_module

    n = MAX_MODULE_NONZEROS

    def module(first, second):
        return {"grid": ["0", "1", "2"], "dims": [n + 1, 1, 1], "maps": [[first], [[second]]]}

    for doc in (module([0] + [1] * n, "0"), module(["0", 0] + ["-1/2"] * (n - 1), 3)):
        assert sum(m.nonzeros() for m in load_persistence_module(doc).maps) == n
    for doc in (module([0] + [1] * n, "1/2"), module([2] * (n + 1), 0)):
        with pytest.raises(SchemaError, match=f"^module too large: {n + 1}"
                                              f" nonzero map entries is over {n}$"):
            load_persistence_module(doc)


def test_complex_label_bound_is_inclusive():
    from pmm.io import MAX_COMPLEX_LABELS, load_pcomplex

    labels = [f"a{i}" for i in range(MAX_COMPLEX_LABELS)]
    at = {"grid": ["0", "1"], "max_degree": 2, "maps": [{}],
          "stages": [{"basis": {"0": labels[:5], "2": labels[5:-1]}}, {"basis": {"1": ["b"]}}]}
    assert load_pcomplex(at).dim(0, 2) == MAX_COMPLEX_LABELS - 6
    over = {**at, "stages": [at["stages"][0], {"basis": {"1": ["b", "c"]}}]}
    with pytest.raises(SchemaError, match=f"^complex too large: {MAX_COMPLEX_LABELS + 1}"
                                          f" basis labels is over {MAX_COMPLEX_LABELS}$"):
        load_pcomplex(over)


def test_complex_and_map_nonzero_bounds_are_inclusive():
    # A complex's d and maps count together, a map document's components on
    # their own; zeros and "0" strings not at all.
    from pmm.io import MAX_COMPLEX_NONZEROS, load_pcomplex, load_pcomplex_map

    n = MAX_COMPLEX_NONZEROS
    labels = [f"a{i}" for i in range(n + 1)]

    def complex_doc(d_row, map_row):
        # Stage 0: n + 1 degree-0 labels and d into one degree-1 label;
        # stage 1: one degree-0 label.  Every square commutes through zero.
        return {"grid": ["0", "1"], "max_degree": 1, "maps": [{"0": [map_row]}],
                "stages": [{"basis": {"0": labels, "1": ["c"]}, "d": {"0": [d_row]}},
                           {"basis": {"0": ["b"]}}]}

    def map_doc(row):
        source = {"grid": ["0"], "max_degree": 0, "stages": [{"basis": {"0": labels}}], "maps": []}
        target = {**source, "stages": [{"basis": {"0": ["b"]}}]}
        return {"source": source, "target": target, "components": [{"0": [row]}]}

    d_row = ["0", 0] + [1] * (n - 2) + ["-1/2"]
    x = load_pcomplex(complex_doc(d_row, [2] + [0] * n))
    assert x.d_mat(0, 0).nonzeros() + x.sigma_mat(0, 0).nonzeros() == n
    assert load_pcomplex_map(map_doc([0] + [3] * n)).mat(0, 0).nonzeros() == n
    with pytest.raises(SchemaError, match=f"^complex too large: {n + 1}"
                                          f" nonzero d and map entries is over {n}$"):
        load_pcomplex(complex_doc(d_row, [2] * 2 + [0] * (n - 1)))
    with pytest.raises(SchemaError, match=f"^map too large: {n + 1}"
                                          f" nonzero component entries is over {n}$"):
        load_pcomplex_map(map_doc(["1/3"] * (n + 1)))


def test_load_matrix_checks_every_entry_then_the_shape():
    # Zeros, JSON or string, are checked but not stored: the rows come out
    # sparse and equal to the dense construction.  A bad entry is refused
    # before a wrong shape, wherever it sits.
    from fractions import Fraction

    from pmm.exactla import QMatrix
    from pmm.io import load_matrix

    got = load_matrix([[0, "1/2", "0"], ["-0.0", 0, -3]], 2, 3, "m")
    assert got == QMatrix(2, 3, [[0, Fraction(1, 2), 0], [0, 0, -3]])
    assert [dict(row) for row in got._rows] == [{1: Fraction(1, 2)}, {2: Fraction(-3)}]
    assert load_matrix([], 0, 4, "m") == QMatrix(0, 4)
    for bad in ([[0, 1], [0, "x"]], [[0, 1, 0], [True]], [[0, 1.5]], [[10 ** 100]]):
        with pytest.raises(SchemaError, match="^bad rational .* m: want an integer"):
            load_matrix(bad, 2, 3, "m")
    for shape in ([[0, 0, 0], [0, 0]], [[0, 0, 0]], [[0, 0, 0]] * 3):
        with pytest.raises(SchemaError, match=r"^m: matrix shape mismatch, want 2x3$"):
            load_matrix(shape, 2, 3, "m")


def test_load_matrix_skips_the_string_zero_and_checks_every_other_form(monkeypatch):
    # The exact string "0" is skipped as a JSON-integer zero is, without a
    # Fraction; "-0" and "0/1" are read as zero, and 0.0, false and " 0"
    # are still refused, before a wrong shape.
    from pmm import io
    from pmm.exactla import QMatrix

    read = []
    rational = io._rational
    monkeypatch.setattr(io, "_rational", lambda x, where: read.append(x) or rational(x, where))
    got = io.load_matrix([["0", 0, "-0"], ["0/1", "0", "2"]], 2, 3, "m")
    assert got == QMatrix(2, 3, [[0, 0, 0], [0, 0, 2]])
    assert [dict(row) for row in got._rows] == [{}, {2: 2}]
    assert read == ["-0", "0/1", "2"]
    for bad in (0.0, False, " 0"):
        for rows in ([["0", bad, "0"], ["0", "0", "0"]], [["0", bad]]):
            with pytest.raises(SchemaError, match="^bad rational .* m: want an integer"):
                io.load_matrix(rows, 2, 3, "m")


def test_the_largest_module_decomposes_under_a_memory_cap(tmp_path):
    # One stage at the bound: d unit vectors of length d, in a fresh process
    # with its address space capped at 1 GiB (a MemoryError would exit 3).
    import resource

    from pmm.io import MAX_MODULE_DIM

    f = tmp_path / "module.json"
    f.write_text(json.dumps({"grid": ["0"], "dims": [MAX_MODULE_DIM], "maps": []}))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = run_module("pmm", ["decompose", "--input", str(f), "--output", str(tmp_path)],
                      timeout=60, preexec_fn=cap_memory)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads((tmp_path / "barcode.json").read_text())) == MAX_MODULE_DIM
