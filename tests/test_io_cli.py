import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pmm.cli import main
from pmm.errors import SchemaError, ValidationError
from pmm.io import (
    barcode_payload, load_input, load_model, model_payload, )
from pmm.pminimal import (
    build_persistent_minimal_model, homotopy_barcode, validate_model,
)

FIXTURES = Path(__file__).parent / "fixtures"


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
    # 0 -> I^2_[1,3) on a 4-point grid as a map document.
    grid = ["0", "1", "2", "3"]
    def empty_stage():
        return {"basis": {}, "d": {}}
    interval_stage = {"basis": {"2": ["i2"]}, "d": {}}
    target = {
        "grid": grid, "max_degree": 3,
        "stages": [empty_stage(), interval_stage, interval_stage, empty_stage()],
        "maps": [{}, {"2": [["1"]]}, {}],
    }
    source = {
        "grid": grid, "max_degree": 3,
        "stages": [empty_stage()] * 4,
        "maps": [{}, {}, {}],
    }
    doc = {"source": source, "target": target,
           "components": [{}, {}, {}, {}]}
    f = tmp_path / "map.json"
    f.write_text(json.dumps(doc))
    rc = main(["factor", "--input", str(f), "--output", str(tmp_path)])
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
    doc = _interval_sphere()
    f = tmp_path / "sphere.json"
    f.write_text(json.dumps(doc))
    rc = main(["decompose", "--input", str(f), "--output", str(tmp_path)])
    assert rc == 0
    bars = json.loads((tmp_path / "barcode.json").read_text())
    # H^1 vanishes everywhere (reliable degrees are < max_degree).
    assert bars == []
    capsys.readouterr()

    # Same complex with headroom: the degree-2 bar [0, 2) becomes visible.
    doc["max_degree"] = 3
    for stage in doc["stages"]:
        pass  # bases unchanged; degree 3 is empty
    f2 = tmp_path / "sphere3.json"
    f2.write_text(json.dumps(doc))
    rc = main(["decompose", "--input", str(f2), "--output", str(tmp_path)])
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", module, "build", "--input", str(tmp_path / "missing.json"),
         "--output", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
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
                                    _huge_map_key, _grid_time("1e9999"),
                                    _grid_time("1e3"), _grid_time(1.5),
                                    _grid_time(" 2 "), _float_matrix_entry,
                                    _list_generator_name, _list_basis_label,
                                    _dict_product_factor, _list_model_generator_name,
                                    _unknown_finite_image, _unknown_free_image,
                                    _unknown_stage_model_key, _unknown_homotopy_key,
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pmm", "build", "--input", str(f), "--output", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("schema error:")
