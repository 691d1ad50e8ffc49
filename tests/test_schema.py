"""Document round trips and rejection diagnostics."""

import json

import pytest

from contact9.cli import EXIT_CODES, main
from contact9.complexes import rp2_6, sphere
from contact9.library import LIBRARY_NAMES, library, synthetic_spinc_models
from contact9.model import from_simplicial
from contact9.schema import (
    SchemaError, emit_complex, emit_model, parse_complex, parse_model,
)
from probe_documents import with_leaf


def same_manifold_model(a, b) -> bool:
    """Equal cohomology data and equal optional degree-5 and degree-8 classes."""
    return a.cohomology.equals(b.cohomology) and (a.phi_hat, a.omega_pc) == (b.phi_hat, b.omega_pc)


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_model_round_trip(name):
    m = library(name)
    text = emit_model(m)
    again = parse_model(text)
    assert same_manifold_model(m, again)
    assert emit_model(again) == text  # normalized form is a fixed point
    assert same_manifold_model(m, parse_model(json.loads(text)))  # a decoded document


def test_model_round_trip_synthetic():
    for m in synthetic_spinc_models():
        text = emit_model(m)
        assert same_manifold_model(m, parse_model(text))


def test_model_round_trip_from_simplicial():
    m = from_simplicial(sphere(4), label="S4")
    text = emit_model(m)
    again = parse_model(text)
    assert again.equals(m)


def test_complex_round_trip():
    x = rp2_6()
    y = parse_complex(emit_complex(x))
    assert y.vertices == x.vertices
    assert y.facets == x.facets


def test_parse_complex_rejects_bad_facet():
    doc = json.loads(emit_complex(rp2_6()))
    doc["facets"][0] = [1, 1, 2]
    with pytest.raises(SchemaError, match="facets"):
        parse_complex(json.dumps(doc))


def test_parse_rejects_bad_json():
    with pytest.raises(SchemaError, match="line"):
        parse_model("{not json")


def test_parse_rejects_wrong_kind():
    with pytest.raises(SchemaError, match="kind"):
        parse_model(json.dumps({"schema_version": 1, "kind": "pancake"}))


def test_parse_names_offending_field():
    doc = json.loads(emit_model(library("S9")))
    doc["graded"][0]["f2_dim"] = 7
    with pytest.raises(SchemaError, match=r"graded\[0\].f2_dim"):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize("degree", ["x", 4, True, None])
def test_parse_rejects_wrong_graded_degree(degree):
    doc = json.loads(emit_model(library("S9")))
    doc["graded"][3]["degree"] = degree
    with pytest.raises(SchemaError, match=r"graded\[3\].degree"):
        parse_model(json.dumps(doc))
    del doc["graded"][3]["degree"]
    with pytest.raises(SchemaError, match=r"graded\[3\].degree"):
        parse_model(json.dumps(doc))


def test_parse_rejects_bad_torsion_chain():
    doc = json.loads(emit_model(library("S9")))
    doc["graded"][3]["z_torsion"] = [4, 2]
    with pytest.raises(SchemaError, match=r"graded\[3\]"):
        parse_model(json.dumps(doc))


def test_parse_rejects_unknown_basis_name():
    doc = json.loads(emit_model(library("S1xCP4")))
    entry = dict(doc["cup2"][0])
    entry["left"] = "nonexistent"
    doc["cup2"].append(entry)
    with pytest.raises(SchemaError, match="left"):
        parse_model(json.dumps(doc))


def test_parse_rejects_wrong_vector_length():
    doc = json.loads(emit_model(library("S1xCP4")))
    doc["phi_hat"] = [1, 0, 1]
    with pytest.raises(SchemaError, match="phi_hat"):
        parse_model(json.dumps(doc))


def test_omega_pc_determined_flag():
    doc = json.loads(emit_model(library("S1xCP4")))
    assert doc["omega_pc"] == {"determined": False}
    doc["omega_pc"] = {"determined": True, "representative": [1]}
    m = parse_model(json.dumps(doc))
    assert m.omega_pc is not None and m.omega_pc.bits == (1,)


@pytest.mark.parametrize("field, value, where", [
    ("sq", 257, r"sq\.2\.2"),
    ("cup2", 3, r"cup2\[\d+\]\.value"),
])
def test_parse_rejects_non_binary_mod2_entries(field, value, where, tmp_path, capsys):
    """Steenrod-square entries and mod-2 product values are 0 or 1; a value
    that would wrap or be stored unreduced is a schema error (exit 6)."""
    doc = json.loads(emit_model(library("S1xCP4")))
    if field == "sq":
        doc["sq"]["2"]["2"] = [[value]]
    else:
        doc["cup2"][-1]["value"][0] = value
    with pytest.raises(SchemaError, match=where):
        parse_model(json.dumps(doc))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_CODES["parse_error"]


@pytest.mark.parametrize("value", ["x", None, 3, [], [1], [1, 2, 3], [-1, 2], [True, 1], [1.5, 1], [10, 0], [2**70, 0]])
@pytest.mark.parametrize("field, where", [
    ("cup2", r"cup2\[4\]\.degrees"),
    ("cupZ", r"cupZ\[4\]\.degrees"),
    ("cupZ_pairs", r"cupZ_pairs\[4\]"),
])
def test_parse_rejects_malformed_degree_pairs(field, where, value, tmp_path):
    """A degree pair is a list of two integers in 0..dimension; anything else
    is a schema error naming the field (exit 6), not an escaped exception."""
    doc = json.loads(emit_model(library("S1xCP4")))
    if field == "cupZ_pairs":
        doc[field][4] = value
    else:
        doc[field][4]["degrees"] = value
    with pytest.raises(SchemaError, match=where):
        parse_model(json.dumps(doc))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_CODES["parse_error"]


@pytest.mark.parametrize("field", ["cup2", "cupZ"])
def test_parse_rejects_product_entries_without_degrees(field):
    """A product entry is an object with a degree pair; a missing pair or an
    entry of another type is a schema error naming the entry."""
    doc = json.loads(emit_model(library("S1xCP4")))
    del doc[field][4]["degrees"]
    with pytest.raises(SchemaError, match=rf"{field}\[4\]\.degrees"):
        parse_model(json.dumps(doc))
    for entry in (5, "degrees", [1, 2]):
        doc[field][4] = entry
        with pytest.raises(SchemaError, match=rf"{field}\[4\]: must be an object"):
            parse_model(json.dumps(doc))


@pytest.mark.parametrize("name, path, value, where", [
    ("S1xCP4", ("rho2", "1", 0, 0), 1.7, "rho2.1"),
    ("S1xCP4", ("rho2", "1", 0, 0), "1", "rho2.1"),
    ("S1xCP4", ("cupZ", 0, "value", 0), 1.0, "cupZ[0].value"),
    ("S1xCP4", ("cupZ", 0, "value", 0), "1", "cupZ[0].value"),
    ("S1xCP4", ("graded", 1, "z_rank"), True, "graded[1].z_rank"),
    ("S1xHP2", ("phi_hat", 0), 3, "phi_hat"),
    ("S1xHP2", ("omega_pc",), {"determined": True, "representative": [3]}, "omega_pc.representative"),
    ("S1xCP4", ("sq", "x"), {}, "sq.x"),
    ("S1xCP4", ("sq", "-1"), {}, "sq.-1"),
    ("S1xCP4", ("sq", "2", "-1"), [[0]], "sq.2.-1"),
])
def test_main_rejects_values_the_parser_once_accepted(name, path, value, where, tmp_path, capsys):
    """Each of these values used to be truncated, coerced or read as another
    key (exit 0) or to escape as an exception; each now exits 6 naming its
    field."""
    doc = json.loads(emit_model(library(name)))
    doc = with_leaf(doc, path, value)
    file = tmp_path / "m.json"
    file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(file)]) == EXIT_CODES["parse_error"]
    assert f"schema error: {where}:" in capsys.readouterr().out


@pytest.mark.parametrize("path, value, where", [
    (("schema_version",), True, r"schema_version: expected 1"),
    (("dimension",), True, r"dimension: expected <class 'int'>, got bool"),
    (("label",), 7, r"label: must be a string"),
    (("graded", 2, "f2_basis", 0), 0, r"graded\[2\]\.f2_basis: basis names must be strings"),
    (("beta", "1", 0, 0), 2**70, r"beta\.1: entries must be 64-bit integers"),
    (("beta", "1", 0, 0), 0.5, r"beta\.1: entries must be 64-bit integers"),
    (("beta",), [], r"beta: must be an object"),
    (("sq", "2", "2", 0, 0), [], r"sq\.2\.2: expected shape \(1, 1\)"),
    (("sq", "2", "10"), [[0]], r"sq\.2\.10: degree above the dimension 9"),
    (("sq", "02"), {}, r"sq\.02: expected a decimal integer key"),
    (("cup2", 3, "value", 0), 1.0, r"cup2\[3\]\.value: entries must be 0 or 1"),
    (("cupZ", 3, "left"), False, r"cupZ\[3\]\.left: expected <class 'int'>, got bool"),
    (("cupZ", 3, "value", 0), None, r"cupZ\[3\]\.value: entries must be integers"),
    (("omega_pc", "determined"), 0, r"omega_pc\.determined: must be true or false"),
])
def test_parse_checks_each_value_once(path, value, where):
    """Integers are JSON integers (never booleans, floats or strings), 0/1
    tables hold 0 or 1, Bockstein entries fit 64 bits and free ranks fit in
    the mod-2 group; each failure names its field."""
    doc = json.loads(emit_model(library("S1xCP4")))
    doc = with_leaf(doc, path, value)
    with pytest.raises(SchemaError, match=where):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize("z_rank", [-1, 2, 2**70])
def test_parse_checks_sizes_before_allocating(z_rank):
    """A free rank is at most the mod-2 dimension of its degree (H^d(X; Z)
    reduced mod 2 lies in H^d(X; Z/2)), so no table outgrows the document.
    The rank is checked before the tables are read: M1_surgered declares the
    reduction and Bockstein matrices around degree 6."""
    for name, degree in [("S9", 4), ("M1_surgered", 6)]:
        doc = json.loads(emit_model(library(name)))
        doc["graded"][degree]["z_rank"] = z_rank
        with pytest.raises(SchemaError, match=rf"graded\[{degree}\]\.z_rank: must be in 0\.\.f2_dim = 0"):
            parse_model(json.dumps(doc))


def test_parse_checks_torsion_coefficients():
    doc = json.loads(emit_model(library("Dold_5_2")))
    for value, where in [("2", r"graded\[2\]\.z_torsion: entries must be integers"),
                         (2.0, r"graded\[2\]\.z_torsion: entries must be integers"),
                         (None, r"graded\[2\]\.z_torsion: entries must be integers"),
                         (1, r"graded\[2\]: torsion coefficients must be >= 2")]:
        doc["graded"][2]["z_torsion"] = [value]
        with pytest.raises(SchemaError, match=where):
            parse_model(json.dumps(doc))
    doc["graded"][2]["z_torsion"] = [2]
    assert parse_model(doc).cohomology.equals(library("Dold_5_2").cohomology)


def test_validate_decodes_the_document_once(tmp_path, monkeypatch):
    file = tmp_path / "m.json"
    file.write_text(emit_model(library("S1xCP4")))
    decode = json.loads
    calls = []
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(1) or decode(*a, **k))
    assert main(["validate", str(file)]) == EXIT_CODES["ok"]
    assert len(calls) == 1


@pytest.mark.parametrize("path, value, where", [
    (("vertices", 2), 1.5, r"vertices\[2\]: must be an integer or a string"),
    (("vertices", 2), True, r"vertices\[2\]: must be an integer or a string"),
    (("vertices", 2), [], r"vertices\[2\]: must be an integer or a string"),
    (("vertices", 2), 1, r"vertices\[2\]: duplicate vertex 1"),
    (("facets", 3, 1), [], r"facets\[3\]: facet .* uses an unknown vertex"),
    (("facets", 3, 1), 99, r"facets\[3\]: facet .* uses an unknown vertex"),
    (("facets", 3), [1, 1, 2], r"facets\[3\]: facet .* repeats a vertex"),
    (("facets", 3), [1], r"facets\[3\]: facet \(1,\) is contained in facet"),
    (("facets", 3), [1, 2, 3], r"facets\[3\]: facet \(1, 2, 3\) is contained in facet"),
    (("facets", 3), "x", r"facets\[3\]: must be a list of vertices"),
])
def test_parse_complex_names_the_bad_vertex_or_facet(path, value, where):
    doc = json.loads(emit_complex(rp2_6()))
    doc = with_leaf(doc, path, value)
    with pytest.raises(SchemaError, match=where):
        parse_complex(json.dumps(doc))


def test_parse_keeps_integral_products_exact():
    """cupZ values are integers of any size; none is rounded through int64."""
    doc = json.loads(emit_model(library("S1xCP4")))
    doc["cupZ"][3]["value"][0] = 2**70 + 1
    doc["cupZ"][4]["value"][0] = -(2**70)
    again = json.loads(emit_model(parse_model(json.dumps(doc))))
    assert [again["cupZ"][k]["value"][0] for k in (3, 4)] == [2**70 + 1, -(2**70)]
