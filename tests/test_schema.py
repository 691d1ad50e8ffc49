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
