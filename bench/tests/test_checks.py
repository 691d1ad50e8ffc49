"""Each output check accepts the program's correct output and rejects a
deliberately wrong one.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import importlib
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from contact9 import cli, complexes, schema  # noqa: E402

library = importlib.import_module("contact9.library")


def _report(outcome, stage):
    return {"results": [{"outcome": outcome, "obstruction": stage}], "warnings": []}


# -- declared -------------------------------------------------------------------


def test_verdict_check_accepts_paper_verdict():
    assert checks.check_verdict(3, _report("no_contact", "W8"), ("no_contact", "W8")) == []


@pytest.mark.parametrize("code, outcome, stage", [
    (3, "no_contact", "O8"),      # wrong stage
    (0, "contact", None),         # wrong outcome
    (0, "no_contact", "W8"),      # exit code disagrees with the outcome
])
def test_verdict_check_rejects_wrong_verdict(code, outcome, stage):
    assert checks.check_verdict(code, _report(outcome, stage), ("no_contact", "W8"))


def test_verdict_check_rejects_missing_result():
    assert checks.check_verdict(6, {"results": [], "warnings": ["schema error"]}, ("contact", None))


def _classes_report(w, W3=(0,), W7=(0,)):
    return {"results": [{"w": {str(k): list(v) for k, v in w.items()}, "W3": list(W3), "W7": list(W7)}]}


S1XCP4_W = {1: (0,), 2: (1,), 3: (0,), 4: (0,), 5: (0,), 6: (0,), 7: (0,), 8: (1,), 9: (0,)}
S1XHP2_W = {1: (0,), 2: (0,), 3: (0,), 4: (1,), 5: (0,), 6: (0,), 7: (0,), 8: (1,), 9: (0,)}


def test_classes_check_accepts_product_formulas():
    assert checks.check_classes(0, _classes_report(S1XCP4_W), "S1xCP4") == []
    assert checks.check_classes(0, _classes_report(S1XHP2_W), "S1xHP2") == []


def test_classes_check_matches_the_program():
    code, report = cli.run(cli.Command(verb="classes", inputs=["library:S1xCP4"]))
    assert checks.check_classes(code, report, "S1xCP4") == []


@pytest.mark.parametrize("source, w", [
    ("S1xCP4", {**S1XCP4_W, 4: (1,)}),   # (1+a)^5 has no a^2 term
    ("S1xCP4", {**S1XCP4_W, 8: (0,)}),   # but it has a^4
    ("S1xHP2", {**S1XHP2_W, 8: (0,)}),   # (1+u)^3 has u^2
    ("S1xHP2", {**S1XHP2_W, 3: (1,)}),   # odd classes vanish
])
def test_classes_check_rejects_wrong_stiefel_whitney_classes(source, w):
    assert checks.check_classes(0, _classes_report(w), source)


def test_classes_check_rejects_w7_without_w3():
    assert checks.check_classes(0, _classes_report(S1XCP4_W, W3=(0,), W7=(1, 0)), "RP5xCP2")


def test_classes_check_rejects_failed_command():
    assert checks.check_classes(6, {"results": [], "warnings": ["unknown input: 4"]}, "S9")


# -- triangulated ---------------------------------------------------------------------


def _summary(name):
    make = dict((n, f) for n, f, _ in workloads.TRIANGULATIONS)[name]
    rng = np.random.default_rng(0)
    vertices, facets = workloads._relabelled_facets(make(), rng)
    model_mod = workloads.model_mod
    from contact9.simplicial import SimplicialComplex

    m = model_mod.from_simplicial(SimplicialComplex(vertices, facets))
    sw = workloads.charclasses.sw_classes(m) if m.orientable else None
    return workloads._triangulation_summary((m, model_mod.validate(m), sw)), checks.face_counts(facets)


def test_face_counts_of_the_boundary_of_a_tetrahedron():
    assert checks.face_counts(complexes.sphere(2).facets) == [4, 6, 4]


@pytest.mark.parametrize("name", ["sphere4", "torus_7", "rp2_6", "cp2_9"])
def test_triangulation_check_accepts_the_program(name):
    summary, counts = _summary(name)
    assert checks.check_triangulation(name, summary, counts) == []


def _break(summary, key, value):
    out = copy.deepcopy(summary)
    out[key] = value
    return out


@pytest.mark.parametrize("key, value", [
    ("free", (1, 0, 0, 0, 1)),                     # lost H^2
    ("torsion", ((), (), (2,), (), ())),           # spurious torsion
    ("f2", (1, 0, 2, 0, 1)),
    ("orientable", False),
    ("cup2", {(2, 2): ((0,),)}),                  # u^2 = 0
    ("sq", {}),                                    # Sq^2 u = 0
    ("cupZ", {(2, 2): ((2,),)}),                  # not a perfect pairing
    ("valid", False),
    ("sw", {1: (0,), 2: (0,), 3: (0,), 4: (1,)}),  # w2(CP^2) = 0
])
def test_triangulation_check_rejects_wrong_cp2(key, value):
    summary, counts = _summary("cp2_9")
    assert checks.check_triangulation("cp2_9", _break(summary, key, value), counts)


def test_triangulation_check_rejects_wrong_euler_characteristic():
    summary, counts = _summary("torus_7")
    assert checks.check_triangulation("torus_7", summary, [counts[0] + 1] + counts[1:])


def test_triangulation_check_rejects_wrong_rp2_square():
    summary, counts = _summary("rp2_6")
    assert checks.check_triangulation("rp2_6", _break(summary, "cup2", {(1, 1): ((0,),)}), counts)


# -- cocycles ---------------------------------------------------------------------------


def _cocycle_outputs():
    rng = np.random.default_rng(3)
    ops = workloads._cocycles(rng, None)
    return [op.summarize(op.run()) for op in ops if op.name.startswith(("rp2_6", "cp2_9+sphere6"))]


def test_cocycle_check_accepts_the_program():
    outs = _cocycle_outputs()
    assert outs and all(checks.check_cocycle(o) == [] for o in outs)


def _nonzero(cls):
    return tuple((c + 1) % 2 if i == 0 else c for i, c in enumerate(cls)) if cls else cls


@pytest.mark.parametrize("field", ["class", "sq0", "square", "sq_top", "sq2sq2", "rho_beta"])
def test_cocycle_check_rejects_each_broken_identity(field):
    # rp2_6, degree 1, mod 2: a nonzero class with Sq^1 x = x^2 != 0
    outs = [o for o in _cocycle_outputs()
            if o["degree"] == 1 and not o["integral"] and any(o["class"]) and len(o["sq"][1]) == 1]
    out = copy.deepcopy(outs[0])
    if field == "class":
        out["class"] = _nonzero(out["class"])
    elif field == "sq0":
        out["sq"] = (_nonzero(out["sq"][0]),) + out["sq"][1:]
    elif field == "square":
        out["square"] = _nonzero(out["square"])
    elif field == "sq_top":
        out["sq"] = out["sq"][:2] + ((1,),)
    elif field == "sq2sq2":
        out["sq2sq2"] = (1,)
        out["sq3sq1"] = ()
    else:
        out["rho_beta"] = _nonzero(out["rho_beta"])
    assert checks.check_cocycle(out)


def test_adem_relation_is_checked_where_it_is_computed():
    # On cp2_9 v S^6 both sides of Sq^2 Sq^2 x = Sq^3 Sq^1 x for |x| = 2 lie
    # in H^6 = Z/2, and some x there has Sq^2 x = x^2 != 0.
    outs = [o for o in _cocycle_outputs() if o["degree"] == 2 and len(o["sq2sq2"]) == 1]
    assert outs and any(any(o["sq"][2]) for o in outs)
    out = copy.deepcopy(outs[0])
    out["sq2sq2"] = _nonzero(out["sq2sq2"])
    assert checks.check_cocycle(out)


def test_cocycle_check_rejects_nonzero_bockstein_of_a_reduction():
    outs = [o for o in _cocycle_outputs() if o["integral"] and o["degree"] == 1]
    out = copy.deepcopy(outs[0])
    out["rho_beta"] = (1,)
    assert checks.check_cocycle(out)


# -- documents ---------------------------------------------------------------------------


def _raise_from(fn, *args):
    try:
        fn(*args)
    except Exception as e:  # noqa: BLE001
        return e
    raise AssertionError("expected an exception")


def test_parser_escape_is_the_named_fault():
    import json

    doc = json.loads(schema.emit_model(library.library("S9")))
    doc["cup2"][0]["degrees"] = ["x", 0]
    exc = _raise_from(schema.parse_model, json.dumps(doc))
    assert checks.check_document("wrong_type", None, None, exc) == (checks.FAULT_PARSE_ESCAPE, [])


def test_undecodable_input_is_the_named_fault(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff{}")
    exc = _raise_from(cli._load_input, str(path))
    assert checks.check_document("bytes", None, None, exc) == (checks.FAULT_UNDECODABLE, [])


def test_other_exceptions_are_rejected():
    exc = _raise_from(lambda: [][0])
    fault, problems = checks.check_document("flip", None, None, exc)
    assert fault is None and problems
    exc = _raise_from(lambda: int("x"))  # a ValueError from outside the parser
    assert checks.check_document("wrong_type", None, None, exc)[1]


def test_document_exit_codes():
    ok = {"results": [{"valid": True}], "warnings": []}
    bad = {"results": [{"valid": False}], "warnings": []}
    assert checks.check_document("valid", 0, ok, None) == (None, [])
    assert checks.check_document("valid", 5, bad, None)[1]            # valid document rejected
    assert checks.check_document("flip", 9, bad, None)[1]             # undocumented exit code
    assert checks.check_document("wrong_type", 5, bad, None)[1]       # must be 6
    assert checks.check_document("wrong_type", 6, bad, None) == (None, [])


def test_only_the_unread_degree_field_is_the_named_fault():
    ok = {"results": [{"valid": True}], "warnings": []}
    degree = ("graded", 3, "degree")
    assert checks.check_document("wrong_type", 0, ok, None, degree) == (checks.FAULT_WRONG_TYPE_ACCEPTED, [])
    for field in [("graded", 3, "z_rank"), ("rho2", 0, 0), ("label",), ()]:
        fault, problems = checks.check_document("wrong_type", 0, ok, None, field)
        assert fault is None and problems


def test_wrong_type_faults_of_the_workload_are_degree_fields(tmp_path):
    accepted = []
    for op in workloads._documents(np.random.default_rng(1), str(tmp_path)):
        if op.name.startswith("validate wrong_type"):
            try:
                out, exc = op.summarize(op.run()), None
            except Exception as e:  # noqa: BLE001
                out, exc = None, e
            fault, problems = op.check(out, exc)
            assert not problems
            if fault == checks.FAULT_WRONG_TYPE_ACCEPTED:
                accepted.append(op.name)
    assert len(accepted) == 2


def test_expected_synthetic_verdicts_are_reproducible():
    from expectations import SYNTHETIC, program_synthetic_verdicts

    assert program_synthetic_verdicts() == SYNTHETIC
