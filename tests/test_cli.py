"""Command-line surface: exit codes, determinism, corpus table, self tests."""

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contact9.cli import EXIT_CODES, Command, main, run
from contact9.cohomology import Cohomology, CohomologyClass
from contact9.complexes import torus_7
from contact9.library import LIBRARY_NAMES, library
from contact9.model import CohomologyModel, ManifoldModel
from contact9.schema import emit_complex, emit_model
from probe_documents import VALUES, leaves, with_leaf


def run_cmd(*args):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


def test_decide_contact_exit_zero():
    code, out = run_cmd("decide", "library:S9")
    assert code == EXIT_CODES["ok"]
    assert "contact" in out


def test_decide_no_contact_exit():
    code, out = run_cmd("decide", "library:S1xHP2")
    assert code == EXIT_CODES["no_contact"]
    assert "W8" in out


def test_decide_undetermined_exit(tmp_path):
    m = library("M1_surgered")
    stripped = ManifoldModel(m.cohomology, phi_hat=None, label="M1_stripped")
    path = tmp_path / "m.json"
    path.write_text(emit_model(stripped))
    code, out = run_cmd("decide", str(path))
    assert code == EXIT_CODES["undetermined"]
    assert "phi_hat" in out


def test_parse_error_exit(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, out = run_cmd("decide", str(path))
    assert code == EXIT_CODES["parse_error"]
    code, _ = run_cmd("decide", str(tmp_path / "missing.json"))
    assert code == EXIT_CODES["parse_error"]
    code, _ = run_cmd("decide", "library:NotAModel")
    assert code == EXIT_CODES["parse_error"]


def test_validation_failure_exit(tmp_path):
    m = library("S1xCP4").cohomology
    cup2 = {k: np.array(v) for k, v in m.cup2.items()}
    cup2[(2, 7)] = np.zeros_like(cup2[(2, 7)])
    broken = CohomologyModel(
        dimension=9, pieces=m.pieces, rho2=[np.array(r) for r in m.rho2],
        beta=[np.array(b) for b in m.beta], sq={k: np.array(v) for k, v in m.sq.items()},
        cup2=cup2, cup_int={k: np.array(v) for k, v in m.cup_int.items()},
        orientable=True, label="broken",
    )
    path = tmp_path / "broken.json"
    path.write_text(emit_model(ManifoldModel(broken)))
    code, out = run_cmd("validate", str(path))
    assert code == EXIT_CODES["invalid"]
    assert "poincare_pairing" in out
    assert "degree 2" in out
    code, _ = run_cmd("decide", str(path))
    assert code == EXIT_CODES["invalid"]


def test_corpus_matches_paper_table():
    code, out = run_cmd("corpus")
    assert code == 0
    assert "S9: contact" in out
    assert "S1xHP2: no_contact at W8" in out
    assert "S1xCP4: contact" in out
    assert "Dold_5_2: no_contact at W3" in out
    assert "M1_surgered: no_contact at O9" in out
    assert "S1xHP2#S1xCP4: no_contact at O8" in out


def test_corpus_env_dir(tmp_path, monkeypatch):
    (tmp_path / "a.json").write_text(emit_model(library("S9")))
    monkeypatch.setenv("CONTACT9_CORPUS_DIR", str(tmp_path))
    code, out = run_cmd("corpus")
    assert code == 0
    assert "S9: contact" in out
    assert "Dold" not in out


def test_directory_input_exits_six(tmp_path):
    """A directory given as a model file is reported and exits 6; a missing
    file is still "not found"."""
    code, report = run(Command("validate", [str(tmp_path)]))
    assert code == EXIT_CODES["parse_error"]
    assert report["warnings"] == [f"cannot read input {tmp_path}: Is a directory"]
    code, out = run_cmd("validate", str(tmp_path))
    assert code == EXIT_CODES["parse_error"] and "cannot read input" in out
    code, report = run(Command("validate", [str(tmp_path / "absent.json")]))
    assert code == EXIT_CODES["parse_error"]
    assert report["warnings"] == [f"input not found: {tmp_path / 'absent.json'}"]


def test_corpus_directory_that_is_a_file_exits_six(tmp_path, monkeypatch):
    document = tmp_path / "a.json"
    document.write_text(emit_model(library("S9")))
    monkeypatch.setenv("CONTACT9_CORPUS_DIR", str(document))
    code, out = run_cmd("corpus")
    assert code == EXIT_CODES["parse_error"] and "cannot read input" in out


def test_structured_output_deterministic():
    code1, out1 = run_cmd("decide", "library:S1xCP4", "--format", "structured", "--seed", "7")
    code2, out2 = run_cmd("decide", "library:S1xCP4", "--format", "structured", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["timing_ms"] is None
    assert doc["results"][0]["outcome"] == "contact"
    assert doc["inputs"][0]["digest"].startswith("sha256:")


def test_sum_verb():
    code, out = run_cmd("sum", "library:S1xHP2", "library:S1xCP4")
    assert code == EXIT_CODES["no_contact"]
    assert "O8" in out


def test_classes_verb():
    code, out = run_cmd("classes", "library:S1xCP4")
    assert code == 0
    assert "v2" in out and "lifts" in out


def test_selftest_fresh_build_passes():
    code, out = run_cmd("selftest", "--samples", "6")
    assert code == 0
    assert "FAIL" not in out


def test_selftest_detects_broken_sq1(monkeypatch):
    """Replacing Sq^1 by zero must break the reduction/Bockstein comparison
    with a witness on the 6-vertex projective plane."""
    from contact9 import selftest as st

    original = Cohomology.sq

    def broken(self, k, cls):
        if k == 1:
            p = cls.degree
            dim = len(self.group(2, p + 1).torsion) if p + 1 <= self.complex.dimension else 0
            return CohomologyClass(2, p + 1, (0,) * dim)
        return original(self, k, cls)

    monkeypatch.setattr(Cohomology, "sq", broken)
    result = st.exactness_suite(samples=4)
    assert not result.passed
    assert "Sq1" in result.counterexample


def test_selftest_detects_broken_model():
    """A library model with a deleted pairing row fails the validate suite
    naming the degree."""
    from contact9 import selftest as st

    m = library("S1xCP4").cohomology
    cup2 = {k: np.array(v) for k, v in m.cup2.items()}
    cup2[(3, 6)] = np.zeros_like(cup2[(3, 6)])
    broken = ManifoldModel(
        CohomologyModel(
            dimension=9, pieces=m.pieces, rho2=[np.array(r) for r in m.rho2],
            beta=[np.array(b) for b in m.beta], sq={k: np.array(v) for k, v in m.sq.items()},
            cup2=cup2, cup_int={k: np.array(v) for k, v in m.cup_int.items()},
            orientable=True, label="S1xCP4 (broken)",
        )
    )
    from contact9.model import validate

    rep = validate(broken)
    assert not rep.ok
    assert any(v.check == "poincare_pairing" and v.degree == 3 for v in rep.violations)


def test_run_api_report_shape():
    code, report = run(Command(verb="decide", inputs=["library:S9"], samples=2))
    assert code == 0
    assert report["kind"] == "report"
    assert report["results"][0]["trail"]["o3"] == []
    assert report["tool"]["name"] == "contact9"


def test_corpus_strict_flags_undetermined(tmp_path, monkeypatch):
    m = library("M1_surgered")
    stripped = ManifoldModel(m.cohomology, phi_hat=None, label="M1_stripped")
    (tmp_path / "m.json").write_text(emit_model(stripped))
    monkeypatch.setenv("CONTACT9_CORPUS_DIR", str(tmp_path))
    code, out = run_cmd("corpus")
    assert code == 0  # reported, not fatal
    assert "undetermined" in out
    code, out = run_cmd("corpus", "--strict")
    assert code == EXIT_CODES["undetermined"]


def test_decide_accepts_complex_document(tmp_path):
    from contact9.complexes import cp2_9
    from contact9.schema import emit_complex

    path = tmp_path / "cp2.json"
    path.write_text(emit_complex(cp2_9()))
    # not 9-dimensional: decide refuses with a schema error
    code, out = run_cmd("decide", str(path))
    assert code == EXIT_CODES["parse_error"]
    code, out = run_cmd("classes", str(path))
    assert code == 0
    assert "w2" in out


def test_structured_trail_carries_witness_coordinates():
    """The structured report exposes the full obstruction trail: the degree-8
    representative plus the subspace it is reduced against, in generator
    coordinates."""
    code, out = run_cmd("decide", "library:M3_sum", "--format", "structured")
    assert code == EXIT_CODES["no_contact"]
    doc = json.loads(out)
    r = doc["results"][0]
    assert r["obstruction"] == "O8"
    trail = r["trail"]
    assert trail["o3"] == [0]
    assert trail["o7"] == [0]
    assert trail["o8"]["representative"] == [1, 0]
    assert trail["o8"]["subspace_dimension"] == 1
    assert trail["o8"]["subspace_basis"] == [[0, 1]]
    assert trail["o9"] is None


def test_classes_below_dimension_four(tmp_path):
    from contact9.complexes import torus_7
    from contact9.schema import emit_complex

    path = tmp_path / "t2.json"
    path.write_text(emit_complex(torus_7()))
    code, out = run_cmd("classes", str(path), "--format", "structured")
    assert code == 0
    r = json.loads(out)["results"][0]
    assert r["v4"] == []
    assert r["v2"] == [0]


def test_undecodable_document_is_a_parse_error(tmp_path):
    path = tmp_path / "s9.json"
    path.write_bytes(b"\xff" + emit_model(library("S9")).encode())
    code, out = run_cmd("validate", str(path), "--format", "structured")
    assert code == EXIT_CODES["parse_error"]
    assert "UTF-8" in json.loads(out)["warnings"][0]


def test_classes_solves_the_wu_system_once(monkeypatch):
    """validate solves the nine Wu degrees, and the analysis built on its
    report reuses them for the Stiefel-Whitney classes and D_M."""
    from contact9 import charclasses

    calls = []
    solve = charclasses.solve_wu_degree
    monkeypatch.setattr(charclasses, "solve_wu_degree", lambda m, k: calls.append(k) or solve(m, k))
    code, _ = run(Command("classes", ["library:S1xCP4"]))
    assert code == 0
    assert len(calls) == 9


def test_classes_of_a_complex_document_solves_each_wu_degree_once(tmp_path, monkeypatch):
    """A model that the analysis does not take is validated, and its Wu and
    Stiefel-Whitney classes come from one derivation: the torus has two Wu
    degrees to solve."""
    from contact9 import charclasses
    from contact9.complexes import torus_7
    from contact9.schema import emit_complex

    path = tmp_path / "t2.json"
    path.write_text(emit_complex(torus_7()))
    calls = []
    solve = charclasses.solve_wu_degree
    monkeypatch.setattr(charclasses, "solve_wu_degree", lambda m, k: calls.append(k) or solve(m, k))
    code, _ = run(Command("classes", [str(path)]))
    assert code == 0
    assert calls == [1, 2]


def _count_calls(monkeypatch, module, name: str) -> list:
    """Record the keyword arguments of every call of ``module.name``, made
    through any contact9 module that binds it."""
    import sys

    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("contact9") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_decide_analyses_once_and_reruns_only_the_lifts(monkeypatch):
    """One validation, nine Wu solves and one run of each choice-free check
    per CLI decide; the base run and the twenty seeded samples share them,
    and each seeded sample still draws its own lifts and half product."""
    from contact9 import charclasses, decider, model

    validations = _count_calls(monkeypatch, model, "validate")
    solves = _count_calls(monkeypatch, charclasses, "solve_wu_degree")
    lifts = _count_calls(monkeypatch, charclasses, "spinc_data")
    w7 = _count_calls(monkeypatch, decider, "_w7_vanishes")
    sigma = _count_calls(monkeypatch, charclasses, "sigma_w4")
    bockstein = _count_calls(monkeypatch, charclasses, "bockstein_vanishes_on")
    halves = _count_calls(monkeypatch, charclasses, "half_product_solutions")
    code, _ = run(Command("decide", ["library:M3_sum"]))
    assert code == EXIT_CODES["no_contact"]
    assert len(validations) == 1
    assert len(solves) == 9
    assert sum(kw.get("rng") is not None for kw in lifts) == 20
    assert len(w7) == 1
    assert len(bockstein) == 1
    assert len(halves) <= 22
    w7.clear()
    code, _ = run(Command("decide", ["library:S9"]))
    assert code == EXIT_CODES["ok"]
    assert len(w7) == 1
    assert len(sigma) == 1


def test_decide_past_the_old_half_product_cap(tmp_path):
    """The 9-fold connected sum of RP5xCP2 has H^8 = (Z/2)^9, so 512 half
    products: it decides contact, by the summand clauses and directly, and
    the CLI decides its document."""
    from functools import reduce

    from contact9.decider import Outcome, decide_connected_sum
    from contact9.library import synthetic_spinc_models
    from contact9.model import connected_sum

    x = synthetic_spinc_models()[0]
    eight = reduce(connected_sum, [x] * 8)
    assert decide_connected_sum(eight, x).outcome == Outcome.CONTACT
    nine = connected_sum(eight, x)
    assert nine.cohomology.z_orders(8) == (2,) * 9
    path = tmp_path / "nine.json"
    path.write_text(emit_model(nine))
    code, _ = run(Command("decide", [str(path)]))
    assert code == EXIT_CODES["ok"]


def _without_integral_products_26(name: str, path) -> str:
    doc = json.loads(emit_model(library(name)))
    doc["cupZ"] = [e for e in doc["cupZ"] if e["degrees"] != [2, 6]]
    doc["cupZ_pairs"] = [p for p in doc["cupZ_pairs"] if p != [2, 6]]
    path.write_text(json.dumps(doc))
    return str(path)


def test_missing_integral_product_tensor_is_a_precondition(tmp_path):
    """Half products multiply H^2 by H^6 over Z.  Without the (2,6) integral
    products a document still validates; M3_sum, which decides by the lift
    formula, is refused by ``decide`` and ``classes``, and S1xCP4 (w4 = 0)
    decides but its spin^c class data is refused, each naming the tensor."""
    m3 = _without_integral_products_26("M3_sum", tmp_path / "m3.json")
    s1cp4 = _without_integral_products_26("S1xCP4", tmp_path / "s1cp4.json")
    assert run(Command("validate", [m3]))[0] == EXIT_CODES["ok"]
    assert run(Command("decide", [s1cp4]))[0] == EXIT_CODES["ok"]
    for verb, path in (("decide", m3), ("classes", m3), ("classes", s1cp4)):
        code, report = run(Command(verb, [path]))
        assert code == EXIT_CODES["invalid"], (verb, path)
        assert any("integral product tensor (2,6)" in w for w in report["warnings"])


def _mutation_sources() -> dict[str, tuple[dict, list]]:
    docs = {name: json.loads(emit_model(library(name))) for name in LIBRARY_NAMES}
    docs["torus_7"] = json.loads(emit_complex(torus_7()))
    return {name: (doc, [p for p, _ in leaves(doc)]) for name, doc in docs.items()}


_MUTATION_SOURCES = _mutation_sources()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_run_is_total_on_single_leaf_mutations(data):
    """Any single-leaf mutation of a library document or of a complex
    document gives a documented exit code, never an exception."""
    doc, paths = _MUTATION_SOURCES[data.draw(st.sampled_from(sorted(_MUTATION_SOURCES)))]
    mutant = with_leaf(doc, data.draw(st.sampled_from(paths)), data.draw(st.sampled_from(VALUES)))
    verb = data.draw(st.sampled_from(("validate", "classes", "decide")))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.json")
        with open(path, "w") as fh:
            json.dump(mutant, fh)
        code, _ = run(Command(verb=verb, inputs=[path], samples=0))
    assert code in EXIT_CODES.values()


def test_empty_complex_is_not_a_manifold(tmp_path):
    doc = json.loads(emit_complex(torus_7()))
    doc["facets"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, report = run(Command(verb="validate", inputs=[str(path)]))
    assert code == EXIT_CODES["invalid"]
    assert report["warnings"] == ["model contract violation: top mod-2 cohomology is not one-dimensional"]
