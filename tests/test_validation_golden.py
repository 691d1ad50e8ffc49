"""Validation of single-entry mutations of the corpus models against a
golden file of violation lists.

Each mutant is a model document of one of the eleven corpus models (the six
library models and the five synthetic spin^c models) with one entry changed:
a 0/1 entry of ``rho2``, ``sq`` or a ``cup2`` value flipped, or 1 added to an
integer entry of ``beta`` or a ``cupZ`` value.  The golden file stores, per
mutant, the model label, the path of the changed entry, its new value and the
full violation list as (check, degree, detail), in order.

Regenerate the golden file with

    PYTHONPATH=src python tests/test_validation_golden.py
"""

import json
from pathlib import Path

import numpy as np

from contact9.library import corpus, synthetic_spinc_models
from contact9.model import validate
from contact9.schema import emit_model, parse_model

GOLDEN = Path(__file__).parent / "data" / "validation_golden.json"
SEED = 2011
PER_FIELD = 3  # mutants drawn per (model, field)

# the check families that single-entry mutations of the corpus reach
FAMILIES = {
    "integral_product_reduction", "commutativity", "cartan", "unit_action",
    "associativity", "rho2_beta_sq1", "poincare_pairing", "bockstein_torsion_valued",
    "beta_rho2", "sq_top_is_square", "orientation_reduction", "unit_reduction",
}


def _documents() -> dict[str, dict]:
    return {m.label: json.loads(emit_model(m)) for m in corpus() + synthetic_spinc_models()}


def _entries(node, path):
    """(path, value) of every integer leaf under ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _entries(value, path + [key])
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _entries(value, path + [k])
    else:
        yield path, node


def _sites(doc: dict) -> dict[str, list]:
    """Every single-entry mutation of a document as (path, new value), by
    field: 0/1 entries are flipped, integer entries get 1 added."""
    leaves = {
        "rho2": _entries(doc["rho2"], ["rho2"]),
        "sq": _entries(doc["sq"], ["sq"]),
        "beta": _entries(doc["beta"], ["beta"]),
    }
    for field in ("cup2", "cupZ"):
        leaves[field] = [
            site for e, entry in enumerate(doc[field])
            for site in _entries(entry["value"], [field, e, "value"])
        ]
    return {
        field: [(p, v + 1 if field in ("beta", "cupZ") else 1 - v) for p, v in sites]
        for field, sites in leaves.items()
    }


def _mutated(doc: dict, path: list, value: int) -> str:
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(out)


def _violations(text: str) -> list[list]:
    return [[v.check, v.degree, v.detail] for v in validate(parse_model(text)).violations]


def regenerate(path: Path = GOLDEN):
    rng = np.random.default_rng(SEED)
    mutants = []
    for label, doc in _documents().items():
        for field, sites in _sites(doc).items():
            picks = rng.choice(len(sites), size=min(PER_FIELD, len(sites)), replace=False) if sites else []
            for k in sorted(int(p) for p in picks):
                site_path, value = sites[k]
                mutants.append({
                    "model": label, "path": site_path, "value": value,
                    "violations": _violations(_mutated(doc, site_path, value)),
                })
    lines = ",\n".join(json.dumps(m) for m in mutants)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'{{"seed": {SEED}, "mutants": [\n{lines}\n]}}\n')


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())["mutants"]


def test_golden_covers_the_reachable_families():
    seen = {v[0] for m in _golden() for v in m["violations"]}
    assert FAMILIES <= seen


def test_validation_matches_golden_violations():
    docs = _documents()
    mismatched = []
    for m in _golden():
        got = _violations(_mutated(docs[m["model"]], m["path"], m["value"]))
        if got != m["violations"]:
            mismatched.append((m["model"], m["path"], got, m["violations"]))
    assert not mismatched, mismatched[:3]


if __name__ == "__main__":
    regenerate()
