"""Models built by the product, connected-sum and base-change builders
against a golden file of digests.

The built models are: the eleven corpus models (the six library models and
the five synthetic spin^c models), five seeded base-changed and five seeded
relabelled copies of each (``transform_model`` over ``random_model_iso``),
all 121 ordered connected sums of the eleven, and the products of the base
blocks and RP5 with a base block, up to total dimension 12.  The golden file
stores, per model, the sha256 of its ``emit_model`` document and the sorted
keys of its ``cup2``, ``sq`` and ``cup_int`` tables, which the document does
not show in full (zero tensors are not emitted).

Regenerate the golden file with

    PYTHONPATH=src python tests/test_builder_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from contact9.library import base_models, corpus, rp5_model, synthetic_spinc_models
from contact9.model import _tensor_model, connected_sum, random_model_iso, transform_model
from contact9.schema import emit_model

GOLDEN = Path(__file__).parent / "data" / "builder_golden.json"
SEEDS = range(5)
MAX_PRODUCT_DIMENSION = 12


def _built():
    """(name, model) of every built model, in a fixed order."""
    models = corpus() + synthetic_spinc_models()
    for m in models:
        yield m.label, m
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for m in models:
            for permutation_only in (False, True):
                maps = random_model_iso(m, rng, permutation_only=permutation_only)
                yield f"{m.label}~{seed}{'p' if permutation_only else 'b'}", transform_model(m, *maps)
    for a in models:
        for b in models:
            yield f"{a.label}#{b.label}", connected_sum(a, b)
    blocks = base_models()
    for na, a in {**blocks, "RP5": rp5_model()}.items():
        for nb, b in blocks.items():
            if a.dimension + b.dimension <= MAX_PRODUCT_DIMENSION:
                yield f"{na}x{nb}", _tensor_model(a, b)


def _record(name, model) -> dict:
    m = getattr(model, "cohomology", model)
    return {
        "name": name,
        "sha256": hashlib.sha256(emit_model(model).encode()).hexdigest(),
        "cup2": sorted(map(list, m.cup2)),
        "sq": sorted(map(list, m.sq)),
        "cup_int": sorted(map(list, m.cup_int)),
    }


def regenerate(path: Path = GOLDEN):
    lines = ",\n".join(json.dumps(_record(name, model), separators=(",", ":")) for name, model in _built())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'{{"models": [\n{lines}\n]}}\n')


def test_builders_match_golden(built_models):
    golden = json.loads(GOLDEN.read_text())["models"]
    got = [_record(name, model) for name, model in built_models]
    assert [g["name"] for g in got] == [g["name"] for g in golden]
    assert len(got) == 304
    mismatched = [(g["name"], g, want) for g, want in zip(got, golden) if g != want]
    assert not mismatched, mismatched[:3]


if __name__ == "__main__":
    regenerate()
