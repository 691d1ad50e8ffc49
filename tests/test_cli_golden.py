"""Structured CLI reports against a golden file of digests.

The reports are those of ``decide``, ``classes`` and ``validate`` on the
documents of the eleven corpus models (the six library models and the five
synthetic spin^c models) and on one seeded base-changed copy of each
(``transform_model`` over ``random_model_iso``), of ``sum`` on the five pairs
the benchmark runs, and of ``corpus``.  Each is run through ``main`` with
``--format structured`` and default seed and samples, from the directory
holding the documents, so the report names relative paths.  The golden file
stores, per command, its arguments, its exit code and the sha256 of the
canonical report with ``timing_ms`` dropped.

Regenerate the golden file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from contact9.cli import CORPUS_ENV, main
from contact9.library import corpus, synthetic_spinc_models
from contact9.model import random_model_iso, transform_model
from contact9.schema import canonical_json, emit_model

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
SEED = 2011
# M3_sum from the paper, and the four synthetic models that are connected sums
SUM_PAIRS = (
    ("S1xHP2", "S1xCP4"),
    ("S1xCP4", "S1xCP4"),
    ("S1xCP4", "S1xHP2"),
    ("S1xCP4", "M1_surgered"),
    ("RP5xCP2", "S1xCP4"),
)


def _file_name(label: str, tag: str = "") -> str:
    return label.replace("#", "+") + tag + ".json"


def _write_documents(directory) -> list[str]:
    """Write every corpus document and a base-changed copy of each; returns
    the file names in a fixed order."""
    rng = np.random.default_rng(SEED)
    names = []
    for m in corpus() + synthetic_spinc_models():
        copy = transform_model(m, *random_model_iso(m, rng))
        for tag, model in (("", m), (".based", copy)):
            names.append(_file_name(m.label, tag))
            Path(directory, names[-1]).write_text(emit_model(model))
    return names


def _commands(names: list[str]):
    for name in names:
        for verb in ("decide", "classes", "validate"):
            yield [verb, name]
    for a, b in SUM_PAIRS:
        yield ["sum", _file_name(a), _file_name(b)]
    yield ["corpus"]


def _record(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "structured"])
    report = json.loads(out.getvalue())
    report.pop("timing_ms")
    return {"argv": argv, "code": code, "sha256": hashlib.sha256(canonical_json(report).encode()).hexdigest()}


def _records(directory) -> list[dict]:
    """Every record, with the documents written to and the commands run in
    ``directory``, which must be the working directory."""
    return [_record(argv) for argv in _commands(_write_documents(directory))]


def regenerate(path: Path = GOLDEN):
    cwd = os.getcwd()
    os.environ.pop(CORPUS_ENV, None)
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            records = _records(directory)
        finally:
            os.chdir(cwd)
    lines = ",\n".join(json.dumps(r, separators=(",", ":")) for r in records)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'{{"reports": [\n{lines}\n]}}\n')


def test_cli_reports_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CORPUS_ENV, raising=False)
    golden = json.loads(GOLDEN.read_text())["reports"]
    got = _records(tmp_path)
    assert [g["argv"] for g in got] == [g["argv"] for g in golden]
    assert len(got) == 72
    mismatched = [(g, want) for g, want in zip(got, golden) if g != want]
    assert not mismatched, mismatched[:3]


if __name__ == "__main__":
    regenerate()
