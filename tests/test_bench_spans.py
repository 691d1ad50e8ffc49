"""The benchmark's traced run patches program functions by name: every
(module, attribute) in ``bench/spans.py``'s ``TARGETS`` must resolve, and the
wrappers must still fit the signatures they wrap, so a change that would
break the traced run fails here first."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"

# The tracer cannot be uninstalled, so the traced calls run in a child process.
TRACED_RUN = """
import json
import spans
tracer = spans.Tracer()
tracer.install()
from contact9.cohomology import Cohomology
from contact9.complexes import sphere
from contact9.model import from_simplicial
x = sphere(2)
from_simplicial(x)
coh = Cohomology(x)
coh.class_of(coh.group(0, 2).basis_cocycles[0])
print(json.dumps(sorted({tracer.names[i] for i in tracer.span_name})))
"""


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    missing = []
    for module_name, attr, _span in _targets():
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert not missing


def test_traced_engine_records_group_and_class_spans():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    names = set(json.loads(out.stdout.strip().splitlines()[-1]))
    assert {"cohomology.group_z", "cohomology.group_f2", "cohomology.class_of"} <= names
