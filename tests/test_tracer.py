"""The benchmark tracer still finds every gbei name it patches.

`benchmark/spans.py` looks each target up in its owner's ``__dict__`` and
raises KeyError on a missing one, so deleting or renaming a traced name
breaks the traced benchmark run.  The module is loaded by path and used
as is.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[leaf]


def test_tracer_patches_and_restores_every_target():
    spans = _load_spans()
    targets = [(module, attr) for module, attr, _, _ in spans.TARGETS]
    originals = [_lookup(module, attr) for module, attr in targets]
    with spans.Tracer().installed():
        for (module, attr), original in zip(targets, originals):
            assert _lookup(module, attr) is not original, f"{module}.{attr}"
    for (module, attr), original in zip(targets, originals):
        assert _lookup(module, attr) is original, f"{module}.{attr}"
