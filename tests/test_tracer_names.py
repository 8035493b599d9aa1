"""Every name the benchmark's span tracer wraps still exists.

perfbench/spans.py lists the traced entry points as (module, path)
pairs; a renamed or deleted function would only show when a traced
benchmark run fails to install.  The file is loaded from its path
without writing bytecode, and nothing is wrapped.
"""

import importlib.util
import sys
from pathlib import Path

import selfsimilar
import selfsimilar.cli  # as in the benchmark unit: the tracer wraps cli too

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for mod_name, path, _ in spans.TRACED:
        assert mod_name in spans.LAYERS
        mod = getattr(selfsimilar, mod_name)
        # as `Tracer.install` looks them up: a method from its class's
        # own namespace, anything else as a module attribute
        if "." in path:
            cls_name, meth = path.split(".")
            target = vars(getattr(mod, cls_name))[meth]
        else:
            target = getattr(mod, path)
        assert callable(target), f"{mod_name}.{path}"
    assert isinstance(selfsimilar.cli._CHECKS, dict)
