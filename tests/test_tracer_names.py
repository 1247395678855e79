"""The benchmark tracer wraps library functions by name; every name it
looks up must still exist, or traced benchmark runs break."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_functions_resolve():
    tracer = load_tracer()
    missing = [
        "gelfand.%s.%s" % (module_name, attr)
        for module_name, names in tracer.SPAN_FUNCTIONS.items()
        for attr in names
        if not callable(
            getattr(importlib.import_module("gelfand." + module_name), attr, None)
        )
    ]
    assert not missing


def test_model_basis_importable():
    from gelfand.model import ModelBasis

    assert load_tracer().ModelBasis is ModelBasis
