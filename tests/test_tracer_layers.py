"""The benchmark's per-layer trace names library functions by
"<module>.<function>"; a library change that renames or deletes one
would break the traced benchmark runs, so every name is checked here."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    # tracer.py imports only the standard library, so it loads by path
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("name", _layers())
def test_every_traced_layer_is_a_library_function(name):
    mod_name, fn_name = name.split(".")
    module = importlib.import_module(f"qfocklab.{mod_name}")
    assert callable(getattr(module, fn_name, None)), name
