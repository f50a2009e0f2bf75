"""The names of the package that the benchmark's tracer reaches.

`bench/tracing.py` wraps the functions its `LAYERS` name, by module and
name, so a function that is renamed or moved drops out of the per-layer
metrics without an error.  It is loaded here by path, as a plain file.
"""

import importlib
import importlib.util
import types
from pathlib import Path

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def test_every_traced_name_is_a_function_of_its_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module_name, names in tracing.LAYERS.items():
        module = importlib.import_module(f"dp1toric.{module_name}")
        for name in names:
            fn = getattr(module, name, None)
            assert isinstance(fn, types.FunctionType), f"{module_name}.{name}"
            assert fn.__module__ == module.__name__, f"{module_name}.{name}"
