"""The benchmark's tracer wraps library functions by name.

``perfbench/tracing.py`` lists them in ``TRACED``; a library rename would
leave ``perfbench/run.py --trace 1`` without its spans, so every listed
name must still exist on its module.
"""

import importlib
import importlib.util
import pathlib

TRACING = (pathlib.Path(__file__).resolve().parent.parent
           / "perfbench" / "tracing.py")


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{name}" for mod, names in tracing.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"latbounds.{mod}"),
                                       name, None))]
    assert tracing.TRACED and not missing, f"traced names gone: {missing}"
