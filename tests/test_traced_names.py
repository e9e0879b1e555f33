"""The benchmark tracer wraps scrl functions by name; each name must resolve.

``perfbench/tracing.py`` is loaded from its file, without running the
benchmark, so a renamed or deleted function fails here and not only
under ``pytest perfbench``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for mod_name, qual, _ in traced:
        obj = importlib.import_module(mod_name)
        for attr in qual.split("."):
            assert hasattr(obj, attr), f"{mod_name}.{qual} does not resolve"
            obj = getattr(obj, attr)
        assert callable(obj), f"{mod_name}.{qual} is not callable"
