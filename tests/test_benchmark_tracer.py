"""The names the benchmark tracer wraps still resolve.

benchmark/tracer.py replaces efano functions at the module attributes
through which they are called, and CrossSectionCurve.__init__ on the
class.  A function renamed, or no longer imported by name into a module
listed there, breaks only the traced benchmark run; this catches it in
the test suite.  The tracer module is loaded from its file, unchanged.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer():
    name = "efano_benchmark_tracer"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, TRACER)
        # Registered first: its dataclasses look their module up there.
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def test_wrapped_names_resolve():
    tracer = _load_tracer()
    for modules, attr, _, _ in tracer.WRAPPED:
        original = getattr(modules[0], attr, None)
        assert callable(original), (modules[0].__name__, attr)
        for module in modules[1:]:
            # The tracer wraps one function at every module listed.
            assert getattr(module, attr, None) is original, (module.__name__, attr)


def test_curve_init_exists():
    tracer = _load_tracer()
    assert "__init__" in vars(tracer.efano.profiles.CrossSectionCurve)
