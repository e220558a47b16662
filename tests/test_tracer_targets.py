"""The traced benchmark run (perfbench/run.py --trace 1) wraps netprox
functions by patching owner.__dict__[attr] for every entry of
perfbench/tracing.py::_targets(). A refactor that drops an import a module
no longer needs, or moves a method to a base class, breaks that run with a
KeyError; this test catches it in the unit suite."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_is_owned_and_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, span in tracing._targets():
        owned = vars(owner)
        assert attr in owned, f"{span}: {owner.__name__} has no attribute {attr!r} of its own"
        assert callable(owned[attr]), f"{span}: {owner.__name__}.{attr} is not callable"
