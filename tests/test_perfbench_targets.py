"""The benchmark tracer wraps package attributes by name; every one of them
must still exist, or a traced benchmark run fails on its first install."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_attribute_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.default_targets()
    assert targets
    for owner, attr, _name, _count_points in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
