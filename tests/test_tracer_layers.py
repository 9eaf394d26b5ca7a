"""The functions bench/tracer.py wraps still exist under the names it lists.

The tracer resolves each layer by module and attribute path when a traced
bench run starts; a renamed function would only show up there.  These tests
resolve the same names the same way, and read bench/ without changing it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path
from types import FunctionType

import pytest

from g2mcg import pi1

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, path", [layer[:2] for layer in load_tracer().LAYERS])
def test_every_traced_layer_resolves(module, path):
    # the lookup of Tracer.install: owner.__dict__[attr], unwrapping a staticmethod
    mod = importlib.import_module(f"g2mcg.{module}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    raw = owner.__dict__[attr]
    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
    assert isinstance(fn, FunctionType)


def test_cyclic_forms_keeps_cap_as_its_first_default():
    # the tracer's form counter reads cap from args[1] or __defaults__[0]
    params = list(inspect.signature(pi1.cyclic_forms).parameters.values())
    assert params[1].name == "cap"
    assert pi1.cyclic_forms.__defaults__[0] == params[1].default
