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

from g2mcg import moves, pi1
from g2mcg.fixtures import load_corpus
from g2mcg.registry import standard_registry

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



def test_replay_calls_apply_move_once_per_move(monkeypatch):
    # the bench's moves.apply_move layer counts moves only while this holds
    reg = standard_registry()
    calls = []
    apply_move = moves.apply_move

    def counted(reg, w, move, **kwargs):
        calls.append(move)
        return apply_move(reg, w, move, **kwargs)

    monkeypatch.setattr(moves, "apply_move", counted)
    for script in load_corpus(reg).scripts.values():
        calls.clear()
        assert moves.replay(reg, script).ok, script.name
        expected = [e for e in script.entries if isinstance(e, moves.MOVES)]
        assert calls == expected, script.name


def test_word_action_runs_the_dehn_loop_once_per_moved_generator(monkeypatch):
    # the bench's pi1.dehn_reduce layer counts no word_action work while this holds
    reg = standard_registry()
    calls, rewrites = [], []
    dehn_reduce, dehn_rewrite = pi1.dehn_reduce, pi1._dehn_rewrite
    monkeypatch.setattr(pi1, "dehn_reduce", lambda w: calls.append(w) or dehn_reduce(w))
    monkeypatch.setattr(pi1, "_dehn_rewrite", lambda w: rewrites.append(w) or dehn_rewrite(w))
    corpus = load_corpus(reg)
    for label in ("Z0", "chain30", "chain40"):
        rewrites.clear()
        w = corpus.relators[label].word
        pi1.word_action(reg, w)
        assert calls == [], label
        moved = sum(len(pi1._TWIST_SPEC[l.curve.name][1]) for l in reg.flat_word(w))
        assert len(rewrites) == moved, label
