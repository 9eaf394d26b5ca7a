"""Replay reports and serializations of the embedded corpus do not drift.

The golden file holds the rendered replay report of every corpus script.
After a deliberate change to the report, rewrite it with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import pytest

from g2mcg.dsl import parse_document, serialize
from g2mcg.fixtures import FILES, load_corpus, read_text
from g2mcg.moves import replay
from g2mcg.registry import standard_registry

GOLDEN = Path(__file__).with_name("golden") / "corpus_replay.txt"

reg = standard_registry()


def corpus_renders() -> str:
    scripts = load_corpus(reg).scripts.values()
    return "\n".join(replay(reg, s).render() for s in scripts) + "\n"


def test_corpus_replay_matches_golden():
    assert corpus_renders() == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", FILES)
def test_serialize_is_a_fixed_point(name):
    once = serialize(parse_document(read_text(name), reg))
    assert serialize(parse_document(once, reg)) == once


if __name__ == "__main__":
    GOLDEN.write_text(corpus_renders(), encoding="utf-8")
