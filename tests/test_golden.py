"""Replay reports, verify outputs, serializations and registry verdicts do
not drift.

One golden file holds the rendered replay report of every corpus script,
one the stdout and exit code of ``verify``, in text and records form, on
every corpus file, and one the registry-check verdicts of the packaged
registry and of the perturbed registries the tests build.  After a
deliberate change, rewrite all three with
``PYTHONPATH=src python tests/test_golden.py``.  The ``--pi1`` flag is
ignored, and verify prints the same with it as without it.
"""

import contextlib
import hashlib
import io
import re
from importlib import resources
from pathlib import Path

import pytest

from g2mcg.cli import main
from g2mcg.dsl import parse_document, parse_word, serialize
from g2mcg.fixtures import FILES, load_corpus, read_text
from g2mcg.moves import replay
from g2mcg.registry import PROVED, Registry, standard_registry
from g2mcg.words import word_str

GOLDEN = Path(__file__).with_name("golden") / "corpus_replay.txt"
GOLDEN_VERIFY = GOLDEN.with_name("corpus_verify.txt")
GOLDEN_VERDICTS = GOLDEN.with_name("registry_verdicts.txt")

reg = standard_registry()


def corpus_renders() -> str:
    scripts = load_corpus(reg).scripts.values()
    return "\n".join(replay(reg, s).render() for s in scripts) + "\n"


def test_corpus_replay_matches_golden():
    assert corpus_renders() == GOLDEN.read_text(encoding="utf-8")


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _corpus_path(name: str) -> str:
    return str(resources.files("g2mcg").joinpath("corpus").joinpath(name))


def verify_outputs() -> str:
    """Per corpus file and format: the exit code and stdout of verify."""
    chunks = []
    for name in FILES:
        for fmt in ("text", "records"):
            argv = ["--format", fmt, "verify"]
            code, out = _run([*argv, _corpus_path(name)])
            chunks.append(f"== {' '.join(argv)} {name}: exit {code}\n{out}")
    return "".join(chunks)


def test_corpus_verify_matches_golden():
    assert verify_outputs() == GOLDEN_VERIFY.read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("name", FILES)
def test_the_ignored_pi1_flag_changes_no_verify_output(name, fmt):
    # the pi1-verify benchmark still passes --pi1
    argv = ["--format", fmt, "verify", _corpus_path(name)]
    assert _run(["--pi1", *argv]) == _run(argv)


@pytest.mark.parametrize("name", FILES)
def test_serialize_is_a_fixed_point(name):
    doc = parse_document(read_text(name), reg)
    for script in doc.scripts.values():
        once = serialize(script)
        assert serialize(parse_document(once, reg).scripts[script.name]) == once
    for rel in doc.relators.values():
        once = word_str(rel.word)
        assert word_str(parse_word(once, reg)) == once


# Text edits of standard.reg made by the CLI tests, and classes that the
# hypothesis test of test_registry.py draws, its two examples included.
EDITS = (
    ("d sep h=(0,0,0,0)", "d nonsep h=(0,0,0,0)"),
    ("B2 nonsep h=(1,0,1,0)", "B2 nonsep h=(0,1,0,1)"),
    ("L1: c1 c1 c5 c5 = x c3 d", "L1: c1 c1 c5 c5 = c1 c5 c5"),
    ("c3 nonsep h=(-1,0,1,0)", "c3 nonsep h=(0,1,1,0)"),
    ("L1: c1 c1 c5 c5 = x c3 d", "L1: c1 c1 c5 c5 = B2 c3 d"),
    ("x nonsep h=(1,0,1,0) def=[c2^-1 c1^-1 c1^-1 c2^-1](c3)", "x nonsep h=(1,0,1,0) def=[d](x)"),
)
CLASSES = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0), (1, 1, 1, 0), (1, 0, 1, 0), (-2, 1, 0, 2))


def _without(name: str) -> Registry:
    """standard.reg without the curve's line, the lanterns naming h in its place."""
    lines = [
        re.sub(rf"\b{name}\b", "h", l) if re.match(r"L\d:", l) else l
        for l in read_text("standard.reg").splitlines()
        if not l.startswith(f"{name} ")
    ]
    return Registry.parse("\n".join(lines))


def perturbed_registries() -> dict[str, Registry]:
    text = read_text("standard.reg")
    out = {"standard": reg, "drop L3": reg.replace(drop_lantern="L3")}
    out.update({f"{old!r} -> {new!r}": Registry.parse(text.replace(old, new)) for old, new in EDITS})
    out.update({f"without {name}": _without(name) for name in ("d", "c1", "c2")})
    for name in sorted(reg.curves):
        out[f"{name} flag flipped"] = reg.replace(name, separating=not reg.data(name).separating)
        out.update({f"{name} h={cls}": reg.replace(name, homology=cls) for cls in CLASSES})
    return out


def registry_verdicts() -> str:
    """Per registry: the check count, a digest of its (check, verdict) list
    and the failed checks."""
    lines = []
    for label, registry in perturbed_registries().items():
        checks = registry.validate()
        pairs = "\n".join(f"{c.name} {c.status == PROVED}" for c in checks).encode()
        failed = ",".join(c.name for c in checks if c.status != PROVED) or "-"
        digest = hashlib.sha1(pairs).hexdigest()[:12]
        lines.append(f"{label}: {len(checks)} checks {digest} failed={failed}")
    return "\n".join(lines) + "\n"


def test_registry_verdicts_match_golden():
    assert registry_verdicts() == GOLDEN_VERDICTS.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(corpus_renders(), encoding="utf-8")
    GOLDEN_VERIFY.write_text(verify_outputs(), encoding="utf-8")
    GOLDEN_VERDICTS.write_text(registry_verdicts(), encoding="utf-8")
