"""Embedded fixture corpus: relators and derivation scripts shipped as
.mcg files in the package's corpus directory.

The corpus carries all the worked derivations: the three lantern
substitution blocks inside (c5 c4 c3 c2 c1)^2, the two rational blowups
turning the Matsumoto + rational fiber sum into the (30,0) factorization,
the four blowdowns Z0 -> Z4, the six blowdowns X0 -> X6, and the seventh
substitution X6 -> X7.
"""

from __future__ import annotations

import functools
import re
from importlib import resources
from typing import Optional

from .dsl import Document, ParseError, parse_document
from .registry import Registry, standard_registry

FILES = (
    "relators.mcg",
    "substitutions.mcg",
    "blowups.mcg",
    "z-family.mcg",
    "x-family.mcg",
    "x-seven.mcg",
)


@functools.cache
def read_text(name: str) -> str:
    """The text of the packaged corpus file ``name``, read once per process."""
    return (
        resources.files("g2mcg").joinpath("corpus").joinpath(name).read_text(encoding="utf-8")
    )


# A script header line as parse_document reads it: a '#' comment may follow.
_HEADER_RE = re.compile(r"^[^\S\n]*script[^\S\n]+([\w()+-]+)[^\S\n]*(?:#.*)?$", re.MULTILINE)


def script_text(script: str) -> Optional[str]:
    """The text of the one corpus file that declares ``script``, or None."""
    texts = [
        text for text in map(read_text, FILES)
        if script in _HEADER_RE.findall(text)
    ]
    if len(texts) > 1:
        raise ParseError(f"duplicate script {script}")
    return texts[0] if texts else None


def script_names() -> list[str]:
    """The names the corpus script headers declare, as script_text reads
    them, sorted; a name declared twice raises ParseError."""
    names = sorted(name for text in map(read_text, FILES) for name in _HEADER_RE.findall(text))
    for name, following in zip(names, names[1:]):
        if name == following:
            raise ParseError(f"duplicate script {name}")
    return names


def load_corpus(registry: Optional[Registry] = None) -> Document:
    """Every relator and script of the corpus files, as one document."""
    reg = registry if registry is not None else standard_registry()
    corpus = Document()
    for name in FILES:
        doc = parse_document(read_text(name), reg)
        for label, rel in doc.relators.items():
            existing = corpus.relators.get(label)
            if existing is not None and existing.word != rel.word:
                raise ParseError(f"conflicting definitions of relator {label}")
            corpus.relators[label] = rel
        for sname, script in doc.scripts.items():
            if sname in corpus.scripts:
                raise ParseError(f"duplicate script {sname}")
            corpus.scripts[sname] = script
    return corpus
