"""Embedded fixture corpus: relators and derivation scripts shipped as
.mcg files in the package's corpus directory.

The corpus carries all the worked derivations: the three lantern
substitution blocks inside (c5 c4 c3 c2 c1)^2, the two rational blowups
turning the Matsumoto + rational fiber sum into the (30,0) factorization,
the four blowdowns Z0 -> Z4, the six blowdowns X0 -> X6, and the seventh
substitution X6 -> X7.  Each script is the one script of the file named
after it; relators.mcg holds the relators the scripts start from.
"""

from __future__ import annotations

import functools
from importlib import resources
from typing import Optional

from .dsl import Document, ParseError, parse_document
from .registry import Registry, standard_registry

SCRIPTS = (
    "sub-c1c5",
    "sub-c1c3",
    "sub-c3c5",
    "blowup-to-thirty",
    "z-family",
    "x-family",
    "x-seven",
)
FILES = ("relators.mcg", *(f"{name}.mcg" for name in SCRIPTS))


@functools.cache
def read_text(name: str) -> str:
    """The text of the packaged corpus file ``name``, read once per process."""
    return (
        resources.files("g2mcg").joinpath("corpus").joinpath(name).read_text(encoding="utf-8")
    )


def script_text(script: str) -> Optional[str]:
    """The text of the corpus file named after ``script``, or None."""
    return read_text(f"{script}.mcg") if script in SCRIPTS else None


def load_corpus(registry: Optional[Registry] = None) -> Document:
    """Every relator and script of the corpus files, as one document."""
    reg = registry if registry is not None else standard_registry()
    corpus = Document({}, {})
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
