"""Verifiable word calculus for genus-2 Dehn twist factorizations.

Positive relators in the genus-2 mapping class group encode Lefschetz
fibrations over the sphere.  This package represents such relators as
words of signed twist letters, applies and validates the rewrite moves
that relate them (commutation, braid, lantern substitution, Hurwitz
moves, conjugation), checks every step against the integer symplectic
representation (and optionally the surface-group action), computes the
4-manifold invariants carried by fiber counts, and enumerates admissible
fiber-sum decompositions of a fiber signature under the known
obstructions.
"""

from .decompose import (
    ClassificationEntry,
    ConstraintRule,
    DecompositionReport,
    admissible_splits,
    classify,
)
from .fixtures import load_corpus
from .invariants import (
    BlowdownDelta,
    FiberSignature,
    InvariantSet,
    blowdown_delta,
    fiber_signature,
    fiber_sum,
    homeo_label,
    invariants,
)
from .moves import (
    IllegalMove,
    Move,
    MoveScript,
    ReplayReport,
    apply_move,
    inverse_move,
    replay,
)
from .dsl import Document, ParseError, parse_document, parse_relator, parse_word, serialize
from .registry import (
    LanternInstance,
    Registry,
    UnknownCurve,
    Verdict,
    standard_registry,
)
from .words import (
    Curve,
    Letter,
    PositiveRelator,
    Word,
    conjugate,
    contract_subword,
    expand_letter,
    free_reduce,
    invert,
)

__version__ = "0.1.0"
