"""Free-group style words over signed Dehn-twist letters.

A word is a tuple of letters; a letter is a twist along a curve with
exponent +1 or -1 (powers are spelled out as repeated letters, which keeps
pattern matching for rewrite moves uniform).  A curve is either a plain
named curve (the chain curves c1..c5 plus the special curves of the
registry) or a conjugate curve w(a): the image of a plain curve a under
the mapping class of a word w.  Twists along conjugate curves satisfy
t_{w(a)} = w t_a w^-1, which is what the expand and contract moves
convert between.

Everything here is immutable and purely structural: two conjugate curves
with different but equivalent conjugating words compare unequal.  The
registry module layers a semantic normal form on top of this.  Curve and
Letter are tuple types, so their equality and hash are by value and run in
C, as the registry's caches and replay's checkpoint checks need; a Letter
also equals the plain tuple of its fields, and no code compares the two.
A word is a plain tuple, never a subclass: records are tuple subclasses,
and code that takes either tells a word by its type.
"""

from __future__ import annotations

from typing import NamedTuple


class Curve(NamedTuple):
    """A simple closed curve: a plain name, optionally pushed around by a word.

    ``conj`` is the conjugating word, empty for a plain curve, and the inner
    curve ``name`` is always plain.  Code that pushes a conjugate curve
    further (the contract move, the Hurwitz move, a conjugated lantern side,
    a twisted fiber sum) calls push, which keeps it that way by building
    u(v(a)) as (u.v)(a).  The tuple (name, conj): equal and hashed by value,
    the hash of its fields.
    """

    name: str
    conj: "Word" = ()

    def __repr__(self) -> str:
        if not self.conj:
            return self.name
        return f"[{word_str(self.conj)}]({self.name})"


def checked_make(cls, fields):
    # the inherited _make, and _replace through it, build the tuple directly
    # and would skip the check in a record's __new__
    return cls(*fields)


class Letter(NamedTuple("_LetterFields", [("curve", Curve), ("exp", int)])):
    """One signed Dehn twist: the tuple (curve, exp), exp +1 or -1, equal
    and hashed by value like Curve."""

    __slots__ = ()

    def __new__(cls, curve: Curve, exp: int = 1) -> "Letter":
        if exp not in (1, -1):
            raise ValueError(f"letter exponent must be +1 or -1, got {exp}")
        return tuple.__new__(cls, (curve, exp))

    _make = classmethod(checked_make)

    def inverse(self) -> "Letter":
        return Letter(self.curve, -self.exp)

    def __repr__(self) -> str:
        return repr(self.curve) + ("" if self.exp == 1 else "^-1")


Word = tuple[Letter, ...]


def letter(name: str, exp: int = 1, conj: Word = ()) -> Letter:
    return Letter(Curve(name, conj), exp)


def push(l: Letter, by: Word) -> Letter:
    """The letter l with its curve pushed by the word ``by``: u(v(a)) is (u.v)(a)."""
    return Letter(Curve(l.curve.name, by + l.curve.conj), l.exp)


def word_str(w: Word) -> str:
    """The word as .mcg text, a run of equal letters as one power.  Printing
    is injective, so runs are found by comparing curve texts, not letters."""
    runs: list[list] = []
    for l in w:
        text = repr(l.curve)
        if runs and runs[-1][0] == text and runs[-1][1] * l.exp > 0:
            runs[-1][1] += l.exp
        else:
            runs.append([text, l.exp])
    return " ".join(t if e == 1 else f"{t}^{e}" for t, e in runs) or "()"


def invert(w: Word) -> Word:
    """Reversed sequence with flipped exponents; w * invert(w) freely reduces away."""
    return tuple([l.inverse() for l in reversed(w)])


def free_reduce(w: Word) -> Word:
    """Cancel adjacent t t^-1 pairs on structurally equal curves (idempotent)."""
    out: list[Letter] = []
    for l in w:
        if out and out[-1].curve == l.curve and out[-1].exp == -l.exp:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


class PositiveRelator(NamedTuple("_RelatorFields", [("word", Word), ("label", str)])):
    """A word of right-handed twists representing 1; one letter per singular fiber."""

    __slots__ = ()

    def __new__(cls, word: Word, label: str = "") -> "PositiveRelator":
        bad = [l for l in word if l.exp != 1]
        if bad:
            raise ValueError(f"relator contains inverse letters: {bad[:3]}")
        return tuple.__new__(cls, (word, label))

    _make = classmethod(checked_make)

    def __len__(self) -> int:
        """The word's length, not the record's: the fiber count."""
        return len(self.word)
