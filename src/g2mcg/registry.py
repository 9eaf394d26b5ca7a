"""The curve atlas of the genus-2 surface and its validation oracle.

The registry holds every named simple closed curve the calculus touches:
the twist chain c1..c5, the separating curve d bounding the c1-c2 handle,
the interior curves of the three embedded four-holed-sphere (lantern)
configurations, the Matsumoto fibration curves B0, B1, B2, and the
conjugated-copy curves Y1, Y2, Yc.  Each curve carries a separating flag
and an integer homology class in the basis (a1, b1, a2, b2).

The atlas is data, kept in one place: the packaged text file
corpus/standard.reg, in the format Registry.parse reads, which is the
only definition of that format.  standard_registry() parses that file; a
--registry file in the same format replaces it.  Beyond each curve's flag
and class, every declaration is at once an entry of a table the moves
engine consults and an identity u = v of Mod(S2) that validate proves:
  - a curve's def= w(a): t_X = t_w(a), through which pi1 acts on X;
  - a lantern: its four boundary twists equal its three interior twists;
  - a disjoint pair a, b: a b = b a, which makes commuting them legal;
    the table is conservative, a pair absent from it never commutes;
  - a braid pair a, b: a b a = b a b, for the braid move;
  - an alias u = v, whose sides the alias move trades;
  - a central word w: w c = c w for every curve c of the registry, for
    the central slide;
  - a relator w: w = 1.
Registry.__init__ takes these tables as parsed and derives none by rule.

validate() checks each curve's data, and proves each identity by one
rule, exact in pi1: inconclusive when it names a curve the registry
lacks, refuted when the Sp(4,Z) images of u and v differ, and otherwise
the verdict of pi1.relator_verdict on u v^-1.  By Dehn-Nielsen-Baer a word
is a relator exactly when it acts on pi1 by an inner automorphism, so a
wrong curve of the right class, which the image alone lets pass, is
refuted; a curve with no action, such as one whose def= reaches itself,
leaves each identity that names it inconclusive.

canonical_curve gives a conjugate curve w(a) its normal form, in which
moves compare words: w flattened to plain letters and reduced as a trace
over the disjointness table, the idle letters at its right end (missing a
and every letter kept after them) dropped, written lexicographically least.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, NamedTuple, Optional, Sequence

from . import homology as hom
from .homology import Mat, Vec
from .words import Curve, Letter, Word, invert, letter


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        where = f" at line {line}" if line else ""
        where += f", col {col}" if col else ""
        super().__init__(message + where)
        self.line = line
        self.col = col


class UnknownCurve(ParseError):
    """A curve name the registry lacks, at ``line`` and ``col`` of its text when known."""

    def __init__(self, name: str, line: int = 0, col: int = 0) -> None:
        super().__init__(f"unknown curve {name!r}", line, col)
        self.name = name


class CurveData(NamedTuple):
    name: str
    separating: bool
    homology: Vec
    defn: Optional[Curve] = None  # defining expression, e.g. B2 = [c3^-1](x)


class LanternInstance(NamedTuple):
    """One embedded lantern: four boundary twists equal three interior twists.

    Only cyclic rotations of either side are equal words in the group; the
    interior curves pairwise intersect, so arbitrary permutations are not
    admissible.
    """

    ident: str
    lhs: tuple[str, str, str, str]
    rhs: tuple[str, str, str]

    def rotations(self, side: str) -> list[Word]:
        """Every cyclic rotation of one side, "lhs" or "rhs", as a word."""
        names = getattr(self, side)
        return [tuple([letter(n) for n in names[r:] + names[:r]]) for r in range(len(names))]


class AliasRelation(NamedTuple):
    """Two words, equal in Mod(S2) as validate proves, that the alias move trades."""

    ident: str
    lhs: Word
    rhs: Word


PROVED, REFUTED, INCONCLUSIVE = "proved", "refuted", "inconclusive"


class Verdict(NamedTuple):
    """An oracle's answer: ``status`` PROVED, REFUTED or INCONCLUSIVE, ``detail``
    a proof's certificate (pi1's conjugator z, "" the empty word), another
    answer's reason, or None for neither."""

    name: str
    status: str
    detail: Optional[str] = None

    @staticmethod
    def decided(name: str, holds: bool, reason: Optional[str] = None) -> "Verdict":
        """An exact check's answer: proved when it holds, else refuted for ``reason``."""
        return Verdict(name, PROVED) if holds else Verdict(name, REFUTED, reason)


class Registry:
    """Read-only atlas built once from its parsed tables; all methods are pure queries."""

    def __init__(
        self,
        curves: Sequence[CurveData],
        lanterns: Sequence[LanternInstance],
        disjoint_pairs: Iterable[frozenset[str]],
        braid_pairs: Iterable[frozenset[str]],
        aliases: Iterable[AliasRelation],
        central_words: dict[str, Word],
        relators: dict[str, Word],
    ) -> None:
        self.curves: dict[str, CurveData] = {c.name: c for c in curves}
        self.lanterns: dict[str, LanternInstance] = {l.ident: l for l in lanterns}
        self.disjoint_pairs = frozenset(disjoint_pairs)
        self.braid_pairs = frozenset(braid_pairs)
        self.aliases: dict[str, AliasRelation] = {a.ident: a for a in aliases}
        self.central_words = central_words
        self.relators = relators
        # (lantern, side) -> the side's rotations, built once for the Lantern move
        self.lantern_rotations = {(l.ident, side): tuple(l.rotations(side))
                                  for l in self.lanterns.values() for side in ("lhs", "rhs")}
        # Safe to memoize: a registry is never changed after __init__
        # (replace() builds a new registry with empty caches).  A letter
        # t_u^e maps to (u, e Ju), all that image uses of it.
        self._twist_cache: dict[Letter, tuple[Vec, Vec]] = {}
        self._canonical_curve_cache: dict[Curve, Curve] = {}

    def replace(
        self, name: Optional[str] = None, *, drop_lantern: Optional[str] = None, **fields
    ) -> "Registry":
        """A new registry, with empty caches, in which curve ``name`` takes the
        given CurveData ``fields`` (homology=, separating=, defn=) and lantern
        ``drop_lantern`` is left out, every other table kept; perturbation
        tests build broken atlases this way."""
        if name is not None and name not in self.curves:
            raise UnknownCurve(name)
        curves = [
            c._replace(**fields) if c.name == name else c
            for c in self.curves.values()
        ]
        lanterns = [l for l in self.lanterns.values() if l.ident != drop_lantern]
        return Registry(curves, lanterns, self.disjoint_pairs, self.braid_pairs,
                        self.aliases.values(), self.central_words, self.relators)

    # -- basic queries -------------------------------------------------------

    def data(self, name: str) -> CurveData:
        try:
            return self.curves[name]
        except KeyError:
            raise UnknownCurve(name) from None

    def count_separating(self, w: Word) -> int:
        """The letters of w whose curve is separating, by one dict lookup a
        letter; the first name the registry lacks raises UnknownCurve, as
        data does."""
        curves, n = self.curves, 0
        try:
            for l in w:
                n += curves[l.curve.name].separating
        except KeyError as exc:
            raise UnknownCurve(exc.args[0]) from None
        return n

    def homology_class(self, curve: Curve) -> Vec:
        """The class of w(a): the image of w applied to a's class."""
        v = self.data(curve.name).homology
        return hom.mat_vec(self.image(curve.conj), v)

    def _twist(self, l: Letter) -> tuple[Vec, Vec]:
        """(u, e Ju) for the letter t_u^e: its matrix is I + e u (Ju)^T.

        T_u = I + u (Ju)^T is x |-> x + <x, u> u.  Its part N = u (Ju)^T
        squares to 0, as (Ju)^T u = -<u, u> = 0, so T_u^-1 = I - N: this is
        homology.transvection_inv(u) = 2I - T_u.  A separating curve has
        u = 0, and its letters change nothing."""
        u = self.homology_class(l.curve)
        e = 1 if l.exp == 1 else -1
        twist = self._twist_cache[l] = (u, (e * u[1], -e * u[0], e * u[3], -e * u[2]))
        return twist

    def image(self, w: Word) -> Mat:
        """Homomorphic image in Sp(4, Z); the word's letters multiply in order.

        Each letter t_u^e multiplies the product M on the right by
        I + e u (Ju)^T, a rank-one update: each row r of M becomes
        r + (r . u) e Ju, and stays as it is when r . u = 0.  The result is
        the exact integer product of the homology.transvection and
        transvection_inv matrices of the letters, for at most 32
        multiplications a letter where a 4x4 product takes 64."""
        a0, a1, a2, a3 = 1, 0, 0, 0
        b0, b1, b2, b3 = 0, 1, 0, 0
        c0, c1, c2, c3 = 0, 0, 1, 0
        d0, d1, d2, d3 = 0, 0, 0, 1
        get = self._twist_cache.get
        for l in w:
            (u0, u1, u2, u3), (j0, j1, j2, j3) = get(l) or self._twist(l)
            s = a0 * u0 + a1 * u1 + a2 * u2 + a3 * u3
            if s:
                a0, a1, a2, a3 = a0 + s * j0, a1 + s * j1, a2 + s * j2, a3 + s * j3
            s = b0 * u0 + b1 * u1 + b2 * u2 + b3 * u3
            if s:
                b0, b1, b2, b3 = b0 + s * j0, b1 + s * j1, b2 + s * j2, b3 + s * j3
            s = c0 * u0 + c1 * u1 + c2 * u2 + c3 * u3
            if s:
                c0, c1, c2, c3 = c0 + s * j0, c1 + s * j1, c2 + s * j2, c3 + s * j3
            s = d0 * u0 + d1 * u1 + d2 * u2 + d3 * u3
            if s:
                d0, d1, d2, d3 = d0 + s * j0, d1 + s * j1, d2 + s * j2, d3 + s * j3
        return (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3)

    def braid_adjacent(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.braid_pairs

    # -- disjointness and the semantic normal form ----------------------------

    def _names_disjoint(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.disjoint_pairs

    def disjoint(self, a: Curve, b: Curve) -> bool:
        """Conservative geometric disjointness.

        Equal conjugators peel off (a homeomorphism preserves disjointness);
        otherwise every curve supporting one side must be disjoint from every
        curve supporting the other.  A canonical conjugator is over plain
        curves, so a curve's support is its name and its conjugator's names.
        """
        a, b = self.canonical_curve(a), self.canonical_curve(b)
        if a.conj and a.conj == b.conj:
            return self._names_disjoint(a.name, b.name)
        support_b = {b.name, *(l.curve.name for l in b.conj)}
        return all(
            self._names_disjoint(x, y)
            for x in {a.name, *(l.curve.name for l in a.conj)}
            for y in support_b
        )

    def flat_word(self, w: Word) -> list[Letter]:
        """w over plain curves: each conjugate letter t_{u(a)}^e, its
        conjugator flattened first, spelled out as u t_a^e u^-1."""
        out: list[Letter] = []
        for l in w:
            if l.curve.conj:
                u = self.flat_word(l.curve.conj)
                out.extend(u)
                out.append(Letter(Curve(l.curve.name), l.exp))
                out.extend(invert(u))
            else:
                out.append(l)
        return out

    def _lex_normal(self, letters: list[Letter]) -> list[Letter]:
        # Lexicographically least representative of the trace class: greedily
        # emit the smallest letter that commutes with everything before it.
        remaining = list(letters)
        out: list[Letter] = []
        while remaining:
            free = [
                i for i, l in enumerate(remaining)
                if all(self._names_disjoint(l.curve.name, m.curve.name) for m in remaining[:i])
            ]
            i = min(free, key=lambda i: (remaining[i].curve.name, remaining[i].exp))
            out.append(remaining.pop(i))
        return out

    def canonical_curve(self, curve: Curve) -> Curve:
        """w(a) with w reduced as a trace, its idle right-end letters dropped and
        written lexicographically least; one pass of each step suffices, as a
        reduced trace is unique and dropping a last letter leaves it reduced."""
        if not curve.conj:
            return curve
        cached = self._canonical_curve_cache.get(curve)
        if cached is not None:
            return cached
        disjoint = self._names_disjoint
        reduced: list[Letter] = []
        for l in self.flat_word(curve.conj):
            # the first letter l cannot commute back past cancels l if it is l's inverse
            i = len(reduced) - 1
            while i >= 0 and disjoint(l.curve.name, reduced[i].curve.name):
                i -= 1
            if i >= 0 and reduced[i].curve.name == l.curve.name and reduced[i].exp == -l.exp:
                del reduced[i]
            else:
                reduced.append(l)
        kept: list[Letter] = []
        for l in reversed(reduced):
            if not (disjoint(l.curve.name, curve.name)
                    and all(disjoint(l.curve.name, m.curve.name) for m in kept)):
                kept.append(l)
        letters = self._lex_normal(kept[::-1])
        # a normal form maps to itself, so canonical_letter reuses the letters on it
        canonical = Curve(curve.name, tuple(letters))
        canonical = self._canonical_curve_cache.setdefault(canonical, canonical)
        self._canonical_curve_cache[curve] = canonical
        return canonical

    def canonical_letter(self, l: Letter) -> Letter:
        if not l.curve.conj:
            return l
        curve = self.canonical_curve(l.curve)
        return l if curve is l.curve else Letter(curve, l.exp)

    def canonical_word(self, w: Word) -> Word:
        """Each letter's normal form; a plain letter is its own, and takes no call."""
        canonical = self.canonical_letter
        return tuple([canonical(l) if l.curve.conj else l for l in w])

    def words_equal(self, u: Word, v: Word) -> bool:
        return self.canonical_word(u) == self.canonical_word(v)

    # -- validation -------------------------------------------------------------

    def _unknown_name(self, w: Word) -> Optional[str]:
        """The first curve w names, in its conjugators too, that the registry lacks."""
        return next(
            (l.curve.name for l in self.flat_word(w) if l.curve.name not in self.curves),
            None,
        )

    def validate(self) -> list[Verdict]:
        """Each curve's data checks, then each declared identity u = v once,
        by one rule: inconclusive when u or v names a curve the registry
        lacks, refuted when image(u) != image(v) (or, for a defn:, when the
        stored class and flag are not those of the definition), and otherwise
        pi1.relator_verdict of u v^-1, exact in Mod(S2).  Images are products
        of transvections, so always symplectic, and no check asks for that."""
        from .pi1 import relator_verdict  # pi1 imports this module

        checks: list[Verdict] = []
        data_refutes: dict[str, str] = {}  # the defn: checks a curve's stored data refutes
        for c in self.curves.values():
            checks.append(Verdict.decided(
                f"flag:{c.name}", c.separating == (c.homology == hom.ZERO),
                f"separating flag and homology class disagree for {c.name}"))
            if not c.separating:
                checks.append(Verdict.decided(
                    f"primitive:{c.name}", hom.is_primitive(c.homology),
                    f"{c.name} class {c.homology} is not primitive"))
            if c.defn is not None and not self._unknown_name((Letter(c.defn),)) and (
                self.homology_class(c.defn) != c.homology
                or self.curves[c.defn.name].separating != c.separating
            ):
                data_refutes[f"defn:{c.name}"] = f"definition of {c.name} disagrees with stored data"

        def word(*names: str) -> Word:
            return tuple(map(letter, names))

        identities = [
            *((f"defn:{c.name}", word(c.name), (Letter(c.defn),))
              for c in self.curves.values() if c.defn is not None),
            *((f"lantern:{l.ident}", word(*l.lhs), word(*l.rhs)) for l in self.lanterns.values()),
            *((f"disjoint:{a},{b}", word(a, b), word(b, a))
              for a, b in sorted(map(sorted, self.disjoint_pairs))),
            *((f"braid:{a},{b}", word(a, b, a), word(b, a, b))
              for a, b in sorted(map(sorted, self.braid_pairs))),
            *((f"alias:{a.ident}", a.lhs, a.rhs) for a in self.aliases.values()),
            *((f"central:{ident},{n}", w + word(n), word(n) + w)
              for ident, w in self.central_words.items() for n in self.curves),
            *((f"relator:{ident}", w, ()) for ident, w in self.relators.items()),
        ]
        for name, u, v in identities:
            unknown = self._unknown_name(u + v)
            if unknown:
                checks.append(Verdict(name, INCONCLUSIVE, f"{name} names unknown curve {unknown}"))
            elif name in data_refutes or self.image(u) != self.image(v):
                checks.append(Verdict(name, REFUTED, data_refutes.get(name, "the image refutes")))
            else:
                status, detail = relator_verdict(self, u + invert(v))[1:]
                detail = {PROVED: None, REFUTED: "pi1 refutes"}.get(status, detail)
                checks.append(Verdict(name, status, detail))
        return checks

    @staticmethod
    def parse(text: str) -> "Registry":
        """The registry a text spells, in the format that this reader alone
        defines: per line a '#' comment, a curve ``NAME sep|nonsep
        h=(a1,b1,a2,b2) [def=[w](a)]``, a lantern ``IDENT: NAMES = NAMES``,
        the pairs ``disjoint NAME: NAMES`` or ``braid NAME: NAMES`` of NAME
        with each of NAMES, or the words ``alias IDENT: u = v``, ``central
        IDENT: w`` or ``relator IDENT: w``.  A malformed line, or a second
        declaration of a curve or an identity, raises ParseError."""
        from .dsl import parse_word

        curves: dict[str, CurveData] = {}
        lanterns: dict[str, LanternInstance] = {}
        pairs: dict[str, dict[frozenset[str], None]] = {"disjoint": {}, "braid": {}}
        words: dict[str, dict[str, tuple[Word, ...]]] = {"alias": {}, "central": {}, "relator": {}}
        curve_re = re.compile(
            r"^(\w+)\s+(sep|nonsep)\s+h=\(((?:\s*-?\d+\s*,){3}\s*-?\d+\s*)\)(?:\s+def=(.+))?$"
        )
        lant_re = re.compile(r"^(\w+):\s+(.+?)\s*=\s*(.+)$")
        pairs_re = re.compile(r"^(disjoint|braid)\s+(\w+):((?:\s+\w+)+)$")
        words_re = re.compile(
            r"^(alias|central|relator)\s+([\w-]+):\s+([^=]+?)(?:\s*=\s*([^=]+))?$"
        )
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            indent = len(raw) - len(raw.lstrip())  # parse_word counts columns from the raw line
            if m := curve_re.match(line):
                name, sep, h, defn = m.groups()
                vec = tuple(int(x) for x in h.split(","))
                d = None
                if defn:
                    w = parse_word(defn, line=lineno, col=indent + m.start(4))
                    if len(w) != 1 or w[0].exp != 1 or not w[0].curve.conj:
                        raise ParseError(f"bad def expression {defn!r}", lineno)
                    d = w[0].curve
                curve = CurveData(name, sep == "sep", vec, d)  # type: ignore[arg-type]
                _declare(curves, name, curve, f"curve {name}", lineno)
            elif m := lant_re.match(line):
                ident, lhs, rhs = m.groups()
                inst = LanternInstance(
                    ident, tuple(lhs.split()), tuple(rhs.split())  # type: ignore[arg-type]
                )
                _declare(lanterns, ident, inst, f"lantern {ident}", lineno)
            elif m := pairs_re.match(line):
                kind, a, names = m.groups()
                for b in names.split():
                    if a == b:
                        raise ParseError(f"{kind} pair of {a} with itself", lineno)
                    _declare(pairs[kind], frozenset((a, b)), None, f"{kind} pair {a},{b}", lineno)
            elif (m := words_re.match(line)) and (m[1] == "alias") == (m[4] is not None):
                sides = tuple(parse_word(m[i], line=lineno, col=indent + m.start(i))
                              for i in (3, 4) if m[i] is not None)
                _declare(words[m[1]], m[2], sides, f"{m[1]} {m[2]}", lineno)
            else:
                raise ParseError(f"cannot parse registry line {line!r}", lineno)
        return Registry(
            list(curves.values()), list(lanterns.values()), pairs["disjoint"], pairs["braid"],
            [AliasRelation(ident, *sides) for ident, sides in words["alias"].items()],
            {ident: w for ident, (w,) in words["central"].items()},
            {ident: w for ident, (w,) in words["relator"].items()},
        )


def _declare(table: dict, key, value, what: str, line: int) -> None:
    """table[key] = value, or a ParseError at ``line`` when ``what``, under
    that key, is declared already."""
    if key in table:
        raise ParseError(f"duplicate {what}", line)
    table[key] = value


@functools.cache
def standard_registry() -> Registry:
    """The atlas of the packaged corpus/standard.reg, its only copy."""
    from .fixtures import read_text  # fixtures imports this module

    return Registry.parse(read_text("standard.reg"))
