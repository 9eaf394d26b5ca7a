"""The curve atlas of the genus-2 surface and its validation oracle.

The registry holds every named simple closed curve the calculus touches:
the twist chain c1..c5, the separating curve d bounding the c1-c2 handle,
the interior curves of the three embedded four-holed-sphere (lantern)
configurations, the Matsumoto fibration curves B0, B1, B2, and the
conjugated-copy curves Y1, Y2, Yc.  Each curve carries a separating flag
and an integer homology class in the basis (a1, b1, a2, b2).

The standard atlas is data, kept in one place: the packaged text file
corpus/standard.reg, in the format Registry.parse reads, which is the
only definition of that format.  standard_registry() parses that file; a
--registry file in the same format replaces it.

validate() certifies every class in the file, each identity once, by exact
checks whose Verdicts are proved or refuted (inconclusive when a defn: or
lantern: check names a missing curve, as it compares nothing):
  - the chain c1 -> a1, c2 -> b1, c3 -> a2 - a1, c4 -> b2, c5 -> a2:
    eq02:*, eq03:*, eq04:* and disjoint:ci,cj, the genus-2 presentation;
  - the lantern interior curves x, k and kb: lantern:*:image, the two
    sides of each lantern have one image, and primitive:*;
  - the separating curves d, h and hb: flag:*, a curve is separating
    exactly when its class is zero, and lantern:*:flags;
  - B0, B1, Y1 and Y2: relator:matsumoto and relator:matsumoto-conj, both
    Matsumoto words map to the identity, and symbol:lambda(B0)=c1, the
    handle-swapping involution composed with c4^-1 c3^-1 c2^-1 c1^-1
    takes B0 to c1 up to sign;
  - every curve but the chain and d: defn:*, its def= u(a) has the class
    and flag stored, and pi1 acts on the curve through it.
disjoint:ci,cj, central:0 and alias:chain also cover chain curves two or
more apart commuting, tau commuting with every curve of the registry (17
on standard.reg), and d = (c1 c2)^6.

The registry also curates the structural tables that the moves engine
consults: geometric disjointness (commute legality), braid-adjacent
pairs, central words, and alias relations.  Disjointness is conservative:
a pair absent from the table never commutes, even if the homology images
do.

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
    """Two words with equal homology image that may replace one another."""

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


BASE_NAMES = ("c1", "c2", "c3", "c4", "c5")


def _word(names: str) -> Word:
    return tuple(letter(n) for n in names.split())


# tau = t1 t2 t3 t4 t5^2 t4 t3 t2 t1, the hyperelliptic involution word.
TAU: Word = _word("c1 c2 c3 c4 c5 c5 c4 c3 c2 c1")
# The Matsumoto relator (B0 B1 B2 d)^2 and its conjugated form c1^2 (Y1 Y2 Yc)^2.
MATSUMOTO: Word = _word("B0 B1 B2 d") * 2
MATSUMOTO_CONJ: Word = _word("c1 c1") + _word("Y1 Y2 Yc") * 2


def _std_disjoint(lanterns: Iterable[LanternInstance]) -> set[frozenset[str]]:
    pairs: set[frozenset[str]] = set()
    # Chain curves with index distance >= 2 are disjoint.
    for i in range(1, 6):
        for j in range(i + 2, 6):
            pairs.add(frozenset((f"c{i}", f"c{j}")))
    # d bounds the c1-c2 handle: disjoint from every chain curve but c3.
    for n in ("c1", "c2", "c4", "c5"):
        pairs.add(frozenset(("d", n)))
    # Within each lantern, boundary curves are disjoint from each other and
    # from the interior curves.  Interior curves pairwise intersect.
    for inst in lanterns:
        boundary = set(inst.lhs)
        for a in boundary:
            for b in boundary:
                if a != b:
                    pairs.add(frozenset((a, b)))
            for b in inst.rhs:
                if a != b:
                    pairs.add(frozenset((a, b)))
    return pairs


_IOTA: Mat = (
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 0, 0, 0),
    (0, 1, 0, 0),
)


class Registry:
    """Read-only atlas built once; all methods are pure queries."""

    def __init__(self, curves: Sequence[CurveData], lanterns: Sequence[LanternInstance]) -> None:
        self.curves: dict[str, CurveData] = {c.name: c for c in curves}
        self.lanterns: dict[str, LanternInstance] = {l.ident: l for l in lanterns}
        self.disjoint_pairs = _std_disjoint(lanterns)
        self.braid_pairs = {frozenset((f"c{i}", f"c{i+1}")) for i in range(1, 5)}
        # (lantern, side) -> the side's rotations, built once for the Lantern move
        self.lantern_rotations = {(l.ident, side): tuple(l.rotations(side))
                                  for l in self.lanterns.values() for side in ("lhs", "rhs")}
        # Safe to memoize: a registry is never changed after __init__
        # (replace() builds a new registry with empty caches).  A letter
        # t_u^e maps to (u, e Ju), all that image uses of it.
        self._twist_cache: dict[Letter, tuple[Vec, Vec]] = {}
        self._canonical_curve_cache: dict[Curve, Curve] = {}
        # declare a central word or an alias only when the registry has every curve it names
        self.central_words: tuple[Word, ...] = tuple(w for w in (TAU,) if not self._unknown_name(w))
        self.aliases: dict[str, AliasRelation] = {
            a.ident: a for a in self._std_aliases() if not self._unknown_name(a.lhs + a.rhs)
        }

    # -- construction helpers ------------------------------------------------

    def _unknown_name(self, w: Word) -> Optional[str]:
        """The first curve w names, in its conjugators too, that the registry lacks."""
        return next(
            (l.curve.name for l in self.flat_word(w) if l.curve.name not in self.curves),
            None,
        )

    def _std_aliases(self) -> list[AliasRelation]:
        out = [AliasRelation("chain", _word("d"), _word("c1 c2") * 6)]
        if "B2" in self.curves and self.curves["B2"].defn is not None:
            out.append(AliasRelation("B2def", _word("B2"), (Letter(self.curves["B2"].defn),)))
        out.append(AliasRelation("matconj", MATSUMOTO, MATSUMOTO_CONJ))
        return out

    def replace(
        self, name: Optional[str] = None, *, drop_lantern: Optional[str] = None, **fields
    ) -> "Registry":
        """A new registry, with empty caches, in which curve ``name`` takes the
        given CurveData ``fields`` (homology=, separating=, defn=) and lantern
        ``drop_lantern`` is left out; perturbation tests build broken atlases
        this way."""
        if name is not None and name not in self.curves:
            raise UnknownCurve(name)
        curves = [
            c._replace(**fields) if c.name == name else c
            for c in self.curves.values()
        ]
        lanterns = [l for l in self.lanterns.values() if l.ident != drop_lantern]
        return Registry(curves, lanterns)

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

    def validate(self) -> list[Verdict]:
        """Check the atlas in Sp(4,Z), each identity once, as image(u) == image(v)
        for two words (v = () for a relator): disjoint:ci,cj covers chain curves
        two or more apart commuting, central:0 tau commuting with every curve,
        and alias:chain d = (c1 c2)^6.  Images are products of transvections,
        so always symplectic, and no check asks for that.
        A defn: or lantern: check whose words name a missing curve compares
        nothing and is inconclusive."""
        checks: list[Verdict] = []

        def add(name: str, ok: bool, detail: Optional[str] = None) -> None:
            checks.append(Verdict.decided(name, ok, detail))

        def undecided(name: str, detail: str) -> None:
            checks.append(Verdict(name, INCONCLUSIVE, detail))

        def same(name: str, u: Word, v: Word = (), detail: Optional[str] = None) -> None:
            add(name, self.image(u) == self.image(v), detail)

        for c in self.curves.values():
            zero = c.homology == hom.ZERO
            add(
                f"flag:{c.name}",
                c.separating == zero,
                f"separating flag and homology class disagree for {c.name}",
            )
            if not c.separating:
                add(
                    f"primitive:{c.name}",
                    hom.is_primitive(c.homology),
                    f"{c.name} class {c.homology} is not primitive",
                )
            if c.defn is not None:
                unknown = self._unknown_name((Letter(c.defn),))
                if unknown:
                    undecided(f"defn:{c.name}", f"definition of {c.name} names unknown curve {unknown}")
                else:
                    add(
                        f"defn:{c.name}",
                        self.homology_class(c.defn) == c.homology
                        and self.data(c.defn.name).separating == c.separating,
                        f"definition of {c.name} disagrees with stored data",
                    )

        if all(n in self.curves for n in BASE_NAMES):
            for i in range(1, 5):
                a, b = f"c{i}", f"c{i+1}"
                same(f"eq02:{a},{b}", _word(f"{a} {b} {a}"), _word(f"{b} {a} {b}"))
            same("eq03:tau^2", TAU * 2)
            add("eq03:tau=-I", self.image(TAU) == hom.mat_neg(hom.IDENTITY))
            same("eq04:(c1..c5)^6", _word(" ".join(BASE_NAMES)) * 6)

        for inst in self.lanterns.values():
            lhs, rhs = inst.rotations("lhs")[0], inst.rotations("rhs")[0]
            unknown = self._unknown_name(lhs + rhs)
            if unknown:
                detail = f"{inst.ident} names unknown curve {unknown}"
                undecided(f"lantern:{inst.ident}:image", detail)
                undecided(f"lantern:{inst.ident}:flags", detail)
                continue
            same(f"lantern:{inst.ident}:image", lhs, rhs,
                 f"{inst.ident} sides have different homology image")
            lhs_flags = [self.data(n).separating for n in inst.lhs]
            rhs_flags = [self.data(n).separating for n in inst.rhs]
            add(
                f"lantern:{inst.ident}:flags",
                not any(lhs_flags) and sorted(rhs_flags) == [False, False, True],
                f"{inst.ident} separating-flag pattern is wrong",
            )

        if all(n in self.curves for n in ("B0", "B1", "B2", "d")):
            same("relator:matsumoto", MATSUMOTO)
        if all(n in self.curves for n in ("Y1", "Y2", "Yc", "c1")):
            same("relator:matsumoto-conj", MATSUMOTO_CONJ)

        if all(n in self.curves for n in (*BASE_NAMES, "B0")):
            # lambda = iota . phi, phi the image of c4^-1 c3^-1 c2^-1 c1^-1
            phi = self.image(tuple(letter(n, -1) for n in ("c4", "c3", "c2", "c1")))
            img = hom.mat_vec(_IOTA, hom.mat_vec(phi, self.data("B0").homology))
            c1v = self.data("c1").homology
            add("symbol:lambda(B0)=c1", img == c1v or img == tuple(-x for x in c1v))

        for pair in sorted(self.disjoint_pairs, key=sorted):
            a, b = sorted(pair)
            if a in self.curves and b in self.curves:
                same(f"disjoint:{a},{b}", _word(f"{a} {b}"), _word(f"{b} {a}"),
                     "declared disjoint pair has non-commuting images")

        for alias in self.aliases.values():
            same(f"alias:{alias.ident}", alias.lhs, alias.rhs)
        for i, cw in enumerate(self.central_words):
            add(f"central:{i}", all(self.image(cw + (letter(n),)) == self.image((letter(n),) + cw)
                                    for n in self.curves))

        add("coverage:lanterns", set(self.lanterns) == {"L1", "L2", "L3"},
            "expected exactly the three standard lantern instances")
        return checks

    @staticmethod
    def parse(text: str) -> "Registry":
        """The registry a text spells, in the format that this reader alone
        defines: per line a '#' comment, a curve ``NAME sep|nonsep
        h=(a1,b1,a2,b2) [def=[w](a)]`` or a lantern ``IDENT: NAMES = NAMES``.
        A malformed line raises ParseError."""
        from .dsl import parse_word

        curves: dict[str, CurveData] = {}
        lanterns: dict[str, LanternInstance] = {}
        curve_re = re.compile(
            r"^(\w+)\s+(sep|nonsep)\s+h=\(((?:\s*-?\d+\s*,){3}\s*-?\d+\s*)\)(?:\s+def=(.+))?$"
        )
        lant_re = re.compile(r"^(\w+):\s+(.+?)\s*=\s*(.+)$")
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            m = curve_re.match(line)
            if m:
                name, sep, h, defn = m.groups()
                vec = tuple(int(x) for x in h.split(","))
                d = None
                if defn:
                    # parse_word counts columns from the start of the raw line
                    w = parse_word(defn, line=lineno, col=len(raw) - len(raw.lstrip()) + m.start(4))
                    if len(w) != 1 or w[0].exp != 1 or not w[0].curve.conj:
                        raise ParseError(f"bad def expression {defn!r}", lineno)
                    d = w[0].curve
                if name in curves:
                    raise ParseError(f"duplicate curve {name}", lineno)
                curves[name] = CurveData(name, sep == "sep", vec, d)  # type: ignore[arg-type]
                continue
            m = lant_re.match(line)
            if m:
                ident, lhs, rhs = m.groups()
                if ident in lanterns:
                    raise ParseError(f"duplicate lantern {ident}", lineno)
                lanterns[ident] = LanternInstance(
                    ident, tuple(lhs.split()), tuple(rhs.split())  # type: ignore[arg-type]
                )
                continue
            raise ParseError(f"cannot parse registry line {line!r}", lineno)
        return Registry(list(curves.values()), list(lanterns.values()))


@functools.cache
def standard_registry() -> Registry:
    """The atlas of the packaged corpus/standard.reg, its only copy."""
    from .fixtures import read_text  # fixtures imports this module

    return Registry.parse(read_text("standard.reg"))
