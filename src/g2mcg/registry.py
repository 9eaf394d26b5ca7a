"""The curve atlas of the genus-2 surface and its validation oracle.

The registry holds every named simple closed curve the calculus touches:
the twist chain c1..c5, the separating curve d bounding the c1-c2 handle,
the interior curves of the three embedded four-holed-sphere (lantern)
configurations, the Matsumoto fibration curves B0, B1, B2, and the
conjugated-copy curves Y1, Y2, Yc.  Each curve carries a separating flag
and an integer homology class in the basis (a1, b1, a2, b2).

Homology classes were fixed as follows.  The chain embedding
c1 -> a1, c2 -> b1, c3 -> a2 - a1, c4 -> b2, c5 -> a2 is a free choice
constrained only by the chain intersection pattern; validate() certifies
it against the full genus-2 presentation.  The lantern interior classes
(x, k, kb) are solved from the boundary multitwist equations by
lantern_solve; B0 and B1 come from a bounded exhaustive search over
primitive vectors with entries in [-2, 2] such that the Matsumoto word
maps to the identity and the cycle span has rank 2, which pins
(b1 + b2, a1 - b1 + a2 - b2) uniquely up to the handle-swap symmetry;
Y1 and Y2 are the images of B1 and B2 under the handle-swapping
involution composed with c4^-1 c3^-1 c2^-1 c1^-1, re-verified against the
conjugated relator.  Tests re-run all of these derivations.

The registry also curates the structural tables that the moves engine
consults: geometric disjointness (commute legality), braid-adjacent
pairs, central words, and alias relations.  Disjointness is conservative:
a pair absent from the table never commutes, even if the homology images
do.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from . import homology as hom
from .homology import Mat, Vec
from .words import (
    Curve,
    Letter,
    PositiveRelator,
    Word,
    concat,
    invert,
    letter,
    make_curve,
    power,
    word_str,
)


class UnknownCurve(KeyError):
    pass


class NotATransvection(ValueError):
    """The lantern residual is neither the identity nor a transvection."""


SEPARATING = "separating"  # sentinel returned by lantern_solve


@dataclass(frozen=True)
class CurveData:
    name: str
    separating: bool
    homology: Vec
    defn: Optional[Curve] = None  # defining expression, e.g. B2 = [c3^-1](x)


@dataclass(frozen=True)
class LanternInstance:
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
        return [tuple(letter(n) for n in names[r:] + names[:r]) for r in range(len(names))]

    def lhs_word(self, rotation: int = 0) -> Word:
        return self.rotations("lhs")[rotation]

    def rhs_word(self, rotation: int = 0) -> Word:
        return self.rotations("rhs")[rotation]


@dataclass(frozen=True)
class MappingClassSymbol:
    ident: str
    matrix: Mat
    expansion: Optional[Word] = None


@dataclass(frozen=True)
class AliasRelation:
    """Two words with equal homology image that may replace one another."""

    ident: str
    lhs: Word
    rhs: Word


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def render(self) -> str:
        lines = []
        for c in self.checks:
            mark = "pass" if c.ok else "FAIL"
            suffix = f"  ({c.detail})" if c.detail and not c.ok else ""
            lines.append(f"[{mark}] {c.name}{suffix}")
        return "\n".join(lines)


BASE_NAMES = ("c1", "c2", "c3", "c4", "c5")

# tau = t1 t2 t3 t4 t5^2 t4 t3 t2 t1, the hyperelliptic involution word.
TAU_NAMES = ("c1", "c2", "c3", "c4", "c5", "c5", "c4", "c3", "c2", "c1")


def _tau_word() -> Word:
    return tuple(letter(n) for n in TAU_NAMES)


def _std_curves() -> list[CurveData]:
    b2_defn = make_curve("x", (letter("c3", -1),))
    return [
        CurveData("c1", False, (1, 0, 0, 0)),
        CurveData("c2", False, (0, 1, 0, 0)),
        CurveData("c3", False, (-1, 0, 1, 0)),
        CurveData("c4", False, (0, 0, 0, 1)),
        CurveData("c5", False, (0, 0, 1, 0)),
        CurveData("d", True, (0, 0, 0, 0)),
        CurveData("x", False, (1, 0, 1, 0)),
        CurveData("k", False, (-1, 0, 2, 0)),
        CurveData("h", True, (0, 0, 0, 0)),
        CurveData("kb", False, (2, 0, -1, 0)),
        CurveData("hb", True, (0, 0, 0, 0)),
        CurveData("B0", False, (0, 1, 0, 1)),
        CurveData("B1", False, (1, -1, 1, -1)),
        CurveData("B2", False, (1, 0, 1, 0), defn=b2_defn),
        CurveData("Y1", False, (1, -2, 0, -1)),
        CurveData("Y2", False, (2, -2, 0, -1)),
        CurveData("Yc", True, (0, 0, 0, 0)),
    ]


def _std_lanterns() -> list[LanternInstance]:
    return [
        LanternInstance("L1", ("c1", "c1", "c5", "c5"), ("x", "c3", "d")),
        LanternInstance("L2", ("c1", "c1", "c3", "c3"), ("kb", "hb", "c5")),
        LanternInstance("L3", ("c3", "c3", "c5", "c5"), ("c1", "k", "h")),
    ]


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

    def __init__(
        self,
        curves: Sequence[CurveData],
        lanterns: Sequence[LanternInstance],
        disjoint_pairs: Optional[set[frozenset[str]]] = None,
    ) -> None:
        self.curves: dict[str, CurveData] = {c.name: c for c in curves}
        self.lanterns: dict[str, LanternInstance] = {l.ident: l for l in lanterns}
        self.disjoint_pairs = (
            disjoint_pairs if disjoint_pairs is not None else _std_disjoint(lanterns)
        )
        self.braid_pairs = {frozenset((f"c{i}", f"c{i+1}")) for i in range(1, 5)}
        # Safe to memoize: a registry is never changed after __init__
        # (the with_* copies are new registries with empty caches).
        self._letter_matrix_cache: dict[Letter, Mat] = {}
        self._canonical_curve_cache: dict[Curve, Curve] = {}
        self.central_words: tuple[Word, ...] = (_tau_word(),)
        self.aliases: dict[str, AliasRelation] = {
            a.ident: a for a in self._std_aliases()
        }
        self.symbols: dict[str, MappingClassSymbol] = self._std_symbols()

    # -- construction helpers ------------------------------------------------

    def _std_aliases(self) -> list[AliasRelation]:
        out = []
        if "d" in self.curves:
            out.append(
                AliasRelation("chain", (letter("d"),), power(tuple(letter(n) for n in ("c1", "c2")), 6))
            )
        if "B2" in self.curves and self.curves["B2"].defn is not None:
            out.append(
                AliasRelation("B2def", (letter("B2"),), (Letter(self.curves["B2"].defn),))
            )
        if all(n in self.curves for n in ("B0", "B1", "B2", "Y1", "Y2", "Yc")):
            mat = power(tuple(letter(n) for n in ("B0", "B1", "B2", "d")), 2)
            conj = concat(
                (letter("c1"), letter("c1")),
                power(tuple(letter(n) for n in ("Y1", "Y2", "Yc")), 2),
            )
            out.append(AliasRelation("matconj", mat, conj))
        return out

    def _std_symbols(self) -> dict[str, MappingClassSymbol]:
        if not all(n in self.curves for n in BASE_NAMES):
            return {}
        phi_word = tuple(letter(n, -1) for n in ("c4", "c3", "c2", "c1"))
        phi = self.image(phi_word)
        lam = hom.mat_mul(_IOTA, phi)
        tau = _tau_word()
        return {
            "iota": MappingClassSymbol("iota", _IOTA),
            "phi": MappingClassSymbol("phi", phi, phi_word),
            "lambda": MappingClassSymbol("lambda", lam),
            "tau": MappingClassSymbol("tau", self.image(tau), tau),
        }

    def with_homology(self, name: str, vec: Vec) -> "Registry":
        """Copy with one curve's class replaced (for perturbation tests)."""
        if name not in self.curves:
            raise UnknownCurve(name)
        curves = [
            replace(c, homology=vec) if c.name == name else c
            for c in self.curves.values()
        ]
        return Registry(curves, list(self.lanterns.values()), set(self.disjoint_pairs))

    def with_separating(self, name: str, flag: bool) -> "Registry":
        if name not in self.curves:
            raise UnknownCurve(name)
        curves = [
            replace(c, separating=flag) if c.name == name else c
            for c in self.curves.values()
        ]
        return Registry(curves, list(self.lanterns.values()), set(self.disjoint_pairs))

    def without_lantern(self, ident: str) -> "Registry":
        rest = [l for l in self.lanterns.values() if l.ident != ident]
        return Registry(list(self.curves.values()), rest, set(self.disjoint_pairs))

    # -- basic queries -------------------------------------------------------

    def data(self, name: str) -> CurveData:
        try:
            return self.curves[name]
        except KeyError:
            raise UnknownCurve(name) from None

    def separating(self, curve: Curve) -> bool:
        return self.data(curve.name).separating

    def homology_class(self, curve: Curve) -> Vec:
        v = self.data(curve.name).homology
        for l in reversed(curve.conj):
            v = hom.mat_vec(self.letter_matrix(l), v)
        return v

    def letter_matrix(self, l: Letter) -> Mat:
        cached = self._letter_matrix_cache.get(l)
        if cached is not None:
            return cached
        v = self.homology_class(l.curve)
        m = hom.transvection(v) if l.exp == 1 else hom.transvection_inv(v)
        self._letter_matrix_cache[l] = m
        return m

    def image(self, w: Word) -> Mat:
        """Homomorphic image in Sp(4, Z); the word's letters multiply in order."""
        m = hom.IDENTITY
        for l in w:
            m = hom.mat_mul(m, self.letter_matrix(l))
        return m

    def ab_class(self, w: Word | PositiveRelator) -> int:
        """Image in the abelianization Z/10: nonseparating letters weigh 1,
        separating letters weigh 2 (the chain relation writes a separating
        twist as twelve chain twists, and 12 = 2 mod 10)."""
        if isinstance(w, PositiveRelator):
            w = w.word
        total = 0
        for l in w:
            weight = 2 if self.separating(l.curve) else 1
            total += weight * l.exp
        return total % 10

    def braid_adjacent(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.braid_pairs

    # -- disjointness and the semantic normal form ----------------------------

    def _names_disjoint(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.disjoint_pairs

    def _support(self, curve: Curve) -> set[str]:
        names = {curve.name}
        for l in curve.conj:
            names |= self._support(l.curve)
        return names

    def disjoint(self, a: Curve, b: Curve) -> bool:
        """Conservative geometric disjointness.

        Equal conjugators peel off (a homeomorphism preserves disjointness);
        otherwise every curve supporting one side must be disjoint from every
        curve supporting the other.
        """
        a, b = self.canonical_curve(a), self.canonical_curve(b)
        if a.conj and a.conj == b.conj:
            return self._names_disjoint(a.name, b.name)
        return all(
            self._names_disjoint(x, y)
            for x in self._support(a)
            for y in self._support(b)
        )

    def _flat_conjugator(self, w: Word) -> list[Letter]:
        """Expand conjugate letters so a conjugating word is over plain curves."""
        out: list[Letter] = []
        for l in w:
            if l.curve.is_conjugate:
                u = self._flat_conjugator(l.curve.conj)
                out.extend(u)
                out.append(Letter(Curve(l.curve.name), l.exp))
                out.extend(Letter(m.curve, -m.exp) for m in reversed(u))
            else:
                out.append(l)
        return out

    def _trace_reduce(self, letters: list[Letter]) -> list[Letter]:
        # Cancel inverse pairs separated only by letters disjoint from them.
        changed = True
        while changed:
            changed = False
            n = len(letters)
            for i in range(n):
                for j in range(i + 1, n):
                    if letters[i].curve == letters[j].curve and letters[i].exp == -letters[j].exp:
                        between = letters[i + 1 : j]
                        if all(
                            self._names_disjoint(letters[i].curve.name, m.curve.name)
                            for m in between
                        ):
                            del letters[j]
                            del letters[i]
                            changed = True
                            break
                if changed:
                    break
        return letters

    def _strip_idle(self, letters: list[Letter], inner: str) -> list[Letter]:
        # Drop any conjugator letter that commutes past everything to its
        # right and fixes the inner curve: it contributes nothing.
        changed = True
        while changed:
            changed = False
            for i in range(len(letters) - 1, -1, -1):
                l = letters[i]
                if not self._names_disjoint(l.curve.name, inner):
                    continue
                if all(
                    self._names_disjoint(l.curve.name, m.curve.name)
                    for m in letters[i + 1 :]
                ):
                    del letters[i]
                    changed = True
                    break
        return letters

    def _lex_normal(self, letters: list[Letter]) -> list[Letter]:
        # Lexicographically least representative of the trace class: greedily
        # emit the smallest letter that commutes with everything before it.
        remaining = list(letters)
        out: list[Letter] = []
        while remaining:
            best = None
            for i, l in enumerate(remaining):
                if all(
                    self._names_disjoint(l.curve.name, m.curve.name)
                    for m in remaining[:i]
                ):
                    key = (l.curve.name, l.exp)
                    if best is None or key < best[0]:
                        best = (key, i)
            assert best is not None
            out.append(remaining.pop(best[1]))
        return out

    def canonical_curve(self, curve: Curve) -> Curve:
        if not curve.conj:
            return curve
        cached = self._canonical_curve_cache.get(curve)
        if cached is not None:
            return cached
        letters = self._flat_conjugator(curve.conj)
        n = None
        while n != len(letters):
            n = len(letters)
            letters = self._trace_reduce(letters)
            letters = self._strip_idle(letters, curve.name)
        letters = self._lex_normal(letters)
        canonical = Curve(curve.name, tuple(letters))
        self._canonical_curve_cache[curve] = canonical
        return canonical

    def canonical_letter(self, l: Letter) -> Letter:
        return Letter(self.canonical_curve(l.curve), l.exp)

    def canonical_word(self, w: Word) -> Word:
        return tuple(self.canonical_letter(l) for l in w)

    def words_equal(self, u: Word, v: Word) -> bool:
        return self.canonical_word(u) == self.canonical_word(v)

    # -- lantern arithmetic ----------------------------------------------------

    def lantern_solve(
        self, boundary: Sequence[Curve], known: Sequence[Curve]
    ) -> Vec | str:
        """Solve for the missing interior twist of a lantern configuration.

        ``known`` lists the known interior curves in the cyclic order that
        follows the unknown one.  Returns the class of the unknown curve (up
        to sign) or SEPARATING when the residual is the identity.
        """
        b = hom.IDENTITY
        for c in boundary:
            b = hom.mat_mul(b, hom.transvection(self.homology_class(c)))
        for c in reversed(known):
            b = hom.mat_mul(b, hom.transvection_inv(self.homology_class(c)))
        if b == hom.IDENTITY:
            return SEPARATING
        v = hom.transvection_direction(b)
        if v is None:
            raise NotATransvection(
                "residual is neither identity nor a transvection; registry inconsistent"
            )
        return v

    # -- validation -------------------------------------------------------------

    def validate(self) -> ValidationReport:
        checks: list[CheckResult] = []

        def add(name: str, ok: bool, detail: str = "") -> None:
            checks.append(CheckResult(name, ok, detail))

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
                add(
                    f"defn:{c.name}",
                    self.homology_class(c.defn) == c.homology
                    and self.separating(c.defn) == c.separating,
                    f"definition of {c.name} disagrees with stored data",
                )

        if all(n in self.curves for n in BASE_NAMES):
            t = {n: self.image((letter(n),)) for n in BASE_NAMES}
            for i in range(1, 6):
                for j in range(i + 2, 6):
                    a, b = t[f"c{i}"], t[f"c{j}"]
                    add(f"eq01:c{i},c{j}", hom.mat_mul(a, b) == hom.mat_mul(b, a))
            for i in range(1, 5):
                a, b = t[f"c{i}"], t[f"c{i+1}"]
                add(
                    f"eq02:c{i},c{i+1}",
                    hom.mat_mul(hom.mat_mul(a, b), a) == hom.mat_mul(hom.mat_mul(b, a), b),
                )
            tau = self.image(_tau_word())
            add("eq03:tau^2", hom.mat_mul(tau, tau) == hom.IDENTITY)
            add("eq03:tau=-I", tau == hom.mat_neg(hom.IDENTITY))
            chain5 = tuple(letter(n) for n in BASE_NAMES)
            add("eq04:(c1..c5)^6", self.image(power(chain5, 6)) == hom.IDENTITY)
            for i in range(1, 6):
                m = t[f"c{i}"]
                add(f"eq05:tau,c{i}", hom.mat_mul(tau, m) == hom.mat_mul(m, tau))
            if "d" in self.curves:
                add(
                    "chain:d=(c1c2)^6",
                    self.image(power((letter("c1"), letter("c2")), 6))
                    == self.image((letter("d"),)),
                )

        for inst in self.lanterns.values():
            add(
                f"lantern:{inst.ident}:image",
                self.image(inst.lhs_word()) == self.image(inst.rhs_word()),
                f"{inst.ident} sides have different homology image",
            )
            lhs_flags = [self.data(n).separating for n in inst.lhs]
            rhs_flags = [self.data(n).separating for n in inst.rhs]
            add(
                f"lantern:{inst.ident}:flags",
                not any(lhs_flags) and sorted(rhs_flags) == [False, False, True],
                f"{inst.ident} separating-flag pattern is wrong",
            )

        if all(n in self.curves for n in ("B0", "B1", "B2", "d")):
            mat = power(tuple(letter(n) for n in ("B0", "B1", "B2", "d")), 2)
            add("relator:matsumoto", self.image(mat) == hom.IDENTITY)
        if all(n in self.curves for n in ("Y1", "Y2", "Yc", "c1")):
            conj = concat(
                (letter("c1"), letter("c1")),
                power(tuple(letter(n) for n in ("Y1", "Y2", "Yc")), 2),
            )
            add("relator:matsumoto-conj", self.image(conj) == hom.IDENTITY)

        if "lambda" in self.symbols and "B0" in self.curves:
            lam = self.symbols["lambda"].matrix
            img = hom.mat_vec(lam, self.data("B0").homology)
            c1v = self.data("c1").homology
            add(
                "symbol:lambda(B0)=c1",
                img == c1v or img == tuple(-x for x in c1v),
            )
        for sym in self.symbols.values():
            if sym.expansion is not None:
                add(
                    f"symbol:{sym.ident}:expansion",
                    self.image(sym.expansion) == sym.matrix,
                )
            add(f"symbol:{sym.ident}:symplectic", hom.is_symplectic(sym.matrix))

        for pair in sorted(self.disjoint_pairs, key=sorted):
            a, b = sorted(pair)
            if a in self.curves and b in self.curves:
                ma = self.image((letter(a),))
                mb = self.image((letter(b),))
                add(
                    f"disjoint:{a},{b}",
                    hom.mat_mul(ma, mb) == hom.mat_mul(mb, ma),
                    "declared disjoint pair has non-commuting images",
                )

        for alias in self.aliases.values():
            add(
                f"alias:{alias.ident}",
                self.image(alias.lhs) == self.image(alias.rhs),
            )
        for i, cw in enumerate(self.central_words):
            m = self.image(cw)
            add(
                f"central:{i}",
                all(
                    hom.mat_mul(m, self.image((letter(n),)))
                    == hom.mat_mul(self.image((letter(n),)), m)
                    for n in self.curves
                ),
            )

        add("coverage:lanterns", set(self.lanterns) == {"L1", "L2", "L3"},
            "expected exactly the three standard lantern instances")
        return ValidationReport(checks)

    # -- text serialization ------------------------------------------------------

    def serialize(self) -> str:
        lines = ["# genus-2 curve registry"]
        for c in self.curves.values():
            sep = "sep" if c.separating else "nonsep"
            h = ",".join(str(x) for x in c.homology)
            line = f"{c.name} {sep} h=({h})"
            if c.defn is not None:
                line += f" def={c.defn!r}"
            lines.append(line)
        for inst in self.lanterns.values():
            lines.append(
                f"{inst.ident}: {' '.join(inst.lhs)} = {' '.join(inst.rhs)}"
            )
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "Registry":
        """Read the text of serialize(); a malformed line raises ParseError."""
        from .dsl import ParseError, parse_word

        curves: list[CurveData] = []
        lanterns: list[LanternInstance] = []
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
                    dm = re.match(r"^\[(.+)\]\((\w+)\)$", defn.strip())
                    if not dm:
                        raise ParseError(f"bad def expression {defn!r}", lineno)
                    d = make_curve(dm.group(2), parse_word(dm.group(1), line=lineno))
                curves.append(CurveData(name, sep == "sep", vec, d))  # type: ignore[arg-type]
                continue
            m = lant_re.match(line)
            if m:
                ident, lhs, rhs = m.groups()
                lanterns.append(
                    LanternInstance(ident, tuple(lhs.split()), tuple(rhs.split()))  # type: ignore[arg-type]
                )
                continue
            raise ParseError(f"cannot parse registry line {line!r}", lineno)
        return Registry(curves, lanterns)


@functools.cache
def standard_registry() -> Registry:
    return Registry(_std_curves(), _std_lanterns())
