"""Action of twist words on the genus-2 surface group: a stronger oracle
than homology, able to separate words with equal symplectic image.

The surface group is <a, b, c, d | a b a^-1 b^-1 c d c^-1 d^-1> with
(a, b) the meridian/longitude pair of the first handle and (c, d) of the
second; elements are strings, uppercase meaning inverse.  Words in this
group are compared through Dehn's algorithm: the relator has piece length
one, so replacing any subword longer than half of a cyclic rotation of the
relator by the complementary shorter piece, iterated with free reduction,
shrinks every trivial word to the empty string.  A subword of two or more
letters lies in at most one of the 16 rotations of the relator and its
inverse, so one table gives each segment's complement.

A twist word is a relator in Mod(S2) exactly when its action on the surface
group is inner (Dehn-Nielsen-Baer; Farb-Margalit, Primer, ch. 8), which
``inner_conjugator`` decides exactly; ``relator_verdict`` says so as a
Verdict, inconclusive when a curve has no action.  The
relator's pieces have length one, so the presentation is C'(1/7) and a
cyclically Dehn-reduced conjugate of a generator is the generator itself
(Lyndon-Schupp, ch. V); the centralizer of a generator is the cyclic group
it generates, which leaves one power to find before the last two
generators decide.

The twist action table was reconstructed from the planar two-handle
picture: each chain twist inserts the based twist-curve word into the
generators crossing it once, and the middle chain curve, whose based
representative is b a^-1 b^-1 c, additionally conjugates the second
meridian because every arc from the basepoint to it crosses the twist
annulus, and d, based as the first handle's commutator abAB, conjugates a
and b by it.  The table is accepted because the whole genus-2 presentation
holds for it exactly: braid relations for adjacent twists, commutation
for distant ones, the involution word squaring to the identity, the
30-twist chain relator acting as the identity, t_d acting as (c1 c2)^6,
and every abelianized action equal to the homology transvection.

``word_action`` keeps the images of the generators and of their inverses
in one dict and applies the letters of the flat word one at a time, each
as its twist's steps: first the image of the inserted curve word g, the
product of its letters' images (held already when g is one letter), then
each moved generator's image, the product of its template's pieces (its
own image, g's and g's inverse) passed once through the rewrite loop of
Dehn's algorithm.  A product joins freely reduced pieces at their seams:
the tail of the product so far that cancels the head of the next piece
is its common tail with that piece's inverse, which the dict holds.
Free reduction is confluent, a word having one freely reduced form
whatever the order its pairs cancel in, so the loop sees the string it
would see if the substituted template were freely reduced whole, and the
images are those of composing the twist automorphisms one at a time.
The image of g stays freely reduced only: Dehn-reducing it first can
spell the images another, equal, way.
"""

from __future__ import annotations

import re
from typing import Optional

from . import homology as hom
from .homology import Mat
from .registry import INCONCLUSIVE, PROVED, REFUTED, Registry, Verdict
from .words import Letter, Word

GENS = "abcd"
RELATOR = "abABcdCD"


class MissingAutomorphism(KeyError):
    """A letter's curve has no surface-group action, in the table or by its definition."""


def inverse(w: str) -> str:
    return w[::-1].swapcase()


_CANCEL = re.compile("aA|Aa|bB|Bb|cC|Cc|dD|Dd")


def free_reduce(w: str) -> str:
    # Widen each leftmost cancelling pair; the word left of the cut is reduced.
    m = _CANCEL.search(w)
    while m:
        lo, hi = m.span()
        while lo and hi < len(w) and w[lo - 1] == w[hi].swapcase():
            lo -= 1
            hi += 1
        w = w[:lo] + w[hi:]
        m = _CANCEL.search(w, lo)
    return w


_ROTATIONS = tuple(
    rho[r:] + rho[:r] for rho in (RELATOR, inverse(RELATOR)) for r in range(len(RELATOR))
)

# Segment of length 4..7 of a rotation -> the inverse of the rest of it;
# one alternation for each length that a rewrite shortens.
_SEGMENTS: dict[str, str] = {
    rho[:n]: inverse(rho[n:]) for rho in _ROTATIONS for n in range(4, len(RELATOR))
}
_SCAN7, _SCAN6, _SCAN5 = (
    re.compile("|".join(seg for seg in _SEGMENTS if len(seg) == n)) for n in (7, 6, 5)
)


def dehn_reduce(w: str) -> str:
    """Dehn's algorithm: while a subword is more than half a relator
    rotation, replace the leftmost one of the greatest length by the shorter
    complement, with free reduction throughout."""
    return _dehn_rewrite(free_reduce(w))


def _dehn_rewrite(w: str) -> str:
    # The rewrite loop of dehn_reduce, on a freely reduced w.  A segment of
    # length 6 or 7 starts with one of length 5, so the longer scans start
    # at its hit.
    m = _SCAN5.search(w)
    while m:
        m = _SCAN7.search(w, m.start()) or _SCAN6.search(w, m.start()) or m
        w = free_reduce(w[: m.start()] + _SEGMENTS[m[0]] + w[m.end() :])
        m = _SCAN5.search(w)
    return w


def elements_equal(u: str, v: str) -> bool:
    return dehn_reduce(u + inverse(v)) == ""


# -- cyclic words and conjugacy ---------------------------------------------------


def _cyclic_reduce(w: str) -> tuple[str, str]:
    """(cyclic form, conjugator p) with w = p . cyc . p^-1."""
    w = dehn_reduce(w)
    p = ""
    while len(w) >= 2 and w[0] == w[-1].swapcase():
        p += w[0]
        w = dehn_reduce(w[1:-1])
    return w, p


def _cyclic_dehn_reduce(w: str) -> tuple[str, str]:
    """(cyclic form, conjugator p) with w = p . cyc . p^-1, where cyc is
    cyclically reduced and holds no relator segment of 5 or more letters,
    not even one across its seam: rotate such a segment inside and reduce."""
    cyc, p = _cyclic_reduce(w)
    while m := _SCAN5.search(cyc + cyc[:4]):  # cyc is Dehn-reduced: a hit crosses the seam
        head = cyc[: m.start()]
        cyc, q = _cyclic_reduce(cyc[m.start() :] + head)
        p += head + q
    return cyc, p


def _half_relator_variants(w: str) -> list[str]:
    # Subwords of length exactly half the relator admit an equal-length
    # replacement; the closure of these catches the geodesic ambiguity.
    out = []
    for i in range(len(w) - 3):
        rep = _SEGMENTS.get(w[i : i + 4])
        if rep is not None:
            cand = free_reduce(w[:i] + rep + w[i + 4 :])
            if len(cand) == len(w):
                out.append(cand)
    return out


CAP = 4096  # forms per closure


def cyclic_forms(w: str, cap: int = CAP) -> frozenset[str]:
    """All cyclically reduced rotations of w, closed under half-relator
    rewrites; two elements are conjugate iff their form sets intersect.

    Built breadth first, a closure that would grow past ``cap`` >= 1 forms
    is cut to its first ``cap``: it can then miss a conjugacy, never invent one."""
    cyc, _ = _cyclic_reduce(w)
    seen = {cyc}
    queue = [cyc]
    for u in queue:
        for r in range(max(len(u), 1)):
            rot = u[r:] + u[:r]
            for v in (rot, *_half_relator_variants(rot)):
                v, _ = _cyclic_reduce(v)
                if v not in seen:
                    if len(seen) >= cap:
                        return frozenset(seen)
                    seen.add(v)
                    queue.append(v)
    return frozenset(seen)


def conjugate_elements(u: str, v: str) -> Optional[bool]:
    """True if u and v are conjugate, False if not, None (inconclusive) if
    their form sets miss each other but one was cut at its cap."""
    fu, fv = cyclic_forms(u), cyclic_forms(v)
    if fu & fv:
        return True
    return None if max(len(fu), len(fv)) >= CAP else False


# -- twist automorphisms -----------------------------------------------------------

Aut = dict[str, str]

_IDENTITY: Aut = {g: g for g in GENS}

# Per chain curve and d: the based curve word g its twist inserts, and the
# generators it moves, as templates in g and its inverse G.  The left-handed
# twist inserts the reversed curve: g and G trade places.
_TWIST_SPEC: dict[str, tuple[str, dict[str, str]]] = {
    "c1": ("A", {"b": "b{g}"}),
    "c2": ("b", {"a": "a{g}"}),
    "c3": ("bABc", {"b": "{g}b", "c": "{g}c{G}", "d": "d{G}"}),
    "c4": ("d", {"c": "c{g}"}),
    "c5": ("C", {"d": "d{g}"}),
    "d": ("abAB", {"a": "{g}a{G}", "b": "{g}b{G}"}),
}


def _twist_table(left: bool) -> dict[str, Aut]:
    table = {}
    for name, (g, images) in _TWIST_SPEC.items():
        g, G = (inverse(g), g) if left else (g, inverse(g))
        moved = {x: free_reduce(image.format(g=g, G=G)) for x, image in images.items()}
        table[name] = {**_IDENTITY, **moved}
    return table


TWIST_TABLE: dict[str, Aut] = _twist_table(left=False)
TWIST_TABLE_INV: dict[str, Aut] = _twist_table(left=True)

# The same twists as steps on a dict of images keyed by the generators, their
# inverses and g, G.  A step (x, X, pieces) sets the image of x to the product
# of the images of its pieces, each a key with the key of its inverse, and the
# image of X to its inverse.  The first step sets g, the curve word the twist
# inserts, unless it is one letter, whose image the dict holds; each moved
# generator's template reads only itself and g, G, so the images are updated
# in place.
_Pieces = tuple[tuple[str, str], ...]


def _twist_steps(left: bool) -> dict[str, list[tuple[str, str, _Pieces]]]:
    steps = {}
    for name, (g, images) in _TWIST_SPEC.items():
        g = inverse(g) if left else g
        if len(g) == 1:
            step, fill = [], {"g": g, "G": inverse(g)}
        else:
            step, fill = [("g", "G", tuple(zip(g, g.swapcase())))], {"g": "g", "G": "G"}
        for x, image in images.items():
            t = image.format(**fill)
            step.append((x, x.upper(), tuple(zip(t, t.swapcase()))))
        steps[name] = step
    return steps


_STEPS = _twist_steps(left=False)
_STEPS_INV = _twist_steps(left=True)


def _product(img: dict[str, str], pieces: _Pieces) -> str:
    """free_reduce of the product of the images of pieces, which are freely
    reduced: at each seam, the tail of the product so far that cancels the
    next image's head is its common tail with that image's inverse."""
    u = ""
    for key, inv_key in pieces:
        v, v_inv = img[key], img[inv_key]
        if u[-1:] != v_inv[-1:]:
            u += v
            continue
        k, n = 1, min(len(u), len(v))
        while k < n and u[-1 - k] == v_inv[-1 - k]:
            k += 1
        u = u[: len(u) - k] + v[k:]
    return u


def _defined_steps(reg: Registry, l: Letter, within: tuple[str, ...] = ()) -> list:
    """The steps of u t_a^e u^-1 for a letter t^e of a curve u(a) not in the table;
    MissingAutomorphism names an undefined curve, or one met ``within`` its own expansion."""
    name = l.curve.name
    defn = reg.curves[name].defn if name in reg.curves else None
    if defn is None or name in within:
        raise MissingAutomorphism(name)
    return [s for m in reg.flat_word((Letter(defn, l.exp),))
            for s in (_STEPS if m.exp == 1 else _STEPS_INV).get(m.curve.name)
            or _defined_steps(reg, m, (*within, name))]


def word_action(reg: Registry, w: Word) -> Aut:
    """Automorphism of the word: rightmost letter acts first, matching the
    matrix convention image(uv) = image(u) image(v) on column vectors.  The
    letters of reg.flat_word(w), all plain, act by their twist steps, or their
    definition's; MissingAutomorphism names the first curve with no action."""
    img = {x: x for x in GENS + GENS.upper()}
    for l in reg.flat_word(w):
        steps = (_STEPS if l.exp == 1 else _STEPS_INV).get(l.curve.name) or _defined_steps(reg, l)
        for x, inv_x, pieces in steps:
            u = _product(img, pieces)
            if x != "g":  # the image of g stays freely reduced only
                u = _dehn_rewrite(u)
            img[x], img[inv_x] = u, inverse(u)
    return {g: img[g] for g in GENS}


def ab_vector(w: str) -> tuple[int, int, int, int]:
    v = [0, 0, 0, 0]
    for ch in w:
        v[GENS.index(ch.lower())] += 1 if ch.islower() else -1
    return tuple(v)  # type: ignore[return-value]


def ab_matrix(aut: Aut) -> Mat:
    cols = [ab_vector(aut[g]) for g in GENS]
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))  # type: ignore[return-value]


# -- relators up to inner automorphisms ----------------------------------------------


def inner_conjugator(phi: Aut) -> Optional[str]:
    """The z with phi(g) = z g z^-1 for every generator g, or None when phi
    is not inner.

    phi(a) must have the cyclic Dehn form a, reached through a conjugator p.
    Then z = p a^k, and a^k b a^-k = p^-1 phi(b) p has at most one solution;
    as a^k b a^-k is a geodesic of 2|k|+1 letters, |k| is below the length of
    the reduced right side.  The c- and d-equations decide.
    """
    cyc, p = _cyclic_dehn_reduce(phi["a"])
    if cyc != "a":
        return None
    y = dehn_reduce(inverse(p) + phi["b"] + p)
    for k in range(-len(y) - 1, len(y) + 2):
        ak = "a" * k if k >= 0 else "A" * -k
        if elements_equal(ak + "b" + inverse(ak), y):
            z = dehn_reduce(p + ak)
            return z if all(elements_equal(z + g + inverse(z), phi[g]) for g in "cd") else None
    return None


def relator_verdict(reg: Registry, w: Word) -> Verdict:
    """Whether w is a relator of Mod(S2): proved, with z of phi(g) = z g z^-1
    as certificate, when w acts by an inner phi; refuted when phi is not
    inner; inconclusive when a letter's curve has no action."""
    try:
        phi = word_action(reg, w)
    except MissingAutomorphism as exc:
        return Verdict("pi1", INCONCLUSIVE, f"no action for curve {exc}")
    z = inner_conjugator(phi)
    return Verdict("pi1", REFUTED) if z is None else Verdict("pi1", PROVED, z)
