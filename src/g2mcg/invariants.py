"""Numerical invariants of the 4-manifolds carried by positive relators.

A positive relator with n nonseparating and s separating letters encodes a
genus-2 Lefschetz fibration over the sphere with n irreducible and s
reducible singular fibers.  The Euler characteristic is e = n + s - 4 (each
singular fiber adds one to the product e(S^2) e(Sigma_2) = -4) and the
signature is sigma = -(3n + s)/5 by the genus-2 local signature formula;
the division is exact for any signature obeying the mod-10 law n + 2s = 0,
and non-divisibility is reported as an error, never rounded.

Derived quantities: c1^2 = 3 sigma + 2e and chi_h = (sigma + e)/4.
homeo_label names the homeomorphism type "p CP2 # q CP2bar" that a simply
connected total space with an odd form has, p = b2+ and q = b2-; neither
hypothesis is proved here.
"""

from __future__ import annotations

from typing import NamedTuple

from .registry import Registry
from .words import PositiveRelator, Word, checked_make


class SignatureNotIntegral(ValueError):
    pass


class NotOddForm(ValueError):
    """(e, sigma) gives no label p CP2 # q CP2bar: b2+ or b2- is negative or odd."""


class FiberSignature(NamedTuple("_FiberCounts", [("n", int), ("s", int)])):
    __slots__ = ()

    def __new__(cls, n: int, s: int) -> "FiberSignature":
        if n < 0 or s < 0:
            raise ValueError("fiber counts must be nonnegative")
        return tuple.__new__(cls, (n, s))

    _make = classmethod(checked_make)

    @property
    def total(self) -> int:
        return self.n + self.s

    @property
    def mod_ten(self) -> int:
        """Image of a positive word with this signature in the abelianization
        Z/10: nonseparating twists weigh 1, separating twists 2 (the chain
        relation writes a separating twist as twelve chain twists)."""
        return (self.n + 2 * self.s) % 10


class InvariantSet(NamedTuple):
    e: int
    sigma: int
    c1sq: int
    chi_h: int


def fiber_signature(reg: Registry, r: PositiveRelator | Word) -> FiberSignature:
    w = r.word if isinstance(r, PositiveRelator) else r
    s = reg.count_separating(w)
    return FiberSignature(len(w) - s, s)


def invariants(sig: FiberSignature) -> InvariantSet:
    n, s = sig.n, sig.s
    if (3 * n + s) % 5 != 0:
        raise SignatureNotIntegral(f"3n+s = {3*n+s} is not divisible by 5 for (n,s)=({n},{s})")
    e = n + s - 4
    sigma = -(3 * n + s) // 5
    c1sq = 3 * sigma + 2 * e
    if (sigma + e) % 4 != 0:
        raise SignatureNotIntegral(f"sigma+e = {sigma+e} is not divisible by 4")
    return InvariantSet(e, sigma, c1sq, chi_h=(sigma + e) // 4)


def homeo_label(inv: InvariantSet) -> str:
    """p CP2 # q CP2bar for b2+ = (e + sigma - 2)/2 and b2- = (e - sigma - 2)/2,
    the type of X if it is simply connected (b1 = 0) with an odd form; that
    is not checked, but M, which is not, gets b2+ = -1 and is refused."""
    p2 = inv.e + inv.sigma - 2
    q2 = inv.e - inv.sigma - 2
    if p2 % 2 or q2 % 2 or p2 < 0 or q2 < 0:
        raise NotOddForm(f"(e,sigma)=({inv.e},{inv.sigma}) admits no odd form label")
    return format_homeo(p2 // 2, q2 // 2)


def format_homeo(p: int, q: int) -> str:
    return f"{p} CP2 # {q} CP2bar"


# -- reports -------------------------------------------------------------------


def invariant_records(sig: FiberSignature, inv: InvariantSet) -> str:
    return " ".join([f"n={sig.n}", f"s={sig.s}", f"e={inv.e}", f"sigma={inv.sigma}",
                     f"c1sq={inv.c1sq}", f"chi_h={inv.chi_h}"])

