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
