"""Exact integer symplectic linear algebra on H_1 of the genus-2 surface.

Basis is (a1, b1, a2, b2) with <a_i, b_i> = 1 and all other basis pairings
zero.  A right-handed Dehn twist along a curve of class v acts as the
transvection x |-> x + <x, v> v; separating curves have v = 0 and act
trivially.  Matrices are 4x4 tuples of Python ints, so all arithmetic is
exact and overflow-free.

The transvection is I + v (Jv)^T, a rank-one change of the identity, so
Registry.image builds a word's image by one rank-one row update per letter
and never forms a letter's matrix.  Registry.homology_class applies the
image of a conjugator to a class with mat_vec, and Registry.validate
compares images of words and asks is_primitive of a class; the other
matrix helpers serve the tests, as oracles, and the bench's tracer layer.
"""

from __future__ import annotations

from math import gcd

Vec = tuple[int, int, int, int]
Mat = tuple[Vec, Vec, Vec, Vec]

ZERO: Vec = (0, 0, 0, 0)

IDENTITY: Mat = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
)

# Symplectic form: <u, v> = u^T J v.
J: Mat = (
    (0, 1, 0, 0),
    (-1, 0, 0, 0),
    (0, 0, 0, 1),
    (0, 0, -1, 0),
)


def mat_mul(a: Mat, b: Mat) -> Mat:
    # Unrolled over the entries of b (about 5x faster than index loops in
    # CPython); only the test oracles and the bench's tracer layer call it.
    (b00, b01, b02, b03), (b10, b11, b12, b13), (b20, b21, b22, b23), (b30, b31, b32, b33) = b
    return tuple(
        (
            x0 * b00 + x1 * b10 + x2 * b20 + x3 * b30,
            x0 * b01 + x1 * b11 + x2 * b21 + x3 * b31,
            x0 * b02 + x1 * b12 + x2 * b22 + x3 * b32,
            x0 * b03 + x1 * b13 + x2 * b23 + x3 * b33,
        )
        for x0, x1, x2, x3 in a
    )  # type: ignore[return-value]


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(sum(m[i][k] * v[k] for k in range(4)) for i in range(4))  # type: ignore[return-value]


def mat_neg(m: Mat) -> Mat:
    return tuple(tuple(-x for x in row) for row in m)  # type: ignore[return-value]


def transpose(m: Mat) -> Mat:
    return tuple(tuple(m[j][i] for j in range(4)) for i in range(4))  # type: ignore[return-value]


def is_symplectic(m: Mat) -> bool:
    """M^T J M = J (this forces det M = 1 in dimension 4)."""
    return mat_mul(mat_mul(transpose(m), J), m) == J


def sp_inverse(m: Mat) -> Mat:
    """Inverse of a symplectic matrix: M^-1 = -J M^T J (since J^2 = -I)."""
    return mat_neg(mat_mul(mat_mul(J, transpose(m)), J))


def transvection(v: Vec) -> Mat:
    """Matrix of x |-> x + <x, v> v, that is I + v (Jv)^T; the identity for v = 0."""
    # <u, v> = u1 v2 - u2 v1 + u3 v4 - u4 v3, so <e_j, v> for the basis vectors is:
    jv = (v[1], -v[0], v[3], -v[2])
    return tuple(tuple((i == j) + jv[j] * v[i] for j in range(4)) for i in range(4))  # type: ignore[return-value]


def transvection_inv(v: Vec) -> Mat:
    """Inverse twist: x |-> x - <x, v> v, that is 2I - T for T = transvection(v).

    T = I + N with N^2 = 0 (<v, v> = 0), so T^-1 = I - N.  Not a transvection
    along any vector: the defining formula is quadratic in v, so negating v
    gives the same matrix back, not the inverse.
    """
    t = transvection(v)
    return tuple(
        tuple(2 * (i == j) - t[i][j] for j in range(4)) for i in range(4)
    )  # type: ignore[return-value]


def is_primitive(v: Vec) -> bool:
    return gcd(*v) == 1

