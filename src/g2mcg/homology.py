"""Exact integer symplectic linear algebra on H_1 of the genus-2 surface.

Basis is (a1, b1, a2, b2) with <a_i, b_i> = 1 and all other basis pairings
zero.  A right-handed Dehn twist along a curve of class v acts as the
transvection x |-> x + <x, v> v; separating curves have v = 0 and act
trivially.  Matrices are 4x4 tuples of Python ints, so all arithmetic is
exact and overflow-free.
"""

from __future__ import annotations

from typing import Optional

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


def sform(u: Vec, v: Vec) -> int:
    """<u, v> = u1 v2 - u2 v1 + u3 v4 - u4 v3."""
    return u[0] * v[1] - u[1] * v[0] + u[2] * v[3] - u[3] * v[2]


def mat_mul(a: Mat, b: Mat) -> Mat:
    # Unrolled over the entries of b (about 5x faster than index loops in
    # CPython): this is the innermost operation of every homology check.
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
    """Matrix of x |-> x + <x, v> v; the identity for v = 0."""
    cols = []
    for j in range(4):
        e = tuple(1 if i == j else 0 for i in range(4))
        coef = sform(e, v)
        cols.append(tuple(e[i] + coef * v[i] for i in range(4)))
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))  # type: ignore[return-value]


def transvection_inv(v: Vec) -> Mat:
    """Inverse twist: x |-> x - <x, v> v.

    Not a transvection along any vector: the defining formula is quadratic
    in v, so negating v gives the same matrix back, not the inverse.
    """
    cols = []
    for j in range(4):
        e = tuple(1 if i == j else 0 for i in range(4))
        coef = sform(e, v)
        cols.append(tuple(e[i] - coef * v[i] for i in range(4)))
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))  # type: ignore[return-value]


def is_primitive(v: Vec) -> bool:
    from math import gcd

    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1


def transvection_direction(m: Mat) -> Optional[Vec]:
    """Recover +-v from a matrix of the form x |-> x + <x, v> v, else None.

    M - I has all columns proportional to v; the returned representative is
    primitive with sign fixed by its first nonzero entry.
    """
    diff = tuple(
        tuple(m[i][j] - (1 if i == j else 0) for j in range(4)) for i in range(4)
    )
    cand: Optional[Vec] = None
    for j in range(4):
        col = tuple(diff[i][j] for i in range(4))
        if col != ZERO:
            cand = col  # type: ignore[assignment]
            break
    if cand is None:
        return None
    from math import gcd

    g = 0
    for x in cand:
        g = gcd(g, x)
    v = tuple(x // g for x in cand)
    for x in v:
        if x != 0:
            if x < 0:
                v = tuple(-y for y in v)
            break
    if transvection(v) == m or transvection(tuple(-y for y in v)) == m:  # type: ignore[arg-type]
        return v  # type: ignore[return-value]
    return None


def mat_str(m: Mat) -> str:
    width = max(len(str(x)) for row in m for x in row)
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in m)
