"""Enumerated minus-type orthogonal groups over GF(q) and their cosets.

The ambient group preserves the bilinear form with Gram matrix

    J = [[0, I, 0], [I, 0, 0], [0, 0, diag(1, -eps)]],   eps a nonsquare,

written on coordinates split as (n-1) + (n-1) + 2.  Matrices are nested
tuples of int-encoded field elements, so sets and sorting work directly.

Enumerable pieces:

* the circle group SO^-(2, q), order q + 1, built in O(q) from the rational
  parametrization of the conic a^2 - eps b^2 = 1, and O^-(2, q), the circle
  group and its reflected coset, for every q;
* the subgroup Q(2n, q) of the maximal parabolic: the circle group at
  n = 1, a brute-force product at n = 2 and q <= 9;
* double cosets Q sigma_r Q and their reflected images at q = 3, n <= 2.

Each set reports its order and its trace histogram; the character sums over
a set are the transform of that histogram.  Everything returns plain
integers, nothing is sampled.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .constants import CosetFamily
from .field import Field

Matrix = tuple[tuple[int, ...], ...]

Q_ENUM_MAX_Q_N2 = 9
DOUBLE_COSET_Q = 3


# -- matrix helpers ------------------------------------------------------------


def mat_mul(field: Field, A: Matrix, B: Matrix) -> Matrix:
    cols = tuple(zip(*B))
    out = []
    for row in A:
        new_row = []
        for col in cols:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = field.add(acc, field.mul(x, y))
            new_row.append(acc)
        out.append(tuple(new_row))
    return tuple(out)


def mat_trace(field: Field, A: Matrix) -> int:
    acc = 0
    for i in range(len(A)):
        acc = field.add(acc, A[i][i])
    return acc


# -- structured matrices --------------------------------------------------------


def reflect(field: Field, w: Matrix) -> Matrix:
    """rho w for rho = diag(1, ..., 1, -1): w with its last row negated."""
    return (*w[:-1], tuple(field.neg(x) for x in w[-1]))


def sigma_columns(w: Matrix, r: int) -> Matrix:
    """w sigma_r, sigma_r the involution swapping the first r coordinates of
    the two (n-1)-blocks: w with columns i and n - 1 + i swapped for i < r."""
    n = len(w) // 2
    if not 0 <= r <= n - 1:
        raise ValueError(f"sigma index r={r} outside 0..{n - 1}")
    perm = list(range(2 * n))
    for i in range(r):
        perm[i], perm[n - 1 + i] = perm[n - 1 + i], perm[i]
    return tuple(tuple(row[j] for j in perm) for row in w)


class GroupSet(NamedTuple):
    """A finite set of matrices over a fixed field, canonically ordered."""

    label: str
    field: Field
    eps: int
    n: int
    elements: tuple[Matrix, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def trace_histogram(self) -> tuple[int, ...]:
        """Count of elements per matrix trace, at every beta in F_q."""
        counts = [0] * self.field.q
        for w in self.elements:
            counts[mat_trace(self.field, w)] += 1
        return tuple(counts)


def _resolve_eps(field: Field, eps: int | None) -> int:
    if eps is None:
        return field.first_nonsquare()
    if field.is_square(eps):
        raise ValueError(f"eps={eps} is a square; the minus form needs a nonsquare")
    return eps


def _make_set(label: str, field: Field, eps: int, n: int, elements) -> GroupSet:
    return GroupSet(label, field, eps, n, tuple(sorted(set(elements))))


def check_q_enumeration(q: int, n: int) -> None:
    """Refuse Q(2n, q) unless n = 1 or 2, with q <= 9 when n = 2."""
    if n not in (1, 2):
        raise ValueError(f"Q enumeration supports n in {{1, 2}}, got n={n}")
    if n == 2 and q > Q_ENUM_MAX_Q_N2:
        raise ValueError(f"Q(4, q) enumeration capped at q <= {Q_ENUM_MAX_Q_N2}, got q={q}")


def check_double_coset_q(q: int) -> None:
    """Refuse double coset enumeration at any q but 3."""
    if q != DOUBLE_COSET_Q:
        raise ValueError(f"double coset enumeration is q=3 only, got q={q}")


def enumerate_so2_minus(field: Field, eps: int | None = None) -> GroupSet:
    """SO^-(2, q) = {[[a, b eps], [b, a]] : a^2 - eps b^2 = 1}, order q + 1.

    Besides (1, 0), the line of slope t / eps through it meets the conic at
    a = (t^2 + eps) / (t^2 - eps), b = 2t / (t^2 - eps), as
    (t^2 + eps)^2 - 4 eps t^2 = (t^2 - eps)^2; eps is a nonsquare, so the
    denominator never vanishes and t in F_q gives the other q points.
    """
    eps = _resolve_eps(field, eps)
    add, sub, mul = field.add, field.sub, field.mul
    out = [((1, 0), (0, 1))]
    for t in field.elements():
        t2 = mul(t, t)
        d_inv = field.inv(sub(t2, eps))
        a, b = mul(add(t2, eps), d_inv), mul(add(t, t), d_inv)
        out.append(((a, mul(b, eps)), (b, a)))
    gset = _make_set("SO2-", field, eps, 1, out)
    if gset.order != field.q + 1:
        raise ArithmeticError(f"|SO^-(2,{field.q})| = {gset.order}, expected {field.q + 1}")
    return gset


def enumerate_o2_minus(field: Field, eps: int | None = None) -> GroupSet:
    """O^-(2, q): the circle group and its reflected coset, order 2(q + 1)."""
    so = enumerate_so2_minus(field, eps)
    flipped = [reflect(field, w) for w in so.elements]
    gset = _make_set("O2-", field, so.eps, 1, list(so.elements) + flipped)
    if gset.order != 2 * (field.q + 1):
        raise ArithmeticError(f"|O^-(2,{field.q})| = {gset.order}, expected {2 * (field.q + 1)}")
    return gset


def enumerate_q(field: Field, n: int, eps: int | None = None) -> GroupSet:
    """The parabolic piece Q(2n, q); n = 1 or 2, with q <= 9 when n = 2.

    At n = 2 each element is diag(t, 1/t, i) times the unipotent factor of
    (h0, h1), over every unit t, circle element i and h0, h1 in F_q."""
    eps = _resolve_eps(field, eps)
    check_q_enumeration(field.q, n)
    circle = enumerate_so2_minus(field, eps).elements
    if n == 1:
        return GroupSet("Q2", field, eps, 1, circle)
    q, sub, mul, neg = field.q, field.sub, field.mul, field.neg
    out = []
    for t, i_mat, h0, h1 in product(field.units(), circle, field.elements(), field.elements()):
        # char 3: the 1x1 symmetric-part equation 2B + h'.de.h = 0 is solved
        # by B = h'.de.h itself
        b = sub(mul(h0, h0), mul(eps, mul(h1, h1)))
        m1 = ((t, 0, 0, 0), (0, field.inv(t), 0, 0), (0, 0, *i_mat[0]), (0, 0, *i_mat[1]))
        m2 = ((1, b, neg(h0), mul(eps, h1)), (0, 1, 0, 0), (0, h0, 1, 0), (0, h1, 0, 1))
        out.append(mat_mul(field, m1, m2))
    gset = _make_set("Q4", field, eps, 2, out)
    expected = (q + 1) * (q - 1) * q * q
    if gset.order != expected:
        raise ArithmeticError(f"|Q(4,{q})| = {gset.order}, expected {expected}")
    return gset


def double_coset(field: Field, family: CosetFamily, n: int, eps: int | None = None) -> GroupSet:
    """Literal double coset enumeration; q = 3 and n <= 2 only."""
    eps = _resolve_eps(field, eps)
    check_double_coset_q(field.q)
    if n > 2:
        raise ValueError(f"double coset enumeration capped at n <= 2, got n={n}")
    if not family.valid_n(n):
        raise ValueError(f"n={n} is not valid for family {family.label}")
    qset = enumerate_q(field, n, eps)
    left = [sigma_columns(x, family.sigma_index(n)) for x in qset.elements]
    products = {mat_mul(field, xs, y) for xs, y in product(left, qset.elements)}
    if family.uses_reflection:
        products = {reflect(field, w) for w in products}
    return _make_set(family.label, field, qset.eps, n, products)
