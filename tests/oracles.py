"""Brute-force oracles the tests compare the closed forms against.

No ``kloos`` command runs these: literal matrix algebra over the enumerated
groups (identity, transpose, determinant, the Gram matrix J of the minus
form and the relation w' J w = J), the four Bruhat cells that tile the
whole group at n = 2, q = 3, the full weight distribution of a code by a
scan of all 3^N words, and the double coset order in its fully expanded
product form.
"""

from __future__ import annotations

from itertools import product
from math import comb

from kloos.codes import TraceProfile
from kloos.constants import CosetFamily, q_binomial
from kloos.field import Field
from kloos.groups import (
    GroupSet,
    Matrix,
    _make_set,
    check_double_coset_q,
    double_coset,
    enumerate_q,
    mat_mul,
    reflect,
)
from kloos.report import CheckResult

TINY_ENUM_MAX_WORDS = 10**6


# -- matrices and groups ----------------------------------------------------------


def identity_matrix(size: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))


def mat_transpose(A: Matrix) -> Matrix:
    return tuple(zip(*A))


def mat_det(field: Field, A: Matrix) -> int:
    """Determinant by fraction-free Gaussian elimination over the field."""
    m = [list(row) for row in A]
    size = len(m)
    det = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = field.neg(det)
        det = field.mul(det, m[col][col])
        inv = field.inv(m[col][col])
        for r in range(col + 1, size):
            if m[r][col] == 0:
                continue
            factor = field.mul(m[r][col], inv)
            for c in range(col, size):
                m[r][c] = field.sub(m[r][c], field.mul(factor, m[col][c]))
    return det


def form_matrix(field: Field, n: int, eps: int) -> Matrix:
    """Gram matrix J on coordinates (n-1) + (n-1) + 2."""
    size = 2 * n
    m = [[0] * size for _ in range(size)]
    for i in range(n - 1):
        m[i][n - 1 + i] = 1
        m[n - 1 + i][i] = 1
    m[size - 2][size - 2] = 1
    m[size - 1][size - 1] = field.neg(eps)
    return tuple(tuple(row) for row in m)


def bruhat_pieces(field: Field, eps: int | None = None) -> dict[str, GroupSet]:
    """The four cells tiling the full minus-type group at n = 2, q = 3."""
    check_double_coset_q(field.q)
    qset = enumerate_q(field, 2, eps)
    # DC1+ at n = 2 is Q sigma_1 Q with no reflection
    big = double_coset(field, CosetFamily(1, 1), 2, eps).elements
    return {
        "Q": qset,
        "QsQ": GroupSet("QsQ", field, qset.eps, 2, big),
        "rQ": _make_set("rQ", field, qset.eps, 2, [reflect(field, w) for w in qset.elements]),
        "rQsQ": _make_set("rQsQ", field, qset.eps, 2, [reflect(field, w) for w in big]),
    }


def check_orthogonal_relation(gset: GroupSet) -> CheckResult:
    """Every element w must satisfy w' J w = J for the minus form J."""
    field = gset.field
    J = form_matrix(field, gset.n, gset.eps)
    bad = 0
    for w in gset.elements:
        if mat_mul(field, mat_mul(field, mat_transpose(w), J), w) != J:
            bad += 1
    return CheckResult(f"orthogonal_relation({gset.label},q={field.q})", bad, 0)


# -- codes and constants ----------------------------------------------------------


def enumerate_code_tiny(profile: TraceProfile) -> list[int]:
    """Full weight distribution by scanning all 3^N words; N <= 12.

    The slow oracle: no closed forms, just the defining condition
    sum u_k v_k = 0 evaluated per word.
    """
    field = profile.field
    n_len = profile.length
    if 3**n_len > TINY_ENUM_MAX_WORDS:
        raise ValueError(f"3^{n_len} words exceeds the {TINY_ENUM_MAX_WORDS} enumeration cap")
    coords = [beta for beta in field.elements() for _ in range(profile.counts[beta])]
    dist = [0] * (n_len + 1)
    for word in product((0, 1, 2), repeat=n_len):
        acc = 0
        for digit, v in zip(word, coords):
            acc = field.add(acc, field.mul(digit, v))
        if acc == 0:
            dist[n_len - word.count(0)] += 1
    return dist


def double_coset_order_expanded(n: int, q: int, r: int) -> int:
    """Same double-coset order via the fully expanded product form."""
    out = (q + 1) * q ** (n * n - n)
    for j in range(1, n):
        out *= q**j - 1
    return out * q_binomial(n - 1, r, q) * q ** comb(r, 2) * q ** (2 * r)
