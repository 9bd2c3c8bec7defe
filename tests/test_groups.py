import random

import pytest

from kloos.charsums import kloosterman
from kloos.codes import trace_profile
from kloos.constants import CosetFamily, coset_orders, family_constants
from kloos.field import Field, char_transform
from kloos.groups import (
    double_coset,
    enumerate_o2_minus,
    enumerate_q,
    enumerate_so2_minus,
    mat_mul,
    mat_trace,
    reflect,
    sigma_columns,
)
from oracles import bruhat_pieces, check_orthogonal_relation, form_matrix, identity_matrix, mat_det, mat_transpose

F3 = Field(1)
F9 = Field(2)


def test_matrix_helpers():
    I = identity_matrix(3)
    A = ((1, 2, 0), (0, 1, 1), (2, 0, 1))
    assert mat_mul(F3, A, I) == A
    assert mat_mul(F3, I, A) == A
    assert mat_transpose(mat_transpose(A)) == A
    assert mat_trace(F3, A) == 0  # 1 + 1 + 1 = 3 = 0
    assert mat_det(F3, I) == 1
    assert mat_det(F3, ((1, 2), (2, 1))) == (1 - 4) % 3
    assert mat_det(F3, ((1, 2), (2, 4 % 3))) == 0


def test_so2_minus_order_and_histogram():
    so = enumerate_so2_minus(F3)
    assert so.order == 4
    assert so.trace_histogram() == (2, 1, 1)
    for r in (1, 2, 3):
        F = Field(r)
        assert enumerate_so2_minus(F).order == F.q + 1


def circle_by_scan(field, eps):
    """Literal scan of all q^2 pairs for a^2 - eps b^2 = 1; test oracle."""
    return {
        ((a, field.mul(b, eps)), (b, a))
        for a in field.elements()
        for b in field.elements()
        if field.sub(field.mul(a, a), field.mul(eps, field.mul(b, b))) == 1
    }


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_circle_groups_match_the_scan(r):
    F = Field(r)
    nonsquares = [e for e in F.units() if not F.is_square(e)]
    assert nonsquares[0] == F.first_nonsquare()
    rho = ((1, 0), (0, F.neg(1)))
    for eps in nonsquares[:2]:  # q = 3 has the one nonsquare 2
        scan = circle_by_scan(F, eps)
        so = enumerate_so2_minus(F, eps)
        assert so.elements == tuple(sorted(scan))
        o_full = enumerate_o2_minus(F, eps)
        assert frozenset(o_full.elements) == scan | {mat_mul(F, rho, w) for w in scan}
        assert o_full.elements == tuple(sorted(o_full.elements))


@pytest.mark.parametrize("r", [9, 10])
def test_circle_group_orders_at_large_q(r):
    F = Field(r)
    assert enumerate_so2_minus(F).order == F.q + 1
    assert enumerate_o2_minus(F).order == 2 * (F.q + 1)


def test_so2_minus_is_group_with_det_one():
    for F in (F3, F9):
        so = enumerate_so2_minus(F)
        elems = frozenset(so.elements)
        for w in so.elements:
            assert mat_det(F, w) == 1
            for v in so.elements:
                assert mat_mul(F, w, v) in elems
        assert check_orthogonal_relation(so).ok


def test_o2_minus_order_and_relation():
    for F in (F3, F9):
        o_full = enumerate_o2_minus(F)
        assert o_full.order == 2 * (F.q + 1)
        assert check_orthogonal_relation(o_full).ok
        dets = [mat_det(F, w) for w in o_full.elements]
        assert sum(1 for d in dets if d == 1) == F.q + 1
        neg = F.neg(1)
        assert sum(1 for d in dets if d == neg) == F.q + 1
        # the reflected coset diag(1, -1) SO^- is all trace 0, so its
        # character sum is q + 1 at every a
        so_histogram = enumerate_so2_minus(F).trace_histogram()
        assert o_full.trace_histogram() == (so_histogram[0] + F.q + 1, *so_histogram[1:])


def test_q_enumeration_orders():
    assert enumerate_q(F3, 1).order == 4
    q4 = enumerate_q(F3, 2)
    assert q4.order == 72
    assert check_orthogonal_relation(q4).ok
    q4_9 = enumerate_q(F9, 2)
    assert q4_9.order == (9 + 1) * (9 - 1) * 81
    assert check_orthogonal_relation(q4_9).ok


def test_q_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_q(F3, 3)
    with pytest.raises(ValueError):
        enumerate_q(Field(3), 2)


# rho and sigma_r written out entry by entry, independent of groups
def _rho_matrix(F, n):
    diagonal = [1] * (2 * n - 1) + [F.neg(1)]
    return tuple(tuple(diagonal[i] if i == j else 0 for j in range(2 * n)) for i in range(2 * n))


def _sigma_matrix(n, r):
    def image(i):  # sigma_r sends coordinate i to its partner in the other (n-1)-block
        if i < r:
            return n - 1 + i
        if n - 1 <= i < n - 1 + r:
            return i - (n - 1)
        return i

    return tuple(tuple(1 if j == image(i) else 0 for j in range(2 * n)) for i in range(2 * n))


def test_structured_matrices_lie_in_group():
    for F in (F3, F9):
        eps = F.first_nonsquare()
        for n in (1, 2, 3):
            J = form_matrix(F, n, eps)
            one = identity_matrix(2 * n)
            structured = (one, reflect(F, one), *(sigma_columns(one, r) for r in range(n)))
            for m in (*structured, _rho_matrix(F, n), *(_sigma_matrix(n, r) for r in range(n))):
                assert mat_mul(F, mat_mul(F, mat_transpose(m), J), m) == J


def test_sigma_matrix_swaps_blocks():
    assert sigma_columns(identity_matrix(4), 1) == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert sigma_columns(identity_matrix(4), 0) == identity_matrix(4)
    with pytest.raises(ValueError, match="outside 0..1"):
        sigma_columns(identity_matrix(4), 2)


def test_reflect_and_sigma_columns_are_the_matrix_products():
    rng = random.Random(33)
    for F in (F3, F9):
        for n in (1, 2, 3):
            rho = _rho_matrix(F, n)
            sigmas = [_sigma_matrix(n, r) for r in range(n)]
            for _ in range(20):
                w = tuple(tuple(rng.randrange(F.q) for _ in range(2 * n)) for _ in range(2 * n))
                assert reflect(F, w) == mat_mul(F, rho, w)
                for r, sigma in enumerate(sigmas):
                    assert sigma_columns(w, r) == mat_mul(F, w, sigma)


def test_double_coset_orders_match_closed_forms():
    dc1 = double_coset(F3, CosetFamily(1, 1), 2)
    assert dc1.order == 648
    assert dc1.order == coset_orders(2, 3, 1).double_coset
    dc2 = double_coset(F3, CosetFamily(2, 1), 2)
    assert dc2.order == 72
    dc3 = double_coset(F3, CosetFamily(3, 1), 2)
    assert dc3.order == 72
    dc1m = double_coset(F3, CosetFamily(1, -1), 1)
    assert dc1m.order == 4
    for dc in (dc1, dc2, dc3, dc1m):
        assert check_orthogonal_relation(dc).ok


def test_double_coset_histograms():
    assert double_coset(F3, CosetFamily(1, -1), 1).trace_histogram() == (2, 1, 1)
    assert double_coset(F3, CosetFamily(2, 1), 2).trace_histogram() == (18, 27, 27)
    assert double_coset(F3, CosetFamily(3, 1), 2).trace_histogram() == (0, 36, 36)
    assert double_coset(F3, CosetFamily(1, 1), 2).trace_histogram() == (180, 234, 234)


def test_double_coset_guards():
    with pytest.raises(ValueError):
        double_coset(F9, CosetFamily(1, 1), 2)
    with pytest.raises(ValueError):
        double_coset(F3, CosetFamily(1, 1), 4)
    with pytest.raises(ValueError):
        double_coset(F3, CosetFamily(1, 1), 1)  # wrong parity


def test_bruhat_tiling():
    cells = bruhat_pieces(F3)
    sizes = {name: c.order for name, c in cells.items()}
    assert sizes == {"Q": 72, "QsQ": 648, "rQ": 72, "rQsQ": 648}
    sets = [frozenset(c.elements) for c in cells.values()]
    union = set()
    for s in sets:
        assert not (union & s)  # pairwise disjoint
        union |= s
    assert len(union) == 1440
    for c in cells.values():
        assert check_orthogonal_relation(c).ok


def test_coset_character_sums_match_closed_forms():
    cases = [
        (CosetFamily(1, -1), 1),
        (CosetFamily(1, 1), 2),
        (CosetFamily(2, 1), 2),
        (CosetFamily(3, 1), 2),
    ]
    for family, n in cases:
        # S(a) = sum_beta N(beta) lambda(a beta), once from the enumerated
        # histogram and once from the profile
        enumerated = char_transform(F3, double_coset(F3, family, n).trace_histogram())
        consts = family_constants(family, n, F3.q)
        via_profile = char_transform(F3, trace_profile(consts, F3).counts)
        for a in F3.units():
            closed = consts.coset_sum(kloosterman(F3, F3.mul(a, a)))
            assert enumerated[a] == closed == via_profile[a], (family.label, a)


def test_eps_independence_at_q9():
    nonsquares = [x for x in F9.units() if not F9.is_square(x)]
    assert len(nonsquares) == 4
    eps_a, eps_b = nonsquares[0], nonsquares[1]
    for build in (enumerate_so2_minus, enumerate_o2_minus):
        ga = build(F9, eps_a)
        gb = build(F9, eps_b)
        assert ga.order == gb.order
        assert ga.trace_histogram() == gb.trace_histogram()
    qa = enumerate_q(F9, 2, eps_a)
    qb = enumerate_q(F9, 2, eps_b)
    assert qa.order == qb.order
    assert qa.trace_histogram() == qb.trace_histogram()


def test_eps_resolves_before_the_caps():
    # eps omitted, None and the first nonsquare, positional or keyword, give one set
    assert F3.first_nonsquare() == 2
    dc1 = CosetFamily(1, 1)
    first = double_coset(F3, dc1, 2)
    assert double_coset(F3, dc1, 2, None) == double_coset(F3, dc1, 2, 2) == double_coset(F3, dc1, 2, eps=2) == first
    assert enumerate_q(F3, 2) == enumerate_q(F3, 2, None) == enumerate_q(F3, 2, 2) == enumerate_q(F3, 2, eps=2)
    assert enumerate_q(F3, n=2).elements == enumerate_q(F3, 2).elements  # n by keyword still works
    # a square eps is refused first, ahead of the q and n caps
    for build, args in (
        (enumerate_q, (F3, 2)),
        (enumerate_q, (F3, 3)),
        (enumerate_q, (Field(3), 2)),
        (double_coset, (F3, dc1, 2)),
        (double_coset, (F9, dc1, 2)),
        (double_coset, (F3, dc1, 4)),
    ):
        with pytest.raises(ValueError, match="is a square"):
            build(*args, 1)
    for args in ((), (2, 2, 2)):  # n missing, one argument too many
        with pytest.raises(TypeError):
            enumerate_q(F3, *args)


def test_group_set_determinism():
    a = enumerate_so2_minus(F3)
    b = enumerate_so2_minus(Field(1))
    assert a.elements == b.elements
