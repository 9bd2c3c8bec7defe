import itertools
import subprocess
import sys
import pytest

from kloos.constants import (
    ALL_FAMILIES,
    CosetFamily,
    check_constants_consistency,
    coset_orders,
    exact_div,
    family_constants,
    gl_order,
    q_binomial,
    stirling2,
)
from kloos.field import Field
from oracles import double_coset_order_expanded


def count_subspaces_bruteforce(n, r, q=3):
    """All r-dim subspaces of F_3^n as frozensets of vectors; slow oracle."""
    F = Field(1)
    vectors = list(itertools.product(range(q), repeat=n))

    def add(u, v):
        return tuple((a + b) % 3 for a, b in zip(u, v))

    def smul(c, u):
        return tuple((c * a) % 3 for a in u)

    def span(gens):
        out = {tuple([0] * n)}
        for g in gens:
            cur = list(out)
            for c in (1, 2):
                for v in cur:
                    out.add(add(v, smul(c, g)))
        # close under addition
        changed = True
        while changed:
            changed = False
            cur = list(out)
            for u in cur:
                for v in cur:
                    w = add(u, v)
                    if w not in out:
                        out.add(w)
                        changed = True
        return frozenset(out)

    spaces = set()
    for gens in itertools.combinations([v for v in vectors if any(v)], r):
        s = span(gens)
        if len(s) == q**r:
            spaces.add(s)
    return len(spaces)


def test_q_binomial_small_values():
    assert q_binomial(2, 1, 3) == 4
    assert q_binomial(3, 3, 3) == 1
    assert q_binomial(4, 2, 3) == 130
    assert q_binomial(1, 2, 3) == 0
    assert q_binomial(3, -1, 3) == 0


def test_q_binomial_counts_subspaces():
    assert q_binomial(3, 1, 3) == count_subspaces_bruteforce(3, 1)
    assert q_binomial(4, 2, 3) == count_subspaces_bruteforce(4, 2)


def test_q_binomial_pascal_recurrence():
    for q in (3, 9, 27):
        for n in range(1, 9):
            for r in range(0, n + 1):
                assert q_binomial(n, r, q) == q_binomial(n - 1, r, q) * q**r + q_binomial(
                    n - 1, r - 1, q
                )


def test_q_binomial_symmetry():
    for q in (3, 9):
        for n in range(0, 8):
            for r in range(0, n + 1):
                assert q_binomial(n, r, q) == q_binomial(n, n - r, q)


def enumerate_set_partitions(items, blocks):
    if not items:
        yield [] if blocks == 0 else None
        return
    first, rest = items[0], items[1:]
    for sub in enumerate_set_partitions(rest, blocks):
        if sub is None:
            continue
        for k in range(len(sub)):
            yield [b | {first} if i == k else b for i, b in enumerate(sub)]
    for sub in enumerate_set_partitions(rest, blocks - 1):
        if sub is None:
            continue
        yield sub + [{first}]


def test_stirling2_counts_set_partitions():
    for h in range(0, 7):
        for t in range(0, h + 1):
            count = sum(
                1 for p in enumerate_set_partitions(list(range(h)), t) if p is not None
            )
            if h == 0:
                count = 1 if t == 0 else 0
            assert stirling2(h, t) == count


def test_stirling2_recurrence_and_edges():
    for h in range(1, 12):
        assert stirling2(h, 1) == 1
        assert stirling2(h, h) == 1
        for t in range(1, h):
            assert stirling2(h + 1, t) == t * stirling2(h, t) + stirling2(h, t - 1)
    assert stirling2(0, 0) == 1
    assert stirling2(3, 5) == 0


def test_gl_order_bruteforce_2x2_gf3():
    F = Field(1)
    count = 0
    for a, b, c, d in itertools.product(range(3), repeat=4):
        if (a * d - b * c) % 3 != 0:
            count += 1
    assert count == 48
    assert gl_order(2, 3) == 48
    assert gl_order(1, 3) == 2
    assert gl_order(0, 3) == 1
    assert gl_order(2, 9) == 5760


def test_family_parse_and_label():
    f = CosetFamily.parse("DC3+")
    assert f == CosetFamily(3, 1)
    assert f.label == "DC3+"
    assert CosetFamily.parse("dc4-") == CosetFamily(4, -1)
    with pytest.raises(ValueError):
        CosetFamily.parse("DC5+")
    with pytest.raises(ValueError):
        CosetFamily(1, 0)


@pytest.mark.parametrize("i, sign", [(5, 1), (0, -1), (1, 0)])
def test_family_rejects_bad_index_or_sign(i, sign):
    with pytest.raises(ValueError):
        CosetFamily(i, sign)


def test_families_sort_by_index_then_sign():
    labels = [f.label for f in sorted(ALL_FAMILIES)]
    assert labels == ["DC1-", "DC1+", "DC2-", "DC2+", "DC3-", "DC3+", "DC4-", "DC4+"]


def test_all_families_listed_in_label_order():
    # `constants` and `verify` both list instances in ALL_FAMILIES order, which is the labels' own
    labels = [f.label for f in ALL_FAMILIES]
    assert labels == sorted(labels)


def test_family_validity_grid():
    valid = {
        (1, 1): [2, 4, 6],
        (2, 1): [2, 4, 6],
        (3, 1): [2, 4, 6],
        (4, 1): [4, 6],
        (1, -1): [1, 3, 5],
        (2, -1): [3, 5],
        (3, -1): [3, 5],
        (4, -1): [3, 5],
    }
    for fam in ALL_FAMILIES:
        assert fam.valid_ns(6) == valid[(fam.i, fam.sign)]


def test_sigma_index():
    assert CosetFamily(1, 1).sigma_index(2) == 1
    assert CosetFamily(2, 1).sigma_index(2) == 0
    assert CosetFamily(3, 1).sigma_index(2) == 0
    assert CosetFamily(4, -1).sigma_index(3) == 0
    assert CosetFamily(1, -1).sigma_index(1) == 0


def test_family_constants_reference_values():
    # hand-checked instances at q = 3
    consts = family_constants(CosetFamily(1, -1), 1, 3)
    assert (consts.A, consts.B) == (1, 4)
    consts = family_constants(CosetFamily(1, 1), 2, 3)
    assert (consts.A, consts.B) == (54, 12)
    consts = family_constants(CosetFamily(2, 1), 2, 3)
    assert (consts.A, consts.B) == (9, 8)
    consts = family_constants(CosetFamily(3, 1), 2, 3)
    assert (consts.A, consts.B) == (36, 2)
    consts = family_constants(CosetFamily(4, -1), 3, 3)
    assert (consts.A, consts.B) == (2916, 16)


def test_family_constants_reject_invalid_n():
    with pytest.raises(ValueError):
        family_constants(CosetFamily(1, 1), 3, 3)
    with pytest.raises(ValueError):
        family_constants(CosetFamily(4, 1), 2, 3)
    with pytest.raises(ValueError):
        family_constants(CosetFamily(2, -1), 1, 3)


def test_family_constants_positive_integers():
    for q in (3, 9, 27):
        for fam in ALL_FAMILIES:
            for n in fam.valid_ns(20):
                consts = family_constants(fam, n, q)
                assert consts.A > 0 and consts.B > 0
                assert isinstance(consts.A, int) and isinstance(consts.B, int)


def test_constants_match_double_coset_orders():
    for q in (3, 9):
        for family in ALL_FAMILIES:
            for n in family.valid_ns(8):
                res = check_constants_consistency(family_constants(family, n, q))
                assert res.ok, res


def test_coset_orders_forms_agree():
    for q in (3, 9):
        for n in range(1, 7):
            for r in range(0, n):
                assert coset_orders(n, q, r).double_coset == double_coset_order_expanded(n, q, r)


def test_coset_orders_q3_n2():
    orders = coset_orders(2, 3, 1)
    assert orders.double_coset == 648
    assert coset_orders(2, 3, 0).double_coset == 72
    # Bruhat pieces tile the minus-type orthogonal group of order
    # 2 q^2 (q^2+1)(q^2-1) = 1440 at q = 3
    q = 3
    assert 2 * (72 + 648) == 2 * q**2 * (q**2 + 1) * (q**2 - 1)
    assert orders.parabolic == 2 * 4 * 2 * 9  # 2 (q+1) |GL(1,3)| q^2 = 144


def test_coset_orders_guard():
    with pytest.raises(ValueError):
        coset_orders(2, 3, 2)


def test_exact_div_raises_on_remainder():
    assert exact_div(12, 4) == 3
    assert exact_div(-12, 4) == -3
    assert exact_div(0, 7) == 0
    with pytest.raises(ArithmeticError, match="divisible"):
        exact_div(7, 2)
    with pytest.raises(ArithmeticError):
        exact_div(3**100 + 1, 3)


def test_exact_div_guard_survives_optimize_flag():
    # python -O strips assert statements; the division guard must stay
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "from kloos.constants import exact_div; exact_div(7, 2)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0
    assert "ArithmeticError" in proc.stderr
