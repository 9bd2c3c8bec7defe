import itertools

import pytest

from kloos.charsums import (
    TABLE_MAX_Q,
    check_delta_to_kloosterman,
    check_kloosterman_to_delta,
    delta1_closed,
    delta_counts,
    gl_kloosterman,
    gl_kloosterman_bruteforce,
    kloosterman,
    kloosterman_table,
    mk_moment,
    moment_series,
    sk_moment,
)
from kloos.field import Field, char_sum


def naive_delta(field, m, beta):
    """Literal m-fold loop over (F_q^*)^m; test oracle for the convolution."""
    count = 0
    for tup in itertools.product(field.units(), repeat=m):
        acc = 0
        for x in tup:
            acc = field.add(acc, field.add(x, field.inv(x)))
        if acc == beta:
            count += 1
    return count


def test_kloosterman_gf3_values():
    F = Field(1)
    assert kloosterman(F, 1) == -1
    assert kloosterman(F, 2) == 2


def test_kloosterman_real_and_weil_bound():
    for r in (1, 2, 3):
        F = Field(r)
        for a, k in kloosterman_table(F).items():
            assert k * k <= 4 * F.q
            assert isinstance(k, int)


def test_kloosterman_rejects_nonunits():
    F = Field(2)
    with pytest.raises(ValueError):
        kloosterman(F, 0)
    with pytest.raises(ValueError):
        kloosterman(F, F.q)


def test_kloosterman_scale_matches_square_substitution():
    # sum of lambda(a(x + 1/x)) equals K(lambda; a^2) after x -> ax
    for r in (1, 2):
        F = Field(r)
        for a in F.units():
            scaled = char_sum(F, (F.mul(a, F.add(x, F.inv(x))) for x in F.units()))
            assert scaled == kloosterman(F, F.mul(a, a))


def test_moments_gf3():
    F = Field(1)
    sk, mk = moment_series(F, 4)
    assert sk == [1, -1, 1, -1, 1]
    assert mk == [2, 1, 5, 7, 17]
    assert sk[0] == (F.q - 1) // 2
    assert mk[0] == F.q - 1


def test_moment_partition_squares_plus_nonsquares():
    for r in (1, 2, 3):
        F = Field(r)
        table = kloosterman_table(F)
        for h in range(5):
            nonsq = sum(table[a] ** h for a in F.units() if not F.is_square(a))
            assert mk_moment(F, h) == sk_moment(F, h) + nonsq


def test_square_argument_sum_is_twice_sk():
    for r in (1, 2, 3, 4):
        F = Field(r)
        table = kloosterman_table(F)
        for h in range(11):
            total = sum(table[F.mul(a, a)] ** h for a in F.units())
            assert total == 2 * sk_moment(F, h)


def test_gl_kloosterman_base_cases():
    for r in (1, 2):
        F = Field(r)
        for a in F.units():
            assert gl_kloosterman(F, 0, a) == 1
            assert gl_kloosterman(F, 1, a) == kloosterman(F, a)


def test_gl_kloosterman_against_bruteforce():
    for r in (1, 2):
        F = Field(r)
        for a in F.units():
            assert gl_kloosterman_bruteforce(F, 1, a) == gl_kloosterman(F, 1, a)
            assert gl_kloosterman_bruteforce(F, 2, a) == gl_kloosterman(F, 2, a)


def test_gl2_value_at_q3():
    F = Field(1)
    # |GL(2,3)| = 48; direct recursion: 3*K(1)*K(1)+9*2 with K(1)=-1 -> 21
    assert gl_kloosterman(F, 2, 1) == 21
    assert gl_kloosterman_bruteforce(F, 2, 1) == 21


def test_gl_bruteforce_guards():
    F = Field(1)
    with pytest.raises(ValueError):
        gl_kloosterman_bruteforce(F, 3, 1)
    F81 = Field(4)
    with pytest.raises(ValueError):
        gl_kloosterman_bruteforce(F81, 2, 1)


def test_delta_convolution_matches_naive():
    for r in (1, 2):
        F = Field(r)
        for m in (0, 1, 2, 3):
            for beta in F.elements():
                assert delta_counts(F, m)[beta] == naive_delta(F, m, beta)


def test_delta_base_case_and_mass():
    for r in (1, 2, 3):
        F = Field(r)
        assert delta_counts(F, 0)[0] == 1
        assert all(delta_counts(F, 0)[b] == 0 for b in F.units())
        for m in (1, 2, 3):
            assert sum(delta_counts(F, m)) == (F.q - 1) ** m


def test_delta1_closed_form():
    for r in (1, 2, 3):
        F = Field(r)
        for beta in F.elements():
            assert delta1_closed(F, beta) == delta_counts(F, 1)[beta]


def test_delta2_bound_with_equality_at_zero():
    for r in (1, 2, 3):
        F = Field(r)
        q = F.q
        d2 = delta_counts(F, 2)
        assert d2[0] == 2 * q - 4
        for beta in F.units():
            assert d2[beta] <= 2 * q - 4


def test_delta_guard():
    F = Field(1)
    with pytest.raises(ValueError):
        delta_counts(F, 5)[0]


def test_quadratic_tables_capped_at_q_3_8():
    assert TABLE_MAX_Q == 3**8
    F = Field(9)
    table = kloosterman_table(F)  # two transforms, no O(q^2) scan
    assert len(table) == F.q - 1
    assert all(k * k <= 4 * F.q for k in table.values())
    sk, mk = moment_series(F, 2)
    assert sk[0] == (F.q - 1) // 2
    assert mk[0] == F.q - 1
    with pytest.raises(ValueError, match="capped"):
        delta_counts(F, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        moment_series(Field(1), -1)


@pytest.mark.parametrize(
    "r, modulus", [(r, None) for r in range(1, 6)] + [(1, (2, 1)), (2, (1, 0, 1)), (3, (2, 2, 0, 1))]
)
def test_kloosterman_table_matches_bruteforce(r, modulus):
    F = Field(r, modulus)
    table = kloosterman_table(F)
    assert list(table) == list(F.units())
    for a in F.units():
        assert table[a] == kloosterman(F, a)


@pytest.mark.parametrize("r", [6, 7])
def test_kloosterman_table_frobenius_orbits(r):
    F = Field(r)
    table = kloosterman_table(F)
    assert list(table) == list(F.units())
    seen = set()
    for a in F.units():
        assert table[a] == table[F.pow(a, 3)]  # K(b) = K(b^3)
        if a not in seen:
            assert table[a] == kloosterman(F, a)
            seen.update(F.pow(a, 3**i) for i in range(r))


def test_delta_to_kloosterman_identity():
    for r in (1, 2):
        F = Field(r)
        for m in (0, 1, 2, 3):
            for a in F.units():
                res = check_delta_to_kloosterman(F, m, a)
                assert res.ok, res


def test_kloosterman_to_delta_identity():
    for r in (1, 2):
        F = Field(r)
        for m in (0, 1, 2, 3):
            for beta in F.elements():
                res = check_kloosterman_to_delta(F, m, beta)
                assert res.ok, res


def test_identities_modulus_independent():
    F = Field(2, (1, 0, 1))
    for m in (1, 2):
        for a in F.units():
            assert check_delta_to_kloosterman(F, m, a).ok
    # SK moments agree across moduli of the same field
    sk_default, _ = moment_series(Field(2), 6)
    sk_other, _ = moment_series(F, 6)
    assert sk_default == sk_other


@pytest.mark.parametrize("r", [2, 3, 4])
def test_kloosterman_table_checks_transform_against_oracle(r, monkeypatch):
    import kloos.charsums as charsums

    real = charsums.char_transform

    def units_rotated(field, f):  # the true values at other units: real and Weil-bounded
        out = real(field, f)
        return out[:1] + out[2:] + out[1:2]

    monkeypatch.setattr(charsums, "char_transform", units_rotated)
    with pytest.raises(ArithmeticError, match="brute force disagrees"):
        kloosterman_table.__wrapped__(Field(r))
