import itertools
import random
from array import array
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kloos.charsums import (
    DELTA_MAX_M,
    delta_counts,
    kloosterman,
    kloosterman_squares,
    kloosterman_table,
    mk_moment,
    moment_series,
    sk_moment,
)
from kloos.codes import trace_profile
from kloos.constants import CosetFamily
from kloos.field import Field, _monic_polys, char_sum, find_factor
from kloos.groups import double_coset, enumerate_o2_minus, enumerate_so2_minus

# None is the default modulus; the rest are every irreducible modulus of degree <= 5
MODULI = [(r, None) for r in range(1, 6)] + [
    (r, m) for r in range(1, 6) for m in _monic_polys(r) if find_factor(m) is None
]


@lru_cache(maxsize=None)
def cached_field(r, modulus):
    return Field(r, modulus)


def naive_delta(field, m, beta):
    """Literal m-fold loop over (F_q^*)^m; test oracle for the delta counts."""
    count = 0
    for tup in itertools.product(field.units(), repeat=m):
        acc = 0
        for x in tup:
            acc = field.add(acc, field.add(x, field.inv(x)))
        if acc == beta:
            count += 1
    return count


def convolved_deltas(field, m_max):
    """delta(0..m_max) by m-fold additive convolution of the x + 1/x
    histogram, O(q^2) per step; test oracle for the transform."""
    q = field.q
    fiber = [0] * q
    for x in field.units():
        fiber[field.add(x, field.inv(x))] += 1
    cur = [1] + [0] * (q - 1)
    out = [tuple(cur)]
    for _ in range(m_max):
        nxt = [0] * q
        for y in range(q):
            if fiber[y]:
                for s in range(q):
                    nxt[field.add(s, y)] += cur[s] * fiber[y]
        cur = nxt
        out.append(tuple(cur))
    return out


def delta1_square_class(field, beta):
    """delta(1; beta) from the square class of beta^2 - 1: the two solutions
    of x + 1/x = beta merge when beta^2 - 1 = 0 and vanish when it is a
    nonsquare."""
    disc = field.sub(field.mul(beta, beta), 1)
    if disc == 0:
        return 1
    return 2 if field.is_square(disc) else 0


def test_kloosterman_gf3_values():
    F = Field(1)
    assert kloosterman(F, 1) == -1
    assert kloosterman(F, 2) == 2


def test_kloosterman_real_and_weil_bound():
    for r in (1, 2, 3):
        F = Field(r)
        for k in kloosterman_table(F):
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


@pytest.mark.parametrize("r", range(1, 6))
def test_delta_transform_matches_convolution(r):
    F = Field(r)
    for m, expected in enumerate(convolved_deltas(F, DELTA_MAX_M)):
        assert delta_counts(F, m) == expected


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
    for r in (1, 2, 3, 4, 5):
        F = Field(r)
        for beta in F.elements():
            assert delta1_square_class(F, beta) == delta_counts(F, 1)[beta]


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


def test_tables_at_q_3_9_need_no_quadratic_scan():
    F = Field(9)
    table = kloosterman_table(F)  # two transforms, no O(q^2) scan
    assert len(table) == F.q and table[0] == -1
    assert all(k * k <= 4 * F.q for k in table)
    sk, mk = moment_series(F, 2)
    assert sk[0] == (F.q - 1) // 2
    assert mk[0] == F.q - 1
    d2 = delta_counts(F, 2)  # one transform of the table, no O(q^2) scan
    assert len(d2) == F.q
    assert sum(d2) == (F.q - 1) ** 2
    assert d2[0] == 2 * F.q - 4
    with pytest.raises(ValueError, match="nonnegative"):
        moment_series(Field(1), -1)


@pytest.mark.parametrize(
    "r, modulus", [(r, None) for r in range(1, 6)] + [(1, (2, 1)), (2, (1, 0, 1)), (3, (2, 2, 0, 1))]
)
def test_kloosterman_table_matches_bruteforce(r, modulus):
    F = Field(r, modulus)
    table = kloosterman_table(F)
    assert len(table) == F.q and table[0] == -1
    for a in F.units():
        assert table[a] == kloosterman(F, a)


@pytest.mark.parametrize("r", [6, 7])
def test_kloosterman_table_frobenius_orbits(r):
    F = Field(r)
    table = kloosterman_table(F)
    assert len(table) == F.q and table[0] == -1
    seen = set()
    for a in F.units():
        assert table[a] == table[F.pow(a, 3)]  # K(b) = K(b^3)
        if a not in seen:
            assert table[a] == kloosterman(F, a)
            seen.update(F.pow(a, 3**i) for i in range(r))


def test_delta_to_kloosterman_identity(duality_failures):
    for r in (1, 2):
        F = Field(r)
        for m in (0, 1, 2, 3):
            assert duality_failures(F, m)[0] == [], (r, m)


def test_kloosterman_to_delta_identity(duality_failures):
    for r in (1, 2):
        F = Field(r)
        for m in (0, 1, 2, 3):
            assert duality_failures(F, m)[1] == [], (r, m)


def test_kloosterman_to_delta_fails_on_off_by_one_delta(duality_failures):
    F, beta = Field(2), 1
    d2 = delta_counts(F, 2)
    moved = d2[:beta] + (d2[beta] + 1,) + d2[beta + 1 :]
    bad_a, bad_beta = duality_failures(F, 2, moved)
    assert bad_beta == [beta]
    assert bad_a  # moved mass is no longer even in beta, so its sums are not real


def test_kloosterman_to_delta_reads_k_apart_from_the_table(monkeypatch, duality_failures):
    import kloos.charsums as charsums

    # delta(1) rebuilt from a table with two square entries swapped agrees with that table,
    # so only sides that do not read the table can tell
    F = Field(2)
    table = list(kloosterman_table(F))
    s = F.squares()[0]
    t = next(a for a in F.squares() if table[a] != table[s])
    table[s], table[t] = table[t], table[s]
    at_squares = tuple(table[F.mul(a, a)] for a in F.elements())
    monkeypatch.setattr(charsums, "kloosterman_squares", lambda field: at_squares)
    bad_a, bad_beta = duality_failures(F, 1, delta_counts.__wrapped__(F, 1))
    assert {F.mul(a, a) for a in bad_a} == {s, t}
    assert bad_beta


def test_identities_modulus_independent(duality_failures):
    F = Field(2, (1, 0, 1))
    for m in (1, 2):
        assert duality_failures(F, m) == ([], [])
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


@pytest.mark.parametrize("r", [2, 3, 4])
def test_kloosterman_table_checks_closed_moments(r, monkeypatch):
    import kloos.charsums as charsums

    real = charsums.char_transform
    calls = []

    def one_value_moved(field, f):  # K(1), still inside the Weil bound
        out = real(field, f)
        if not calls:  # the square transform; its entry at 2 = -1 becomes K(1)
            out[2] += 3 if out[2] <= 0 else -3
        calls.append(1)
        return out

    F = Field(r)
    a2 = F.mul(F.q - 1, F.q - 1)
    assert 1 not in (a2, F.mul(a2, F.first_nonsquare()))  # not a brute-force entry
    monkeypatch.setattr(charsums, "char_transform", one_value_moved)
    with pytest.raises(ArithmeticError, match="moments"):
        kloosterman_table.__wrapped__(F)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_kloosterman_table_checks_square_moments(r, monkeypatch):
    import kloos.charsums as charsums

    real = charsums.char_transform
    outputs = []

    def square_swapped(field, f):  # K(1) and K(b0) trade places: every MK moment still holds
        out = real(field, f)
        outputs.append(out)
        if len(outputs) == 2:  # the nonsquare transform: its entries at 1, 2 (K(b0)) and the square's (K(1))
            for a in (1, 2):
                outputs[0][a], out[a] = out[a], outputs[0][a]
        return out

    F = Field(r)
    b0 = F.first_nonsquare()
    assert kloosterman_table(F)[1] != kloosterman_table(F)[b0]
    a2 = F.mul(F.q - 1, F.q - 1)
    assert not {1, b0} & {a2, F.mul(a2, b0)}  # neither is a brute-force entry
    monkeypatch.setattr(charsums, "char_transform", square_swapped)
    with pytest.raises(ArithmeticError, match="square moments"):
        kloosterman_table.__wrapped__(F)


@pytest.mark.parametrize("r", [4, 6, 8])
def test_kloosterman_table_frobenius_guard_catches_dual_index_swaps(r, monkeypatch):
    # two entries of the dual index from different <Frobenius, -1> orbits
    # trade places, so both transforms place K values at the wrong units; a
    # swap either leaves the table as it was or raises, and the swaps that
    # pass the Weil bound, the closed moments and the brute-force entries
    # meet the Frobenius guard
    import kloos.field

    F = Field(r)
    honest, index = kloosterman_table(F), kloos.field._dual_index(F)
    orbit = {}
    for a in F.units():
        if a not in orbit:
            for c in (F.pow(a, 3**i) for i in range(r)):
                orbit[c] = orbit[F.neg(c)] = a
    outcomes = []
    for seed in range(40):
        rng = random.Random(seed)
        a, b = rng.sample(F.units(), 2)
        while orbit[a] == orbit[b]:
            a, b = rng.sample(F.units(), 2)
        swapped = array(index.typecode, index)
        swapped[a], swapped[b] = index[b], index[a]
        # char_transform reads the index from kloos.field at every call
        monkeypatch.setattr(kloos.field, "_dual_index", lambda field: swapped)
        try:
            table = kloosterman_table.__wrapped__(F)
        except ArithmeticError as exc:
            outcomes.append("frobenius" if "Frobenius fails" in str(exc) else "other guard")
        else:
            assert table == honest, (seed, a, b)
            outcomes.append("unchanged")
    assert "frobenius" in outcomes, outcomes


@settings(max_examples=30, deadline=None)
@given(args=st.sampled_from(MODULI), data=st.data())
def test_per_element_vectors_are_element_indexed_tuples(args, data):
    F = cached_field(*args)
    q = F.q
    table, at_squares = kloosterman_table(F), kloosterman_squares(F)
    so2, o2 = enumerate_so2_minus(F), enumerate_o2_minus(F)
    circle = trace_profile(CosetFamily(1, -1), 1, F)  # SO^-(2, q) is the DC1- coset at n = 1
    vectors = [table, at_squares, so2.trace_histogram(), o2.trace_histogram(), circle.counts]
    vectors += [delta_counts(F, m) for m in range(DELTA_MAX_M + 1)]
    assert all(type(v) is tuple and len(v) == q for v in vectors)
    assert (sum(table), sum(k * k for k in table)) == (0, q * (q - 1))
    assert table[0] == at_squares[0] == -1
    assert all(at_squares[a] == table[F.mul(a, a)] for a in F.elements())
    for a in data.draw(st.lists(st.integers(1, q - 1), min_size=1, max_size=3)):
        assert at_squares[a] == kloosterman(F, F.mul(a, a)), a
    assert sum(so2.trace_histogram()) == so2.order == q + 1
    assert sum(o2.trace_histogram()) == o2.order == 2 * (q + 1)
    assert so2.trace_histogram() == circle.counts
    if q == 3:  # the double cosets that acceptance criterion 3 enumerates
        for family, n in [(CosetFamily(1, 1), 2), (CosetFamily(2, 1), 2), (CosetFamily(3, 1), 2)]:
            gset = double_coset(F, family, n)
            assert sum(gset.trace_histogram()) == gset.order
            assert gset.trace_histogram() == trace_profile(family, n, F).counts, family.label
