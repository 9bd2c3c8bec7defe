import pickle
import random
import re
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kloos.charsums import kloosterman_table, moment_series
from kloos.codes import _orbits
from kloos.field import (
    DEFAULT_MODULI,
    Field,
    _dual_index,
    _monic_polys,
    char_fibers,
    char_sum,
    char_transform,
    find_factor,
    linear_map,
    poly_mod,
    poly_str,
    translates,
)

# the default modulus of each small degree plus one whose x is not a
# generator, so the exp table of a generator other than x is covered too
REFERENCE_MODULI = [(1, None), (1, (2, 1)), (2, None), (2, (1, 0, 1)), (3, None), (3, (2, 2, 0, 1))]
IRREDUCIBLE_MODULI = [m for r in (1, 2, 3, 4) for m in _monic_polys(r) if find_factor(m) is None]
# (r, modulus) for the default modulus and every irreducible one, r <= 4
FIELD_ARGS = [(r, None) for r in (1, 2, 3, 4)] + [(len(m) - 1, m) for m in IRREDUCIBLE_MODULI]
LINEAR_ARGS = FIELD_ARGS + [(5, None)]
# x is 0 at r = 1 under modulus x and 1 under x + 2; x^8 + x^2 + 2 is irreducible, not primitive
GENERATOR_PINS = [((1, (0, 1)), 2), ((1, (2, 1)), 2), ((8, (2, 0, 1, 0, 0, 0, 0, 0, 1)), 38)]
# the default modulus of each degree r <= 5 plus x^2 + 1, whose x is not a generator
FIBER_ARGS = [(r, None) for r in range(1, 6)] + [(2, (1, 0, 1))]
# the same up to r = 6, plus x^8 + x^2 + 2, whose first generator is 38
LOG_DOMAIN_ARGS = [(r, None) for r in range(1, 7)] + [(2, (1, 0, 1)), (8, (2, 0, 1, 0, 0, 0, 0, 0, 1))]


@lru_cache(maxsize=None)
def cached_field(r, modulus=None):
    return Field(r, modulus)


def digitwise_scale(F, c, a):
    """c * a coefficient by coefficient, with no table."""
    return F.from_int_coeffs(c * d for d in F.coeffs(a))


def frobenius_trace(F, a):
    """a + a^3 + ... + a^(3^(r-1)) by schoolbook products and digit sums."""
    acc, conj = a, a
    for _ in range(F.r - 1):
        conj = F._mul_raw(F._mul_raw(conj, conj), conj)
        acc = F._add_digits(acc, conj)
    return acc


def digitwise_combination(F, images, beta):
    """sum of beta_i images[i] over the digits beta_i of beta, by digit sums."""
    acc = 0
    for d, image in zip(F.coeffs(beta), images):
        acc = F._add_digits(acc, digitwise_scale(F, d, image))
    return acc


def assert_ops_match_reference(F, a, b):
    assert F.add(a, b) == F._add_digits(a, b)
    assert F.neg(b) == digitwise_scale(F, 2, b)
    assert F.sub(a, b) == F._add_digits(a, digitwise_scale(F, 2, b))
    for c in (-1, 0, 1, 2, 3, 5):
        assert F.mul(c % 3, a) == digitwise_scale(F, c, a)
    assert F.mul(a, b) == F._mul_raw(a, b)


def test_default_moduli_are_irreducible():
    for r, modulus in DEFAULT_MODULI.items():
        assert len(modulus) == r + 1
        assert modulus[-1] == 1
        assert find_factor(modulus) is None


def test_construction_all_supported_degrees():
    for r in range(1, 13):
        F = cached_field(r)
        assert F.q == 3**r
        assert F.mul(F.q - 1, 0) == 0


def test_custom_modulus_accepted():
    F = Field(2, (1, 0, 1))
    x = F.element((0, 1))
    assert F.mul(x, x) == 2  # x^2 = -1


def test_reducible_modulus_rejected_with_factor_named():
    with pytest.raises(ValueError, match=r"reducible.*x \+ 1"):
        Field(2, (2, 0, 1))  # x^2 + 2 = (x+1)(x+2)


def _monic(code, degree):
    """The monic polynomial of the degree whose lower coefficients, constant
    term first, are the base-3 digits of code."""
    return tuple(code // 3**i % 3 for i in range(degree)) + (1,)


def _divides(divisor, modulus):
    """Long division of modulus by monic divisor over F_3, remainder zero."""
    rest, k = list(modulus), len(divisor) - 1
    for i in range(len(rest) - 1, k - 1, -1):
        lead = rest[i]
        for j, c in enumerate(divisor):
            rest[i - k + j] = (rest[i - k + j] - lead * c) % 3
    return not any(rest)


def test_find_factor_names_the_first_monic_divisor():
    # the factor a refusal names: the first monic divisor by degree, then in
    # range(3**k) order of its lower coefficients read constant term first;
    # below degree 6 the irreducible candidates of each degree come in the
    # same order whichever coefficient varies fastest, so degree 6 pins it
    reducible = 0
    for degree in (2, 3, 4, 5, 6):
        for code in range(3**degree):
            modulus = _monic(code, degree)
            divisors = (_monic(c, k) for k in range(1, degree // 2 + 1) for c in range(3**k))
            first = next((d for d in divisors if _divides(d, modulus)), None)
            assert find_factor(modulus) == first, modulus
            reducible += first is not None
    # 3^d minus the 3, 8, 18, 48 and 116 monic irreducibles of degree d = 2..6
    assert reducible == 6 + 19 + 63 + 195 + 613


def test_wrong_degree_and_non_monic_rejected():
    with pytest.raises(ValueError, match="degree"):
        Field(3, (1, 0, 1))
    with pytest.raises(ValueError, match="monic"):
        Field(2, (1, 0, 2))
    assert Field(2, (2, 1, 1, 0)) == Field(2, (2, 1, 1))  # trailing zeros dropped first
    with pytest.raises(ValueError):
        Field(0)
    with pytest.raises(ValueError):
        Field(13)


def test_field_axioms_exhaustive_small():
    for r in (1, 2, 3):
        F = Field(r)
        for a in F.elements():
            assert F.add(a, 0) == a
            assert F.add(a, F.neg(a)) == 0
            assert F.mul(a, 1) == a
            if a:
                assert F.mul(a, F.inv(a)) == 1
        # commutativity and distributivity on a sample grid
        elts = list(F.elements())
        for a in elts:
            for b in elts[: min(9, F.q)]:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in elts[:3]:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_mul_matches_raw_polynomial_product():
    for r in (2, 3, 4):
        F = Field(r)
        for a in list(F.elements())[:40]:
            for b in list(F.elements())[:40]:
                assert F.mul(a, b) == F._mul_raw(a, b)


def test_trace_matches_frobenius_power_sum():
    for r in (1, 2, 3, 4, 5):
        F = Field(r)
        for a in F.elements():
            acc = 0
            for i in range(r):
                acc = F.add(acc, F.pow(a, 3**i))
            assert F.trace(a) == acc
            assert acc in (0, 1, 2)


@pytest.mark.parametrize("r, modulus", REFERENCE_MODULI)
def test_ops_match_digitwise_reference_exhaustive(r, modulus):
    F = cached_field(r, modulus)
    for a in F.elements():
        assert F.trace(a) == frobenius_trace(F, a)
        for b in F.elements():
            assert_ops_match_reference(F, a, b)


@pytest.mark.parametrize("r", range(4, 13))
def test_ops_match_digitwise_reference_sampled(r):
    F = cached_field(r)
    rng = random.Random(r)
    samples = [0, 1, 2, F.q - 1] + [rng.randrange(F.q) for _ in range(60)]
    for a in samples:
        assert F.trace(a) == frobenius_trace(F, a)
        for b in samples[:8]:
            assert_ops_match_reference(F, a, b)
            assert_ops_match_reference(F, b, a)


@pytest.mark.parametrize("r", [1, 6, 12])
def test_every_table_is_linear_in_q(r):
    F = cached_field(r)
    tables = [v for v in vars(F).values() if isinstance(v, (list, tuple))]
    assert tables
    assert all(len(t) <= F.q and not any(isinstance(x, list) for x in t) for t in tables)


@settings(max_examples=25, deadline=None)
@given(modulus=st.sampled_from(IRREDUCIBLE_MODULI), data=st.data())
def test_random_modulus_matches_default(modulus, data):
    r = len(modulus) - 1
    F, base = cached_field(r, modulus), cached_field(r)
    assert Counter(kloosterman_table(F)) == Counter(kloosterman_table(base))
    assert moment_series(F, 8) == moment_series(base, 8)
    element = st.integers(0, F.q - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=40))
    for a, b in pairs:
        assert_ops_match_reference(F, a, b)
        assert F.trace(a) == frobenius_trace(F, a)


@settings(max_examples=40, deadline=None)
@given(field_args=st.sampled_from(LINEAR_ARGS), data=st.data())
def test_linear_map_and_translates_match_digit_sums(field_args, data):
    F = cached_field(*field_args)
    top = data.draw(st.sampled_from((2, F.q - 1)))  # images in F_3, as for the trace, or anywhere
    images = data.draw(st.lists(st.integers(0, top), min_size=F.r, max_size=F.r))
    assert linear_map(images) == [digitwise_combination(F, images, beta) for beta in F.elements()]
    s, t = data.draw(st.integers(0, F.q - 1)), data.draw(st.integers(0, 2))
    assert translates(F.r, s, t) == [F._add_digits(s, digitwise_scale(F, t, beta)) for beta in F.elements()]


@pytest.mark.parametrize("r, modulus", LINEAR_ARGS)
def test_linear_tables_match_their_definitions(r, modulus):
    F = cached_field(r, modulus)
    g = F._exp[1]
    times_g = linear_map([F._mul_raw(g, 3**i) for i in range(r)])
    frob = linear_map([F.pow(3**i, 3) for i in range(r)])
    index = _dual_index(F)
    # a constant y is Frobenius-invariant, so the orbits are those of <Frobenius, -1>
    orbits = _orbits(F, [1] * F.q, translates(r, 0, 2))
    orbit_of = {b: set(orbit) for orbit in orbits for b in orbit}
    assert sum(map(len, orbits)) == len(orbit_of) == F.q  # every element in exactly one orbit
    for b in F.elements():
        assert times_g[b] == F._mul_raw(g, b)
        assert F._trace[b] == frobenius_trace(F, b)
        assert frob[b] == F.pow(b, 3)
        assert orbit_of[b] == {F.pow(c, 3**k) for c in (b, F.neg(b)) for k in range(r)}
        assert [index[b] // 3**j % 3 for j in range(r)] == [frobenius_trace(F, F._mul_raw(b, 3**j)) for j in range(r)]
    assert all(F._exp[k + 1] == F._mul_raw(F._exp[k], g) for k in range(F.q - 2))


@pytest.mark.parametrize("r, modulus", LINEAR_ARGS + [args for args, _ in GENERATOR_PINS])
def test_exp_walks_the_first_generator_in_element_order(r, modulus):
    F = cached_field(r, modulus)
    assert sorted(F._exp) == list(F.units())  # every unit exactly once
    assert F._exp[1] == next(u for u in F.units() if gcd(F._log[u], F.q - 1) == 1)


def test_generator_pins():
    for r in range(1, 13):
        assert cached_field(r)._exp[1] == cached_field(r).element((0, 1))  # every default modulus is primitive
    for args, g in GENERATOR_PINS:
        assert cached_field(*args)._exp[1] == g


def test_trace_frobenius_invariant_and_additive():
    for r in (2, 3, 4):
        F = Field(r)
        for a in F.elements():
            assert F.trace(F.pow(a, 3)) == F.trace(a)
        for a in list(F.elements())[:20]:
            for b in list(F.elements())[:20]:
                assert F.trace(F.add(a, b)) == (F.trace(a) + F.trace(b)) % 3


def test_trace_fibers_have_size_q_over_3():
    for r in (1, 2, 3, 4):
        F = Field(r)
        fibers = Counter(F.trace(a) for a in F.elements())
        assert fibers == {0: F.q // 3, 1: F.q // 3, 2: F.q // 3}


def test_squares_exhaustive():
    for r in (1, 2, 3, 5):
        F = Field(r)
        squared = {F.mul(a, a) for a in F.units()}
        assert squared == set(F.squares())
        assert len(squared) == (F.q - 1) // 2
        for a in F.units():
            assert F.is_square(a) == (a in squared)
        assert F.is_square(0)
        eps = F.first_nonsquare()
        assert not F.is_square(eps)
        assert all(F.is_square(a) for a in range(1, eps))


def test_pow_agrees_with_repeated_mul():
    F = Field(3)
    for a in (1, 5, 20):
        acc = 1
        for e in range(12):
            assert F.pow(a, e) == acc
            acc = F.mul(acc, a)
        assert F.pow(a, -1) == F.inv(a)


def test_coeffs_roundtrip_and_reduction():
    F = Field(3)
    for a in F.elements():
        assert F.element(F.coeffs(a)) == a
        assert len(F.coeffs(a)) == 3
    # x^3 reduces per the modulus
    x3 = F.element((0, 0, 0, 1))
    assert x3 == F.pow(F.element((0, 1)), 3)


def test_basis_independence_of_trace_multiset():
    F_a = Field(2)
    F_b = Field(2, (1, 0, 1))
    assert F_a.modulus != F_b.modulus
    fibers_a = Counter(F_a.trace(x) for x in F_a.elements())
    fibers_b = Counter(F_b.trace(x) for x in F_b.elements())
    assert fibers_a == fibers_b
    assert len(F_a.squares()) == len(F_b.squares())


def test_field_identity_and_pickle(monkeypatch):
    F = Field(2)
    assert F == Field(2)
    assert F != Field(2, (1, 0, 1))
    data = pickle.dumps(F)

    def rebuild(*args):
        raise AssertionError("unpickling called Field.__init__")

    monkeypatch.setattr(Field, "__init__", rebuild)
    clone = pickle.loads(data)
    assert clone == F and hash(clone) == hash(F)
    assert vars(clone) == vars(F)  # the pickle carries the tables, not a recipe
    assert clone.trace(5) == F.trace(5)


def test_char_sum():
    for r in (1, 2, 3):
        F = Field(r)
        assert char_sum(F, F.elements()) == 0  # the full additive group
        assert char_sum(F, [0] * 5) == 5
        values = [F.add(x, F.inv(x)) for x in F.units()]  # a Kloosterman sum, real
        weights = Counter(values)
        assert char_sum(F, weights.keys(), weights.values()) == char_sum(F, values)
    F = Field(2)
    with pytest.raises(ArithmeticError, match="not real"):
        char_sum(F, [1])  # omega^tr(1) alone is not real


def test_char_sum_guard_survives_optimize_flag():
    # python -O strips assert statements; the realness guard must stay
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "from kloos.field import Field, char_sum; char_sum(Field(2), [1])"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0
    assert "ArithmeticError" in proc.stderr


def symmetric_function(F, draw_value):
    """An integer f on F_q with f(-beta) = f(beta)."""
    f = [0] * F.q
    for beta in F.elements():
        neg = F.neg(beta)
        if beta <= neg:
            f[beta] = f[neg] = draw_value()
    return f


@settings(max_examples=40, deadline=None)
@given(field_args=st.sampled_from(FIELD_ARGS), data=st.data())
def test_char_transform_matches_char_sum(field_args, data):
    F = cached_field(*field_args)
    f = symmetric_function(F, lambda: data.draw(st.integers(-(10**6), 10**6)))
    transform = char_transform(F, f)
    assert len(transform) == F.q
    for a in F.elements():
        assert transform[a] == char_sum(F, (F.mul(a, b) for b in F.elements()), f)
    # lambda(a beta) summed over a is q at beta = 0 and 0 elsewhere
    assert char_transform(F, transform) == [F.q * v for v in f]


def test_char_transform_guards():
    F = Field(2)
    rng = random.Random(2)
    f = symmetric_function(F, lambda: rng.randrange(-5, 6))
    f[1] += 1  # f(1) != f(-1): the transform is not real
    with pytest.raises(ArithmeticError, match="not real"):
        char_transform(F, f)
    for length in (F.q - 1, F.q + 1, 0):
        with pytest.raises(ValueError, match="expected q=9"):
            char_transform(F, [0] * length)


def test_char_transform_guard_survives_optimize_flag():
    proc = subprocess.run(
        [
            sys.executable,
            "-O",
            "-c",
            "from kloos.field import Field, char_transform; char_transform(Field(2), [0, 1] + [0] * 7)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0
    assert "ArithmeticError" in proc.stderr


def fibers_by_definition(F, f):
    """(T0, T1, T2) with Tk[a] the sum of f(beta) over beta with tr(a beta) = k."""
    fibers = ([0] * F.q, [0] * F.q, [0] * F.q)
    for a in F.elements():
        for beta, v in enumerate(f):
            fibers[F.trace(F.mul(a, beta))][a] += v
    return fibers


@pytest.mark.parametrize("r, modulus", FIBER_ARGS)
@settings(max_examples=8, deadline=None)
@given(bound=st.sampled_from([0, 10**6, 2**70]), seed=st.integers(0, 2**32))
def test_char_fibers_match_their_definition(r, modulus, bound, seed):
    # f is not symmetric, so T1 != T2; 2^70 needs slots wider than 8 bytes
    F = cached_field(r, modulus)
    rng = random.Random(seed)
    f = [rng.randint(-bound, bound) for _ in F.elements()]
    expected = fibers_by_definition(F, f)
    assert char_fibers(F, f) == expected
    assert char_fibers(F, tuple(f), (0,)) == expected[:1]


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 63, 64, 71, 72])
def test_char_fibers_at_slot_width_boundaries(bits):
    # sum |f| = 2^bits - 1 fits a slot of bits + 1 bits, so a width of 8, 16,
    # 32 or 64 bits is either just wide enough or one bit short
    F = cached_field(2)
    for f in ([2**bits - 1, 0, 0, 0, 0, 0, 0, 0, 0], [-(2 ** (bits - 1)), 0, 0, 2 ** (bits - 1) - 1, 0, 0, 0, 0, 0]):
        assert char_fibers(F, f) == fibers_by_definition(F, f)


def test_char_transform_names_the_first_non_real_value():
    F = cached_field(3)
    rng = random.Random(3)
    for _ in range(5):
        f = [rng.randrange(-5, 6) for _ in F.elements()]
        t0, t1, t2 = fibers_by_definition(F, f)
        a = next(a for a in F.elements() if t1[a] != t2[a])
        message = f"value {t0[a] - t2[a]} + {t1[a] - t2[a]}*omega is not real"
        with pytest.raises(ArithmeticError, match=re.escape(message)) as exc:
            char_transform(F, f)
        assert str(exc.value) == message


@pytest.mark.parametrize("r, modulus", LOG_DOMAIN_ARGS)
def test_log_domain_tables_match_field_arithmetic(r, modulus):
    F = cached_field(r, modulus)
    for c in sorted({1, F.first_nonsquare(), F.q - 1}):
        hist = [0] * F.q
        for x in F.units():
            hist[F.add(x, F.mul(c, F.inv(x)))] += 1
        assert F.inverse_sum_histogram(c) == hist, c
        assert F.times_squares(c) == [F.mul(c, F.mul(a, a)) for a in F.units()], c


def test_poly_helpers():
    assert poly_mod((1, 0, 1), (1, 1)) == (2,)
    assert poly_str((1, 2, 0, 1)) == "x^3 + 2*x + 1"
    assert poly_str((0,)) == "0"
