import random
import sys
from collections import Counter
from math import comb, factorial, gcd

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import kloos.codes
import kloos.constants
import kloos.moments
from kloos.charsums import delta_counts
from kloos.codes import (
    TraceProfile,
    _series,
    check_injectivity,
    check_printed_columns,
    dual_weights,
    dual_weights_from_profile,
    printed_column_counts,
    trace_profile,
    weight_distribution_prefix,
    weight_prefix_from_printed_columns,
    weight_prefix_macwilliams,
)
from kloos.constants import ALL_FAMILIES, CosetFamily, exact_div, family_constants
from kloos.field import Field, char_fibers
from kloos.groups import double_coset, enumerate_so2_minus
from kloos.moments import full_verification, verify_instance
from oracles import enumerate_code_tiny

F3 = Field(1)
F9 = Field(2)
F27 = Field(3)
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def test_profiles_match_enumerated_histograms():
    cases = [
        (CosetFamily(1, -1), 1),
        (CosetFamily(1, 1), 2),
        (CosetFamily(2, 1), 2),
        (CosetFamily(3, 1), 2),
    ]
    for family, n in cases:
        profile = trace_profile(family_constants(family, n, F3.q), F3)
        histogram = double_coset(F3, family, n).trace_histogram()
        assert profile.counts == histogram, family.label
    # Q(2, q) = SO^-(2, q) is the DC1- coset at n = 1, enumerable beyond q = 3;
    # its character sum, the transform of this histogram, is -K(a^2)
    for field in (F9, Field(3)):
        histogram = enumerate_so2_minus(field).trace_histogram()
        assert trace_profile(family_constants(CosetFamily(1, -1), 1, field.q), field).counts == histogram, field.q


# the smallest valid n of every family, at q = 3 and q = 9 (default modulus)
PROFILE_REFERENCE = {
    (1, "DC1+", 2): (180, 234, 234),
    (1, "DC1-", 1): (2, 1, 1),
    (1, "DC2+", 2): (18, 27, 27),
    (1, "DC2-", 3): (571536, 554040, 554040),
    (1, "DC3+", 2): (0, 36, 36),
    (1, "DC3-", 3): (606528, 536544, 536544),
    (1, "DC4+", 4): (33714617040, 34875284184, 34875284184),
    (1, "DC4-", 3): (29160, 8748, 8748),
    (2, "DC1+", 2): (64800, 58968, 58968, 53136, 53136, 64800, 53136, 64800, 53136),
    (2, "DC1-", 1): (0, 1, 1, 2, 2, 0, 2, 0, 2),
    (2, "DC2+", 2): (162, 891, 891, 972, 972, 324, 972, 324, 972),
    (2, "DC2-", 3): (
        308745963360, 305302225680, 305302225680, 304919588160, 304919588160,
        307980688320, 304919588160, 307980688320, 304919588160,
    ),
    (2, "DC3+", 2): (1620, 810, 810, 0, 0, 1620, 0, 1620, 0),
    (2, "DC3-", 3): (
        301858488000, 305684863200, 305684863200, 309511238400, 309511238400,
        301858488000, 309511238400, 301858488000, 309511238400,
    ),
    (2, "DC4+", 4): (
        1076406791806572276960, 1077905679248221321680, 1077905679248221321680,
        1077924184031451556800, 1077924184031451556800, 1077776145765609675840,
        1077924184031451556800, 1077776145765609675840, 1077924184031451556800,
    ),
    (2, "DC4-", 3): (
        754646220, 324179010, 324179010, 318864600, 318864600,
        361379880, 318864600, 361379880, 318864600,
    ),
}


def test_profile_reference_values():
    for (r, label, n), counts in PROFILE_REFERENCE.items():
        field = F3 if r == 1 else F9
        assert trace_profile(family_constants(CosetFamily.parse(label), n, field.q), field).counts == counts, (r, label)


def test_profile_mass_every_family_up_to_n8():
    for field in (F3, F9, F27):
        for family in ALL_FAMILIES:
            for n in family.valid_ns(8):
                consts = family_constants(family, n, field.q)
                profile = trace_profile(consts, field)
                assert profile.length == consts.N
                assert all(c >= 0 for c in profile.counts)


def test_dual_weights_two_routes_agree():
    for field in (F3, F9, F27):
        for family in ALL_FAMILIES:
            for n in family.valid_ns(6):
                consts = family_constants(family, n, field.q)
                profile = trace_profile(consts, field)
                weights = dual_weights(consts, profile)  # asserts agreement internally
                assert dual_weights_from_profile(profile) == [0] + [weights[a] for a in field.units()]


FIELDS_R1_TO_R5 = (F3, F9, F27, Field(4), Field(5))


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(FIELDS_R1_TO_R5), data=st.data())
def test_dual_weights_from_profile_match_kernel_count(field, data):
    # random profiles, asymmetric in general: the zero fiber needs no realness
    counts = data.draw(
        st.lists(st.one_of(st.integers(0, 4), st.integers(0, 10**30)), min_size=field.q, max_size=field.q)
    )
    profile = TraceProfile(field, tuple(counts))
    weights = dual_weights_from_profile(profile)
    assert len(weights) == field.q
    for a in field.elements():  # a = 0 included: its kernel is all of F_q
        kernel_mass = sum(counts[b] for b in field.elements() if field.trace(field.mul(a, b)) == 0)
        assert weights[a] == profile.length - kernel_mass, a


def test_dual_weights_raise_on_moved_coordinate():
    consts, field = family_constants(CosetFamily(2, 1), 2, F9.q), F9
    honest = trace_profile(consts, field)
    # move one coordinate from beta = 1 to beta = 0: same N, other code
    counts = list(honest.counts)
    counts[1] -= 1
    counts[0] += 1
    moved = TraceProfile(field, tuple(counts))
    assert moved.length == honest.length
    with pytest.raises(ArithmeticError, match="dual weight mismatch for DC2\\+,n=2,q=9 at a="):
        dual_weights(consts, moved)


def test_profile_guard_names_the_instance(monkeypatch):
    # one extra unit of delta at beta = 1 moves the profile's mass off N
    def shifted(field, power):
        fibers = list(delta_counts(field, power))
        fibers[1] += 1
        return tuple(fibers)

    monkeypatch.setattr(kloos.codes, "delta_counts", shifted)
    with pytest.raises(ArithmeticError, match=r"^profile mass \d+ != N \d+ for DC1-,n=1,q=3$"):
        trace_profile(family_constants(CosetFamily(1, -1), 1, F3.q), F3)


def test_dual_weights_computes_family_constants_once(family_constants_calls):
    # the one derivation is the record's own: the profile and dual weights read it
    consts = kloos.constants.family_constants(CosetFamily(2, -1), 3, F9.q)
    dual_weights(consts, trace_profile(consts, F9))
    assert len(family_constants_calls) == 1


def test_dual_weight_reference_values():
    def dual_weight(family, n, field, a):
        consts = family_constants(family, n, field.q)
        return dual_weights(consts, trace_profile(consts, field))[a]

    assert dual_weight(CosetFamily(1, -1), 1, F3, 1) == 2
    assert dual_weight(CosetFamily(1, -1), 1, F3, 2) == 2
    assert dual_weight(CosetFamily(2, 1), 2, F3, 1) == 54
    # i=4 at n=3: (2/3) 2916 (16 - (6 + 1)) = 17496
    assert dual_weight(CosetFamily(4, -1), 3, F3, 1) == 17496


def test_dual_weights_invariant_under_negation():
    # a and -a square to the same argument, so their dual words share a weight
    for field in (F9, F27):
        family, n = CosetFamily(1, -1), 3
        consts = family_constants(family, n, field.q)
        weights = dual_weights(consts, trace_profile(consts, field))
        for a in field.units():
            assert weights[a] == weights[field.neg(a)]


def test_injectivity_all_instances():
    for field in (F3, F9, F27):
        for family in ALL_FAMILIES:
            for n in family.valid_ns(6):
                consts = family_constants(family, n, field.q)
                weights = Counter(dual_weights(consts, trace_profile(consts, field))[1:])
                res = check_injectivity(consts, weights)
                assert res.ok, res
                assert min(weights) > 0


def test_weight_prefix_small_code_full_distribution():
    consts = family_constants(CosetFamily(1, -1), 1, F3.q)
    profile = trace_profile(consts, F3)
    assert profile.length == 4
    prefix = weight_distribution_prefix(profile, 4)
    assert prefix == [1, 4, 6, 8, 8]
    assert enumerate_code_tiny(profile) == [1, 4, 6, 8, 8]
    printed = weight_prefix_from_printed_columns(printed_column_counts(consts, F3), 4)
    assert printed == [1, 4, 6, 8, 8]
    assert sum(prefix) == 3**3  # dual dimension r = 1: |code| = 3^(N-1)


def test_weight_prefix_degenerate_all_zero_block():
    # all mass at beta = 0: every word is a codeword, C_j = binom(N,j) 2^j
    from math import comb

    profile = TraceProfile(F3, (5, 0, 0))
    prefix = weight_distribution_prefix(profile, 5)
    assert prefix == [comb(5, j) * 2**j for j in range(6)]
    assert enumerate_code_tiny(profile) == prefix


def _multinomial(n, a, b):
    """n! / (a! b! (n - a - b)!) as a falling factorial, so n may be huge; 0 if a + b > n."""
    if a + b > n:
        return 0
    falling = 1
    for i in range(a + b):
        falling *= n - i
    return falling // (factorial(a) * factorial(b))


def test_ratio_polynomials_match_series():
    # sum_j Q_j(y) z^j / j! = ((1 + 2z) / (1 - z))^(y/3): at y = 3M it is _series(M, -M)
    polys = kloos.codes._ratio_polynomials(12)
    assert len(polys) == 13
    for m in (0, 1, 2, 5, 13, 10**50):
        series = kloos.codes._series(m, -m, 12)
        for j, poly in enumerate(polys):
            assert sum(c * (3 * m) ** k for k, c in enumerate(poly)) == factorial(j) * series[j], (m, j)
    for j, poly in enumerate(polys):
        assert len(poly) == j + 1 and poly[j] == 1, j  # monic of degree j
        assert poly[0] == (j == 0), j  # Q_j(0) = 0 for j >= 1
    assert kloos.codes._ratio_polynomials(3) == polys[:4]


def _check_zero_moments(profile, k_max=12):
    # q m_k = 3^k sum over a of (N - N(0) - w(a))^k: the Fourier image of Y at a
    # is 3 #{coordinates at beta != 0 with tr(a beta) = 0}
    q, n_len, at_zero = profile.field.q, profile.length, profile.counts[0]
    moments = kloos.codes._zero_moments(profile.field, profile.counts, k_max)
    images = [n_len - at_zero - w for w in dual_weights_from_profile(profile)]
    assert len(moments) == k_max + 1
    for k, m in enumerate(moments):
        assert q * m == 3**k * sum(y**k for y in images), (q, k)


def test_zero_moments_match_dual_weights_every_instance():
    # k_max <= 2 takes m_2 without the orbit matrix, k_max = 12 through it
    for field in FIELDS_R1_TO_R5[:4]:
        for family in ALL_FAMILIES:
            for n in family.valid_ns(4):
                for k_max in (0, 2, 12):
                    _check_zero_moments(trace_profile(family_constants(family, n, field.q), field), k_max)


def test_prefix_reads_no_character(monkeypatch):
    # the DP route never calls a transform, the K table or delta: with all of
    # them raising in every kloos module and the per-shape caches cold, each
    # instance's prefix is unchanged
    cases = []
    for field in FIELDS_R1_TO_R5[2:4]:
        for family in ALL_FAMILIES:
            for n in family.valid_ns(4):
                consts = family_constants(family, n, field.q)
                profile = trace_profile(consts, field)
                cases.append((consts.tag, profile, weight_prefix_macwilliams(profile, 8)))

    def refuse(*args, **kwargs):
        raise AssertionError("the weight-prefix DP reached a character route")

    names = ("char_fibers", "char_transform", "char_sum", "kloosterman_table", "kloosterman_squares", "delta_counts")
    for module in [m for name, m in sys.modules.items() if name == "kloos" or name.startswith("kloos.")]:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    kloos.codes._zero_fiber.cache_clear()  # a warm cache would hide the refused transform
    kloos.codes._zero_moments.cache_clear()
    with pytest.raises(AssertionError):
        dual_weights_from_profile(cases[0][1])
    for tag, profile, expected in cases:
        assert weight_distribution_prefix(profile, 8) == expected, tag


def test_weight_prefix_leading_terms():
    for field in (F3, F9):
        for family in ALL_FAMILIES:
            for n in family.valid_ns(4):
                profile = trace_profile(family_constants(family, n, field.q), field)
                prefix = weight_distribution_prefix(profile, 2)
                assert prefix[0] == 1
                assert prefix[1] == 2 * profile.counts[0]


def test_weight_prefix_matches_tiny_enumeration_qgt3():
    # a single-block profile over GF(9): condition is a genuine field equation
    profile = TraceProfile(F9, (1, 2, 0, 1, 0, 0, 0, 0, 0))
    full = enumerate_code_tiny(profile)
    prefix = weight_distribution_prefix(profile, 4)
    assert prefix == full[:5]


def test_printed_columns_agree_with_profile():
    for field in (F3, F9, F27):
        for family in ALL_FAMILIES:
            for n in family.valid_ns(4):
                consts = family_constants(family, n, field.q)
                printed = printed_column_counts(consts, field)
                res = check_printed_columns(consts, trace_profile(consts, field), printed)
                assert res.ok, res


def test_printed_prefix_agrees_with_profile_prefix():
    # MacWilliams on the printed columns against the DP on the closed profile
    for field in (F3, F9, F27):
        for family in ALL_FAMILIES:
            for n in family.valid_ns(6):
                consts = family_constants(family, n, field.q)
                profile = trace_profile(consts, field)
                j_max = min(profile.length, 8)
                dp = weight_distribution_prefix(profile, j_max)
                printed = printed_column_counts(consts, field)
                assert weight_prefix_from_printed_columns(printed, j_max) == dp
                assert weight_prefix_macwilliams(profile, j_max) == dp


def test_prefix_guard_and_tiny_guard():
    profile = trace_profile(family_constants(CosetFamily(1, -1), 1, F3.q), F3)
    with pytest.raises(ValueError):
        weight_distribution_prefix(profile, 13)
    with pytest.raises(ValueError):
        weight_prefix_macwilliams(profile, 13)
    big = trace_profile(family_constants(CosetFamily(2, 1), 2, F3.q), F3)  # N = 72
    with pytest.raises(ValueError):
        enumerate_code_tiny(big)


def test_profile_requires_valid_family():
    with pytest.raises(ValueError):
        trace_profile(family_constants(CosetFamily(1, 1), 3, F3.q), F3)


def test_injectivity_fails_on_zero_weight():
    consts = family_constants(CosetFamily(2, 1), 2, F9.q)
    weights = Counter(dual_weights(consts, trace_profile(consts, F9))[1:])
    assert check_injectivity(consts, weights).ok
    # the check reads the weights it is given: a zero weight fails it
    res = check_injectivity(consts, weights + Counter({0: 1}))
    assert not res.ok


def test_krawtchouk_generating_function():
    # sum_j K_j(w) z^j = (1 - z)^w (1 + 2z)^(N - w), checked at z = 1 and z = -1
    for n_len in range(6):
        for w in range(n_len + 1):
            ks = _series(n_len - w, w, n_len)
            assert sum(ks) == (0**w) * 3 ** (n_len - w)
            assert sum((-1) ** j * k for j, k in enumerate(ks)) == 2**w * (-1) ** (n_len - w)


def _krawtchouk_direct(n_len, w, j):
    """K_j(w) = sum_i (-1)^i 2^(j-i) C(w, i) C(N - w, j - i), each term from scratch."""
    return sum((-1) ** i * 2 ** (j - i) * comb(w, i) * comb(n_len - w, j - i) for i in range(j + 1))


def test_krawtchouk_prefix_matches_direct_sum():
    for n_len in (0, 1, 2, 7, 13, 10**6, 3**40 + 5, 10**40):
        for w in sorted({0, 1, 2, 5, n_len // 3, n_len // 2, n_len - 1, n_len}):
            if not 0 <= w <= n_len:
                continue
            for j_max in (0, 1, 12):
                expected = [_krawtchouk_direct(n_len, w, j) for j in range(j_max + 1)]
                assert _series(n_len - w, w, j_max) == expected, (n_len, w, j_max)


def _binomial(n, k):
    """C(n, k) for any integer n: (-1)^k C(k - n - 1, k) when n < 0."""
    return comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)


_EXPONENTS = st.integers(-(10**40), 10**40) | st.integers(-20, 20)


@settings(max_examples=100, deadline=None)
@given(a=_EXPONENTS, b=_EXPONENTS, j_max=st.integers(0, 12))
def test_series_matches_binomial_convolution(a, b, j_max):
    # (1 + 2z)^a (1 - z)^b, term by term from the two binomial rows
    expected = [
        sum(2**i * _binomial(a, i) * (-1) ** (j - i) * _binomial(b, j - i) for i in range(j + 1))
        for j in range(j_max + 1)
    ]
    assert kloos.codes._series(a, b, j_max) == expected


@st.composite
def small_profiles(draw):
    field = draw(st.sampled_from((F3, F9, F27)))
    betas = draw(st.lists(st.integers(0, field.q - 1), max_size=8))
    hist = Counter(betas)
    return TraceProfile(field, tuple(hist[b] for b in field.elements()))


# no shrink phase: a failure here would shrink through the word-by-word
# enumeration for minutes instead of failing in seconds
@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(profile=small_profiles(), j_max=st.integers(0, 10))
def test_prefix_routes_agree_on_random_profiles(profile, j_max):
    full = enumerate_code_tiny(profile)
    expected = (full + [0] * (j_max + 1))[: j_max + 1]
    assert weight_distribution_prefix(profile, j_max) == expected
    assert weight_prefix_macwilliams(profile, j_max) == expected


def _prefix_dp_full_rows(field, counts, j_max):
    """The DP over all q blocks, with full rows of q counts and three shifts per block:
    rows[used][s] counts the partial words with `used` nonzero coordinates and signed sum s."""
    add = [[field.add(s, t) for t in field.elements()] for s in field.elements()]
    rows = [[1] + [0] * (field.q - 1)] + [[0] * field.q for _ in range(j_max)]
    for beta in field.elements():
        shifts = (0, beta, field.neg(beta))  # d beta for d = nu - mu mod 3
        new_rows = [[0] * field.q for _ in range(j_max + 1)]
        for used, row in enumerate(rows):
            for k in range(j_max + 1 - used):
                ways = [0, 0, 0]
                for nu in range(k + 1):
                    ways[(2 * nu - k) % 3] += _multinomial(counts[beta], nu, k - nu)
                for d in range(3):
                    for s, count in enumerate(row):
                        new_rows[used + k][add[s][shifts[d]]] += ways[d] * count
        rows = new_rows
    return [row[0] for row in rows]


@st.composite
def asymmetric_profiles(draw):
    field = draw(st.sampled_from((F3, F9, F27)))
    counts = draw(
        st.lists(
            st.one_of(st.integers(0, 4), st.integers(0, 10**30)), min_size=field.q, max_size=field.q
        )
    )
    beta = draw(st.integers(1, field.q - 1))
    if counts[beta] == counts[field.neg(beta)]:
        counts[beta] += 1  # N(beta) != N(-beta): the profile is not +-symmetric
    return TraceProfile(field, tuple(counts))


# no shrink phase: each example runs the O(q^2 j^2) oracle at q up to 27, so
# shrinking a failure would take minutes where the first one takes seconds
@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(profile=asymmetric_profiles(), j_max=st.integers(0, 12))
def test_prefix_matches_full_row_dp_on_asymmetric_profiles(profile, j_max):
    expected = _prefix_dp_full_rows(profile.field, profile.counts, j_max)
    assert weight_distribution_prefix(profile, j_max) == expected


@settings(max_examples=60, deadline=None)
@given(profile=asymmetric_profiles())
def test_zero_moments_match_dual_weights_on_asymmetric_profiles(profile):
    _check_zero_moments(profile)


@st.composite
def split_profiles(draw):
    # asymmetric counts, counts constant off 0, and kappa + lam shape with lam != +-1
    field = draw(st.sampled_from(FIELDS_R1_TO_R5[:4]))
    q = field.q
    near_1e30 = st.integers(10**30 - 10**6, 10**30 + 10**6)
    entries = st.one_of(st.integers(0, 4), near_1e30)
    kind = draw(st.sampled_from(("asymmetric", "flat", "scaled")))
    if kind == "asymmetric":
        return draw(asymmetric_profiles())
    if kind == "flat":
        return TraceProfile(field, (draw(entries),) + (draw(entries),) * (q - 1))
    kappa, lam = draw(near_1e30), draw(st.integers(-(10**6), 10**6))
    shape = draw(st.lists(st.integers(-3, 3), min_size=q - 1, max_size=q - 1))
    return TraceProfile(field, (draw(entries), *(kappa + lam * s for s in shape)))


@settings(max_examples=80, deadline=None)
@given(profile=split_profiles())
def test_split_is_exact_and_normalized(profile):
    field, counts = profile.field, profile.counts
    kappa, lam, shape = kloos.codes._split(counts)
    assert len(shape) == field.q and shape[0] == 0
    assert all(counts[beta] == kappa + lam * shape[beta] for beta in field.units())
    if lam:
        assert gcd(*shape) == 1
        assert next(s for s in shape if s) > 0
    else:
        assert not any(shape)
    k_max = 12
    assert kloos.codes._profile_moments(profile, k_max) == list(kloos.codes._zero_moments(field, counts, k_max))
    kernel_masses = [profile.length - w for w in dual_weights_from_profile(profile)]
    assert kernel_masses == char_fibers(field, counts)[0]


def test_one_shape_per_family_power():
    for r in range(1, 5):
        field = Field(r)
        shapes = {}
        for family in ALL_FAMILIES:
            for n in family.valid_ns(6):
                consts = family_constants(family, n, field.q)
                shapes.setdefault(consts.power, set()).add(kloos.codes._split(trace_profile(consts, field).counts)[2])
        assert all(len(found) == 1 for found in shapes.values()), r


def test_verification_runs_one_dp_per_shape():
    # r = 3: two family powers, so at most two shapes, each run once per j_max
    kloos.codes._zero_moments.cache_clear()
    kloos.codes._zero_fiber.cache_clear()
    n_max, h_max = 6, 8
    assert full_verification(F27, n_max, h_max)["passed"]
    j_maxes = {
        min(family_constants(family, n, F27.q).N, h_max) for family in ALL_FAMILIES for n in family.valid_ns(n_max)
    }
    assert kloos.codes._zero_moments.cache_info().misses <= 2 * len(j_maxes)
    assert kloos.codes._zero_fiber.cache_info().misses <= 2


def test_dp_reads_one_translate_table_per_orbit(monkeypatch):
    # q = 81: each of the two shapes splits into 14 orbits of <Frobenius, -1>;
    # its matrix reads one table per representative, plus one for negation
    kloos.codes._zero_moments.cache_clear()
    calls = []
    translates = kloos.codes.translates
    monkeypatch.setattr(kloos.codes, "translates", lambda *args: calls.append(args) or translates(*args))
    assert full_verification(Field(4), 6, 8)["passed"]
    assert kloos.codes._zero_moments.cache_info().misses == 2
    assert len(calls) == 2 * 15


def test_warm_verification_makes_no_field_arithmetic(monkeypatch):
    # every field-level vector is derived on the first run; instances only read them
    field = Field(3)
    warm = full_verification(field, 6, 8)
    calls = Counter()

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        return wrapper

    for name in ("add", "sub", "neg", "mul", "inv", "pow", "trace", "is_square"):
        monkeypatch.setattr(Field, name, counted(name, getattr(Field, name)))
    assert full_verification(field, 6, 8) == warm
    assert calls == Counter()


def test_verification_splits_each_profile_once(monkeypatch):
    # one split per profile: the instance's own and its printed counts
    calls = []
    split = kloos.codes._split
    monkeypatch.setattr(kloos.codes, "_split", lambda counts: calls.append(1) or split(counts))
    assert full_verification(F27, 6, 8)["passed"]
    assert len(calls) <= 2 * sum(len(family.valid_ns(6)) for family in ALL_FAMILIES) == 40


def _printed_cases(family, n, field):
    """The printed column counts case by case, one division per beta: the
    reference for `printed_column_counts`."""
    q = field.q
    consts = family_constants(family, n, q)
    a_const, b_const = consts.A, consts.B
    s = family.sign
    if family.i in (1, 3):
        discs = [field.sub(field.mul(beta, beta), 1) for beta in field.elements()]
        inner = [b_const + s * (1 if d == 0 else q + 1 if field.is_square(d) else 1 - q) for d in discs]
    elif family.i == 2:
        inner = [b_const + s * ((q - 1) ** 2 - q * d) for d in delta_counts(field, 2)]
    else:
        d2 = delta_counts(field, 2)
        inner = [b_const - s * (q * d - (2 * q * q - 3 * q + 1)) for d in d2]
        inner[0] = b_const - s * (q * d2[0] + (q - 1) ** 3)
    return tuple(exact_div(a_const * x, q) for x in inner)


OTHER_MODULI = {1: (2, 1), 2: (1, 0, 1), 3: (1, 2, 0, 1), 4: (2, 1, 0, 0, 1)}


@pytest.mark.parametrize("r", range(1, 5))
def test_printed_column_counts_match_the_printed_cases(r):
    for field in (Field(r), Field(r, OTHER_MODULI[r])):
        for family in ALL_FAMILIES:
            for n in family.valid_ns(6):
                printed = printed_column_counts(family_constants(family, n, field.q), field)
                assert printed.counts == _printed_cases(family, n, field), (r, family, n)


@pytest.mark.parametrize("field", FIELDS_R1_TO_R5[2:4], ids=["q27", "q81"])
def test_prefix_dp_edge_cases(field):
    q, rng = field.q, random.Random(field.q)
    # all mass at beta = 0: every word is a codeword, C = (1 + 2z)^N
    n_len = 10**20 + 7
    at_zero = TraceProfile(field, (n_len,) + (0,) * (q - 1))
    # no mass at beta = 0: the scalar factor is (1 - z)^N alone
    no_zero = TraceProfile(field, (0,) + tuple(rng.choice((0, 1, 3, 10**25)) for _ in range(q - 1)))
    # N(0) = 0 and N = 8, checked word by word; j_max = 12 runs past N
    tiny_counts = [0] * q
    for beta in rng.sample(range(1, q), 4):
        tiny_counts[beta] = 2
    tiny = TraceProfile(field, tuple(tiny_counts))
    full = enumerate_code_tiny(tiny) + [0] * 4
    for j_max in (0, 12):
        assert weight_distribution_prefix(at_zero, j_max) == [2**j * comb(n_len, j) for j in range(j_max + 1)]
        assert weight_distribution_prefix(no_zero, j_max) == _prefix_dp_full_rows(field, no_zero.counts, j_max)
        assert weight_distribution_prefix(tiny, j_max) == full[: j_max + 1]


def test_prefix_dp_per_field_maps_under_two_moduli():
    # one process, GF(81) under two moduli, each DP run after the other field's
    # maps are cached: every prefix equals that field's MacWilliams prefix
    rng = random.Random(81)
    fields = (Field(4), Field(4, (1, 0, 1, 1, 1)))
    for field in fields + fields:
        records = [family_constants(family, family.valid_ns(4)[0], field.q) for family in ALL_FAMILIES]
        profiles = [trace_profile(consts, field) for consts in records]
        counts = tuple(rng.choice((0, 1, 3, 10**25)) for _ in range(field.q))
        profiles.append(TraceProfile(field, counts))
        for profile in profiles:
            assert weight_distribution_prefix(profile, 10) == weight_prefix_macwilliams(profile, 10)


def test_prefix_reads_no_field_addition(monkeypatch):
    # the DP's index lists and group maps come from digits and field.mul alone:
    # with every field addition raising and the per-shape cache cold, each
    # instance's prefix is unchanged
    cases = []
    for field in FIELDS_R1_TO_R5[2:4]:
        for family in ALL_FAMILIES:
            for n in family.valid_ns(4):
                consts = family_constants(family, n, field.q)
                profile = trace_profile(consts, field)
                cases.append((consts.tag, profile, weight_prefix_macwilliams(profile, 8)))

    def refuse(*args, **kwargs):
        raise AssertionError("the weight-prefix DP reached a field addition")

    for name in ("add", "sub", "_add_digits"):
        monkeypatch.setattr(Field, name, refuse)
    kloos.codes._zero_moments.cache_clear()
    with pytest.raises(AssertionError):
        cases[0][1].field.add(1, 1)
    for tag, profile, expected in cases:
        assert weight_distribution_prefix(profile, 8) == expected, tag


@pytest.mark.parametrize("modulus", [None, (1, 0, 1, 1, 1)], ids=["default", "second"])
def test_orbit_group_follows_frobenius_invariance(monkeypatch, modulus):
    # GF(81): a family shape is invariant under beta -> beta^3 and splits into
    # 14 orbits of <Frobenius, -1>; an even profile that Frobenius moves keeps
    # the 41 classes {beta, -beta}; both prefixes equal the full-row DP
    field = Field(4, modulus)
    rng = random.Random(41)
    even = [0] * field.q
    for beta in field.elements():
        even[beta] = even[field.neg(beta)] = rng.choice((0, 1, 3, 10**25))
    even[3], even[field.neg(3)] = 2, 2  # beta = x and x^3 = 27 differ: Frobenius moves the profile
    even[27], even[field.neg(27)] = 5, 5
    found = []
    orbits = kloos.codes._orbits
    monkeypatch.setattr(kloos.codes, "_orbits", lambda *args: found.append(orbits(*args)) or found[-1])
    family_counts = trace_profile(family_constants(CosetFamily(2, -1), 3, field.q), field).counts
    for counts, n_orbits in ((family_counts, 14), (tuple(even), 41)):
        kloos.codes._zero_moments.cache_clear()
        assert weight_distribution_prefix(TraceProfile(field, counts), 10) == _prefix_dp_full_rows(field, counts, 10)
        listed = found[-1]
        assert sorted(b for orbit in listed for b in orbit) == list(field.elements())  # a partition
        assert len(listed) == n_orbits
        assert all(2 * field.r % len(orbit) == 0 for orbit in listed)  # |<Frobenius, -1>| = 2r
        assert listed[0] == [0] and all(orbit[0] == min(orbit) for orbit in listed)  # led by the least
        assert [orbit[0] for orbit in listed] == sorted(orbit[0] for orbit in listed)  # in the order found


def test_prefix_depends_on_pair_sums_only():
    # moving coordinates from beta to -beta negates them; C_j sees only N(beta) + N(-beta)
    for field, base in ((F3, (1, 3, 0)), (F9, (1, 2, 0, 1, 0, 2, 0, 0, 1)), (F27, (0,) * 26 + (6,))):
        for beta in field.units():
            neg = field.neg(beta)
            for moved in range(base[beta] + 1):
                counts = list(base)
                counts[beta] -= moved
                counts[neg] += moved
                profile = TraceProfile(field, tuple(counts))
                full = enumerate_code_tiny(profile)
                assert weight_distribution_prefix(profile, len(full) - 1) == full, (field.q, beta, moved)
                assert full == enumerate_code_tiny(TraceProfile(field, base)), (field.q, beta, moved)


def test_printed_prefix_fails_on_perturbed_column(monkeypatch):
    family, n, field = CosetFamily(2, 1), 2, F9
    honest = printed_column_counts(family_constants(family, n, field.q), field)

    def perturbed(*args):
        # move one coordinate from beta = 1 to beta = 0: same N, other code
        counts = list(honest.counts)
        counts[1] -= 1
        counts[0] += 1
        return TraceProfile(field, tuple(counts))

    for module in (kloos.codes, kloos.moments):  # verify_instance reads the name from kloos.moments
        monkeypatch.setattr(module, "printed_column_counts", perturbed)
    entry = verify_instance(family, n, field, h_max=4)
    status = {c["name"].split("(")[0]: c["status"] == "pass" for c in entry["checks"]}
    assert status["printed_prefix"] is False
    assert status["printed_columns"] is False
    # the DP route feeding Pless and the SK solve never read the printed columns
    assert status["sk_vs_oracle"] is True
    assert status["printed_recursion"] is True
