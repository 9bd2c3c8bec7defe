import fractions
import multiprocessing
import pickle
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kloos.cli
import kloos.codes
import kloos.moments
from kloos.charsums import sk_moment
from kloos.constants import ALL_FAMILIES, CosetFamily, family_constants, stirling2
from kloos.field import Field
from kloos.moments import (
    MAX_H,
    build_instance,
    check_pless_identity,
    full_verification,
    pless_rhs,
    sk_oracle_series,
    sk_via_pless,
    sk_via_printed_recursion,
    verify_instance,
)

F3 = Field(1)
F9 = Field(2)
F27 = Field(3)


def test_pless_sides_small_instance():
    inst = build_instance(CosetFamily(1, -1), 1, F3)
    assert inst.consts.N == 4
    assert inst.c_prefix == [1, 4, 6, 8, 8]
    assert inst.lhs[1] == 4  # weights are 2 and 2
    assert pless_rhs(inst, 1) == 4
    assert inst.lhs[0] == F3.q - 1
    assert pless_rhs(inst, 0) == F3.q  # counts the zero dual word too


def test_pless_identity_h_up_to_10_small():
    for family, n, field in [
        (CosetFamily(1, -1), 1, F3),
        (CosetFamily(2, 1), 2, F3),
        (CosetFamily(3, 1), 2, F9),
    ]:
        inst = build_instance(family, n, field, h_max=10)
        for res in check_pless_identity(inst):
            assert res.ok, res


def test_sk_via_pless_odd_family_q3():
    series = sk_via_pless(build_instance(CosetFamily(1, -1), 1, F3, 8), 8)
    assert series.orders == (1, 2, 3, 4, 5, 6, 7, 8)
    assert series.values == (-1, 1, -1, 1, -1, 1, -1, 1)


def test_sk_via_pless_even_family_q3():
    series = sk_via_pless(build_instance(CosetFamily(2, 1), 2, F3, 3), 3)
    assert series.orders == (2, 4, 6)
    assert series.values == (1, 1, 1)


def test_sk_matches_oracle_across_fields():
    for field in (F3, F9, F27):
        for family, n in [
            (CosetFamily(1, 1), 2),
            (CosetFamily(1, -1), 3),
            (CosetFamily(4, -1), 3),
        ]:
            if not family.valid_n(n):
                continue
            steps = 3 if family.even_moments else 6
            inst = build_instance(family, n, field, steps)
            series = sk_via_pless(inst, steps)
            oracle = sk_oracle_series(inst, steps)
            assert series.values == oracle.values, (family.label, n, field.q)


def test_sk_family_independence():
    # every odd family at any valid n yields the same SK^h series
    reference = {
        field.q: tuple(sk_moment(field, h) for h in range(1, 7)) for field in (F3, F9)
    }
    for field in (F3, F9):
        for family in (CosetFamily(1, 1), CosetFamily(3, 1), CosetFamily(1, -1), CosetFamily(3, -1)):
            for n in family.valid_ns(5):
                series = sk_via_pless(build_instance(family, n, field, 6), 6)
                assert series.values == reference[field.q], (family.label, n)


def test_printed_recursion_agrees():
    for field in (F3, F9):
        for family, n in [
            (CosetFamily(1, -1), 1),
            (CosetFamily(1, 1), 2),
            (CosetFamily(2, 1), 2),
            (CosetFamily(3, 1), 2),
            (CosetFamily(2, -1), 3),
            (CosetFamily(4, -1), 3),
        ]:
            steps = 3 if family.even_moments else 6
            inst = build_instance(family, n, field, steps)
            derived = sk_via_pless(inst, steps)
            printed, defects = sk_via_printed_recursion(inst, steps)
            assert defects == []
            assert printed is not None and printed.values == derived.values


def test_sk_guards():
    # build_instance refuses h_max above MAX_H
    with pytest.raises(ValueError):
        sk_via_pless(build_instance(CosetFamily(1, -1), 1, F3, 11), 11)
    with pytest.raises(ValueError):
        sk_via_pless(build_instance(CosetFamily(1, -1), 1, F3), 0)
    with pytest.raises(ValueError):
        sk_via_pless(build_instance(CosetFamily(1, 1), 3, F3, 4), 4)
    # an instance built for orders <= 3 cannot solve a fifth step
    with pytest.raises(ValueError):
        sk_via_pless(build_instance(CosetFamily(1, -1), 1, F3, 3), 5)


def _passed(entry):
    return all(check["status"] == "pass" for check in entry["checks"])


def test_verify_instance_report():
    d = verify_instance(CosetFamily(1, -1), 1, F3, h_max=10)
    assert _passed(d)
    assert list(d) == ["instance", "checks", "SK"]  # the text writer prints them in this order
    assert d["instance"] == {"family": "DC1-", "n": 1, "q": 3, "A": 1, "B": 4, "N": 4}
    names = [c["name"] for c in d["checks"]]
    assert any(name.startswith("constants_consistency") for name in names)
    assert any(name.startswith("pless_identity") for name in names)
    assert d["SK"][0] == [1, -1]


def test_full_verification_q3():
    report = full_verification(F3, n_max=2, h_max=8)
    assert report["passed"]
    labels = [inst["instance"]["family"] for inst in report["instances"]]
    assert labels == ["DC1+", "DC1-", "DC2+", "DC3+"]


def test_full_verification_jobs_deterministic():
    seq = full_verification(F3, n_max=2, h_max=6, jobs=1)
    par = full_verification(F3, n_max=2, h_max=6, jobs=3)
    assert seq == par


def test_full_verification_pool_matches_serial_custom_modulus(monkeypatch):
    field = Field(2, (1, 0, 1))  # x^2 + 1: not primitive, so the tables walk the generator 4 = x + 1
    serial = full_verification(field, n_max=3, h_max=6)
    monkeypatch.setattr(kloos.moments, "_available_cpus", lambda: 2)
    pooled = full_verification(field, n_max=3, h_max=6, jobs=2)  # workers unpickle the field
    assert pooled == serial
    assert pooled["modulus"] == [1, 0, 1] and pooled["passed"]


def test_pool_size_bounded_by_tasks_and_cpus(monkeypatch):
    sizes = []

    class SerialPool:
        """Records the pool size asked for and maps in this process: no worker starts."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    assert kloos.moments._available_cpus() >= 1
    serial = full_verification(F3, n_max=2, h_max=4)  # 4 instances
    assert sizes == []
    for cpus, jobs, expected in [(2, 5000, [2]), (64, 5000, [4]), (64, 3, [3]), (1, 5000, [])]:
        monkeypatch.setattr(kloos.moments, "_available_cpus", lambda: cpus)
        sizes.clear()
        assert full_verification(F3, n_max=2, h_max=4, jobs=jobs) == serial
        assert sizes == expected, (cpus, jobs)


def test_printed_recursion_fails_on_perturbed_coefficient(monkeypatch):
    # the two routes share the prefix loop and the solve, not the coefficient
    def perturbed(h, t):
        # scaled by 2^(2h+1), with B_t carrying 2^(t-j): 2^h is the printed 2^(t-h-j-1),
        # so this is 2^(t-h-j)
        return 3 ** (h - t) * 2 ** (h + 1)

    monkeypatch.setattr(kloos.moments, "_printed_coefficient", perturbed)
    for family, n, field in [(CosetFamily(1, -1), 3, F3), (CosetFamily(2, 1), 2, F9)]:
        checks = verify_instance(family, n, field, h_max=6)["checks"]
        status = {c["name"].split("(")[0]: c["status"] == "pass" for c in checks}
        assert status["printed_recursion"] is False
        assert status["sk_vs_oracle"] is True
        pless = [c for c in checks if c["name"].startswith("pless_")]
        assert len(pless) == 7 and all(c["status"] == "pass" for c in pless)


def _spy(monkeypatch, name):
    """Count calls to `name` under every kloos namespace that binds it."""
    home = kloos.moments if hasattr(kloos.moments, name) else kloos.codes
    original = getattr(home, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (kloos.codes, kloos.moments, kloos.cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)
    return calls


def test_verify_instance_derives_each_quantity_once(monkeypatch):
    names = ("trace_profile", "dual_weights", "weight_distribution_prefix", "pless_rhs")
    for family, n, field, h_max in [
        (CosetFamily(1, -1), 1, F3, 6),  # N = 4: the prefix stops at C_4
        (CosetFamily(4, -1), 3, F9, 8),
    ]:
        calls = {name: _spy(monkeypatch, name) for name in names}
        assert _passed(verify_instance(family, n, field, h_max))
        assert len(calls["trace_profile"]) == 1
        assert len(calls["dual_weights"]) == 1
        assert len(calls["weight_distribution_prefix"]) == 1
        assert [args[1] for args in calls["pless_rhs"]] == list(range(h_max + 1))
        monkeypatch.undo()


def test_full_verification_derives_each_record_once(cold_caches, family_constants_calls):
    instances = [(family, n, F9.q) for family in ALL_FAMILIES for n in family.valid_ns(6)]
    assert full_verification(F9, 6, 8)["passed"]
    assert sorted(family_constants_calls) == sorted(instances)
    assert len(family_constants_calls) == 20


def test_verify_builds_printed_columns_once_per_instance(monkeypatch, capsys):
    printed = _spy(monkeypatch, "printed_column_counts")
    code = kloos.cli.main(["verify", "--r", "2", "--nmax", "6", "--jobs", "1"])
    assert code == 0, capsys.readouterr().err
    assert len(printed) == 20  # the 20 instances, each read by both printed checks


def test_recursion_command_builds_one_instance(monkeypatch, capsys):
    builds = _spy(monkeypatch, "build_instance")
    code = kloos.cli.main(["recursion", "--r", "2", "--family", "DC1-", "--n", "3", "--hmax", "6"])
    assert code == 0, capsys.readouterr().err
    assert len(builds) == 1


def _dual_weight_binomial_cases(fields, n_max):
    """Check sum over a in F_q of binom(w(c(a)), t) = 3^(r - t) B_t for every
    instance with n <= n_max; a = 0 adds binom(0, t) = [t = 0].  Returns the
    number of (instance, t) cases."""
    cases = 0
    for field in fields:
        for family in ALL_FAMILIES:
            for n in family.valid_ns(n_max):
                inst = build_instance(family, n, field)
                assert len(inst.binomial_moments) == len(inst.c_prefix)
                for t, b_t in enumerate(inst.binomial_moments):
                    lhs = sum(m * comb(w, t) for w, m in inst.weights.items()) + (t == 0)
                    assert 3**t * lhs == 3**field.r * b_t, (family.label, n, field.q, t)
                    cases += 1
    return cases


def test_binomial_moments_count_dual_weight_binomials():
    assert _dual_weight_binomial_cases((F3, F9, F27), 4) == 390  # 36 instances, t <= min(N, MAX_H)


def test_binomial_moments_count_dual_weight_binomials_at_large_n():
    # the q = 3 regime of the verify-q3-wide benchmark, 84 instances with N up to 1,499 bits
    bits = [family_constants(family, n, 3).N.bit_length() for family in ALL_FAMILIES for n in family.valid_ns(22)]
    assert (len(bits), max(bits)) == (84, 1499)
    assert _dual_weight_binomial_cases((F3,), 22) == 84 * 11 - 6  # DC1-,n=1 has N = 4 < MAX_H


def _direct_binomial_moment(c_prefix, n_len, t):
    """B_t = sum over j <= t of (-1)^j C_j 2^(t - j) binom(N - j, t - j), term by term."""
    return sum((-1) ** j * c_prefix[j] * 2 ** (t - j) * comb(n_len - j, t - j) for j in range(t + 1))


@settings(max_examples=80, deadline=None)
@given(
    c_prefix=st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=MAX_H + 1),
    excess=st.one_of(st.integers(0, 12), st.integers(0, 2**4000)),
    weights=st.dictionaries(st.integers(0, 2**4000), st.integers(1, 2**64), min_size=1, max_size=6),
    h_max=st.integers(0, MAX_H),
)
@example(c_prefix=[1, 4, 6, 8, 8], excess=0, weights={2: 2}, h_max=4)  # DC1-,n=1,q=3: N = top, M = 0
def test_binomial_moments_and_moment_side_match_direct_sums(c_prefix, excess, weights, h_max):
    # N = top + excess runs from the tiny-code case M = N - top = 0 to 4,000 bits; an
    # excess below top makes the falling factorials of M vanish part way
    top = len(c_prefix) - 1
    base = build_instance(CosetFamily(1, -1), 1, F3)
    inst = base._replace(
        consts=base.consts._replace(A=top + excess, B=1), weights=Counter(weights), c_prefix=c_prefix, h_max=h_max
    )
    assert inst.binomial_moments == tuple(_direct_binomial_moment(c_prefix, top + excess, t) for t in range(top + 1))
    direct = tuple(sum(m * w**h for w, m in weights.items()) for h in range(h_max + 1))
    assert inst.lhs == direct


# -- the integer route against the formulas in exact rationals --------------------


def _fraction_prefix_side(instance, h, coefficient):
    """sum_j (-1)^j C_j sum_t t! S(h, t) coefficient(h, t, j) binom(N - j, N - t)."""
    n_len = instance.consts.N
    top = min(n_len, h)
    return sum(
        (-1) ** j
        * instance.c_prefix[j]
        * sum(
            factorial(t) * stirling2(h, t) * coefficient(h, t, j) * comb(n_len - j, n_len - t)
            for t in range(j, top + 1)
        )
        for j in range(top + 1)
    )


def _fraction_solve(instance, steps, target):
    """tau^h M_h = target(h) - sum_{l<h} tau^l C(h, l) B-hat^(h-l) M_l from M_0 = (q-1)/2."""
    consts = instance.consts
    tau, b_hat = -consts.sigma, consts.B - consts.sigma * consts.shift
    solved = [Fraction(instance.field.q - 1, 2)]
    for h in range(1, steps + 1):
        rest = sum(tau**l * comb(h, l) * b_hat ** (h - l) * solved[l] for l in range(h))
        solved.append(tau**h * (target(h) - rest))
    return solved[1:]


def _check_integer_route(inst):
    """Both prefix sides for h <= 10 and both series for 10 steps against the rational formulas."""
    field, a_const = inst.field, inst.consts.A
    label = inst.consts.tag

    def pless_coefficient(h, t, j):
        return Fraction(3) ** (field.r - t) * 2 ** (t - j)

    def printed_coefficient(h, t, j):
        return Fraction(3) ** (h - t) * Fraction(2) ** (t - h - j - 1)

    pless, printed = [], []
    for h in range(11):
        pless.append(_fraction_prefix_side(inst, h, pless_coefficient))
        printed.append(_fraction_prefix_side(inst, h, printed_coefficient))
        assert pless_rhs(inst, h) == pless[h], (label, h)
        scaled = kloos.moments._prefix_side(inst, h, kloos.moments._printed_coefficient)
        assert Fraction(scaled, 2 ** (2 * h + 1)) == printed[h], (label, h)
    via_pless = _fraction_solve(inst, 10, lambda h: pless[h] * Fraction(3, 2) ** h / (2 * a_const**h))
    via_printed = _fraction_solve(inst, 10, lambda h: field.q * Fraction(1, a_const**h) * printed[h])
    assert all(v.denominator == 1 for v in via_pless + via_printed), label
    assert list(sk_via_pless(inst, 10).values) == via_pless, label
    series, defects = sk_via_printed_recursion(inst, 10)
    assert defects == [] and list(series.values) == via_printed, label


def test_integer_route_matches_fraction_formulas():
    for field in (F3, F9):
        for family in ALL_FAMILIES:
            for n in family.valid_ns(8):
                _check_integer_route(build_instance(family, n, field, 10))


def test_verify_instance_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction built on the success path")

    # moments imports Fraction only where it words a remainder, from the module patched here
    monkeypatch.setattr(fractions, "Fraction", no_fraction)
    for field in (F3, F9):
        for family in ALL_FAMILIES:
            for n in family.valid_ns(4):
                assert _passed(verify_instance(family, n, field, h_max=10))


def test_non_integral_steps_keep_their_messages():
    family = CosetFamily(1, -1)
    inst = build_instance(family, 1, F3, 4)
    assert inst.c_prefix == [1, 4, 6, 8, 8]
    bad_prefix = inst._replace(c_prefix=[1, 4, 7, 8, 8])
    with pytest.raises(ArithmeticError) as exc:
        pless_rhs(bad_prefix, 2)
    assert str(exc.value) == "Pless right side not integral at h=2 for DC1-,n=1,q=3: 26/3"
    assert sk_via_printed_recursion(bad_prefix, 4) == (
        None,
        ["printed recursion non-integral at step 2 for DC1-,n=1,q=3: 7/4"],
    )
    bad_rhs = inst._replace()
    bad_rhs.__dict__["rhs"] = (3, 5, 20, 68, 260)  # the cached Pless right sides, rhs[1] = 4 + 1
    with pytest.raises(ArithmeticError) as exc:
        sk_via_pless(bad_rhs, 4)
    assert str(exc.value) == "solved moment not integral at step 1 for DC1-,n=1,q=3: -1/4"

    family = CosetFamily(4, -1)
    inst = build_instance(family, 3, F9, 4)
    bad_prefix = inst._replace(c_prefix=[c + 1 for c in inst.c_prefix])
    assert sk_via_printed_recursion(bad_prefix, 2) == (
        None,
        ["printed recursion non-integral at step 1 for DC4-,n=3,q=9: -6729224039/2361960"],
    )


def test_replace_recomputes_cached_sides():
    inst = build_instance(CosetFamily(1, -1), 1, F3, 4)
    moments, rhs = inst.binomial_moments, inst.rhs  # both cached on inst
    # B_t and the Pless sides are linear in the prefix, and 3^4 C keeps every side integral
    scaled = inst._replace(c_prefix=[81 * c for c in inst.c_prefix])
    assert scaled.binomial_moments == tuple(81 * b for b in moments)
    assert scaled.rhs == tuple(81 * v for v in rhs)
    assert (inst.binomial_moments, inst.rhs) == (moments, rhs)


def test_records_survive_pickle():
    family = CosetFamily(4, -1)
    check = check_pless_identity(build_instance(family, 3, F9, 4))[0]
    for record in (family, check, verify_instance(family, 3, F9, h_max=4)):
        assert pickle.loads(pickle.dumps(record)) == record
    # unpickling runs the family's checks: a family built around them is refused
    forged = pickle.dumps(tuple.__new__(CosetFamily, (5, 1)))
    with pytest.raises(ValueError, match="family index must be in 1..4, got 5"):
        pickle.loads(forged)
