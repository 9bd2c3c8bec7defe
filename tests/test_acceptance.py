"""Acceptance gate: every criterion exercised end to end at tolerance zero.

Each test prints one ACCEPTANCE line (PASS or FAIL) and then asserts.
Closed forms are never compared against themselves: every criterion pits a
formula against an independent route (brute-force enumeration, convolution
counts, dynamic programming, or the identity-solved series).
"""

import time

import pytest

from kloos.charsums import delta_counts, kloosterman, kloosterman_table
from kloos.codes import (
    dual_weights_from_profile,
    printed_column_counts,
    trace_profile,
    weight_distribution_prefix,
    weight_prefix_from_printed_columns,
)
from kloos.constants import ALL_FAMILIES, CosetFamily, exact_div, family_constants, family_polynomial
from kloos.field import Field, char_transform
from kloos.groups import double_coset, enumerate_o2_minus, enumerate_q, enumerate_so2_minus
from kloos.moments import build_instance, full_verification, sk_via_pless, sk_via_printed_recursion
from oracles import bruhat_pieces, check_orthogonal_relation, enumerate_code_tiny

N_MAX = 6
H_MAX = 8
IDENTITY_H_MAX = 10
INSTANCES_PER_Q = 20  # valid (family, n) pairs with n <= 6

BRUTE_Q3_INSTANCES = (
    (CosetFamily(1, -1), 1),
    (CosetFamily(1, 1), 2),
    (CosetFamily(2, 1), 2),
    (CosetFamily(3, 1), 2),
)


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def _closed_weight(family: CosetFamily, n: int, field: Field, a: int) -> int:
    """w(c(a)) = (2/3)(N - S(a)), the family polynomial at the brute-force
    K(a^2), so apart from the Kloosterman table."""
    consts = family_constants(family, n, field.q)
    s = family_polynomial(family, field.q).coset_sum(consts.A, kloosterman(field, field.mul(a, a)))
    return exact_div(2 * (consts.N - s), 3)


def _checks(report: dict, prefix: str) -> list[dict]:
    return [
        chk
        for inst in report["instances"]
        for chk in inst["checks"]
        if chk["name"].startswith(prefix)
    ]


@pytest.fixture(scope="module")
def verification():
    """Full verification for q in {3, 9, 27}: report dict and wall time per q."""
    runs = {}
    for r in (1, 2, 3):
        field = Field(r)
        start = time.perf_counter()
        report = full_verification(field, N_MAX, IDENTITY_H_MAX)
        runs[field.q] = (report, time.perf_counter() - start)
    return runs


def test_criterion_1_moments_match_oracle(capsys, verification):
    ok = True
    total = 0
    for r in (1, 2, 3):
        field = Field(r)
        report, _ = verification[field.q]
        # the oracle series reads the transform-built table; check it value by value
        table = kloosterman_table(field)
        ok &= all(table[a] == kloosterman(field, a) for a in field.units())
        ok &= len(report["instances"]) == INSTANCES_PER_Q
        series_checks = _checks(report, "sk_vs_oracle")
        ok &= len(series_checks) == INSTANCES_PER_Q
        ok &= all(chk["status"] == "pass" for chk in series_checks)
        total += len(series_checks)
    elapsed27 = verification[27][1]
    ok &= elapsed27 < 120.0
    _verdict(
        capsys,
        1,
        ok,
        f"K table equals brute-force kloosterman() on every unit; identity-solved SK "
        f"series equals the oracle for {total} instances "
        f"(n<={N_MAX}, h<={IDENTITY_H_MAX}, q in 3/9/27); q=27 run {elapsed27:.1f}s < 120s",
    )


def test_criterion_2_pless_identities_and_weight_routes(capsys, verification):
    ok = True
    identity_count = 0
    for q in (3, 9, 27):
        report, _ = verification[q]
        identities = _checks(report, "pless_identity")
        ok &= len(identities) == INSTANCES_PER_Q * IDENTITY_H_MAX
        ok &= all(chk["status"] == "pass" for chk in identities)
        identity_count += len(identities)
        dual_dim = _checks(report, "pless_rhs_h0_counts_dual")
        ok &= len(dual_dim) == INSTANCES_PER_Q
        ok &= all(chk["status"] == "pass" for chk in dual_dim)
        prefix_routes = _checks(report, "printed_prefix")
        ok &= len(prefix_routes) == INSTANCES_PER_Q
        ok &= all(chk["status"] == "pass" for chk in prefix_routes)

    # both dual-weight routes, every instance, every evaluation point
    weight_pairs = 0
    for r in (1, 2, 3):
        field = Field(r)
        for family in ALL_FAMILIES:
            for n in family.valid_ns(N_MAX):
                via_profile = dual_weights_from_profile(trace_profile(family, n, field))
                ok &= via_profile[0] == 0
                for a in field.units():
                    ok &= _closed_weight(family, n, field, a) == via_profile[a]
                    weight_pairs += 1
    _verdict(
        capsys,
        2,
        ok,
        f"{identity_count} power-moment identities (h<={IDENTITY_H_MAX}) hold exactly; "
        f"both weight routes agree at {weight_pairs} points; both prefix routes agree",
    )


def test_criterion_3_group_bruteforce_q3(capsys):
    field = Field(1)
    q = field.q
    start = time.perf_counter()
    ok = True

    so2 = enumerate_so2_minus(field)
    ok &= so2.order == q + 1 == 4
    ok &= so2.trace_histogram() == (2, 1, 1)
    o2 = enumerate_o2_minus(field)
    ok &= o2.order == 2 * (q + 1) == 8
    qset = enumerate_q(field, 2)
    ok &= qset.order == (q + 1) * (q - 1) * q**2 == 72
    ok &= qset.trace_histogram() == (18, 27, 27)
    ok &= check_orthogonal_relation(so2).ok
    ok &= check_orthogonal_relation(o2).ok
    ok &= check_orthogonal_relation(qset).ok

    pieces = bruhat_pieces(field)
    sizes = {name: gset.order for name, gset in pieces.items()}
    ok &= sizes == {"Q": 72, "QsQ": 648, "rQ": 72, "rQsQ": 648}
    sets = {name: frozenset(gset.elements) for name, gset in pieces.items()}
    names = sorted(sets)
    union = set()
    disjoint = True
    for idx, left in enumerate(names):
        for right in names[idx + 1 :]:
            disjoint &= not (sets[left] & sets[right])
        union |= sets[left]
    ok &= disjoint
    ok &= len(union) == 2 * q**2 * (q**2 + 1) * (q**2 - 1) == 1440

    for family, n in BRUTE_Q3_INSTANCES:
        gset = double_coset(field, family, n)
        profile = trace_profile(family, n, field)
        ok &= gset.order == profile.length
        ok &= gset.trace_histogram() == profile.counts
        ok &= check_orthogonal_relation(gset).ok

    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _verdict(
        capsys,
        3,
        ok,
        f"q=3 enumerations: orders 4/8/72, Bruhat tiling 72+648+72+648=1440 disjoint, "
        f"coset histograms equal closed profiles ({elapsed:.1f}s < 10s)",
    )


def test_criterion_4_group_character_sums(capsys):
    ok = True
    field = Field(1)
    points = 0
    for family, n in BRUTE_Q3_INSTANCES:
        # S(a) = sum over the coset of lambda(a Tr w): the transform of its trace histogram
        sums = char_transform(field, double_coset(field, family, n).trace_histogram())
        poly = family_polynomial(family, field.q)
        a_const = family_constants(family, n, field.q).A
        for a in field.units():
            ok &= sums[a] == poly.coset_sum(a_const, kloosterman(field, field.mul(a, a)))
            points += 1
    _verdict(
        capsys,
        4,
        ok,
        f"coset character sums from the enumerated trace histograms match "
        f"+/-A*(K(a^2)^p + c) with brute-force K at {points} points (q=3)",
    )


def test_criterion_5_delta_kloosterman_duality(capsys, duality_failures):
    ok = True
    identity_points = 0
    for r in (1, 2, 3):
        field = Field(r)
        q = field.q
        for m in range(4):
            ok &= duality_failures(field, m) == ([], [])
            identity_points += (q - 1) + q  # one identity per unit a, one per beta
        for beta in field.elements():
            d2 = delta_counts(field, 2)[beta]
            ok &= d2 <= 2 * q - 4
            ok &= (d2 == 2 * q - 4) == (beta == 0)
        for a in field.units():
            ok &= kloosterman(field, a) ** 2 <= 4 * q
    _verdict(
        capsys,
        5,
        ok,
        f"{identity_points} delta/Kloosterman dual identities hold with brute-force K (m<=3, q in 3/9/27); "
        f"delta(2) peak 2q-4 exactly at 0; Weil bound everywhere",
    )


def test_criterion_6_reference_distribution_three_ways(capsys):
    field = Field(1)
    family = CosetFamily(1, -1)
    expected = [1, 4, 6, 8, 8]
    profile = trace_profile(family, 1, field)
    via_dp = weight_distribution_prefix(profile, profile.length)
    via_printed = weight_prefix_from_printed_columns(printed_column_counts(family, 1, field), profile.length)
    via_enum = enumerate_code_tiny(profile)
    ok = via_dp == via_printed == via_enum == expected
    _verdict(
        capsys,
        6,
        ok,
        f"length-4 reference weight distribution {expected} reproduced by prefix DP, "
        f"printed-column DP, and word-by-word enumeration",
    )


def test_criterion_7_printed_recursion_agrees(capsys, verification):
    ok = True
    count = 0
    for q in (3, 9, 27):
        report, _ = verification[q]
        recursion_checks = _checks(report, "printed_recursion")
        ok &= len(recursion_checks) == INSTANCES_PER_Q
        ok &= all(chk["status"] == "pass" for chk in recursion_checks)
        count += len(recursion_checks)
    # spot-check that the printed route also reports zero integrality defects
    field = Field(1)
    family = CosetFamily(1, -1)
    instance = build_instance(family, 1, field, H_MAX)
    derived = sk_via_pless(instance, H_MAX)
    printed, defects = sk_via_printed_recursion(instance, H_MAX)
    ok &= defects == []
    ok &= printed is not None and printed.values == derived.values
    _verdict(
        capsys,
        7,
        ok,
        f"printed recursion reproduces the identity-derived SK series for all {count} "
        f"instances with no integrality defects (no discrepancy to document)",
    )


def test_criterion_8_representation_independence(capsys):
    ok = True
    base = Field(2)
    alt = Field(2, (1, 0, 1))
    ok &= base.modulus != alt.modulus

    from kloos.charsums import moment_series

    ok &= moment_series(base, H_MAX) == moment_series(alt, H_MAX)
    for family in ALL_FAMILIES:
        for n in family.valid_ns(N_MAX):
            prof_a = trace_profile(family, n, base)
            prof_b = trace_profile(family, n, alt)
            ok &= prof_a.counts[0] == prof_b.counts[0]
            ok &= sorted(prof_a.counts) == sorted(prof_b.counts)
            weights_a = sorted(_closed_weight(family, n, base, a) for a in base.units())
            weights_b = sorted(_closed_weight(family, n, alt, a) for a in alt.units())
            ok &= weights_a == weights_b
    alt_report = full_verification(alt, N_MAX, IDENTITY_H_MAX)
    ok &= alt_report["passed"]
    ok &= len(alt_report["instances"]) == INSTANCES_PER_Q

    eps1 = base.first_nonsquare()
    eps2 = next(e for e in base.elements() if e not in (0, eps1) and not base.is_square(e))
    so2_a = enumerate_so2_minus(base, eps=eps1)
    so2_b = enumerate_so2_minus(base, eps=eps2)
    ok &= so2_a.order == so2_b.order == base.q + 1
    ok &= so2_a.trace_histogram() == so2_b.trace_histogram()
    ok &= enumerate_q(base, 2, eps=eps1).order == enumerate_q(base, 2, eps=eps2).order
    _verdict(
        capsys,
        8,
        ok,
        f"all q=9 results identical under a second modulus (x^2+1) and a second "
        f"nonsquare twist; alternate-basis full verification passed",
    )
