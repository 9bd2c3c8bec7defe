from fractions import Fraction

import pytest

import kloos.cli
import kloos.codes
import kloos.moments
from kloos.charsums import sk_moment
from kloos.constants import ALL_FAMILIES, CosetFamily
from kloos.field import Field
from kloos.moments import (
    build_instance,
    check_pless_identity,
    full_verification,
    pless_lhs,
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
    assert inst.length == 4
    assert inst.c_prefix == [1, 4, 6, 8, 8]
    assert pless_lhs(inst, 1) == 4  # weights are 2 and 2
    assert pless_rhs(inst, 1) == 4
    assert pless_lhs(inst, 0) == F3.q - 1
    assert pless_rhs(inst, 0) == F3.q  # counts the zero dual word too


def test_pless_identity_h_up_to_10_small():
    for family, n, field in [
        (CosetFamily(1, -1), 1, F3),
        (CosetFamily(2, 1), 2, F3),
        (CosetFamily(3, 1), 2, F9),
    ]:
        inst = build_instance(family, n, field)
        for res in check_pless_identity(inst, 10):
            assert res.ok, res
    with pytest.raises(ValueError):
        check_pless_identity(build_instance(CosetFamily(1, -1), 1, F3, 6), 7)


def test_sk_via_pless_odd_family_q3():
    series = sk_via_pless(CosetFamily(1, -1), 1, F3, 8)
    assert series.orders == (1, 2, 3, 4, 5, 6, 7, 8)
    assert series.values == (-1, 1, -1, 1, -1, 1, -1, 1)


def test_sk_via_pless_even_family_q3():
    series = sk_via_pless(CosetFamily(2, 1), 2, F3, 3)
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
            series = sk_via_pless(family, n, field, steps)
            oracle = sk_oracle_series(family, n, field, steps)
            assert series.values == oracle.values, (family.label, n, field.q)


def test_sk_family_independence():
    # every odd family at any valid n yields the same SK^h series
    reference = {
        field.q: tuple(sk_moment(field, h) for h in range(1, 7)) for field in (F3, F9)
    }
    for field in (F3, F9):
        for family in (CosetFamily(1, 1), CosetFamily(3, 1), CosetFamily(1, -1), CosetFamily(3, -1)):
            for n in family.valid_ns(5):
                series = sk_via_pless(family, n, field, 6)
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
            derived = sk_via_pless(family, n, field, steps)
            printed, defects = sk_via_printed_recursion(family, n, field, steps)
            assert defects == []
            assert printed is not None and printed.values == derived.values


def test_sk_guards():
    with pytest.raises(ValueError):
        sk_via_pless(CosetFamily(1, -1), 1, F3, 11)
    with pytest.raises(ValueError):
        sk_via_pless(CosetFamily(1, -1), 1, F3, 0)
    with pytest.raises(ValueError):
        sk_via_pless(CosetFamily(1, 1), 3, F3, 4)
    # an instance built for orders <= 3 cannot solve a fifth step
    with pytest.raises(ValueError):
        sk_via_pless(CosetFamily(1, -1), 1, F3, 5, instance=build_instance(CosetFamily(1, -1), 1, F3, 3))


def test_verify_instance_report():
    report = verify_instance(CosetFamily(1, -1), 1, F3, h_max=8, identity_h_max=10)
    assert report.passed
    d = report.as_dict()
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


def test_moment_series_as_dict():
    series = sk_via_pless(CosetFamily(2, 1), 2, F3, 2)
    assert series.as_dict() == {
        "family": "DC2+",
        "n": 2,
        "q": 3,
        "SK": [[2, 1], [4, 1]],
    }


def test_printed_recursion_fails_on_perturbed_coefficient(monkeypatch):
    # the two routes share the prefix loop and the solve, not the coefficient
    def perturbed(h, t, j):
        return Fraction(3) ** (h - t) * Fraction(2) ** (t - h - j)  # printed: t - h - j - 1

    monkeypatch.setattr(kloos.moments, "_printed_coefficient", perturbed)
    for family, n, field in [(CosetFamily(1, -1), 3, F3), (CosetFamily(2, 1), 2, F9)]:
        report = verify_instance(family, n, field, h_max=6)
        status = {c.name.split("(")[0]: c.ok for c in report.checks}
        assert status["printed_recursion"] is False
        assert status["sk_vs_oracle"] is True
        pless = [c for c in report.checks if c.name.startswith("pless_")]
        assert len(pless) == 7 and all(c.ok for c in pless)


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
    for family, n, field, h_max, identity_h_max in [
        (CosetFamily(1, -1), 1, F3, 6, 8),  # N = 4: the prefix stops at C_4
        (CosetFamily(4, -1), 3, F9, 8, 5),
    ]:
        calls = {name: _spy(monkeypatch, name) for name in names}
        assert verify_instance(family, n, field, h_max, identity_h_max).passed
        assert len(calls["trace_profile"]) == 1
        assert len(calls["dual_weights"]) == 1
        assert len(calls["weight_distribution_prefix"]) == 1
        assert [args[1] for args in calls["pless_rhs"]] == list(range(max(h_max, identity_h_max) + 1))
        monkeypatch.undo()


def test_recursion_command_builds_one_instance(monkeypatch, capsys):
    builds = _spy(monkeypatch, "build_instance")
    code = kloos.cli.main(["recursion", "--r", "2", "--family", "DC1-", "--n", "3", "--hmax", "6"])
    assert code == 0, capsys.readouterr().err
    assert len(builds) == 1
