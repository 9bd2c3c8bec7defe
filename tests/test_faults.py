"""A table of named faults, each injected into one `full_verification(GF(9), 4, 8)`.

A row patches one function in the module that calls it (the ``from``
imports bind the name there), counts the patch's calls, and pins what the
run does today: either the names of the checks that fail, or a substring
of the guard message that aborts it.  Every ``kloos`` ``lru_cache`` is
cleared before and after the run, so a faulty value neither comes from a
warm cache nor stays in one.
"""

from __future__ import annotations

import sys

import pytest

import kloos.codes
import kloos.moments
from kloos.field import Field
from kloos.moments import full_verification


def _bump(values, index, by):
    """A copy of values with by added at index."""
    return type(values)([v + by if i == index else v for i, v in enumerate(values)])


def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "kloos" or name.startswith("kloos."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _outcome(field: Field) -> list[str] | str:
    """The sorted names of the failing checks, or the message of the guard that aborts."""
    try:
        document = full_verification(field, 4, 8)
    except ArithmeticError as guard:
        return str(guard)
    failing = {
        check["name"].split("(")[0]
        for entry in document["instances"]
        for check in entry["checks"]
        if check["status"] != "pass"
    }
    return sorted(failing)


# (module, name, fault on (result, *args), outcome): a list names the failing
# checks, a str is a substring of the aborting guard's message
FAULTS = {
    "delta2_plus_one_at_1": (
        kloos.codes,
        "delta_counts",
        lambda out, field, m: _bump(out, 1, 1) if m == 2 else out,
        "profile mass 6399 != N 6480 for DC2+,n=2,q=9",
    ),
    "square_class_flipped": (
        kloos.codes,
        "_square_classes",
        lambda out, field: _bump(out, 0, -2 * out[0]),
        ["printed_columns", "printed_prefix"],
    ),
    "sk_moment_plus_one": (
        kloos.moments,
        "sk_moment",
        lambda out, field, h: out + 1,
        ["sk_vs_oracle"],
    ),
    "printed_coefficient_doubled": (
        kloos.moments,
        "_printed_coefficient",
        lambda out, h, t: 2 * out,
        ["printed_recursion"],
    ),
    "stirling_weight_t1_plus_one": (
        kloos.moments,
        "_stirling_weights",
        lambda out, h: _bump(out, 1, 1),
        "solved moment not integral at step 2 for DC1+,n=2,q=9",
    ),
    "zero_moment_m3_plus_one": (
        kloos.codes,
        "_zero_moments",
        lambda out, field, counts, k_max: _bump(out, 3, 1),
        "divisible by 5040",  # exact_div names no instance
    ),
    "series_coefficient2_plus_three": (
        kloos.codes,
        "_series",
        lambda out, a, b, j_max: _bump(out, 2, 3),
        "Pless right side not integral at h=5 for DC1+,n=2,q=9",
    ),
    "zero_fiber_entry1_plus_one": (
        kloos.codes,
        "_zero_fiber",
        lambda out, field, shape: _bump(out, 1, 1),
        "dual weight mismatch for DC1+,n=2,q=9 at a=1",
    ),
    "family_constant_a_tripled": (  # every layer reads the one record, so the instance stays self-consistent
        kloos.moments,
        "family_constants",
        lambda out, family, n, q: out._replace(A=3 * out.A),
        ["constants_consistency"],
    ),
    "kloosterman_square_entry1_plus_three": (
        kloos.codes,
        "kloosterman_squares",
        lambda out, field: _bump(out, 1, 3),
        "dual weight mismatch for DC1+,n=2,q=9 at a=1",
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_outcome_is_pinned(monkeypatch, fault):
    module, name, corrupt, expected = FAULTS[fault]
    original = getattr(module, name)
    calls = []

    def patched(*args):
        calls.append(args)
        return corrupt(original(*args), *args)

    _clear_caches()
    monkeypatch.setattr(module, name, patched)
    try:
        outcome = _outcome(Field(2))
    finally:
        monkeypatch.undo()
        _clear_caches()
    assert calls, f"{module.__name__}.{name} was never called"
    if isinstance(expected, str):
        assert isinstance(outcome, str) and expected in outcome, outcome
    else:
        assert outcome == expected
