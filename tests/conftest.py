import sys

import pytest

from kloos.charsums import delta_counts, kloosterman
from kloos.field import char_sum


def _duality_failures(field, m, delta=None):
    """The units a and the beta at which delta(m) and K(a^2)^m fail to be a
    transform pair, K from the brute-force :func:`kloosterman`:

        sum over beta of delta(m; beta) lambda(a beta) = K(a^2)^m,
        sum over units a of lambda(-a beta) K(a^2)^m = q delta(m; beta) - (q - 1)^m.

    ``delta`` defaults to :func:`delta_counts`.  Every side is a
    :func:`char_sum`, not the transform the delta counts are built with; a
    sum that is not real fails.
    """
    q, units, mul = field.q, field.units(), field.mul
    d = delta_counts(field, m) if delta is None else delta
    k_m = [kloosterman(field, mul(a, a)) ** m for a in units]

    def fails(values, weights, expected):
        try:
            return char_sum(field, values, weights) != expected
        except ArithmeticError:
            return True

    bad_a = [a for a, k in zip(units, k_m) if fails((mul(a, b) for b in field.elements()), d, k)]
    bad_beta = [
        b
        for b in field.elements()
        if fails((field.neg(mul(a, b)) for a in units), k_m, q * d[b] - (q - 1) ** m)
    ]
    return bad_a, bad_beta


@pytest.fixture
def duality_failures():
    return _duality_failures


@pytest.fixture
def cold_caches():
    """Every ``kloos`` ``lru_cache`` cleared before the test."""
    for name, module in list(sys.modules.items()):
        if name == "kloos" or name.startswith("kloos."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def family_constants_calls(monkeypatch):
    """The arguments of every `family_constants` call while the test runs,
    counted in every ``kloos.*`` namespace that binds the name."""
    import kloos.constants

    calls, derive = [], kloos.constants.family_constants

    def spy(*args):
        calls.append(args)
        return derive(*args)

    for name, module in list(sys.modules.items()):
        if (name == "kloos" or name.startswith("kloos.")) and getattr(module, "family_constants", None) is derive:
            monkeypatch.setattr(module, "family_constants", spy)
    return calls
