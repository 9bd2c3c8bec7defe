import os
import sys

# a test run leaves no bytecode beside the sources: a child process that
# imports kloos from this checkout compiles it afresh, as a clean checkout does
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

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
