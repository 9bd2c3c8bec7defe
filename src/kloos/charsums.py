"""Kloosterman sums over GF(3^r), their moments, and fiber-count identities.

K(lambda; a) = sum over alpha in F_q^* of lambda(alpha + a/alpha), with
lambda the canonical additive character omega^tr.  A single value is a
brute-force O(q) sum through :func:`kloos.field.char_sum`, which counts
trace fibers exactly and raises unless the sum is real; it is the oracle.
The whole table, a tuple indexed by the element like every per-element
vector in kloos, comes from two character transforms
(:func:`kloos.field.char_transform`) of log-domain histograms, with the
same realness check; K(a^2) at every a is read off it once per field.
Kloosterman values are also checked against the Weil bound
|K| <= 2 sqrt(q).

Also here:

* delta(m, q; beta) = #{(a_1..a_m) in (F_q^*)^m : sum(a_i + 1/a_i) = beta},
  the inverse transform of K(lambda; a^2)^m, one O(r q) transform of the
  cached K(a^2) vector;
* power moments SK^h (square arguments) and MK^h (all arguments).

Nothing here scans q^2 pairs; the tests check the transform pair between
delta(m) and K(a^2)^m against the brute-force :func:`kloosterman`.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .constants import exact_div
from .field import Field, char_sum, char_transform

DELTA_MAX_M = 4
# a moment series prints 2 h_max integers of up to h_max log2(2 sqrt q) bits
SERIES_MAX_H = 1000


def check_series_h(h_max: int) -> None:
    """Refuse a moment series order bound outside 0..SERIES_MAX_H."""
    if h_max < 0:
        raise ValueError(f"moment order bound must be nonnegative, got {h_max}")
    if h_max > SERIES_MAX_H:
        raise ValueError(f"moment order bound capped at h_max <= {SERIES_MAX_H}, got {h_max}")


def kloosterman(field: Field, a: int) -> int:
    """K(lambda; a), exact integer.

    Raises if a is not a unit, if the sum is not real, or if the Weil bound
    fails (either would mean broken arithmetic).
    """
    if not 1 <= a < field.q:
        raise ValueError(f"Kloosterman argument must be a unit, got {a}")
    add, mul, inv = field.add, field.mul, field.inv
    value = char_sum(field, (add(alpha, mul(a, inv(alpha))) for alpha in field.units()))
    if value * value > 4 * field.q:
        raise ArithmeticError(f"Weil bound violated: K={value} at q={field.q}")
    return value


@lru_cache(maxsize=64)
def kloosterman_table(field: Field) -> tuple[int, ...]:
    """K(lambda; a) at every a in F_q, from two character transforms; entry
    0 holds K(0) = -1.

    Substituting x -> x / a gives K(lambda; a^2 b) = sum over beta of
    #{x : x + b/x = beta} lambda(a beta), so transforming the histograms
    of x + 1/x and x + b0/x, b0 a fixed nonsquare, yields K at every
    square a^2 and every nonsquare a^2 b0.  Both histograms come from the
    log tables with no field addition, x = g^i giving x + c/x =
    g^(i + zech[log c - 2i]) (:meth:`Field.inverse_sum_histogram`), and
    each value lands at c a^2 = g^(log c + 2 log a)
    (:meth:`Field.times_squares`), units in element order.  Each value is
    checked against the Weil bound, the table against the four closed
    moments below, one entry of each transform against the brute-force
    :func:`kloosterman`, and then every unit a against a^3 (read from the
    log tables by :meth:`Field.pow`): tr(x^3) = tr(x), so K(a^3) = K(a).

    The moments (Lidl & Niederreiter, *Finite Fields*, ch. 5) need no
    transform.  Sum over a in F_q of K(a) = sum over units x of lambda(x)
    times sum over a in F_q of lambda(a/x), that is 0.  K is real, so
    K(a)^2 = sum over units x, y of lambda(x - y + a (1/x - 1/y)); summed
    over a in F_q only x = y survives, giving q (q - 1).

    The square half splits off through the quadratic character eta:
    SK^h = (MK^h + sum over units a of eta(a) K(a)^h) / 2.  With the Gauss
    sum G(eta), sum over units a of eta(a) lambda(a c) = eta(c) G(eta) for
    c != 0, and G(eta)^2 = eta(-1) q = (-3)^r.  So sum eta(a) K(a) =
    sum over units x of lambda(x) eta(x) G(eta) = (-3)^r.  In
    sum eta(a) K(a)^2 = sum over units a, x, y of
    eta(a) lambda(x + y + a (1/x + 1/y)), write 1/x + 1/y = s / (x y) with
    s = x + y; s = 0 drops out, and sum over x of eta(x (s - x)) = -eta(-1)
    for s != 0, so the sum is -eta(-1) G(eta) times sum over units s of
    eta(s) lambda(s), that is -q.  Hence, with MK^1 = 1 and
    MK^2 = q^2 - q - 1 over the units, SK^1 = (1 + (-3)^r) / 2 and
    SK^2 = (q^2 - 2q - 1) / 2.
    """
    q = field.q
    b0 = field.first_nonsquare()
    transforms = [(c, char_transform(field, field.inverse_sum_histogram(c))) for c in (1, b0)]
    values = [-1] * q
    for c, at in transforms:
        # units in element order, so of a and -a the later one places K(a^2 c)
        for s, k in zip(field.times_squares(c), at[1:]):
            values[s] = k
    for k in values:
        if k * k > 4 * q:
            raise ArithmeticError(f"Weil bound violated: K={k} at q={q}")
    moments = (sum(values), sum(k * k for k in values))
    if moments != (0, q * (q - 1)):
        raise ArithmeticError(f"K table moments {moments} != (0, {q * (q - 1)}) at q={q}")
    at_squares = [values[a] for a in field.squares()]
    square_moments = (sum(at_squares), sum(k * k for k in at_squares))
    expected = ((1 + (-3) ** field.r) // 2, (q * q - 2 * q - 1) // 2)
    if square_moments != expected:
        raise ArithmeticError(f"K table square moments {square_moments} != {expected} at q={q}")
    # a = q - 1 has every digit nonzero, so its index c(a) draws on the
    # trace of every basis element
    a2 = field.mul(q - 1, q - 1)
    for b in (a2, field.mul(a2, b0)):
        if values[b] != kloosterman(field, b):
            raise ArithmeticError(f"transform gives K={values[b]} at {b}, brute force disagrees, q={q}")
    for a in field.units():
        cube = field.pow(a, 3)
        if values[cube] != values[a]:
            raise ArithmeticError(f"K({a})={values[a]} but K({a}^3)=K({cube})={values[cube]}: Frobenius fails, q={q}")
    return tuple(values)


@lru_cache(maxsize=64)
def kloosterman_squares(field: Field) -> tuple[int, ...]:
    """K(lambda; a^2) at every a in F_q, read off the checked table; entry 0
    holds K(0) = -1."""
    table = kloosterman_table(field)
    return (table[0], *map(table.__getitem__, field.times_squares(1)))


@lru_cache(maxsize=64)
def _value_counts(field: Field) -> tuple[Counter, Counter]:
    """Multiplicity of each K value over the nonzero squares and over the units."""
    table = kloosterman_table(field)
    return Counter(table[a] for a in field.squares()), Counter(table[1:])


def sk_moment(field: Field, h: int) -> int:
    """SK^h: sum of K(lambda; a)^h over nonzero square a."""
    if h < 0:
        raise ValueError("moment order must be nonnegative")
    return sum(m * k**h for k, m in _value_counts(field)[0].items())


def mk_moment(field: Field, h: int) -> int:
    """MK^h: sum of K(lambda; a)^h over all units a."""
    if h < 0:
        raise ValueError("moment order must be nonnegative")
    return sum(m * k**h for k, m in _value_counts(field)[1].items())


def moment_series(field: Field, h_max: int) -> tuple[list[int], list[int]]:
    """(SK^0..SK^h_max, MK^0..MK^h_max)."""
    check_series_h(h_max)
    return (
        [sk_moment(field, h) for h in range(h_max + 1)],
        [mk_moment(field, h) for h in range(h_max + 1)],
    )


# -- delta counts --------------------------------------------------------------


@lru_cache(maxsize=256)
def delta_counts(field: Field, m: int) -> tuple[int, ...]:
    """delta(m, q; beta) for all beta, the inverse transform of K(a^2)^m.

    Index beta as a field element; m = 0 is the point mass at beta = 0.
    Summing lambda(a (x_1 + 1/x_1 + ... + x_m + 1/x_m - beta)) over a in F_q
    gives q delta(m; beta) = (q - 1)^m + sum over units of K(a^2)^m
    lambda(-a beta), and the summand is even in a, so lambda(a beta) serves.
    """
    if not 0 <= m <= DELTA_MAX_M:
        raise ValueError(f"delta supports 0 <= m <= {DELTA_MAX_M}, got {m}")
    q = field.q
    powers = [k**m for k in kloosterman_squares(field)]
    powers[0] = (q - 1) ** m
    return tuple(exact_div(v, q) for v in char_transform(field, powers))

