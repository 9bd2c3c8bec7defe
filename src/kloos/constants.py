"""Exact combinatorial constants for the coset code families.

Eight families of index pairs (i, sign) with i in 1..4 label codes built
from double cosets of a maximal parabolic inside the minus-type orthogonal
group O^-(2n, q): i = 1 pairs with the big cell, i = 2 with the middle
cell, i = 3, 4 with their reflected images.  Plus-sign families need n
even, minus-sign families n odd (exact floors below).  Each valid (family,
n, q) is one :class:`FamilyConstants` record: integers A, B whose product
N = A B is the coset size, i.e. the code length, and the (sigma, power,
shift) of its double-coset sum.

Everything here is closed-form integer arithmetic: Gaussian binomials,
Stirling numbers of the second kind, general-linear group orders, and the
A/B constants with their quarter-integer exponents.  Every division goes
through :func:`exact_div`, which raises ArithmeticError on a remainder:
nothing is rounded, and the guard survives ``python -O``.
"""

from __future__ import annotations

from math import comb, factorial
from typing import NamedTuple

from .report import CheckResult

FAMILY_INDICES = (1, 2, 3, 4)
MAX_N = 64


def exact_div(num: int, den: int) -> int:
    """num / den for a closed form that must divide; ArithmeticError if not."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"expected {num} divisible by {den}")
    return quotient


def check_dimension(n: int) -> None:
    """Refuse a dimension n above MAX_N: the constants have about n^2 log q
    bits, and a verify up to n builds about n of them per family."""
    if n > MAX_N:
        raise ValueError(f"dimension n capped at n <= {MAX_N}, got {n}")


def q_binomial(n: int, r: int, q: int) -> int:
    """Gaussian binomial [n r]_q: number of r-dim subspaces of F_q^n."""
    if r < 0 or r > n:
        return 0
    num = 1
    den = 1
    for j in range(r):
        num *= q ** (n - j) - 1
        den *= q ** (r - j) - 1
    return exact_div(num, den)


def stirling2(h: int, t: int) -> int:
    """Stirling number of the second kind S(h, t), by finite differences."""
    if t < 0 or h < 0:
        raise ValueError("stirling2 needs nonnegative arguments")
    if t > h:
        return 0
    total = sum((-1) ** (t - j) * comb(t, j) * j**h for j in range(t + 1))
    return exact_div(total, factorial(t))


def gl_order(n: int, q: int) -> int:
    """|GL(n, q)| = q^C(n,2) * prod_{j=1..n} (q^j - 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = q ** comb(n, 2)
    for j in range(1, n + 1):
        out *= q**j - 1
    return out


class _FamilyKey(NamedTuple):
    i: int
    sign: int  # +1 or -1


class CosetFamily(_FamilyKey):
    """One of the eight code families: cell index i in 1..4 and a sign,
    checked whenever it is constructed or unpickled."""

    __slots__ = ()

    def __new__(cls, i: int, sign: int):
        if i not in FAMILY_INDICES:
            raise ValueError(f"family index must be in 1..4, got {i}")
        if sign not in (1, -1):
            raise ValueError(f"family sign must be +1 or -1, got {sign}")
        return super().__new__(cls, i, sign)

    @classmethod
    def parse(cls, text: str) -> "CosetFamily":
        text = text.strip().upper()
        if len(text) == 4 and text.startswith("DC") and text[2] in "1234" and text[3] in "+-":
            return cls(int(text[2]), 1 if text[3] == "+" else -1)
        raise ValueError(f"cannot parse family {text!r}; expected e.g. 'DC1+' or 'DC4-'")

    @property
    def label(self) -> str:
        return f"DC{self.i}{'+' if self.sign > 0 else '-'}"

    def valid_n(self, n: int) -> bool:
        """Whether dimension parameter n is admissible for this family."""
        if self.sign > 0:
            if n % 2 != 0:
                return False
            return n >= (4 if self.i == 4 else 2)
        if n % 2 != 1:
            return False
        return n >= (1 if self.i == 1 else 3)

    def check_n(self, n: int) -> None:
        """Refuse a dimension parameter n this family does not admit."""
        if not self.valid_n(n):
            raise ValueError(f"n={n} is not valid for family {self.label}")

    def valid_ns(self, n_max: int) -> list[int]:
        return [n for n in range(1, n_max + 1) if self.valid_n(n)]

    def sigma_index(self, n: int) -> int:
        """Index r of the permutation sigma_r whose double coset builds the code."""
        return n - {1: 1, 2: 2, 3: 2, 4: 3}[self.i]

    @property
    def uses_reflection(self) -> bool:
        """Families 3 and 4 sit in the reflected (determinant -1 style) cosets."""
        return self.i in (3, 4)

    @property
    def even_moments(self) -> bool:
        """Families 2 and 4 generate SK^{2h}; families 1 and 3 generate SK^h."""
        return self.i in (2, 4)


ALL_FAMILIES = tuple(
    CosetFamily(i, sign) for i in FAMILY_INDICES for sign in (1, -1)
)


class FamilyConstants(NamedTuple):
    """One instance (family, n, q): the constants A, B, with N = A B the code
    length, and S(a), the sum of lambda(a Tr g) over its double coset, which
    is sigma A (K(lambda; a^2)^power + shift) for a != 0.  The dual weight is
    (2/3)(N - S(a)); the trace profile is the inverse transform of S.  Built
    by :func:`family_constants` only."""

    family: CosetFamily
    n: int
    q: int
    A: int
    B: int
    sigma: int
    power: int
    shift: int

    @property
    def N(self) -> int:
        return self.A * self.B

    @property
    def tag(self) -> str:
        """`<label>,n=<n>,q=<q>`: the instance in check names and guards."""
        return f"{self.family.label},n={self.n},q={self.q}"

    def coset_sum(self, k: int) -> int:
        """S(a) at K(lambda; a^2) = k."""
        return self.sigma * self.A * (k**self.power + self.shift)

    def as_dict(self) -> dict:
        """The instance's entry in the `constants` and `verify` documents."""
        return {"family": self.family.label, "n": self.n, "q": self.q, "A": self.A, "B": self.B, "N": self.N}


def _q_power(q: int, num: int, den: int = 1) -> int:
    """q^(num/den); the exponent must be a nonnegative integer."""
    e = exact_div(num, den)
    if e < 0:
        raise ArithmeticError(f"negative exponent {num}/{den} in constant formula")
    return q**e


def _odd_product(q: int, terms: int) -> int:
    """prod_{j=1..terms} (q^(2j-1) - 1); empty product is 1."""
    out = 1
    for j in range(1, terms + 1):
        out *= q ** (2 * j - 1) - 1
    return out


def _even_product(q: int, terms: int) -> int:
    """prod_{j=1..terms} (q^(2j) - 1); empty product is 1."""
    out = 1
    for j in range(1, terms + 1):
        out *= q ** (2 * j) - 1
    return out


def family_constants(family: CosetFamily, n: int, q: int) -> FamilyConstants:
    """The record of a valid (family, n, q): its exact (A, B) and (sigma, power, shift)."""
    family.check_n(n)
    i = family.i
    if family.sign > 0:
        half = (n - 2) // 2
        if i == 1:
            a = _q_power(q, 5 * n * n - 2 * n - 4, 4) * (q ** (n - 1) - 1) * _odd_product(q, half)
            b = (q + 1) * _q_power(q, n * n, 4) * _even_product(q, half)
        elif i == 2:
            a = _q_power(q, 5 * n * n - 2 * n - 8, 4) * q_binomial(n - 1, 1, q) * _odd_product(q, half)
            b = (q + 1) * _q_power(q, (n - 2) ** 2, 4) * (q ** (n - 1) - 1) * _even_product(q, half)
        elif i == 3:
            a = (q + 1) * _q_power(q, 5 * n * n - 2 * n - 8, 4) * q_binomial(n - 1, 1, q) * _odd_product(q, half)
            b = _q_power(q, (n - 2) ** 2, 4) * (q ** (n - 1) - 1) * _even_product(q, half)
        else:
            a = (q + 1) * _q_power(q, 5 * n * n - 6 * n - 4, 4) * q_binomial(n - 1, 2, q) * _odd_product(q, half)
            b = _q_power(q, (n - 2) ** 2, 4) * (q ** (n - 1) - 1) * _even_product(q, half)
    else:
        half = (n - 1) // 2
        if i == 1:
            a = _q_power(q, 5 * (n * n - 1), 4) * _odd_product(q, half)
            b = (q + 1) * _q_power(q, (n - 1) ** 2, 4) * _even_product(q, half)
        elif i == 2:
            a = _q_power(q, 5 * n * n - 4 * n - 5, 4) * q_binomial(n - 1, 1, q) * _odd_product(q, half)
            b = (q + 1) * _q_power(q, (n - 1) ** 2, 4) * _even_product(q, half)
        elif i == 3:
            a = (q + 1) * _q_power(q, 5 * n * n - 4 * n - 5, 4) * q_binomial(n - 1, 1, q) * _odd_product(q, half)
            b = _q_power(q, (n - 1) ** 2, 4) * _even_product(q, half)
        else:
            half = (n - 3) // 2
            a = (q + 1) * _q_power(q, 5 * n * n - 4 * n - 9, 4) * q_binomial(n - 1, 2, q) * _odd_product(q, half)
            b = _q_power(q, (n - 3) ** 2, 4) * (q ** (n - 2) - 1) * (q ** (n - 1) - 1) * _even_product(q, half)
    power = 2 if family.even_moments else 1
    sigma = family.sign if power == 1 else -family.sign
    return FamilyConstants(family, n, q, a, b, sigma, power, q * q - q if i == 4 else 0)


class CosetOrders(NamedTuple):
    parabolic: int  # |P(2n, q)|, the maximal parabolic subgroup
    cosets: int  # number of B_r-cosets inside one factor
    double_coset: int  # |P sigma_r P| (equals |reflected copy|)


def coset_orders(n: int, q: int, r: int) -> CosetOrders:
    """Orders in the Bruhat-style decomposition at cell index r.

    |P| = 2 (q+1) |GL(n-1, q)| q^((n-1)(n+2)/2), the coset count is
    [n-1 r]_q q^(r(r+3)/2), and the double coset has |P| * count / 2
    elements.
    """
    if not 0 <= r <= n - 1:
        raise ValueError(f"cell index r={r} outside 0..{n - 1}")
    parabolic = 2 * (q + 1) * gl_order(n - 1, q) * q ** ((n - 1) * (n + 2) // 2)
    cosets = q_binomial(n - 1, r, q) * q ** (r * (r + 3) // 2)
    return CosetOrders(parabolic, cosets, exact_div(parabolic * cosets, 2))


def check_constants_consistency(consts: FamilyConstants) -> CheckResult:
    """A B of one instance against its double-coset order."""
    expected = coset_orders(consts.n, consts.q, consts.family.sigma_index(consts.n)).double_coset
    return CheckResult(f"constants_consistency({consts.tag})", consts.N, expected)
