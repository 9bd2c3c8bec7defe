"""Arithmetic in GF(3^r) and exact character values.

Elements of GF(3^r) = F_3[x]/(m(x)) are represented as plain integers in
``range(3**r)`` whose base-3 digits are the coefficients of the residue
polynomial, constant term in the least significant digit.  Every runtime
operation reads a fixed number of entries of q-entry tables, the same code
for every r = 1..12: exp/log tables from a generator g for products, Zech
logarithms zech[k] = log(1 + g^k) for sums (g^i + g^j = g^(i + zech[j - i]);
Lidl & Niederreiter, Finite Fields, 9.4), the product with 2 = -1 for
negation, and a trace table.  The product by g that walks the exp table,
the trace, the transform's dual index and Frobenius are F_3-linear maps, each
built by :func:`linear_map` from its images of the digit basis 3^i = x^i.
``_add_digits`` and ``_mul_raw`` give those images and are the test
reference.  There is no floating point anywhere.

The canonical additive character is lambda(a) = omega^tr(a), omega a
primitive cube root of unity.  :func:`char_sum` adds the terms of a
character sum into the triple of trace-fiber counts (N0, N1, N2); since
1 + omega + omega^2 = 0 the sum is N0 - N1 when N1 == N2, and
:func:`real_char_value` raises ArithmeticError on any triple that is not
real.  Every sum the paper needs is a real integer, so no value of Z[omega]
is ever formed.  :func:`char_fibers` gives the trace fibers of
sum_beta f(beta) lambda(a beta) for every a at once: the radix-3
(Vilenkin-Chrestenson) transform, r in-place butterfly passes over three
packed ints, one fixed-width slot per index, each pass about 50 big-int
operations.  :func:`char_transform` asks realness of every a with one
comparison of packed ints and hands a failing f to :func:`real_char_value`.

The modulus may be supplied explicitly (coefficients constant-term first)
or defaulted from a shipped table of primitive polynomials, one per degree
r = 1..12.  Construction verifies irreducibility by trial division and
names the offending factor on failure.
"""

from __future__ import annotations

import itertools
from array import array
from functools import lru_cache
from typing import Iterable, Sequence

MAX_DEGREE = 12

# Lexicographically first monic primitive polynomial of each degree over
# F_3 (coefficients constant-term first).  Primitive means the class of x
# generates the multiplicative group, so the exp table, which walks the
# first generator in element order, walks successive powers of x.  Each
# entry is re-checked for irreducibility at construction time.
DEFAULT_MODULI: dict[int, tuple[int, ...]] = {
    1: (1, 1),
    2: (2, 1, 1),
    3: (1, 0, 2, 1),
    4: (2, 0, 0, 1, 1),
    5: (1, 0, 0, 0, 2, 1),
    6: (2, 0, 0, 0, 0, 1, 1),
    7: (1, 0, 0, 0, 0, 1, 2, 1),
    8: (2, 0, 0, 0, 0, 1, 0, 0, 1),
    9: (1, 0, 0, 0, 0, 0, 2, 1, 0, 1),
    10: (2, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1),
    11: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1),
    12: (2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 1),
}


def poly_trim(p: Sequence[int]) -> tuple[int, ...]:
    """Drop trailing zero coefficients, keeping at least the constant."""
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_degree(p: Sequence[int]) -> int:
    p = poly_trim(p)
    if p == (0,):
        return -1
    return len(p) - 1


def poly_mod(num: Sequence[int], den: Sequence[int]) -> tuple[int, ...]:
    """Remainder of num modulo monic den, coefficients over F_3."""
    num = [c % 3 for c in num]
    den = poly_trim(den)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        lead = num[i]
        if lead == 0:
            continue
        shift = i - dd
        for j, c in enumerate(den):
            num[shift + j] = (num[shift + j] - lead * c) % 3
    return poly_trim(num)


def poly_str(p: Sequence[int]) -> str:
    """Render coefficients (constant first) as a readable polynomial."""
    terms = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i] % 3
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}*x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
    return " + ".join(terms) if terms else "0"


def _monic_polys(degree: int) -> Iterable[tuple[int, ...]]:
    """Monic polynomials of the degree, constant term first, in range(3**degree)
    order of their lower coefficients: the constant term varies fastest."""
    return (low[::-1] + (1,) for low in itertools.product(range(3), repeat=degree))


def find_factor(modulus: Sequence[int]) -> tuple[int, ...] | None:
    """Return a monic proper factor of the modulus, or None if irreducible.

    Trial division by every monic polynomial of degree 1..deg/2 suffices:
    any reducible polynomial has a factor in that range.
    """
    degree = poly_degree(modulus)
    for d in range(1, degree // 2 + 1):
        for candidate in _monic_polys(d):
            if poly_mod(modulus, candidate) == (0,):
                return candidate
    return None


def _factorize(m: int) -> list[int]:
    primes = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    return primes


def translates(r: int, s: int, t: int) -> list[int]:
    """[s + t beta for beta in range(3**r)], t in F_3, digit by digit with no
    field addition: elements with top digit d follow those below it."""
    out = [0]
    for i in range(r):
        digits = [(s // 3**i + t * d) % 3 * 3**i for d in range(3)]
        out = [x + v for v in digits for x in out]
    return out


def linear_map(images: Sequence[int]) -> list[int]:
    """The F_3-linear map sending 3^i to images[i], at every element of
    range(3**len(images)), with no field addition.  Elements with top digit
    d follow those below it and take d times the image, read from one
    translate table as wide as the largest image."""
    width = next(w for w in itertools.count() if 3**w > max(images, default=0))
    out = [0]
    for image in images:
        plus = translates(width, image, 1)
        out += [plus[x] for x in out] + [plus[plus[x]] for x in out]
    return out


class Field:
    """GF(3^r) with int-encoded elements and exact table-driven arithmetic.

    Parameters
    ----------
    r : extension degree, 1 <= r <= 12.
    modulus : optional coefficients of a monic irreducible of degree r over
        F_3, constant term first; trailing zero coefficients are dropped.
        Defaults to the shipped primitive polynomial for that degree.
    """

    def __init__(self, r: int, modulus: Sequence[int] | None = None):
        if not 1 <= r <= MAX_DEGREE:
            raise ValueError(f"extension degree r={r} outside supported range 1..{MAX_DEGREE}")
        if modulus is None:
            modulus = DEFAULT_MODULI[r]
        modulus = poly_trim([int(c) % 3 for c in modulus])
        if poly_degree(modulus) != r:
            raise ValueError(
                f"modulus {poly_str(modulus)} has degree {poly_degree(modulus)}, expected {r}"
            )
        if modulus[-1] != 1:
            raise ValueError(f"modulus {poly_str(modulus)} is not monic")
        factor = find_factor(modulus)
        if factor is not None:
            raise ValueError(
                f"modulus {poly_str(modulus)} is reducible: divisible by {poly_str(factor)}"
            )
        self.r = r
        self.q = 3**r
        self.modulus = modulus
        self._x_r = self.from_int_coeffs(-c for c in modulus[:-1])  # x^r reduced
        self._build_log_tables()
        self._trace_basis = self._build_trace_basis()
        self._trace = linear_map(self._trace_basis)

    # -- construction helpers -------------------------------------------------

    def _add_digits(self, a: int, b: int) -> int:
        out = 0
        scale = 1
        while a or b:
            a, da = divmod(a, 3)
            b, db = divmod(b, 3)
            out += ((da + db) % 3) * scale
            scale *= 3
        return out

    def _mul_by_x(self, a: int) -> int:
        # multiply by the class of x: shift digits, fold the overflow top*x^r
        top, y = divmod(a * 3, self.q)
        for _ in range(top):
            y = self._add_digits(y, self._x_r)
        return y

    def from_int_coeffs(self, coeffs: Iterable[int]) -> int:
        out = 0
        scale = 1
        for c in coeffs:
            out += (c % 3) * scale
            scale *= 3
        return out

    def _mul_raw(self, a: int, b: int) -> int:
        # schoolbook polynomial product reduced mod the modulus
        acc = 0
        term = a
        while b:
            b, d = divmod(b, 3)
            for _ in range(d):
                acc = self._add_digits(acc, term)
            term = self._mul_by_x(term)
        return acc

    def _build_log_tables(self) -> None:
        q = self.q
        primes = _factorize(q - 1)

        def raw_pow(a: int, e: int) -> int:
            out = 1
            while e:
                if e & 1:
                    out = self._mul_raw(out, a)
                a = self._mul_raw(a, a)
                e >>= 1
            return out

        # the first generator in element order: 2 = -1 has order 2, so for
        # r > 1 that is x = 3 whenever x generates
        g = next(g for g in range(2, q) if all(raw_pow(g, (q - 1) // p) != 1 for p in primes))
        times_g = linear_map([self._mul_raw(g, 3**i) for i in range(self.r)])
        exp = [1]
        for _ in range(q - 2):  # g has order q - 1
            exp.append(times_g[exp[-1]])
        del times_g
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log
        # 1 + v bumps the constant digit of v; -1 marks 1 + g^k = 0 (g^k = 2)
        self._zech = [-1 if v == 2 else log[v + 1 if v % 3 < 2 else v - 2] for v in exp]

    def _build_trace_basis(self) -> tuple[int, ...]:
        # trace is F_3-linear, so tr(x^i) for i < r determines it everywhere
        basis = []
        for i in range(self.r):
            e = self.element([0] * i + [1])
            acc = e
            f = e
            for _ in range(self.r - 1):
                f = self.mul(self.mul(f, f), f)
                acc = self._add_digits(acc, f)
            if acc not in (0, 1, 2):
                raise ValueError(f"trace of basis element x^{i} landed outside F_3")
            basis.append(acc)
        return tuple(basis)

    # -- element conversion ---------------------------------------------------

    def element(self, coeffs: Sequence[int]) -> int:
        """Element from polynomial coefficients, reducing if over-long."""
        reduced = poly_mod(coeffs, self.modulus)
        return self.from_int_coeffs(reduced)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-3 digits of an element, constant term first, length r."""
        self._check(a)
        out = []
        for _ in range(self.r):
            a, d = divmod(a, 3)
            out.append(d)
        return tuple(out)

    def _check(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of GF({self.q})")

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        # g^i + g^j = g^i (1 + g^(j - i))
        i = self._log[a]
        z = self._zech[(self._log[b] - i) % (self.q - 1)]
        return 0 if z < 0 else self._exp[(i + z) % (self.q - 1)]

    def neg(self, a: int) -> int:
        return self.mul(a, 2)  # the element 2 is -1

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def trace(self, a: int) -> int:
        """Absolute trace down to F_3: sum of the r Frobenius conjugates."""
        self._check(a)
        return self._trace[a]

    def is_square(self, a: int) -> bool:
        """True when a is a square; 0 counts as a square."""
        if a == 0:
            return True
        return self._log[a] % 2 == 0

    def first_nonsquare(self) -> int:
        for a in self.units():
            if not self.is_square(a):
                return a
        raise ValueError("no nonsquare exists; group order must be even")

    def squares(self) -> list[int]:
        """Nonzero squares in element order."""
        return [a for a in self.units() if self.is_square(a)]

    def times_squares(self, c: int) -> list[int]:
        """[c a^2 for a in units()], c a unit: exp at log c + 2 log a < 3 (q - 1)."""
        exp, lc = self._exp * 3, self._log[c]
        return [exp[lc + 2 * i] for i in self._log[1:]]

    def inverse_sum_histogram(self, c: int) -> list[int]:
        """#{x unit : x + c/x = beta} for every beta, c a unit.

        x = g^i gives x + c/x = g^i (1 + g^(log c - 2i)) = g^(i + zech[log c - 2i]),
        and 0 where the Zech logarithm is -1."""
        n, exp, zech, lc = self.q - 1, self._exp, self._zech, self._log[c]
        hist = [0] * self.q
        for i in range(n):
            z = zech[(lc - 2 * i) % n]
            hist[exp[(i + z) % n] if z >= 0 else 0] += 1
        return hist

    # -- identity: (r, modulus), so a copy unpickled with its tables hits every per-field cache

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and (self.r, self.modulus) == (other.r, other.modulus)

    def __hash__(self) -> int:
        return hash((self.r, self.modulus))

    def __repr__(self) -> str:
        return f"Field(q=3^{self.r}, modulus={poly_str(self.modulus)})"


def real_char_value(counts: Sequence[int]) -> int:
    """Collapse trace-fiber counts (N0, N1, N2) of a real character sum.

    N0 + N1*omega + N2*omega^2 = (N0 - N2) + (N1 - N2)*omega, an integer
    exactly when N1 == N2.  Anything else means broken arithmetic or a sum
    that is not real, and raises ArithmeticError.
    """
    n0, n1, n2 = counts
    if n1 != n2:
        raise ArithmeticError(f"value {n0 - n2} + {n1 - n2}*omega is not real")
    return n0 - n1


def char_sum(field: Field, values: Iterable[int], weights: Iterable[int] = itertools.repeat(1)) -> int:
    """Sum of weight * lambda(value), lambda = omega^tr, as an exact integer.

    Each weight lands in the trace fiber of its value; the fibers collapse
    through :func:`real_char_value`, so a sum that is not real raises.
    """
    counts = [0, 0, 0]
    trace = field.trace
    for v, w in zip(values, weights):
        counts[trace(v)] += w
    return real_char_value(counts)


@lru_cache(maxsize=64)
def _dual_index(field: Field) -> array:
    """c(a) for every a: the int whose digit j is tr(a e_j), e_j = x^j = 3^j.

    tr(a beta) = sum_j beta_j c(a)_j for beta = sum_j beta_j e_j, and c is
    F_3-linear in a: the :func:`linear_map` of the images c(e_i).  It is
    held as an array, which stores the q entries without an int object each.
    """
    images = [sum(field.trace(field.mul(3**i, 3**j)) * 3**j for j in range(field.r)) for i in range(field.r)]
    return array("l", linear_map(images))


# the signed array typecode of each slot size up to 8 bytes
_SIGNED = {array(t).itemsize: t for t in "bhiq"}


def _pack(f: Sequence[int], size: int) -> int:
    """f as one int: entry i in two's complement in the size-byte slot i."""
    if size in _SIGNED:
        data = array(_SIGNED[size], f).tobytes()
    else:
        data = b"".join(v.to_bytes(size, "little", signed=True) for v in f)
    return int.from_bytes(data, "little")


def _unpack(x: int, count: int, size: int) -> list[int]:
    """The count two's complement size-byte slots of x, lowest first."""
    data = x.to_bytes(count * size, "little")
    if size in _SIGNED:
        return array(_SIGNED[size], data).tolist()
    return [int.from_bytes(data[i : i + size], "little", signed=True) for i in range(0, len(data), size)]


def _butterfly(field: Field, f: Sequence[int]) -> tuple[list[int], int, int]:
    """([X0, X1, X2], bias, size): the radix-3 transform of f, in place on
    three packed ints.  Slot c of Xk, size bytes wide, holds Tk + bias, with
    Tk = sum of f(beta) over beta with sum_j beta_j c_j = k (mod 3) and bias
    one top bit per slot, 2^(w-1) for w = 8 size bits.  Every partial sum is
    at most sum |f| < 2^(w-1) in size, so every slot stays in [0, 2^w) and a
    mask reads a whole digit class at once."""
    q = field.q
    if len(f) != q:
        raise ValueError(f"transform input has {len(f)} entries, expected q={q}")
    size = (sum(map(abs, f)).bit_length() + 8) // 8
    size = next((s for s in (1, 2, 4, 8) if s >= size), size)
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * q, "little")
    x = [_pack(f, size) ^ bias, bias, bias]
    for j in range(field.r):
        # digit j of the slot index: slots with digit d sit d * shift bits
        # above the slot with digit 0 that they combine with
        span = 3**j
        shift = 8 * size * span
        mask = int.from_bytes((b"\xff" * size * span + bytes(2 * size * span)) * (q // (3 * span)), "little")
        low = [t & mask for t in x]
        mid = [t >> shift & mask for t in x]
        high = [t >> 2 * shift & mask for t in x]
        twice = (bias & mask) << 1
        low = [t - twice for t in low]
        # output digit d is A + omega^d B + omega^(2d) C; component k of
        # omega^m X is component k - m of X
        x = [
            low[k] + mid[k] + high[k]
            | (low[k] + mid[k - 1] + high[k - 2]) << shift
            | (low[k] + mid[k - 2] + high[k - 1]) << 2 * shift
            for k in range(3)
        ]
    return x, bias, size


def char_fibers(field: Field, f: Sequence[int], ks: Sequence[int] = (0, 1, 2)) -> tuple[list[int], ...]:
    """(Tk for k in ks), Tk[a] = sum of f(beta) over beta with tr(a beta) = k.

    The radix-3 (Vilenkin-Chrestenson) transform in r butterfly passes on
    packed ints (:func:`_butterfly`): entry c of f sits in slot c, and pass
    j combines the three slots that differ in digit j only and writes output
    digit d back at digit d, so after r passes slot c holds the fibers of
    sum_beta f(beta) omega^(sum_j beta_j c_j), those of a at c = c(a).
    No realness is asked of f: T0[a] is the mass of f on ker(beta -> tr(a beta)).
    """
    x, bias, size = _butterfly(field, f)
    index = _dual_index(field)
    return tuple(list(map(_unpack(x[k] ^ bias, field.q, size).__getitem__, index)) for k in ks)


def char_transform(field: Field, f: Sequence[int]) -> list[int]:
    """S(a) = sum over beta of f(beta) lambda(a beta), for every a, as a list.

    The fibers of :func:`char_fibers` are real when T1 == T2, one comparison
    of packed ints; S is then T0 - T1.  Otherwise each triple goes through
    :func:`real_char_value`, so an f with f(-beta) != f(beta) raises at its
    first offending a."""
    (x0, x1, x2), bias, size = _butterfly(field, f)
    if x1 != x2:
        return [real_char_value(t) for t in zip(*char_fibers(field, f))]
    # |T0 - T1| <= sum |f| < bias, so every slot of x0 - x1 + bias is in range
    values = _unpack(x0 - x1 + bias ^ bias, field.q, size)
    return list(map(values.__getitem__, _dual_index(field)))
