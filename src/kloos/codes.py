"""Ternary codes attached to the coset families, with exact weight counts.

A family instance (family, n, q), one `FamilyConstants` record, yields a
code of length N = A B over F_3: coordinates are the coset elements, and a
word u is in the code when the field sum of u_k * Tr(g_k) vanishes.
Coordinates only matter through the matrix trace, so the whole code is
determined by the trace profile: the count N(beta) of coordinates at each
beta in F_q.  Every per-instance function here takes that record.

The profile and the closed dual weights read the record's double-coset sum
S(a) = sigma A (K(lambda; a^2)^p + c): the profile is its inverse
transform, through the fiber counts delta(p, q; .), and
w(c(a)) = (2/3)(N - S(a)).  From it follow, all exactly:

* dual weights w(c(a)) for each unit a, by two routes required equal:
  S at the K table, once per distinct K value, and N minus the
  trace-kernel mass #{coordinates with tr(a beta) = 0}, the zero trace
  fiber of one radix-3 transform of the profile's shape (below), O(r q) for
  every a at once.
  Both read S, and the profile's fiber counts delta(p) are the
  inverse transform of the K table, so this checks that transform pair.
  The independent evidence on the profile is `printed_columns` (one
  comparison, counting the beta where the printed counts differ; the
  square classes for families 1 and 3), `pless_identity` and
  `printed_prefix` through the DP, which never reads a character,
  `sk_vs_oracle`, and the K table's brute-force entries and closed moments;
* the number C_j of codewords of weight j for j <= j_max (the DP route):
  the z^j coefficient at 0 of the product over coordinates of (1 + z T),
  T = shift(beta) + shift(-beta) in the group ring Z[F_q], since a word
  kills the functional exactly when its signed sum cancels.  Negating one
  coordinate keeps the weight and turns u beta into (-u)(-beta), so C_j
  reads only N(0) and M_c = N(beta) + N(-beta) per class c = {beta, -beta}.
  With sigma_c the sum over <beta> (sigma_c^2 = 3 sigma_c), a class c != {0}
  gives (1 - z)^M_c R^(M_c sigma_c / 3), R = (1 + 2z) / (1 - z), so with
  Y = sum of M_c sigma_c, m_k = [Y^k]_0 and fixed integer polynomials Q_j,
  C(z) = (1 + 2z)^N(0) (1 - z)^(N - N(0)) sum_j z^j (sum_k Q_j[k] m_k) / j!.
  Multiplying by Y is one integer matrix on functions constant on the orbits
  of <Frobenius, -1>, built once per shape (below) with no field addition;
* the same prefix by the MacWilliams identity from the dual weights of the
  per-class column counts as printed in the source:
  C_j = (1/q) sum over a in F_q of K_j(w(c(a))), with the ternary
  Krawtchouk polynomial K_j.  This route never enumerates words and the DP
  never looks at dual weights, so the two share only `_series`, which
  takes every truncated (1 + 2z)^a (1 - z)^b here: K_j and the DP's
  scalars, and by its recurrence the Q_j.  Checks that never call it
  also face the DP: the left side of `pless_identity` (sum m w^h over
  the dual weights), `sk_vs_oracle` and the literal sums of the tests.

Per-instance work reads field-level vectors only, each derived once per
field, and combines them affinely with no field arithmetic: delta(p),
K(a^2) at every a (`kloosterman_squares`), the square classes
eta(beta^2 - 1), and each shape's matrix powers and zero fiber.

The matrix and the transform are built once per profile shape, not once per
instance.  Reading its counts alone, a profile splits, once
(`TraceProfile.split`), into two integers and a normalized shape S:
kappa = N(1), lam = +-gcd over beta != 0 of N(beta) - kappa, signed so
that the first nonzero difference is positive (lam = 0 when there is
none), and S(beta) = (N(beta) - kappa) / lam, S(0) = 0, so
N(beta) = kappa + lam S(beta) for every beta != 0.  For a family,
N(beta) - N(1) = sigma A (delta(p; beta) - delta(p; 1)), so one S serves
every instance of a field with the same power p.  With J the sum of
all elements (J X = eps(X) J for the augmentation eps, [J]_0 = 1 and
eps(sigma_c) = 3), V = sum of sigma_c = ((q - 3)/2) [0] + J, and
Y = 2 kappa V + lam Y_S = W + 2 kappa J with W = kappa (q - 3) [0] + lam Y_S.
Hence m_k = sum_i C(k, i) (kappa (q - 3))^(k - i) lam^i [Y_S^i]_0
+ (eps(Y)^k - eps(W)^k) / q, eps(Y) = 3 (N - N(0)) and eps(W) = eps(Y) - 2 kappa q;
and for a != 0 the kernel mass is N(0) + kappa (q/3 - 1) + lam T0_S[a], with
T0_S the zero trace fiber of S.  The [Y_S^i]_0 and T0_S are cached per
(field, shape), so an instance costs O(q) and O(j^2) big-integer operations.

The Pless identities and the moment solve consume the DP prefix only:
MacWilliams and Pless are equivalent, so feeding them the MacWilliams
prefix would make those checks hold by construction.  The DP is that same
equivalence evaluated by convolution instead of characters: under the
transform, q m_k = 3^k sum over a in F_q of (N - N(0) - w(c(a)))^k, so
`pless_identity` compares the dual-weight power moments computed twice, by
convolution in Z[F_q] and through the radix-3 transform's dual weights.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from math import comb, factorial, gcd
from operator import mul
from typing import NamedTuple

from .charsums import delta_counts, kloosterman_squares
from .constants import FamilyConstants, exact_div
from .field import Field, char_fibers, linear_map, translates
from .report import CheckResult

# the DP's matrix takes seconds per profile shape at 3^9; it holds R^2 integers, R ~ q/(2r) orbits
DP_EXACT_MAX_Q = 3**9
PREFIX_MAX_J = 12


class _ProfileFields(NamedTuple):
    field: Field
    counts: tuple[int, ...]


class TraceProfile(_ProfileFields):
    """Coordinate counts per trace value beta, dense over F_q; no __slots__,
    so the length and the split, once per profile, live in its __dict__."""

    @cached_property
    def length(self) -> int:
        return sum(self.counts)

    @cached_property
    def split(self) -> tuple[int, int, tuple[int, ...]]:
        """(kappa, lam, shape) of the counts, by `_split`."""
        return _split(self.counts)


def trace_profile(consts: FamilyConstants, field: Field) -> TraceProfile:
    """N(beta) of the instance over its field GF(consts.q), the inverse
    transform of S (S(0) = N); mass checked = N:
    q N(beta) = N + sigma A (q delta(p; beta) - (q-1)^p + c (q [beta = 0] - 1))."""
    q = field.q
    fibers = list(delta_counts(field, consts.power))
    fibers[0] += consts.shift  # with -c in the offset: c (q [beta = 0] - 1)
    sigma_a, offset = consts.sigma * consts.A, (q - 1) ** consts.power + consts.shift
    # every numerator is N - sigma A offset mod q: one division decides them all
    base = exact_div(consts.N - sigma_a * offset, q)
    counts = [base + sigma_a * d for d in fibers]
    profile = TraceProfile(field, tuple(counts))
    if profile.length != consts.N:
        raise ArithmeticError(f"profile mass {profile.length} != N {consts.N} for {consts.tag}")
    if any(c < 0 for c in counts):
        raise ArithmeticError(f"negative profile count for {consts.tag}")
    return profile


def _split(counts: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """(kappa, lam, shape) with N(beta) = kappa + lam shape(beta) for every
    beta != 0: kappa = N(1), lam the gcd of the N(beta) - kappa, signed so
    that the first nonzero difference is positive, and shape(0) = 0 (shape
    all zero when lam = 0)."""
    kappa = counts[1]
    diffs = [n - kappa for n in counts[1:]]
    lam = gcd(*diffs)
    if lam and next(d for d in diffs if d) < 0:
        lam = -lam
    return kappa, lam, (0, *[d // (lam or 1) for d in diffs])  # diffs are all 0 when lam = 0


@lru_cache(maxsize=16)
def _zero_fiber(field: Field, shape: tuple[int, ...]) -> tuple[int, ...]:
    """T0 of a shape, its mass on ker(beta -> tr(a beta)) for every a: one
    transform per shape, shared by every profile of that shape."""
    return tuple(char_fibers(field, shape, (0,))[0])


def dual_weights_from_profile(profile: TraceProfile) -> list[int]:
    """w(c(a)) for every a in F_q (0 at a = 0): N minus the kernel mass
    #{coordinates with tr(a beta) = 0}, the zero trace fiber of the counts.
    For a != 0 that mass is N(0) + kappa (q/3 - 1) + lam T0_shape[a]."""
    kappa, lam, shape = profile.split
    rest = profile.length - profile.counts[0] - kappa * (profile.field.q // 3 - 1)
    return [0] + [rest - lam * t for t in _zero_fiber(profile.field, shape)[1:]]


def dual_weights(consts: FamilyConstants, profile: TraceProfile) -> list[int]:
    """w(c(a)) for every a in F_q (0 at a = 0) of the instance whose profile
    this is, by two routes required equal: the closed weight (2/3)(N - S(a)),
    evaluated once per distinct K(a^2), and the profile's zero trace fiber."""
    field = profile.field
    k_at = kloosterman_squares(field)
    closed = {k: exact_div(2 * (consts.N - consts.coset_sum(k)), 3) for k in set(k_at)}
    direct = dual_weights_from_profile(profile)
    for a in field.units():
        if closed[k_at[a]] != direct[a]:
            raise ArithmeticError(
                f"dual weight mismatch for {consts.tag} at a={a}: closed {closed[k_at[a]]} vs profile {direct[a]}"
            )
    return direct


def check_injectivity(consts: FamilyConstants, weights: Counter) -> CheckResult:
    """The dual map is injective iff no nonzero a has weight zero.

    `weights` are the instance's cross-checked dual weights as
    multiplicities: weights[w] counts the units a of weight w.
    """
    return CheckResult(f"dual_injectivity({consts.tag})", weights[0], 0)


# -- weight distribution --------------------------------------------------------


def _series(a: int, b: int, j_max: int) -> list[int]:
    """(1 + 2z)^a (1 - z)^b to z^j_max for any integers a, b, by the z^j
    coefficient of (1 + z - 2z^2) f' = (2a - b - (2a + 2b) z) f:
    (j + 1) f[j + 1] = (2a - b - j) f[j] + (2(j - 1) - 2a - 2b) f[j - 1]."""
    f = [1]
    for j in range(j_max):
        num = (2 * a - b - j) * f[j] + (2 * (j - 1) - 2 * a - 2 * b) * (f[j - 1] if j else 0)
        f.append(exact_div(num, j + 1))
    return f


@lru_cache(maxsize=None)
def _ratio_polynomials(j_max: int) -> tuple[tuple[int, ...], ...]:
    """Q_0..Q_j_max as coefficient tuples, with sum_j Q_j(y) z^j / j! the
    series ((1 + 2z) / (1 - z))^(y/3): `_series` at a = y/3, b = -y/3 gives
    Q_0 = 1, Q_1 = y and Q_{j+1} = (y - j) Q_j + 2 j (j - 1) Q_{j-1}."""
    polys = [[1], [0, 1]]
    for j in range(1, j_max):
        terms = zip([0, *polys[j]], polys[j] + [0], polys[j - 1] + [0, 0])
        polys.append([a - j * b + 2 * j * (j - 1) * c for a, b, c in terms])
    return tuple(map(tuple, polys[: j_max + 1]))


def _orbits(field: Field, y: list[int], neg: list[int]) -> list[list[int]]:
    """The orbits, in the order found, of the group G that y is invariant
    under: <Frobenius, -1> when y(beta^3) = y(beta) for every beta, else
    {+-1} (neg, the map beta -> -beta, is digit by digit).  Frobenius is the
    `linear_map` of the images of the basis elements 3^i, so it is additive
    by construction.  Each orbit is led by its least element; orbit 0 is [0]."""
    frob = linear_map([field.pow(3**i, 3) for i in range(field.r)])
    maps = [neg, frob] if [y[b] for b in frob] == y else [neg]
    seen, orbits = [False] * field.q, []
    for s in field.elements():
        if not seen[s]:
            seen[s], orbit = True, [s]
            for x in orbit:
                for g in maps:
                    if not seen[g[x]]:
                        seen[g[x]] = True
                        orbit.append(g[x])
            orbits.append(orbit)
    return orbits


@lru_cache(maxsize=16)
def _zero_moments(field: Field, counts: tuple[int, ...], k_max: int) -> tuple[int, ...]:
    """m_0..m_k_max, m_k = [Y^k]_0, the coefficient at 0 of the k-th power of
    Y = sum of M_c sigma_c over the classes c = {beta, -beta} != {0}, with
    M_c = N(beta) + N(-beta) and sigma_c the sum over <beta>.

    Y(0) = N - N(0), Y(beta) = M_c and (Y f)(s) = sum of Y(beta) f(s - beta).
    The maps of `_orbits` are additive and fix Y, so on functions constant
    on their orbits Y is one integer matrix: row s, one per orbit led by s,
    adds Y(beta) into the column of the orbit of s - beta, and m_k is entry
    0 of its k-th product with the indicator of {0}.
    """
    neg = translates(field.r, 0, 2)
    y = [sum(counts) - counts[0], *(counts[b] + counts[neg[b]] for b in field.units())]
    if k_max < 3:  # m_2 = sum of Y(beta) Y(-beta), Y being even: no matrix needed
        return (1, y[0], sum(b * b for b in y))[: k_max + 1]
    orbits = _orbits(field, y, neg)
    at_rows = (list(map(y.__getitem__, translates(field.r, orbit[0], 2))) for orbit in orbits)  # at[t] = Y(s - t)
    rows = [[sum(map(at.__getitem__, orbit)) for orbit in orbits] for at in at_rows]
    f, moments = [1] + [0] * (len(orbits) - 1), [1]
    for _ in range(k_max):
        f = [sum(map(mul, row, f)) for row in rows]
        moments.append(f[0])
    return tuple(moments)


def _powers(x: int, k_max: int, start: int = 1) -> list[int]:
    """start x^k for k = 0..k_max, by running products."""
    return list(accumulate(repeat(x, k_max), mul, initial=start))


def _profile_moments(profile: TraceProfile, k_max: int) -> list[int]:
    """m_0..m_k_max of the counts from the [Y_S^i]_0 of their shape, by
    Y = W + 2 kappa J as in the module docstring; e_ are augmentations."""
    field, q = profile.field, profile.field.q
    kappa, lam, shape = profile.split
    c, e_y = kappa * (q - 3), 3 * (profile.length - profile.counts[0])
    c_pow, y_pow, w_pow = _powers(c, k_max), _powers(e_y, k_max), _powers(e_y - 2 * kappa * q, k_max)
    scaled = list(map(mul, _powers(lam, k_max), _zero_moments(field, shape, k_max)))
    return [
        sum(comb(k, i) * c_pow[k - i] * s for i, s in enumerate(scaled[: k + 1])) + exact_div(y_pow[k] - w_pow[k], q)
        for k in range(k_max + 1)
    ]


def _prefix_dp(profile: TraceProfile, j_max: int) -> list[int]:
    """C_0..C_j_max by the closed form in the module docstring: the z^j
    coefficient of R^(Y/3) at 0 is sum_k Q_j[k] m_k / j!, an exact
    division, times the scalars (1 + 2z)^N(0) (1 - z)^(N - N(0))."""
    moments = _profile_moments(profile, j_max)
    at_zero = [
        exact_div(sum(c * m for c, m in zip(poly, moments)), factorial(j))
        for j, poly in enumerate(_ratio_polynomials(j_max))
    ]
    scalar = _series(profile.counts[0], profile.length - profile.counts[0], j_max)
    return [sum(scalar[i] * at_zero[j - i] for i in range(j + 1)) for j in range(j_max + 1)]


def check_prefix_dp_q(q: int) -> None:
    """Refuse the O(q^2) weight-prefix DP above DP_EXACT_MAX_Q."""
    if q > DP_EXACT_MAX_Q:
        raise ValueError(f"the weight-prefix DP is O(q^2), capped at q <= {DP_EXACT_MAX_Q}, got q={q}")


def weight_distribution_prefix(profile: TraceProfile, j_max: int) -> list[int]:
    """C_0..C_j_max for the code of the profile."""
    if not 0 <= j_max <= PREFIX_MAX_J:
        raise ValueError(f"prefix length capped at j_max <= {PREFIX_MAX_J}, got {j_max}")
    check_prefix_dp_q(profile.field.q)
    return _prefix_dp(profile, j_max)


@lru_cache(maxsize=64)
def _square_classes(field: Field) -> tuple[int, ...]:
    """eta(beta^2 - 1) for every beta: 0 at beta = +-1, 1 on a nonzero square, -1 off it."""
    discs = (field.sub(field.mul(beta, beta), 1) for beta in field.elements())
    return tuple(0 if d == 0 else 1 if field.is_square(d) else -1 for d in discs)


def printed_column_counts(consts: FamilyConstants, field: Field) -> TraceProfile:
    """The instance's per-beta column counts over its field in their printed
    case shape, A (B + s x) / q with s the family sign: for families 1, 3,
    x = 1, q + 1 or 1 - q by the square class v of beta^2 - 1, that is
    1 + q v; for families 2, 4, with v the delta(2) fiber, x = (q - 1)^2 - q v
    (family 2) or 2q^2 - 3q + 1 - q v (family 4, and x = -(q - 1)^3 - q v at
    beta = 0).  So each count is base + A (+-s) v(beta): one division for the
    base, a second at beta = 0 for family 4.  Numerically this must reproduce
    trace_profile."""
    q, family = field.q, consts.family
    s = family.sign
    if family.i in (1, 3):
        v, x0, slope = _square_classes(field), 1, s * consts.A
    else:
        v, slope = delta_counts(field, 2), -s * consts.A
        x0 = (q - 1) ** 2 if family.i == 2 else 2 * q * q - 3 * q + 1
    base = exact_div(consts.A * (consts.B + s * x0), q)
    counts = [base + slope * e for e in v]
    if family.i == 4:
        counts[0] = exact_div(consts.A * (consts.B - s * (q - 1) ** 3), q) + slope * v[0]
    return TraceProfile(field, tuple(counts))


def check_printed_columns(consts: FamilyConstants, profile: TraceProfile, printed: TraceProfile) -> CheckResult:
    """Printed column counts against the profile of the instance: the number
    of beta where they differ, required 0."""
    mismatches = sum(1 for p, c in zip(printed.counts, profile.counts) if p != c)
    return CheckResult(f"printed_columns({consts.tag})", mismatches, 0)


def weight_prefix_macwilliams(profile: TraceProfile, j_max: int) -> list[int]:
    """C_0..C_j_max by MacWilliams from the trace-kernel dual weights.

    The dual words are c(a) for a in F_q (a = 0 gives weight 0), so
    C_j = (1/q) sum_a K_j(w(c(a))); each distinct weight is expanded once,
    the ternary Krawtchouk K_0(w)..K_j_max(w) being the coefficients of
    (1 + 2z)^(N - w) (1 - z)^w.
    """
    if not 0 <= j_max <= PREFIX_MAX_J:
        raise ValueError(f"prefix length capped at j_max <= {PREFIX_MAX_J}, got {j_max}")
    n_len = profile.length
    multiplicity = Counter(dual_weights_from_profile(profile))
    totals = [0] * (j_max + 1)
    for w, m in multiplicity.items():
        for j, k in enumerate(_series(n_len - w, w, j_max)):
            totals[j] += m * k
    return [exact_div(total, profile.field.q) for total in totals]


def weight_prefix_from_printed_columns(printed: TraceProfile, j_max: int) -> list[int]:
    """C_0..C_j_max by MacWilliams from the printed column counts, as
    `printed_column_counts` returns them."""
    return weight_prefix_macwilliams(printed, j_max)
