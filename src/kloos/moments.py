"""Power moments of ternary Kloosterman sums with square arguments.

Write SK^h for the sum of K(lambda; a)^h over nonzero squares a.  Each code
family instance yields every SK^h (families 1, 3) or SK^{2h} (families 2,
4) through the Pless power-moment identity applied to the dual pair: the
h-th moment of the dual weights equals a binomial/Stirling functional of
the weight-distribution prefix C_0..C_min(N,h).

The dual weights expand in powers of K, so the moment of order h is an
A, B-weighted linear combination of SK^l for l <= h.  Solving the
triangular system step by step produces the moment series; every solved
value must come out an integer, and is checked here against the
brute-force oracle.

All of it is integer arithmetic.  The only denominators are fixed powers
of 2 and 3 and of A, so each prefix side is summed with its coefficient
scaled to an integer, and each step of the solve is one numerator over one
denominator with a single exact division; a Fraction is built, and
``fractions`` imported, only to word the message when that division leaves
a remainder.

One PlessInstance per (family, n, q), built by `build_instance` around the
instance's `FamilyConstants` record, derived there once, holds what each
route, the oracle included, reads; its dual weights are multiplicities
w -> m over the units (w depends on a only through K(a^2)), so the moment
side is sum m w^h, one tuple over h <= h_max from running powers of each w.

Two routes share the binomial moments of the prefix,
B_t = sum over j <= t of (-1)^j C_j 2^(t-j) binom(N-j, t-j) (by MacWilliams,
the sum over the q dual words of binom(w, t) is 3^(k-t) B_t), the prefix
sum sum_t t! S(h, t) c(h, t) B_t and the solve, and differ only in c(h, t),
both with the 2^(t-j) moved into B_t:

* :func:`sk_via_pless` uses the Pless right side, 3^(k-t) 2^(t-j) (the
  derivation route), summed as 3^(k-t+h), that is times 3^h;
* :func:`sk_via_printed_recursion` uses the final recursion exactly as
  printed in the source, q 3^(h-t) 2^(t-h-j-1), summed as 3^(h-t) 2^h,
  that is times 2^(2h+1); it must produce the same series, and a mismatch
  is reported, not raised, since it would indicate a transcription defect
  in the printed form.

N grows like q^(n^2), so the B_t come from a falling-factorial recurrence
in which every product has one operand of N's size, and both solves read
one set of powers of A and B-hat per instance, built as running products.

The h = 0 case is degenerate by convention (the identity's right side
counts the zero dual word, the left side as summed over units does not),
so identities run for h >= 1 and SK^0 = (q-1)/2 seeds the solve directly.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import cached_property, lru_cache
from math import comb, factorial, perm
from typing import Callable, Iterator, NamedTuple

from .charsums import sk_moment
from .codes import (
    TraceProfile,
    _powers,
    check_injectivity,
    check_printed_columns,
    dual_weights,
    printed_column_counts,
    trace_profile,
    weight_distribution_prefix,
    weight_prefix_from_printed_columns,
)
from .constants import (
    ALL_FAMILIES,
    CosetFamily,
    FamilyConstants,
    check_constants_consistency,
    exact_div,
    family_constants,
    stirling2,
)
from .field import Field
from .report import CheckResult

MAX_H = 10


@lru_cache(maxsize=MAX_H + 1)
def _stirling_weights(h: int) -> tuple[int, ...]:
    """t! S(h, t) for t = 0..h."""
    return tuple(factorial(t) * stirling2(h, t) for t in range(h + 1))


class _PlessFields(NamedTuple):
    field: Field
    consts: FamilyConstants
    profile: TraceProfile
    weights: Counter
    c_prefix: list[int]
    h_max: int


class PlessInstance(_PlessFields):
    """Everything the identity needs for one instance, its record `consts`
    included, built once; weights[w] counts the units a of dual weight w,
    and the C prefix, its binomial moments and both Pless sides cover
    moment orders h <= h_max.
    No __slots__: the cached properties live in the instance __dict__."""

    @cached_property
    def binomial_moments(self) -> tuple[int, ...]:
        """B_t = sum over j <= t of (-1)^j C_j 2^(t - j) binom(N - j, t - j) for
        t <= top = min(N, h_max): H = sum_j C_j (-z)^j (1 + 2z)^(top - j) by
        Horner's rule, times (1 + 2z)^M, M = N - top, by falling factorials:
        t! B_t = L_0, L_t = H_0, L_s = H_(t-s) t!/s! + 2 (M - s) L_(s+1)."""
        top = len(self.c_prefix) - 1
        m_len = self.consts.N - top
        horner = [self.c_prefix[0]]
        for j in range(1, top + 1):
            horner = [x + 2 * y for x, y in zip(horner + [0], [0] + horner)]
            horner[j] += (-1) ** j * self.c_prefix[j]
        moments = []
        for t in range(top + 1):
            run = horner[0]  # L_t
            for s in reversed(range(t)):
                run = horner[t - s] * perm(t, t - s) + 2 * (m_len - s) * run
            moments.append(exact_div(run, factorial(t)))
        return tuple(moments)

    @cached_property
    def lhs(self) -> tuple[int, ...]:
        """The moment side for h = 0..h_max, the sum of w(c(a))^h over units a:
        sum m w^h over the distinct weights, by running powers of each w."""
        runs = [_powers(w, self.h_max, m) for w, m in self.weights.items()]
        return tuple(map(sum, zip(*runs)))

    @cached_property
    def rhs(self) -> tuple[int, ...]:
        """pless_rhs for h = 0..h_max, each evaluated once."""
        return tuple(pless_rhs(self, h) for h in range(self.h_max + 1))

    @cached_property
    def solve_powers(self) -> tuple[list[int], list[int]]:
        """(B-hat^k, A^k) for k = 0..h_max by running products, B-hat = B - sigma c;
        both solves index them."""
        consts = self.consts
        return _powers(consts.B - consts.sigma * consts.shift, self.h_max), _powers(consts.A, self.h_max)


def build_instance(family: CosetFamily, n: int, field: Field, h_max: int = MAX_H) -> PlessInstance:
    """The instance's record, profile, cross-checked dual weights, and the C
    prefix to min(N, h_max); the record is derived here, once."""
    if not 0 <= h_max <= MAX_H:
        raise ValueError(f"h_max capped at {MAX_H}, got {h_max}")
    consts = family_constants(family, n, field.q)
    profile = trace_profile(consts, field)
    weights = Counter(dual_weights(consts, profile)[1:])  # the units a = 1..q-1
    c_prefix = weight_distribution_prefix(profile, min(consts.N, h_max))
    return PlessInstance(field, consts, profile, weights, c_prefix, h_max)


def _prefix_side(instance: PlessInstance, h: int, coefficient: Callable[[int, int], int]) -> int:
    """Sum over t <= min(N, h) of t! S(h, t) coefficient(h, t) B_t, with the
    instance's binomial moments B_t and an integer coefficient, so an
    integer sum."""
    if h < 0:
        raise ValueError("moment order must be nonnegative")
    top = min(instance.consts.N, h)
    if top >= len(instance.c_prefix):
        raise ValueError(f"instance prefix covers j <= {len(instance.c_prefix) - 1}, needs {top}")
    weights, moments = _stirling_weights(h), instance.binomial_moments
    return sum(weights[t] * coefficient(h, t) * moments[t] for t in range(top + 1))


def pless_rhs(instance: PlessInstance, h: int) -> int:
    """The prefix side: sum over t <= min(N, h) of t! S(h, t) 3^(k - t) B_t.

    Terms with t > k are rational, so the sum runs with the coefficient
    times 3^h, 3^(k - t + h), and is divided by 3^h once; the total must
    be integral.
    """
    k_dim = instance.field.r  # the dual code's dimension
    scaled = _prefix_side(instance, h, lambda h, t: 3 ** (k_dim - t + h))
    total, remainder = divmod(scaled, 3**h)
    if remainder:
        from fractions import Fraction  # imports decimal and numbers; only words the error

        tag = instance.consts.tag
        raise ArithmeticError(f"Pless right side not integral at h={h} for {tag}: {Fraction(scaled, 3**h)}")
    return total


def _printed_coefficient(h: int, t: int) -> int:
    """The inner coefficient of the recursion as printed, 3^(h-t) 2^(t-h-j-1),
    times 2^(2h+1) and without the 2^(t-j) that B_t carries: 3^(h-t) 2^h,
    an integer for t <= h."""
    return 3 ** (h - t) * 2**h


def check_pless_identity(instance: PlessInstance) -> list[CheckResult]:
    """lhs == rhs for 1 <= h <= instance.h_max, plus the h = 0 dimension check."""
    label = instance.consts.tag
    out = [CheckResult(f"pless_rhs_h0_counts_dual({label})", instance.rhs[0], instance.field.q)]
    for h in range(1, instance.h_max + 1):
        out.append(CheckResult(f"pless_identity({label},h={h})", instance.lhs[h], instance.rhs[h]))
    return out


class MomentSeries(NamedTuple):
    """Solved SK moments: values[i] is SK^orders[i]."""

    orders: tuple[int, ...]
    values: tuple[int, ...]


def moment_steps(family: CosetFamily, h_max: int) -> int:
    """Recursion steps whose moment orders stay <= h_max: SK^1..SK^h_max
    for families 1, 3, SK^2..SK^(2 (h_max // 2)) for families 2, 4."""
    return h_max // 2 if family.even_moments else h_max


def _series_orders(family: CosetFamily, steps: int) -> tuple[int, ...]:
    stride = 2 if family.even_moments else 1
    return tuple(stride * h for h in range(1, steps + 1))


def _solve(
    instance: PlessInstance, steps: int, target: Callable[[int], tuple[int, int]], what: str
) -> tuple[MomentSeries | None, list[str]]:
    """Back-substitute the dual-weight expansion for steps 1..steps.

    The dual weight is (2/3)(N - S) with S = sigma A (K^p + c) the record's
    double-coset sum, that is (2/3) A (B-hat + tau K^p) with tau = -sigma and
    B-hat = B - sigma c.  So the h-th moment expands as
    2 (2/3)^h A^h sum_l tau^l C(h, l) B-hat^(h-l) M_l with M_l the l-th
    entry of the moment series; target(h) is A^h times that sum over l, as
    a pair (numerator, positive denominator) of integers, and the powers of
    A and B-hat are the instance's `solve_powers`.  Each step is one exact
    division.  Returns (series, []), or (None, ["<what> at step h for
    <instance>: <Fraction>"]) at the first step that is not integral.
    """
    if not 1 <= steps <= instance.h_max:
        raise ValueError(f"h_max must be in 1..{instance.h_max}, got {steps}")
    consts = instance.consts
    tau = -consts.sigma
    b_powers, a_powers = instance.solve_powers
    solved = [(consts.q - 1) // 2]  # SK^0, whatever the stride
    for h in range(1, steps + 1):
        rest = sum(tau**l * comb(h, l) * b_powers[h - l] * solved[l] for l in range(h))
        num, den = target(h)
        den *= a_powers[h]
        num = tau**h * (num - rest * den)  # tau^-h == tau^h for tau = +-1
        value, remainder = divmod(num, den)
        if remainder:
            from fractions import Fraction

            return None, [f"{what} at step {h} for {consts.tag}: {Fraction(num, den)}"]
        solved.append(value)
    return MomentSeries(_series_orders(consts.family, steps), tuple(solved[1:])), []


def sk_via_pless(instance: PlessInstance, steps: int) -> MomentSeries:
    """Moment series solved from the Pless identity, exactly.

    steps counts recursion steps: families 1, 3 produce SK^1..SK^steps,
    families 2, 4 produce SK^2, SK^4, .., SK^(2 steps).  A non-integral
    step raises ArithmeticError with the solve's defect.
    """
    what = "solved moment not integral"
    series, defects = _solve(instance, steps, lambda h: (instance.rhs[h] * 3**h, 2 ** (h + 1)), what)
    if series is None:
        raise ArithmeticError(defects[0])
    return series


def sk_via_printed_recursion(instance: PlessInstance, steps: int) -> tuple[MomentSeries | None, list[str]]:
    """Moment series from the recursion exactly as printed.

    Evaluates tau^h M_h = -sum_{l<h} tau^l C(h,l) B^(h-l) M_l
    + q A^-h sum_j (-1)^j C_j sum_t t! S(h,t) 3^(h-t) 2^(t-h-j-1)
    binom(N-j, N-t), using its own previous values.  Returns the series
    plus a list of defects (non-integral steps); a defect aborts the walk.
    """

    def target(h: int) -> tuple[int, int]:
        return instance.field.q * _prefix_side(instance, h, _printed_coefficient), 2 ** (2 * h + 1)

    return _solve(instance, steps, target, "printed recursion non-integral")


def sk_oracle_series(instance: PlessInstance, steps: int) -> MomentSeries:
    """The same orders filled straight from the Kloosterman table; reads the
    instance's family and field only, never its weights or prefix."""
    field, orders = instance.field, _series_orders(instance.consts.family, steps)
    values = tuple(sk_moment(field, h) for h in orders)
    return MomentSeries(orders, values)


# -- instance and whole-field verification ---------------------------------------


def verify_instance(family: CosetFamily, n: int, field: Field, h_max: int) -> dict:
    """Run every exact check for one instance, the identity for h <= h_max
    and the solved moment orders SK^h with h <= h_max, and return its entry
    of the verify document: "instance", "checks" and "SK"."""
    instance = build_instance(family, n, field, h_max)
    consts = instance.consts
    label = consts.tag
    printed = printed_column_counts(consts, field)
    checks = [
        check_constants_consistency(consts),
        CheckResult(f"profile_mass({label})", instance.profile.length, consts.N),
        check_printed_columns(consts, instance.profile, printed),
        CheckResult(
            f"printed_prefix({label})",
            weight_prefix_from_printed_columns(printed, len(instance.c_prefix) - 1),
            instance.c_prefix,
        ),
        check_injectivity(consts, instance.weights),
        *check_pless_identity(instance),
    ]

    steps = moment_steps(family, h_max)
    sk = []
    if steps >= 1:
        sk_series = sk_via_pless(instance, steps)
        oracle = sk_oracle_series(instance, steps)
        checks.append(
            CheckResult(f"sk_vs_oracle({label})", list(sk_series.values), list(oracle.values))
        )
        printed_series, defects = sk_via_printed_recursion(instance, steps)
        checks.append(
            CheckResult(
                f"printed_recursion({label})",
                defects if printed_series is None else list(printed_series.values),
                list(sk_series.values),
            )
        )
        sk = [[h, v] for h, v in zip(sk_series.orders, sk_series.values)]
    return {
        "instance": consts.as_dict(),
        "checks": [c.as_dict() for c in checks],
        "SK": sk,
    }


def _available_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def verification_stream(field: Field, n_max: int, h_max: int, jobs: int) -> dict:
    """The verify document of every valid (family, n <= n_max) instance, its
    "instances" a generator of `verify_instance` entries in instance-list
    order: serial, or through ``Pool.imap``, whose pool stops when the stream
    ends, raises or is closed.  Refusals come before any instance runs;
    "passed" holds at the end."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [(family, n, field, h_max) for family in ALL_FAMILIES for n in family.valid_ns(n_max)]
    if not tasks:
        raise ValueError(f"no valid (family, n) instance with n <= {n_max}")
    if not 0 <= h_max <= MAX_H:  # build_instance's bound, checked before any instance runs
        raise ValueError(f"h_max capped at {MAX_H}, got {h_max}")
    document = {"q": field.q, "modulus": list(field.modulus), "n_max": n_max, "h_max": h_max, "passed": True}
    document["instances"] = _instances(document, tasks, min(jobs, len(tasks), _available_cpus()))
    return document


def _verify_task(task: tuple[CosetFamily, int, Field, int]) -> dict:
    return verify_instance(*task)


def _instances(document: dict, tasks: list, workers: int) -> Iterator[dict]:
    if workers == 1:
        yield from _tallied(document, map(_verify_task, tasks))
        return
    import multiprocessing

    with multiprocessing.Pool(processes=workers) as pool:
        yield from _tallied(document, pool.imap(_verify_task, tasks))


def _tallied(document: dict, entries: Iterator[dict]) -> Iterator[dict]:
    for entry in entries:
        document["passed"] &= all(check["status"] == "pass" for check in entry["checks"])
        yield entry


def full_verification(field: Field, n_max: int, h_max: int, jobs: int = 1) -> dict:
    """:func:`verification_stream` with its instances collected."""
    document = verification_stream(field, n_max, h_max, jobs)
    document["instances"] = list(document["instances"])
    return document
