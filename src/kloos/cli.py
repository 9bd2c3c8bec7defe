"""Command line interface: exact number-theoretic tables as JSON/CSV/text.

Subcommands
-----------
field        construction summary for GF(3^r)
kloosterman  the full K(lambda; a) table plus SK/MK moment vectors
moments      SK and MK power moments only
constants    family constants (A, B, N) over valid (family, n)
weights      trace profile, dual weights, and weight prefix of one instance
group        brute-force enumerated matrix sets and their trace histograms
recursion    solved moment series: identity route vs printed route vs oracle
verify       every exact check for all valid instances; exit 1 on failure

Field elements print as comma-separated coefficient strings, constant term
first, matching the --modulus input convention.  Output is deterministic:
the same invocation yields byte-identical bytes.  Exit codes: 0 success,
1 verification failure, 2 usage or guard error, 141 (128 + SIGPIPE, as a
shell reports a writer killed by a closed pipe) when writing stdout fails
because its reader has closed it, as in ``kloos kloosterman --r 8 | head -1``.

Each run is a fresh process, so ``groups``, ``moments`` and ``csv`` are
imported inside the handlers that use them: ``kloosterman`` or ``field``
then does not pay to load modules it never calls.

JSON goes through ``_json_walk``, which writes the bytes of
``json.dumps(payload, indent=2, sort_keys=True)`` to the output as it walks
the payload, one write per scalar entry (separator, key and value
together), so the document is never held whole.  With ``indent`` set,
``json`` drops its C encoder for a pure-Python one that calls the quadratic
``int.__repr__`` on every integer, and every passing check carries two equal
sides (up to 3,609 digits at q = 3, n = 22); ``_json_walk`` converts each
distinct integer once.  Text is written line by line the same way.
``verify`` verifies each instance when the writer reaches it, then flushes
and drops it (JSON sorts "passed" after "instances"; text prints it first
and collects them).  A guard raised mid-run leaves a prefix of the passing
document; a stream the writer leaves early is closed, stopping any pool.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from json.encoder import encode_basestring_ascii
from types import GeneratorType

from .charsums import check_series_h, kloosterman_table, moment_series
from .codes import PREFIX_MAX_J, check_prefix_dp_q, dual_weights, trace_profile, weight_distribution_prefix
from .constants import ALL_FAMILIES, CosetFamily, check_dimension, family_constants
from .field import MAX_DEGREE, Field, poly_str

FORMATS = ("json", "csv", "text")
EXIT_BROKEN_PIPE = 141


def _parse_modulus(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse modulus {text!r}: expected comma-separated digits") from exc


def _element_keys(field: Field) -> list[str]:
    """The output key of every element: its digits, constant term first,
    joined by commas, built digit by digit like :func:`kloos.field.translates`."""
    keys = ["0", "1", "2"]
    for _ in range(field.r - 1):
        keys = [key + digit for digit in (",0", ",1", ",2") for key in keys]
    return keys


def _build_field(args, cap: Callable[[int], None] | None = None) -> Field:
    """The command's field; ``cap(q)`` refuses q before the field is built."""
    modulus = _parse_modulus(args.modulus)
    if cap is not None and 1 <= args.r <= MAX_DEGREE:
        cap(3**args.r)
    return Field(args.r, modulus)


# -- command payload builders ----------------------------------------------------


def cmd_field(args) -> tuple[dict, list[list], int]:
    field = _build_field(args)
    fibers = [0, 0, 0]
    for a in field.elements():
        fibers[field.trace(a)] += 1
    payload = {
        "r": field.r,
        "q": field.q,
        "modulus": list(field.modulus),
        "modulus_str": poly_str(field.modulus),
        # one key: the q-entry table would cost 43 MB at r = 12
        "first_nonsquare": ",".join(map(str, field.coeffs(field.first_nonsquare()))),
        "trace_fibers": fibers,
        "num_squares": len(field.squares()),
    }
    rows = [["key", "value"]] + [[k, json.dumps(v) if isinstance(v, list) else v] for k, v in payload.items()]
    return payload, rows, 0


def cmd_kloosterman(args) -> tuple[dict, Iterable[list], int]:
    field = _build_field(args, lambda q: check_series_h(args.hmax))
    table = dict(zip(_element_keys(field)[1:], kloosterman_table(field)[1:]))
    sk, mk = moment_series(field, args.hmax)
    payload = {"q": field.q, "modulus": list(field.modulus), "K": table, "SK": sk[1:], "MK": mk[1:]}
    # one row per unit, built only if the CSV writer asks for it
    rows = itertools.chain([["a", "K"]], ([key, k] for key, k in table.items()))
    return payload, rows, 0


def cmd_moments(args) -> tuple[dict, list[list], int]:
    field = _build_field(args, lambda q: check_series_h(args.hmax))
    sk, mk = moment_series(field, args.hmax)
    payload = {"q": field.q, "modulus": list(field.modulus), "SK": sk[1:], "MK": mk[1:]}
    rows = [["q", "h", "SK", "MK"]]
    for h in range(1, args.hmax + 1):
        rows.append([field.q, h, sk[h], mk[h]])
    return payload, rows, 0


def cmd_constants(args) -> tuple[dict, list[list], int]:
    if not 1 <= args.r <= MAX_DEGREE:
        raise ValueError(f"extension degree r={args.r} outside supported range 1..{MAX_DEGREE}")
    check_dimension(args.nmax if args.n is None else args.n)
    q = 3**args.r
    families = [CosetFamily.parse(args.family)] if args.family else list(ALL_FAMILIES)
    entries = []
    for family in sorted(families, key=lambda f: f.label):
        ns = [args.n] if args.n is not None else family.valid_ns(args.nmax)
        for n in ns:
            consts = family_constants(family, n, q)  # refuses an n the family does not admit
            entries.append(
                {"family": family.label, "n": n, "q": q, "A": consts.A, "B": consts.B, "N": consts.N}
            )
    if not entries:
        raise ValueError(f"no valid (family, n) instance with n <= {args.nmax}")
    payload = {"q": q, "constants": entries}
    rows = [["family", "n", "q", "A", "B", "N"]] + [
        [e["family"], e["n"], e["q"], e["A"], e["B"], e["N"]] for e in entries
    ]
    return payload, rows, 0


def cmd_weights(args) -> tuple[dict, list[list], int]:
    check_dimension(args.n)
    family = CosetFamily.parse(args.family)
    if not 0 <= args.jmax <= PREFIX_MAX_J:
        raise ValueError(f"--jmax {args.jmax} outside 0..{PREFIX_MAX_J}")
    field = _build_field(args, check_prefix_dp_q)
    profile = trace_profile(family, args.n, field)
    weights = dual_weights(family, args.n, profile)
    j_max = min(profile.length, args.jmax)
    prefix = weight_distribution_prefix(profile, j_max)
    keys = _element_keys(field)
    keyed_profile = dict(zip(keys, profile.counts))
    keyed_weights = dict(zip(keys[1:], weights[1:]))
    payload = {
        "family": family.label,
        "n": args.n,
        "q": field.q,
        "N": profile.length,
        "profile": keyed_profile,
        "dual_weights": keyed_weights,
        "C_prefix": prefix,
    }
    rows = [["section", "key", "value"]]
    rows += [["profile", key, c] for key, c in keyed_profile.items()]
    rows += [["dual_weight", key, w] for key, w in keyed_weights.items()]
    rows += [["C", j, c] for j, c in enumerate(prefix)]
    return payload, rows, 0


def cmd_group(args) -> tuple[dict, list[list], int]:
    from .groups import (
        check_double_coset_q,
        check_q_enumeration,
        double_coset,
        enumerate_o2_minus,
        enumerate_q,
        enumerate_so2_minus,
    )

    # argparse admits exactly one of --set and --family
    if args.set in ("so2", "o2"):
        if args.n is not None:
            raise ValueError(f"--set {args.set} takes no --n")
        field = _build_field(args)
        gset = enumerate_so2_minus(field) if args.set == "so2" else enumerate_o2_minus(field)
    elif args.n is None:
        raise ValueError("--set q needs --n" if args.set else "--family needs --n")
    elif args.set == "q":
        field = _build_field(args, lambda q: check_q_enumeration(q, args.n))
        gset = enumerate_q(field, args.n)
    else:
        field = _build_field(args, check_double_coset_q)
        gset = double_coset(field, CosetFamily.parse(args.family), args.n)
    keys = _element_keys(field)
    keyed_histogram = dict(zip(keys, gset.trace_histogram()))
    payload = {
        "label": gset.label,
        "q": field.q,
        "eps": keys[gset.eps],
        "order": gset.order,
        "histogram": keyed_histogram,
    }
    rows = [["section", "key", "value"]] + [["set", key, payload[key]] for key in ("label", "q", "eps", "order")]
    rows += [["histogram", key, c] for key, c in keyed_histogram.items()]
    return payload, rows, 0


def cmd_recursion(args) -> tuple[dict, list[list], int]:
    from .moments import (
        MAX_H,
        build_instance,
        moment_steps,
        sk_oracle_series,
        sk_via_pless,
        sk_via_printed_recursion,
    )

    check_dimension(args.n)
    family = CosetFamily.parse(args.family)
    steps = moment_steps(family, args.hmax)
    if steps < 1:
        raise ValueError(f"--hmax {args.hmax} leaves no solvable moment for {family.label}")
    if steps > MAX_H:
        raise ValueError(f"--hmax {args.hmax} takes {steps} steps for {family.label}, capped at {MAX_H}")
    field = _build_field(args, check_prefix_dp_q)
    instance = build_instance(family, args.n, field, steps)
    derived = sk_via_pless(instance, steps)
    printed, defects = sk_via_printed_recursion(instance, steps)
    oracle = sk_oracle_series(instance, steps)
    match = printed is not None and derived.values == printed.values == oracle.values
    payload = {
        "family": family.label,
        "n": args.n,
        "q": field.q,
        "orders": list(derived.orders),
        "SK": list(derived.values),
        "SK_printed": None if printed is None else list(printed.values),
        "SK_oracle": list(oracle.values),
        "printed_defects": defects,
        "match": match,
    }
    rows = [["h", "SK", "SK_printed", "SK_oracle"]]
    for idx, h in enumerate(derived.orders):
        rows.append(
            [
                h,
                derived.values[idx],
                "" if printed is None else printed.values[idx],
                oracle.values[idx],
            ]
        )
    return payload, rows, 0 if match else 1


def cmd_verify(args) -> tuple[dict, Iterable[list], Callable[[], int]]:
    from .moments import verification_stream

    check_dimension(args.nmax)
    field = _build_field(args, check_prefix_dp_q)
    report = verification_stream(field, args.nmax, args.hmax, args.jobs)
    # text prints passed: first, so it collects every report; json and csv show each before the next runs
    report["instances"] = (list if args.format == "text" else _flushed)(report["instances"])
    # one row per check, encoded only if the CSV writer asks for it
    rows = itertools.chain(
        [["name", "status", "lhs", "rhs"]],
        (
            [chk["name"], chk["status"], json.dumps(chk["lhs"]), json.dumps(chk["rhs"])]
            for inst in report["instances"]
            for chk in inst["checks"]
        ),
    )
    return report, rows, lambda: 0 if report["passed"] else 1


def _flushed(stream: Iterator[dict]) -> Iterator[dict]:
    with contextlib.closing(stream):
        for item in stream:
            yield item
            sys.stdout.flush()


# -- rendering --------------------------------------------------------------------


def _render_text(payload, put: Callable[[str], None], indent: str = "") -> None:
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                put(f"{indent}{k}:\n")
                _render_text(v, put, indent + "  ")
            else:
                put(f"{indent}{k}: {_flat_str(v)}\n")
    else:
        for item in payload:
            if not isinstance(item, (dict, list)):
                put(f"{indent}- {item}\n")
            elif item:
                _render_text(item, put, indent + "  ")
                put("\n")
            else:
                put("\n\n")  # the empty item's blank line, then the separator


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _flat_str(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    if isinstance(v, dict):  # only an empty dict is rendered flat
        return "{}"
    return str(v)


def _json_atom(v, digits: dict[int, str]) -> str:
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        text = digits.get(v)
        if text is None:
            text = digits[v] = int.__repr__(v)
        return text
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _json_walk(v, pad: str, put: Callable[[str], None], digits: dict[int, str], head: str = "") -> None:
    """Write ``v`` as ``json.dumps(v, indent=2, sort_keys=True)`` at depth
    ``pad``, each distinct int converted once; ``head`` (the separator and
    key before a container ``v``) goes out in the same write as its first
    part.  A dict's values are read as the walk reaches them.  A generator
    is written as a list, each item walked with a digit cache of its own."""
    # module-level, not a closure: a recursive closure is a reference cycle
    # that would keep the digit cache alive until the collector runs
    if isinstance(v, dict):
        # sorted on the keys themselves, not on q (key, value) tuples; a
        # non-str key is quoted as its JSON atom
        items = (
            (encode_basestring_ascii(k if isinstance(k, str) else _json_atom(k, digits)) + ": ", v[k])
            for k in sorted(v)
        )
        brackets = "{}"
    elif isinstance(v, (list, tuple, GeneratorType)):
        items, brackets = (("", x) for x in v), "[]"
    else:
        put(_json_atom(v, digits))  # a scalar payload; inner scalars are written inline
        return
    inner = pad + "  "
    sep = first = head + brackets[0] + "\n" + inner
    for key, x in items:
        if isinstance(x, (dict, list, tuple, GeneratorType)):  # no digit cache spans a stream
            _json_walk(x, inner, put, {} if isinstance(v, GeneratorType) else digits, sep + key)
        else:  # no call per scalar: 0.1 s of the 1.2 s walk of kloosterman --r 12 (2 vCPUs)
            put(sep + key + _json_atom(x, digits))
        sep = ",\n" + inner
    put(head + brackets if sep is first else "\n" + pad + brackets[1])


def _emit(payload, rows, fmt: str, out) -> None:
    if fmt == "json":
        _json_walk(payload, "", out.write, {})
        out.write("\n")
    elif fmt == "csv":
        import csv

        csv.writer(out, lineterminator="\n").writerows(rows)
    else:
        _render_text(payload, out.write)


# -- argument parsing ---------------------------------------------------------------


def _add_field_args(sub) -> None:
    sub.add_argument("--r", type=int, required=True, help="extension degree of GF(3^r)")
    sub.add_argument(
        "--modulus",
        type=str,
        default=None,
        help="modulus coefficients, constant term first, e.g. 1,0,1 for x^2+1",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kloos",
        description="Exact Kloosterman-sum moments from orthogonal coset codes over GF(3^r).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="json")
    common.add_argument("--output", type=str, default=None, help="write to a file instead of stdout")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("field", parents=[common], help="field construction summary")
    _add_field_args(s)
    s.set_defaults(handler=cmd_field)

    s = subs.add_parser("kloosterman", parents=[common], help="Kloosterman table and moments")
    _add_field_args(s)
    s.add_argument("--hmax", type=int, default=8)
    s.set_defaults(handler=cmd_kloosterman)

    s = subs.add_parser("moments", parents=[common], help="SK and MK power moments")
    _add_field_args(s)
    s.add_argument("--hmax", type=int, default=8)
    s.set_defaults(handler=cmd_moments)

    s = subs.add_parser("constants", parents=[common], help="family constants A, B, N")
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--family", type=str, default=None, help="e.g. DC1+; all families if omitted")
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--nmax", type=int, default=6)
    s.set_defaults(handler=cmd_constants)

    s = subs.add_parser("weights", parents=[common], help="profile, dual weights, weight prefix")
    _add_field_args(s)
    s.add_argument("--family", type=str, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--jmax", type=int, default=8)
    s.set_defaults(handler=cmd_weights)

    s = subs.add_parser("group", parents=[common], help="enumerated matrix sets and trace histograms")
    _add_field_args(s)
    which = s.add_mutually_exclusive_group(required=True)
    which.add_argument("--set", choices=("so2", "o2", "q"), default=None)
    which.add_argument("--family", type=str, default=None, help="double coset at q=3, e.g. DC1+")
    s.add_argument("--n", type=int, default=None)
    s.set_defaults(handler=cmd_group)

    s = subs.add_parser("recursion", parents=[common], help="solved moment series, both routes vs oracle")
    _add_field_args(s)
    s.add_argument("--family", type=str, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--hmax", type=int, default=8)
    s.set_defaults(handler=cmd_recursion)

    s = subs.add_parser("verify", parents=[common], help="every exact check for all valid instances")
    _add_field_args(s)
    s.add_argument("--nmax", type=int, default=6)
    s.add_argument("--hmax", type=int, default=8)
    s.add_argument("--jobs", type=int, default=1, help="parallel workers")
    s.set_defaults(handler=cmd_verify)

    return parser


@contextlib.contextmanager
def _no_int_str_limit():
    """Lift, then restore, the int-to-str digit limit of Python >= 3.11.

    At large n, verify prints Pless moment sums of thousands of digits,
    past the default limit of 4300.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def main(argv: list[str] | None = None) -> int:
    with _no_int_str_limit():
        return _run(argv)


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, rows, code = args.handler(args)
        try:
            if args.output:
                with open(args.output, "w") as handle:
                    _emit(payload, rows, args.format, handle)
            else:
                _emit(payload, rows, args.format, sys.stdout)
                sys.stdout.flush()
        finally:  # a stream the writer left early stops now, and the pool behind it with it
            for part in payload.values():
                if isinstance(part, GeneratorType):
                    part.close()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    return code() if callable(code) else code


if __name__ == "__main__":
    sys.exit(main())
