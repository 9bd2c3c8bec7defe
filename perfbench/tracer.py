"""Spans around kloos's layer boundaries, and the per-layer numbers they give.

The kloos modules bind each other's functions with `from .x import y`, so a
function is reachable under several module namespaces.  `Tracer` replaces
the function under every `kloos.*` namespace that holds it, records one span
per call (name, start, end, parent), and puts every original back on exit.
`Field` is traced through its `__init__`, which keeps the class itself
(and `isinstance`) untouched.

Only the functions in TARGETS are wrapped: the boundaries the per-layer
metrics name, not the per-element helpers inside the loops, whose call
counts would make the tracing cost a large share of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# module -> wrapped public names; span names are "<module>.<name>"
TARGETS: dict[str, tuple[str, ...]] = {
    "charsums": (
        "kloosterman",
        "kloosterman_table",
        "moment_series",
        "sk_moment",
        "mk_moment",
        "delta_counts",
    ),
    "codes": (
        "trace_profile",
        "dual_weights",
        "check_injectivity",
        "weight_distribution_prefix",
        "printed_column_counts",
        "check_printed_columns",
        "weight_prefix_from_printed_columns",
    ),
    "constants": ("family_constants", "coset_orders"),
    "moments": (
        "build_instance",
        "pless_rhs",
        "check_pless_identity",
        "sk_via_pless",
        "sk_via_printed_recursion",
        "sk_oracle_series",
        "verify_instance",
        "full_verification",
    ),
    "cli": ("main", "cmd_verify", "cmd_kloosterman"),
}
FIELD_SPAN = "field.construct"
LAYERS = ("field", "charsums", "codes", "constants", "moments", "cli")


class Tracer:
    """Context manager: wraps TARGETS on entry, restores them on exit."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None] | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        homes = {module: importlib.import_module(f"kloos.{module}") for module in (*TARGETS, "field")}
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "kloos" or n.startswith("kloos.")]
        for module, names in TARGETS.items():
            home = homes[module]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module}.{name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, wrapper)
        field_cls = homes["field"].Field
        self._patch(field_cls, "__init__", self._wrap(FIELD_SPAN, field_cls.__init__))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps({"id": idx, "parent": parent, "name": name, "start": start, "end": end})
                )
                handle.write("\n")


def read_jsonl(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Busy time, self time and call counts from one run's spans.

    A span's self time is its duration minus the durations of its direct
    children (calls nest, so children never overlap).  A name's or layer's
    busy time sums only its outermost spans, so nested calls of the same
    name or layer are not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def ancestors(s: dict):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    calls: Counter[str] = Counter()
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    layer_busy: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        layer = name.split(".", 1)[0]
        above = list(ancestors(s))
        calls[name] += 1
        self_time[name] += dur - child_time[s["id"]]
        layer_self[layer] += dur - child_time[s["id"]]
        if all(a["name"] != name for a in above):
            busy[name] += dur
        if all(a["name"].split(".", 1)[0] != layer for a in above):
            layer_busy[layer] += dur

    per_instance = [s["end"] - s["start"] for s in spans if s["name"] == "moments.verify_instance"]
    handlers = [n for n in busy if n.startswith("cli.cmd_")]
    out = {
        "field.construct_s": busy[FIELD_SPAN],
        "field.construct_calls": calls[FIELD_SPAN],
        "charsums.kloosterman_s": busy["charsums.kloosterman"],
        "charsums.kloosterman_calls": calls["charsums.kloosterman"],
        "charsums.kloosterman_table_s": busy["charsums.kloosterman_table"],
        "charsums.delta_counts_s": busy["charsums.delta_counts"],
        "charsums.sk_moment_s": busy["charsums.sk_moment"],
        "codes.weight_prefix_s": busy["codes.weight_distribution_prefix"],
        "codes.printed_prefix_s": busy["codes.weight_prefix_from_printed_columns"],
        "codes.trace_profile_calls": calls["codes.trace_profile"],
        "codes.dual_weights_calls": calls["codes.dual_weights"],
        "codes.dual_weights_s": busy["codes.dual_weights"],
        "codes.injectivity_s": busy["codes.check_injectivity"],
        "constants.family_constants_calls": calls["constants.family_constants"],
        "moments.pless_rhs_s": busy["moments.pless_rhs"],
        "moments.pless_rhs_calls": calls["moments.pless_rhs"],
        "moments.sk_via_pless_s": busy["moments.sk_via_pless"],
        "moments.printed_recursion_s": busy["moments.sk_via_printed_recursion"],
        "moments.sk_oracle_s": busy["moments.sk_oracle_series"],
        "moments.verify_instance_median_s": statistics.median(per_instance) if per_instance else 0.0,
        "moments.verify_instance_max_s": max(per_instance, default=0.0),
        "cli.self_s": self_time["cli.main"],
        "cli.handler_self_s": sum(self_time[n] for n in handlers),
    }
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = layer_busy[layer]
        if layer != "cli":
            out[f"{layer}.self_s"] = layer_self[layer]
    out["trace.spans"] = len(spans)
    return out
