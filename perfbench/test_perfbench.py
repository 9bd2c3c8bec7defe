"""Tests for the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import kloos.cli  # noqa: E402
from invoke import summarize_output  # noqa: E402
from run import END_TO_END, PER_LAYER, WORKLOADS, choose_modulus, judge, primitive_moduli  # noqa: E402
from speed import NOMINAL_S, SpeedProbe, adjusted  # noqa: E402
from tracer import Tracer, layer_metrics, read_jsonl  # noqa: E402


def _span(idx, parent, name, start, end):
    return {"id": idx, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_on_synthetic_span_tree():
    spans = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "cli.cmd_verify", 1.0, 9.0),
        _span(2, 1, "moments.verify_instance", 2.0, 6.0),
        _span(3, 2, "codes.weight_distribution_prefix", 3.0, 5.0),
        _span(4, 3, "charsums.kloosterman", 3.5, 4.0),
        _span(5, 1, "moments.verify_instance", 6.0, 8.0),
        _span(6, 5, "moments.pless_rhs", 6.5, 7.0),
    ]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == 2.0  # main minus its handler
    assert m["cli.handler_self_s"] == 2.0  # handler minus two instances
    assert m["cli.busy_s"] == 10.0
    assert m["moments.busy_s"] == 6.0  # pless_rhs nests inside moments: not counted twice
    assert m["moments.self_s"] == 4.0  # (4 - 2) + (2 - 0.5) + 0.5
    assert m["codes.busy_s"] == 2.0
    assert m["codes.self_s"] == 1.5
    assert m["codes.weight_prefix_s"] == 2.0
    assert m["charsums.kloosterman_s"] == 0.5
    assert m["charsums.kloosterman_calls"] == 1
    assert m["moments.pless_rhs_s"] == 0.5
    assert m["moments.pless_rhs_calls"] == 1
    assert m["moments.verify_instance_median_s"] == 3.0
    assert m["moments.verify_instance_max_s"] == 4.0
    assert m["trace.spans"] == 7
    layer_self = sum(m[f"{layer}.self_s"] for layer in ("field", "charsums", "codes", "constants", "moments"))
    assert layer_self + m["cli.self_s"] + m["cli.handler_self_s"] == 10.0  # self times partition the root


def _verify_output() -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert kloos.cli.main(["verify", "--r", "1", "--nmax", "2", "--hmax", "4", "--jobs", "1"]) == 0
    return buf.getvalue()


@pytest.mark.parametrize(
    "old, new",
    [
        ('"passed": true', '"passed": frue'),  # no longer JSON
        ("\n  ", "\n \t"),  # same JSON, different bytes
    ],
)
def test_gate_flags_a_one_byte_change(old, new):
    text = _verify_output()
    ref = summarize_output("verify", text)
    ops, failed, problems = judge({"rc": 0, **summarize_output("verify", text)}, ref, check_digest=True)
    assert (ops, failed, problems) == (ref["operations"], 0, [])
    assert len(old) == len(new) and old in text
    mutated = text.replace(old, new, 1)
    assert sum(a != b for a, b in zip(text, mutated)) == 1
    ops, failed, problems = judge({"rc": 0, **summarize_output("verify", mutated)}, ref, check_digest=True)
    assert failed == ops == ref["operations"] and problems


def test_gate_checks_invariants_when_digest_is_off():
    text = _verify_output()
    ref = summarize_output("verify", text)
    payload = json.loads(text)
    payload["instances"][0]["SK"][0][1] += 3
    mutated = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    ops, failed, problems = judge({"rc": 0, **summarize_output("verify", mutated)}, ref, check_digest=False)
    assert failed == ops and problems == ["basis-independent results differ from the reference"]


def test_gate_counts_nonzero_exit_and_missing_repetition():
    text = _verify_output()
    ref = summarize_output("verify", text)
    ops, failed, problems = judge({"rc": 1, **summarize_output("verify", text)}, ref, check_digest=True)
    assert failed == ops and problems == ["exit code 1"]
    assert judge(None, ref, check_digest=True)[:2] == (ref["operations"], ref["operations"])


def _kloos_bindings() -> dict:
    out = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "kloos" or name.startswith("kloos.")
        for attr, value in vars(module).items()
        if callable(value)
    }
    out[("kloos.field.Field", "__init__")] = kloos.field.Field.__dict__["__init__"]
    return out


def test_tracer_wraps_every_namespace_and_restores_them(tmp_path):
    kloos.charsums.kloosterman_table.cache_clear()  # earlier tests filled it for GF(3)
    before = _kloos_bindings()
    original = kloos.codes.trace_profile
    with Tracer() as tracer:
        assert kloos.codes.trace_profile is not original
        assert kloos.moments.trace_profile is kloos.codes.trace_profile
        assert kloos.cli.trace_profile is kloos.codes.trace_profile
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert kloos.cli.main(["kloosterman", "--r", "1", "--hmax", "2"]) == 0
    after = _kloos_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    m = layer_metrics(read_jsonl(str(path)))
    assert m["field.construct_calls"] == 1
    assert m["charsums.kloosterman_calls"] == 2  # one per unit of GF(3)
    assert m["cli.busy_s"] >= m["charsums.busy_s"] > 0


def test_adjusted_time_removes_pauses_and_scales_by_mean_probe():
    assert adjusted(10.0, 0.0, [NOMINAL_S]) == 10.0
    assert adjusted(10.0, 0.2, [NOMINAL_S, 3 * NOMINAL_S]) == pytest.approx(4.9)  # half speed, less pauses


def test_speed_probe_samples_while_the_body_runs_and_stops():
    with SpeedProbe(interval_s=0.01) as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert not probe._thread.is_alive()
    assert len(probe.samples) >= 4  # before, after and at least two from the thread
    assert all(sample > 0 for sample in probe.samples)
    assert 0 < probe.paused_s < 0.2
    assert probe.adjusted(1.0) == adjusted(1.0, probe.paused_s, probe.samples)


def test_seed_picks_a_primitive_modulus():
    assert [len(primitive_moduli(r)) for r in (1, 2, 4, 6)] == [1, 2, 8, 48]
    default = kloos.field.DEFAULT_MODULI[4]
    assert choose_modulus(4, 0, default) == default
    picked = {choose_modulus(4, seed, default) for seed in range(8)}
    assert picked == set(primitive_moduli(4))
    assert {choose_modulus(1, seed, (1, 1)) for seed in range(5)} == {(1, 1)}


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
