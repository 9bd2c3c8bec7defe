import contextlib
import csv
import gc
import hashlib
import io
import json
import multiprocessing
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kloos.cli
import kloos.codes
import kloos.moments
from kloos.cli import EXIT_BROKEN_PIPE, main
from kloos.constants import ALL_FAMILIES, MAX_N, CosetFamily, family_constants
from kloos.field import Field


@pytest.fixture
def built_fields(monkeypatch):
    """The r of every Field built while the test runs."""
    built = []
    build = Field.__init__

    def spy(self, r, *args, **kwargs):
        built.append(r)
        build(self, r, *args, **kwargs)

    monkeypatch.setattr(Field, "__init__", spy)
    return built


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_moments_json_q3(capsys):
    payload = run_json(capsys, "moments", "--r", "1", "--hmax", "4")
    assert payload["q"] == 3
    assert payload["SK"] == [-1, 1, -1, 1]
    assert payload["MK"] == [1, 5, 7, 17]


def test_kloosterman_table_q3(capsys):
    payload = run_json(capsys, "kloosterman", "--r", "1", "--hmax", "4")
    assert payload["K"] == {"1": -1, "2": 2}
    assert payload["SK"] == [-1, 1, -1, 1]


def test_field_summary_custom_modulus(capsys):
    payload = run_json(capsys, "field", "--r", "2", "--modulus", "1,0,1")
    assert payload["q"] == 9
    assert payload["modulus"] == [1, 0, 1]
    assert payload["trace_fibers"] == [3, 3, 3]


def test_constants_csv_reference_rows(capsys):
    code, out, _ = run_cli(capsys, "constants", "--r", "1", "--nmax", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "n", "q", "A", "B", "N"]
    table = {(r[0], int(r[1])): tuple(int(x) for x in r[3:]) for r in rows[1:]}
    assert table[("DC1-", 1)] == (1, 4, 4)
    assert table[("DC1+", 2)] == (54, 12, 648)
    assert table[("DC2+", 2)] == (9, 8, 72)
    assert table[("DC3+", 2)] == (36, 2, 72)
    assert table[("DC4-", 3)] == (2916, 16, 46656)


def test_weights_dc1_minus(capsys):
    payload = run_json(capsys, "weights", "--r", "1", "--family", "DC1-", "--n", "1")
    assert payload["N"] == 4
    assert payload["profile"] == {"0": 2, "1": 1, "2": 1}
    assert payload["dual_weights"] == {"1": 2, "2": 2}
    assert payload["C_prefix"] == [1, 4, 6, 8, 8]


def test_group_q4_histogram(capsys):
    payload = run_json(capsys, "group", "--r", "1", "--set", "q", "--n", "2")
    assert payload["order"] == 72
    assert payload["histogram"] == {"0": 18, "1": 27, "2": 27}


def test_group_so2_order(capsys):
    payload = run_json(capsys, "group", "--r", "1", "--set", "so2")
    assert payload["order"] == 4
    assert payload["histogram"] == {"0": 2, "1": 1, "2": 1}


def test_group_double_coset(capsys):
    payload = run_json(capsys, "group", "--r", "1", "--family", "DC1+", "--n", "2")
    assert payload["order"] == 648


def test_group_csv_names_its_set(capsys):
    # Q(4, 3) and the DC2+ double coset share a trace histogram; the set section tells them apart
    outs = []
    for which in (["--set", "q"], ["--family", "DC2+"]):
        payload = run_json(capsys, "group", "--r", "1", *which, "--n", "2")
        code, out, _ = run_cli(capsys, "group", "--r", "1", *which, "--n", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["section", "key", "value"]
        assert rows[1:5] == [["set", key, str(payload[key])] for key in ("label", "q", "eps", "order")]
        assert rows[5:] == [["histogram", key, str(c)] for key, c in payload["histogram"].items()]
        outs.append(out)
    assert outs[0] != outs[1]


def test_recursion_match(capsys):
    payload = run_json(capsys, "recursion", "--r", "1", "--family", "DC2+", "--n", "2", "--hmax", "8")
    assert payload["match"] is True
    assert payload["orders"] == [2, 4, 6, 8]
    assert payload["SK"] == payload["SK_printed"] == payload["SK_oracle"]


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--r", "1", "--nmax", "2", "--hmax", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["instances"]) == 4


def test_verify_instances_are_the_constants_entries(capsys):
    constants = run_json(capsys, "constants", "--r", "2", "--nmax", "6")["constants"]
    verify = run_json(capsys, "verify", "--r", "2", "--nmax", "6")
    assert [entry["instance"] for entry in verify["instances"]] == constants


@pytest.mark.parametrize("r", ["1", "2", "3"])
def test_check_names_carry_the_instance_tag(capsys, r):
    payload = run_json(capsys, "verify", "--r", r, "--nmax", "4")
    assert payload["passed"] is True
    for entry in payload["instances"]:
        inst = entry["instance"]
        tag = family_constants(CosetFamily.parse(inst["family"]), inst["n"], inst["q"]).tag
        assert tag == f"{inst['family']},n={inst['n']},q={payload['q']}"
        assert entry["checks"] and all(tag in check["name"] for check in entry["checks"]), tag


def test_verify_huge_n_exceeds_int_str_limit(capsys):
    limit_before = getattr(sys, "get_int_max_str_digits", lambda: None)()
    # at n = 24 the Pless moments sum w^8 with N of about 540 digits
    code, out, err = run_cli(capsys, "verify", "--r", "1", "--nmax", "24", "--hmax", "8", "--format", "csv")
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert all(row[1] == "pass" for row in rows[1:])
    assert max(len(row[2]) for row in rows[1:]) > 4300
    # the limit is lifted only while main runs
    if hasattr(sys, "get_int_max_str_digits"):
        assert sys.get_int_max_str_digits() == limit_before


def test_verify_huge_n_json_exceeds_int_str_limit(capsys):
    limit_before = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, "verify", "--r", "1", "--nmax", "24", "--hmax", "8")
    assert code == 0, err
    # the limit is lifted only while main runs
    if hasattr(sys, "get_int_max_str_digits"):
        assert sys.get_int_max_str_digits() == limit_before
    with kloos.cli._no_int_str_limit():
        payload = json.loads(out)
    assert payload["passed"] is True
    checks = [chk for inst in payload["instances"] for chk in inst["checks"]]
    assert max(chk["lhs"] for chk in checks if isinstance(chk["lhs"], int)) >= 10**4300  # over 4300 digits


def test_json_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--r", "1", "--nmax", "2", "--hmax", "6")
    _, out2, _ = run_cli(capsys, "verify", "--r", "1", "--nmax", "2", "--hmax", "6")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "verify", "--r", "1", "--nmax", "2", "--hmax", "6", "--jobs", "2")
    assert out1 == out3


def test_jobs_environment_variable_is_ignored(capsys, monkeypatch):
    # --jobs is the only worker setting; the environment does not reach it
    argv = ("verify", "--r", "1", "--nmax", "2", "--hmax", "6")
    monkeypatch.delenv("KLOOS_JOBS", raising=False)
    expected = run_cli(capsys, *argv)
    monkeypatch.setenv("KLOOS_JOBS", "abc")
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0


@settings(max_examples=6, deadline=None)
@given(r=st.sampled_from((1, 2)), n_max=st.integers(1, 4), h_max=st.integers(1, 8))
def test_job_count_never_changes_output(r, n_max, h_max):
    argv = ["verify", "--r", str(r), "--nmax", str(n_max), "--hmax", str(h_max)]
    outputs = []
    # two CPUs, so that --jobs 2 runs a real pool of two workers on any machine
    with mock.patch.object(kloos.moments, "_available_cpus", lambda: 2):
        for jobs in ("1", "2"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--jobs", jobs])
            outputs.append((code, out.getvalue().encode(), err.getvalue()))
    assert outputs[0] == outputs[1]


def test_guard_violation_exits_2(capsys):
    code, _, err = run_cli(capsys, "moments", "--r", "99", "--hmax", "4")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--r", "1", "--hmax", "-1"),
        ("kloosterman", "--r", "1", "--hmax", "-3"),
        ("moments", "--r", "1", "--hmax", "1001"),
        ("kloosterman", "--r", "1", "--hmax", "1001"),
        ("verify", "--r", "1", "--nmax", "2", "--jobs", "0"),
        ("verify", "--r", "1", "--nmax", "2", "--jobs", "-3"),
        ("verify", "--r", "1", "--nmax", "0"),
        ("constants", "--r", "1", "--nmax", "0"),
        ("constants", "--r", "1", "--nmax", "-1"),
    ],
)
def test_out_of_range_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("weights", "--r", "10", "--family", "DC2-", "--n", "3"),
        ("weights", "--r", "11", "--family", "DC1-", "--n", "2"),
        ("verify", "--r", "11", "--nmax", "3"),
        ("weights", "--r", "10", "--family", "DC1+", "--n", "2"),
        ("verify", "--r", "10", "--nmax", "3"),
        ("recursion", "--r", "10", "--family", "DC1-", "--n", "1"),
        ("weights", "--r", "12", "--family", "DC1+", "--n", "2"),
        ("verify", "--r", "12", "--nmax", "3"),
        ("recursion", "--r", "12", "--family", "DC2+", "--n", "2"),
        ("recursion", "--r", "11", "--family", "DC1+", "--n", "1"),
        ("weights", "--r", "11", "--family", "DC2+", "--n", "2"),
        ("recursion", "--r", "11", "--family", "DC2-", "--n", "2"),
    ],
)
def test_quadratic_scan_above_cap_exits_2(capsys, built_fields, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "capped at q <= 19683," in err
    assert time.perf_counter() - start < 30
    assert built_fields == []  # refused before the field is built


@pytest.mark.parametrize(
    "argv, message",
    [
        (("group", "--r", "12", "--family", "DC1+", "--n", "2"), "double coset enumeration is q=3 only"),
        (("group", "--r", "12", "--set", "q", "--n", "2"), "Q(4, q) enumeration capped at q <= 9"),
    ],
)
def test_group_refusals_before_field(capsys, built_fields, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}, got q=531441\n"
    assert built_fields == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--r", "12", "--set", "q"), "error: --set q needs --n\n"),
        (("--r", "12", "--family", "DC1+"), "error: --family needs --n\n"),
        (("--r", "12"), "one of the arguments --set --family is required"),
        (("--r", "1", "--set", "so2", "--family", "DC1+", "--n", "2"), "not allowed with argument"),
    ],
)
def test_group_bad_arguments_refused_before_field(capsys, built_fields, argv, message):
    try:
        code = main(["group", *argv])
    except SystemExit as exc:  # argparse usage error
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err
    assert built_fields == []


@pytest.mark.parametrize("command", ["moments", "kloosterman"])
def test_series_order_above_cap_refused_before_field(capsys, built_fields, command):
    code, out, err = run_cli(capsys, command, "--r", "12", "--hmax", "1001")
    assert (code, out) == (2, "")
    assert err == "error: moment order bound capped at h_max <= 1000, got 1001\n"
    assert built_fields == []


@pytest.mark.parametrize(
    "argv",
    [
        ("constants", "--r", "1", "--nmax", str(MAX_N + 1)),
        ("constants", "--r", "12", "--family", "DC1-", "--n", str(MAX_N + 1)),
        ("weights", "--r", "1", "--family", "DC1-", "--n", str(MAX_N + 1)),
        ("recursion", "--r", "1", "--family", "DC1-", "--n", str(MAX_N + 1)),
        ("verify", "--r", "1", "--nmax", str(MAX_N + 1)),
    ],
)
def test_dimension_above_cap_refused_before_field_or_constants(capsys, built_fields, family_constants_calls, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: dimension n capped at n <= {MAX_N}, got {MAX_N + 1}\n"
    assert built_fields == [] and family_constants_calls == []


def test_dimension_cap_admits_max_n(capsys):
    payload = run_json(capsys, "constants", "--r", "1", "--family", "DC1+", "--nmax", str(MAX_N))
    assert payload["constants"][-1]["n"] == MAX_N


def test_weights_above_cap_names_the_prefix_dp(capsys):
    code, out, err = run_cli(capsys, "weights", "--r", "10", "--family", "DC2-", "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: the weight-prefix DP is O(q^2), capped at q <= 19683, got q=59049\n"


@pytest.mark.parametrize(
    "r, argv, cosets",
    [(9, ("so2",), 1), (9, ("q", "--n", "1"), 1), (10, ("o2",), 2)],
)
def test_group_circle_sets_run_at_large_q(capsys, r, argv, cosets):
    q = 3**r
    payload = run_json(capsys, "group", "--r", str(r), "--set", *argv)
    assert payload["order"] == sum(payload["histogram"].values()) == cosets * (q + 1)


@pytest.mark.parametrize("which", ["so2", "o2"])
def test_group_circle_sets_refuse_n_before_field(capsys, built_fields, which):
    code, out, err = run_cli(capsys, "group", "--r", "1", "--set", which, "--n", "5")
    assert (code, out) == (2, "")
    assert err == f"error: --set {which} takes no --n\n"
    assert built_fields == []


def test_weights_and_recursion_refuse_family_and_hmax_before_field(capsys, built_fields):
    code, out, err = run_cli(capsys, "weights", "--r", "9", "--family", "DC9+", "--n", "2")
    assert (code, out) == (2, "")
    assert err == "error: cannot parse family 'DC9+'; expected e.g. 'DC1+' or 'DC4-'\n"
    code, out, err = run_cli(capsys, "recursion", "--r", "9", "--family", "DC2+", "--n", "2", "--hmax", "1")
    assert (code, out) == (2, "")
    assert err == "error: --hmax 1 leaves no solvable moment for DC2+\n"
    for argv, message in [
        (("weights", "--family", "DC1-", "--n", "1", "--jmax", "13"), "--jmax 13 outside 0..12"),
        (("weights", "--family", "DC2-", "--n", "3", "--jmax", "-1"), "--jmax -1 outside 0..12"),
        (("recursion", "--family", "DC2+", "--n", "2", "--hmax", "22"), "--hmax 22 takes 11 steps for DC2+, capped at 10"),
        (("recursion", "--family", "DC1-", "--n", "1", "--hmax", "11"), "--hmax 11 takes 11 steps for DC1-, capped at 10"),
        (("weights", "--family", "DC1+", "--n", "3"), "n=3 is not valid for family DC1+"),
        (("recursion", "--family", "DC2-", "--n", "2", "--hmax", "8"), "n=2 is not valid for family DC2-"),
    ]:
        code, out, err = run_cli(capsys, *argv, "--r", "9")
        assert (code, out, err) == (2, "", f"error: {message}\n")
    # the family's n is refused before the modulus is
    code, out, err = run_cli(capsys, "weights", "--r", "2", "--family", "DC1+", "--n", "3", "--modulus", "1,0,0")
    assert (code, out, err) == (2, "", "error: n=3 is not valid for family DC1+\n")
    assert built_fields == []


def test_closed_stdout_exits_without_traceback():
    # about 0.6 MB of JSON, more than a pipe holds: the writer meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "kloos.cli", "kloosterman", "--r", "9"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert err == b""  # no BrokenPipeError traceback


def test_truncated_csv_exits_broken_pipe():
    # about 2 MB of CSV rows (or 2.3 MB of JSON): the reader takes one line and closes the pipe
    first_lines = {"csv": b"name,status,lhs,rhs\n", "json": b"{\n"}
    for fmt, jobs in [("csv", "1"), ("json", "1"), ("csv", "2"), ("json", "2")]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "kloos.cli", "verify", "--r", "1", "--nmax", "22", "--format", fmt, "--jobs", jobs],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == first_lines[fmt]
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_BROKEN_PIPE, (fmt, jobs)
        assert err == b""


class _ClosingStdout:
    """A stdout whose reader goes away at the second write."""

    def __init__(self, fileno: int):
        self.writes, self.fileno = 0, lambda: fileno

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes == 2:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("fmt, jobs", [("csv", "1"), ("json", "1"), ("csv", "2"), ("json", "2")])
def test_closed_pipe_stops_verify_early(monkeypatch, tmp_path, fmt, jobs):
    # the parent verified all 84 instances before its first write
    calls = []
    verify = kloos.moments.verify_instance
    monkeypatch.setattr(kloos.moments, "verify_instance", lambda *task: calls.append(task) or verify(*task))
    monkeypatch.setattr(kloos.moments, "_available_cpus", lambda: 2)
    with open(tmp_path / "stdout", "w") as handle, contextlib.redirect_stdout(_ClosingStdout(handle.fileno())):
        code = main(["verify", "--r", "1", "--nmax", "22", "--format", fmt, "--jobs", jobs])
    assert code == EXIT_BROKEN_PIPE
    if jobs == "1":
        assert 1 <= len(calls) <= 2
    assert multiprocessing.active_children() == []  # the pool stopped with the writer


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_guard_raised_mid_run_leaves_a_prefix(capsys, monkeypatch, tmp_path, jobs):
    argv = ["verify", "--r", "1", "--nmax", "4", "--hmax", "8", "--jobs", jobs]
    code, passing, _ = run_cli(capsys, *argv)
    assert code == 0
    third = [(family, n) for family in ALL_FAMILIES for n in family.valid_ns(4)][2]
    solve = kloos.moments.sk_via_pless

    def faulty(instance, steps):
        if (instance.consts.family, instance.consts.n) == third:
            raise ArithmeticError("injected at the third instance")
        return solve(instance, steps)

    # patched where kloos.moments calls it: patching kloos.codes or the home
    # module would leave the name verify_instance reads untouched; forked
    # workers inherit the patch
    monkeypatch.setattr(kloos.moments, "sk_via_pless", faulty)
    monkeypatch.setattr(kloos.moments, "_available_cpus", lambda: 2)
    target = tmp_path / "out.json"
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "consistency failure: injected at the third instance\n")
    assert passing.startswith(out) and out.count('"instance": {') == 2 and out.endswith("\n    }")
    assert run_cli(capsys, *argv, "--output", str(target)) == (code, "", err)
    assert target.read_text() == out
    assert multiprocessing.active_children() == []


_VERIFY_REFUSALS = [
    (("--r", "1", "--nmax", "2", "--hmax", "11"), "h_max capped at 10, got 11"),
    (("--r", "1", "--nmax", "2", "--hmax", "-1"), "h_max capped at 10, got -1"),
    (("--r", "1", "--nmax", "2", "--jobs", "0"), "jobs must be at least 1, got 0"),
    (("--r", "1", "--nmax", "0"), "no valid (family, n) instance with n <= 0"),
    (("--r", "1", "--nmax", str(MAX_N + 1)), f"dimension n capped at n <= {MAX_N}, got {MAX_N + 1}"),
    (("--r", "10", "--nmax", "3"), "the weight-prefix DP is O(q^2), capped at q <= 19683, got q=59049"),
    (("--r", "2", "--nmax", "2", "--modulus", "0,0,1"), "modulus x^2 is reducible: divisible by x"),
]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv, message", _VERIFY_REFUSALS, ids=lambda v: "-".join(v) if isinstance(v, tuple) else "")
def test_verify_refusals_write_nothing(capsys, tmp_path, argv, message, fmt):
    # each refusal is decided before the first byte, to stdout or to --output
    target = tmp_path / "out"
    assert run_cli(capsys, "verify", *argv, "--format", fmt) == (2, "", f"error: {message}\n")
    assert run_cli(capsys, "verify", *argv, "--format", fmt, "--output", str(target)) == (2, "", f"error: {message}\n")
    assert not target.exists()


class _Recorder(io.RawIOBase):
    """The bytes that reached the reader."""

    def __init__(self):
        self.data = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.data += data
        return len(data)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_writes_each_instance_before_the_next_runs(monkeypatch, fmt):
    document = kloos.moments.full_verification(Field(1), 8, 8)
    # where each instance's output ends: its closing brace, or its last CSV row
    if fmt == "json":
        expected = json.dumps(document, indent=2, sort_keys=True) + "\n"
        ends = [m.end() for m in re.finditer(r"\n    \}", expected)]
    else:
        rows = io.StringIO()
        writer = csv.writer(rows, lineterminator="\n")
        writer.writerow(["name", "status", "lhs", "rhs"])
        ends = []
        for inst in document["instances"]:
            writer.writerows([c["name"], c["status"], json.dumps(c["lhs"]), json.dumps(c["rhs"])] for c in inst["checks"])
            ends.append(len(rows.getvalue()))
        expected = rows.getvalue()
    # a stdout that passes nothing on before it is flushed, as a pipe's does
    raw, written = _Recorder(), []
    sink = io.TextIOWrapper(io.BufferedWriter(raw, buffer_size=1 << 20), encoding="ascii")
    verify = kloos.moments.verify_instance
    monkeypatch.setattr(kloos.moments, "verify_instance", lambda *task: written.append(len(raw.data)) or verify(*task))
    with contextlib.redirect_stdout(sink):
        assert main(["verify", "--r", "1", "--nmax", "8", "--hmax", "8", "--format", fmt]) == 0
    assert raw.data.decode() == expected
    assert len(written) == len(ends) == len(document["instances"])
    # instance k has reached the reader when instance k + 1 starts, and k + 1 has not
    assert all(ends[k] <= written[k + 1] < ends[k + 1] for k in range(len(ends) - 1))


def test_kloosterman_table_above_scan_cap(capsys):
    payload = run_json(capsys, "kloosterman", "--r", "9", "--hmax", "2")
    assert payload["q"] == 3**9
    assert len(payload["K"]) == 3**9 - 1
    assert len(payload["SK"]) == len(payload["MK"]) == 2


@pytest.mark.parametrize("r", ["-1", "0", "13"])
def test_constants_degree_out_of_range_exits_2(capsys, r):
    code, out, err = run_cli(capsys, "constants", "--r", r, "--nmax", "2")
    assert code == 2
    assert out == ""
    assert f"r={r} outside supported range 1..12" in err


def test_constants_invalid_n_refused_by_family_constants(capsys, monkeypatch):
    calls = []
    constants = kloos.cli.family_constants
    monkeypatch.setattr(kloos.cli, "family_constants", lambda *args: calls.append(args) or constants(*args))
    assert run_cli(capsys, "constants", "--r", "1", "--family", "DC1+", "--n", "3") == (
        2,
        "",
        "error: n=3 is not valid for family DC1+\n",
    )
    assert calls == [(CosetFamily(1, 1), 3, 3)]


def test_invalid_family_n_exits_2(capsys):
    code, _, _ = run_cli(capsys, "constants", "--r", "1", "--family", "DC4+", "--n", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "weights", "--r", "1", "--family", "DC1+", "--n", "3")
    assert code == 2


def test_modulus_with_trailing_zeros(capsys):
    code, out, err = run_cli(capsys, "verify", "--r", "2", "--nmax", "2", "--modulus", "2,1,1,0")
    assert code == 0, err
    assert json.loads(out)["modulus"] == [2, 1, 1]


def test_bad_modulus_exits_2(capsys):
    code, _, _ = run_cli(capsys, "moments", "--r", "2", "--modulus", "1,x,1")
    assert code == 2
    # reducible modulus: x^2 has no inverse table
    code, _, _ = run_cli(capsys, "moments", "--r", "2", "--modulus", "0,0,1")
    assert code == 2


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "moments", "--r", "1", "--hmax", "2", "--output", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["SK"] == [-1, 1]


def test_output_to_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, "moments", "--r", "1", "--hmax", "2", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.parent.exists()


@pytest.mark.parametrize("workload", ["verify-q81", "verify-q3-wide", "kloosterman-q729"])
def test_verify_stdout_matches_recorded_digest(capsys, workload):
    # the benchmark's recorded reference outputs; read, never rewritten here
    reference = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())
    code, out, err = run_cli(capsys, *reference[workload]["argv"])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == reference[workload]["sha256"]


# SHA-256 of stdout as json, csv and text, recorded before the K table, K(a^2)
# and the group histograms became element-indexed tuples; the constants and
# recursion rows before every layer read one FamilyConstants record per instance
RECORDED_DIGESTS = {
    "kloosterman --r 1": (
        "0b75cb78a2fbe947e6240f4f2e84163f61ec93b5c65a0b0b76df5d6c0e0d1b55",
        "18004f30274fe75f7545e6f21fadec8f14b70d86d60babc1835ab8941f6f8de1",
        "24533d4def63f06b07bca59507f4b3ba6e6deda618435a1f0904cea011bf93dd",
    ),
    "kloosterman --r 2": (
        "0813dbbde71b759ffdb90e69abbf02882e4a5a6ef2b7b3f10afe8440755b4a1d",
        "29d82019ba7fdaa572d896d56d8d85c3870389a9f56bdd762443c5564ab3b1fb",
        "8dae31300284045acba6a38a245a20df89ec10a2f28592660eca759cdb51d2d7",
    ),
    "kloosterman --r 3": (
        "1099b86791337739daee43e53bb87c60dd537b75a078c217b2d31013144f38e9",
        "2194aeee954da7afe9b17e0bd35c9c9deab6bf47252e411e6beb1083587649e2",
        "2dfe70948caad1b1753d632d7c07f32327a53abfdbcf684891247661217a8477",
    ),
    "group --r 2 --set so2": (
        "c0ed4d3794fbf97f1a8a0c5cc7408c15ba7303ce96dc9dfdff2dcf04ef089e7d",
        "8bc41b18bf6115917399f7e68bdb6936ff6c57d7cfd773249ec102f8df6045ef",
        "18ac2f50bab2dc60093722649f1da7ea671b1de283a1479d05c758a69ecbdd5b",
    ),
    "group --r 2 --set o2": (
        "8c5e6708a5a1caa16132c07c068bb6cd0a8723da19b085b4a9504a0de194b9ce",
        "9910ba9b3cd5f9c451ac48b702d87334872b1b9cebee534f079ee7d366a06766",
        "5e215d9a43ea4a0129848444c9d27b3f0513ba1eaf962bdd41e90ba1098ea8c8",
    ),
    "group --r 1 --set q --n 2": (
        "a8596f40822a5b8acdf39dc2a6bca9c51b1becbeff82c07b143aab614eb4f14c",
        "e1652708ea8091e41a2e7bcbee00c7129df4c7c45efffe614a3804b30c76f301",
        "fa2e03ba0838418ddeee20fd0b39d1b357ca5c349c8d3fb18a1daf401ececabb",
    ),
    "group --r 1 --family DC2+ --n 2": (
        "fe21eb69a91cdf2d895648c48b2123920e307d1bf4ad5b5dec75ee9439dd45c1",
        "f79c2463b01955b72752ab7a691bfde7c1090ca4831613246ed149d715a91d2f",
        "287705e0be0e9c8f0df98e26d9772212e3ca9d36f1a067813ce0931d91597ff6",
    ),
    "weights --r 2 --family DC2- --n 3": (
        "e9bdfb2b118123c4e7cff6abb2eedaeb3ab99dbaeaa78b6f411c11781377555b",
        "d697ab7b243d419551f445cfd0ce73e35ebbb23209e46c94073aa808b48c2b2b",
        "a535c3441823d9f26409af63879c902b10098489b82352182351de44a919d703",
    ),
    "constants --r 3 --nmax 8": (
        "2a914683d86fdc02ead362d3b5c48974f64e173f6b81ac087536587483245fdc",
        "4ea4472ba590c1ee468aea1198572b5881d4f7b97055e65dedb26094bf44d214",
        "dcea4ec3d6ff5d6f343bdc56b40b804d137c9500e38b577e870e4443a6f42c6c",
    ),
    "recursion --r 2 --family DC4- --n 3 --hmax 8": (
        "aba3096348ccb899c4109dff0b48a45fdce08ca59e787f408715d94c273b6ea5",
        "39171bfbd67862964eeadb7c3d7c951ce8a35432ab4b6d195be76d66c25fceba",
        "b03712740dc0ee41a15f07f990c726e6891e27fcd470475316801eed18b80947",
    ),
}


@pytest.mark.parametrize("command", RECORDED_DIGESTS)
def test_stdout_matches_recorded_digest(capsys, command):
    for fmt, digest in zip(("json", "csv", "text"), RECORDED_DIGESTS[command]):
        code, out, err = run_cli(capsys, *command.split(), "--format", fmt)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_csv_moments_parses(capsys):
    code, out, _ = run_cli(capsys, "moments", "--r", "1", "--hmax", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q", "h", "SK", "MK"]
    assert [int(x) for x in rows[1]] == [3, 1, -1, 1]


def test_text_format_renders(capsys):
    code, out, _ = run_cli(capsys, "recursion", "--r", "1", "--family", "DC1-", "--n", "1", "--format", "text")
    assert code == 0
    assert "match: True" in out


def test_installed_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "kloos.cli", "moments", "--r", "1", "--hmax", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["SK"] == [-1, 1, -1, 1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_builds_one_field(capsys, monkeypatch, built_fields, jobs):
    # with two jobs a real pool of two workers runs; their fields are built in the
    # workers, and the reports they send back carry q, not a Field to rebuild
    monkeypatch.setattr(kloos.moments, "_available_cpus", lambda: 2)
    payload = run_json(capsys, "verify", "--r", "2", "--nmax", "6", "--jobs", jobs)
    assert payload["passed"] and len(payload["instances"]) == 20
    assert built_fields == [2]


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_without_fork_matches_serial(capsys, monkeypatch, method):
    # a worker that inherits nothing gets each field from its task's pickle
    argv = ["verify", "--r", "2", "--nmax", "4", "--hmax", "8", "--jobs"]
    serial = run_cli(capsys, *argv, "1")
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context(method).Pool)
    monkeypatch.setattr(kloos.moments, "_available_cpus", lambda: 2)
    assert run_cli(capsys, *argv, "2") == serial
    assert serial[0] == 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("r", range(1, 7))
def test_element_keys_are_coefficient_strings(r):
    field = Field(r)
    assert kloos.cli._element_keys(field) == [",".join(map(str, field.coeffs(a))) for a in field.elements()]


_IMPORT_PROBE = """
import contextlib, io, json, sys
import kloos.cli

def loaded():
    names = ("kloos.groups", "kloos.moments", "csv", "dataclasses", "inspect", "fractions")
    return {name: name in sys.modules for name in names}

stages = {"import": loaded()}
codes = []
for label, argv in [
    ("kloosterman", ["kloosterman", "--r", "2"]),
    ("verify", ["verify", "--r", "1", "--nmax", "2"]),
    ("group", ["group", "--r", "1", "--set", "so2"]),
    ("weights", ["weights", "--r", "1", "--family", "DC1-", "--n", "3"]),
    ("recursion", ["recursion", "--r", "1", "--family", "DC1-", "--n", "3"]),
    ("verify_jobs2", ["verify", "--r", "1", "--nmax", "3", "--jobs", "2"]),
]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(kloos.cli.main(argv))
    stages[label] = loaded()
print(json.dumps({"codes": codes, "stages": stages}))
"""


def test_each_subcommand_imports_only_what_it_runs():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 6
    stages = result["stages"]
    absent = dict.fromkeys(("kloos.groups", "kloos.moments", "csv", "dataclasses", "inspect", "fractions"), False)
    assert stages["import"] == absent
    assert stages["kloosterman"] == absent
    assert stages["verify"]["kloos.moments"] and not stages["verify"]["kloos.groups"]
    assert stages["group"]["kloos.groups"]
    # the records are NamedTuples: no run loads dataclasses, nor inspect behind
    # it; fractions (with decimal) loads only to word a non-integral step
    for loaded in stages.values():
        assert not loaded["dataclasses"] and not loaded["inspect"] and not loaded["fractions"]


@pytest.mark.parametrize("modulus", [None, (2, 1, 1)])
def test_kloosterman_csv_rows_match_json_table(capsys, modulus):
    field_args = ["--r", "2"] + ([] if modulus is None else ["--modulus", "2,1,1"])
    table = run_json(capsys, "kloosterman", *field_args)["K"]
    code, out, err = run_cli(capsys, "kloosterman", *field_args, "--format", "csv")
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["a", "K"]
    # JSON sorts its keys; the CSV lists the units in the field's order
    field = Field(2, modulus)
    assert [a for a, _ in rows[1:]] == [",".join(map(str, field.coeffs(a))) for a in field.units()]
    assert {a: int(k) for a, k in rows[1:]} == table


_JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\t\u00e9\u2028\U0001f600a') | st.characters())
# 10^4300 + k has 4301 digits; k is often small and the sign is free, so one
# value often holds equal ints and +-x pairs
_JSON_INT = (
    st.integers()
    | st.sampled_from((0, 7, -7))
    | st.builds(
        lambda sign, k: sign * (10**4300 + k),
        st.sampled_from((1, -1)),
        st.integers(0, 3) | st.integers(0, 10**9),
    )
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _JSON_INT | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4)
    | st.dictionaries(st.integers() | st.booleans(), inner, max_size=4),
    max_leaves=12,
)


def _emitted(payload, fmt: str) -> str:
    out = io.StringIO()
    kloos.cli._emit(payload, [], fmt, out)
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(value=_JSON_VALUES)
def test_json_text_matches_json_dumps(value):
    with kloos.cli._no_int_str_limit():
        assert _emitted(value, "json") == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_json_text_leaves_no_reference_cycle():
    # a cycle would keep the digit cache alive until the collector runs
    gc.collect()
    gc.disable()
    try:
        _emitted({"a": [1, -1, {"b": None}], "c": "d"}, "json")
        assert gc.collect() == 0
    finally:
        gc.enable()


def _joined_render_text(payload, indent: str = "") -> str:
    """The text renderer that joins each level into one string: the
    reference the streaming ``_render_text`` must match byte for byte."""
    lines = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)) and v and not _joined_is_flat(v):
                lines.append(f"{indent}{k}:")
                lines.append(_joined_render_text(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {_joined_flat_str(v)}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                lines.append(_joined_render_text(item, indent + "  "))
                lines.append("")
            else:
                lines.append(f"{indent}- {item}")
    else:
        lines.append(f"{indent}{payload}")
    return "\n".join(lines)


def _joined_is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _joined_flat_str(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {x}" for k, x in v.items()) + "}"
    return str(v)


_TEXT_SCALARS = st.none() | st.booleans() | st.integers() | st.text(max_size=3) | st.tuples(st.integers())
_TEXT_VALUES = st.recursive(
    _TEXT_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(payload=st.dictionaries(st.text(max_size=2), _TEXT_VALUES, min_size=1, max_size=4))
@example(payload={"a": [[], {}, [[]], [{}], 1, [1, [2]]]})
@example(payload={"a": {"b": {}, "c": [], "d": [[], 3]}, "e": [{"f": []}]})
def test_streamed_text_matches_joined_text(payload):
    # every payload is a non-empty dict; an empty nested item keeps its blank line
    assert _emitted(payload, "text") == _joined_render_text(payload) + "\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_emit_writes_the_document_in_small_parts(fmt):
    # a writer that builds the whole document before writing it shows up as
    # one write of most of it
    args = kloos.cli.build_parser().parse_args(["kloosterman", "--r", "6"])
    payload, rows, _ = args.handler(args)
    parts = []
    kloos.cli._emit(payload, rows, fmt, SimpleNamespace(write=parts.append))
    sizes = [len(part) for part in parts]
    assert max(sizes) * 10 <= sum(sizes)


_SUBCOMMANDS = [
    ["field", "--r", "2"],
    ["kloosterman", "--r", "2"],
    ["moments", "--r", "2"],
    ["constants", "--r", "2"],
    ["weights", "--r", "2", "--family", "DC2-", "--n", "3"],
    ["group", "--r", "1", "--family", "DC1+", "--n", "2"],
    ["group", "--r", "2", "--set", "o2"],
    ["recursion", "--r", "1", "--family", "DC4-", "--n", "3"],
    ["verify", "--r", "2", "--nmax", "4"],
]


@pytest.mark.parametrize("argv", _SUBCOMMANDS, ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_emit_json_matches_json_dumps(argv, capsys, tmp_path):
    args = kloos.cli.build_parser().parse_args(argv)
    payload, rows, _ = args.handler(args)
    emitted = io.StringIO()
    kloos.cli._emit(payload, rows, "json", emitted)
    if argv[0] == "verify":  # its payload streams the instances; json.dumps reads the collected report
        payload = kloos.moments.full_verification(Field(args.r), args.nmax, args.hmax, args.jobs)
    assert emitted.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # --output writes the bytes stdout gets
    target = tmp_path / "out.json"
    _, out, _ = run_cli(capsys, *argv)
    _, empty, _ = run_cli(capsys, *argv, "--output", str(target))
    assert empty == "" and target.read_bytes() == out.encode() == emitted.getvalue().encode()
