"""One measured step of the benchmark, run in a fresh interpreter.

`run.py` starts this script once per repetition so that every repetition
pays the same cold start a CLI user pays: new imports, empty `lru_cache`s.
The request is one JSON argument; the reply is one JSON line on stdout.

Modes
-----
setup    time `import kloos.cli` plus construction of the workload's Field
run      time `kloos.cli.main(argv)` from before the import to its return,
         capturing the CLI output; optionally traced (spans to a JSONL file)
weights  sorted dual-weight multisets of the given (family, n) instances,
         through `kloos weights`, for checks that must not depend on basis

The output of `main` is captured in memory, so the digest covers exactly
the bytes the CLI would have written to stdout.  Timed modes pin the process
to one CPU and run under `speed.SpeedProbe`: they reply with the measured
seconds (`raw_*`), the same time in reference seconds, and the slowness the
probe saw.  A run with `"probe": false` (the `--jobs 2` check) is untimed
and unpinned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from speed import SpeedProbe, pin_to_one_cpu  # noqa: E402


def summarize_output(command: str, text: str) -> dict:
    """Digest, operation counts and basis-independent invariants of one output.

    An operation is one check of the verify JSON, or the whole invocation
    for the table command.  Output that does not parse counts its
    operations as unknown (None) and carries no invariants.
    """
    data = text.encode()
    out = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    try:
        payload = json.loads(text)
    except ValueError:
        return {**out, "operations": None, "failures": None, "invariants": None}
    if command == "verify":
        checks = [c for inst in payload["instances"] for c in inst["checks"]]
        out["operations"] = len(checks)
        out["failures"] = sum(1 for c in checks if c["status"] == "fail")
        out["max_N_bits"] = max(inst["instance"]["N"].bit_length() for inst in payload["instances"])
        out["invariants"] = {
            "passed": payload["passed"],
            "SK": {
                f'{inst["instance"]["family"]},n={inst["instance"]["n"]}': inst["SK"]
                for inst in payload["instances"]
            },
        }
    else:
        out["operations"] = 1
        out["failures"] = 0
        out["invariants"] = {
            "SK": payload["SK"],
            "MK": payload["MK"],
            "K_sorted": sorted(payload["K"].values()),
        }
    return out


def _capture_main(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def do_setup(req: dict) -> dict:
    pin_to_one_cpu()
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import kloos.cli  # noqa: F401  (the import is what is timed)
        from kloos.field import Field

        Field(req["r"], req.get("modulus"))
        raw = time.perf_counter() - t0
    return {"setup_s": probe.adjusted(raw), "raw_setup_s": raw, "slowness": probe.slowness}


def _timed_main(argv: list[str], trace_path: str | None) -> tuple[int, str, float]:
    t0 = time.perf_counter()
    import kloos.cli

    if trace_path is None:
        code, text = _capture_main(kloos.cli.main, argv)
        return code, text, time.perf_counter() - t0
    from tracer import Tracer

    with Tracer() as tracer:
        code, text = _capture_main(kloos.cli.main, argv)
    wall = time.perf_counter() - t0
    tracer.write_jsonl(trace_path)
    return code, text, wall


def do_run(req: dict) -> dict:
    argv = req["argv"]
    if req.get("probe", True):
        pin_to_one_cpu()
        with SpeedProbe() as probe:
            code, text, raw = _timed_main(argv, req.get("trace_path"))
        timing = {"wall_s": probe.adjusted(raw), "raw_wall_s": raw, "slowness": probe.slowness}
    else:
        code, text, _ = _timed_main(argv, None)
        timing = {}
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rc": code, "maxrss_kb": maxrss_kb, **timing, **summarize_output(argv[0], text)}


def do_weights(req: dict) -> dict:
    import kloos.cli

    field_args = ["--r", str(req["r"])]
    if req.get("modulus") is not None:
        field_args += ["--modulus", ",".join(map(str, req["modulus"]))]
    out = {}
    for family, n in req["instances"]:
        argv = ["weights", *field_args, "--family", family, "--n", str(n), "--jmax", "0"]
        code, text = _capture_main(kloos.cli.main, argv)
        if code != 0:
            return {"rc": code, "dual_weights": None}
        out[f"{family},n={n}"] = sorted(json.loads(text)["dual_weights"].values())
    return {"rc": 0, "dual_weights": out}


MODES = {"setup": do_setup, "run": do_run, "weights": do_weights}


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(MODES[request["mode"]](request)))
