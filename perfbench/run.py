"""The kloos benchmark: exact verify and table workloads, timed end to end.

    python3 perfbench/run.py --workload verify-q81 --seed 0 --seconds 30 --trace 0

Every repetition is a fresh interpreter (`invoke.py`) that imports kloos
and calls `kloos.cli.main`, so caches start cold as they do for a CLI user.
One repetition runs at a time, so one process holds all the load.  With
`--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced repetitions and reports the per-layer
metrics, the tracing overhead among them.  Times are in reference seconds:
each timed child probes the host's speed while it runs (`speed.py`) and puts
its time on the scale of a host at reference speed; the measured seconds are
printed next to them.  Every repetition is checked:
exit code 0, verify `passed`, and the output digest recorded in
`reference.json` (or, for a non-default modulus, the parts of the output
that do not depend on the basis).  The last stdout line is the JSON result.
See README.md for the workloads and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from tracer import layer_metrics, read_jsonl  # noqa: E402

SETUP_REPS = 9
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    command: str
    r: int
    args: tuple[str, ...]

    def argv(self, modulus: tuple[int, ...] | None, jobs: int = 1) -> list[str]:
        out = [self.command, "--r", str(self.r), *self.args]
        if modulus is not None:
            out += ["--modulus", ",".join(map(str, modulus))]
        if self.command == "verify":
            out += ["--jobs", str(jobs)]
        return out


WORKLOADS = {
    "verify-q81": Workload("verify", 4, ("--nmax", "3", "--hmax", "8")),
    "verify-q3-wide": Workload("verify", 1, ("--nmax", "22", "--hmax", "8")),
    "kloosterman-q729": Workload("kloosterman", 6, ("--hmax", "8")),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "field.construct_s": "s",
    "field.construct_calls": "count",
    "charsums.kloosterman_s": "s",
    "charsums.kloosterman_calls": "count",
    "charsums.kloosterman_table_s": "s",
    "charsums.delta_counts_s": "s",
    "charsums.sk_moment_s": "s",
    "codes.weight_prefix_s": "s",
    "codes.printed_prefix_s": "s",
    "codes.trace_profile_calls": "count",
    "codes.dual_weights_calls": "count",
    "codes.dual_weights_s": "s",
    "codes.injectivity_s": "s",
    "constants.family_constants_calls": "count",
    "moments.pless_rhs_s": "s",
    "moments.pless_rhs_calls": "count",
    "moments.sk_via_pless_s": "s",
    "moments.printed_recursion_s": "s",
    "moments.sk_oracle_s": "s",
    "moments.verify_instance_median_s": "s",
    "moments.verify_instance_max_s": "s",
    "moments.checks_total": "count",
    "moments.max_N_bits": "bits",
    "cli.self_s": "s",
    "cli.handler_self_s": "s",
    "cli.output_bytes": "bytes",
    "field.busy_s": "s",
    "field.self_s": "s",
    "charsums.busy_s": "s",
    "charsums.self_s": "s",
    "codes.busy_s": "s",
    "codes.self_s": "s",
    "constants.busy_s": "s",
    "constants.self_s": "s",
    "moments.busy_s": "s",
    "moments.self_s": "s",
    "cli.busy_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
COUNT_METRICS = [n for n, unit in PER_LAYER.items() if unit in ("count", "bits", "bytes")]
TIME_METRICS = [n for n, unit in PER_LAYER.items() if unit == "s" and n != "trace.overhead_s"]


# -- inputs -------------------------------------------------------------------------


def _polymulmod(a: list[int], b: list[int], m: tuple[int, ...]) -> list[int]:
    r = len(m) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % 3
    for k in range(len(prod) - 1, r - 1, -1):
        c = prod[k]
        for i in range(r + 1):
            prod[k - r + i] = (prod[k - r + i] - c * m[i]) % 3
    return (prod + [0] * r)[:r]


def _x_power(e: int, m: tuple[int, ...]) -> list[int]:
    r = len(m) - 1
    result = [1] + [0] * (r - 1)
    base = _polymulmod([0, 1], [1], m)
    while e:
        if e & 1:
            result = _polymulmod(result, base, m)
        base = _polymulmod(base, base, m)
        e >>= 1
    return result


def primitive_moduli(r: int) -> list[tuple[int, ...]]:
    """Monic primitive polynomials of degree r over F_3, constant term first.

    Primitive means x has multiplicative order exactly 3^r - 1 modulo m,
    which only an irreducible m allows.
    """
    order = 3**r - 1
    primes = [p for p in range(2, order + 1) if order % p == 0 and all(p % d for d in range(2, p))]
    one = [1] + [0] * (r - 1)
    out = []
    for low in itertools.product(range(3), repeat=r):
        m = (*low, 1)
        if _x_power(order, m) == one and all(_x_power(order // p, m) != one for p in primes):
            out.append(m)
    return out


def choose_modulus(r: int, seed: int, default: tuple[int, ...]) -> tuple[int, ...]:
    """Seed 0 (and every multiple of the count) picks the default modulus."""
    choices = [default] + [m for m in primitive_moduli(r) if m != default]
    return choices[seed % len(choices)]


# -- children -----------------------------------------------------------------------


class ChildError(RuntimeError):
    pass


def child(request: dict) -> dict:
    """Run invoke.py once in a fresh interpreter and return its reply."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "invoke.py"), json.dumps(request)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{request['mode']} timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{request['mode']} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# -- correctness gate -----------------------------------------------------------------


def judge(rep: dict | None, ref: dict, check_digest: bool) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, problems) for one repetition.

    A nonzero exit, a digest mismatch or an invariant mismatch fails every
    operation of the repetition; otherwise each check with status fail does.
    """
    if rep is None:
        return ref["operations"], ref["operations"], ["repetition did not complete"]
    ops = rep["operations"] if rep["operations"] is not None else ref["operations"]
    problems = []
    if rep["rc"] != 0:
        problems.append(f"exit code {rep['rc']}")
    if rep["invariants"] is None:
        problems.append("output is not JSON")
    elif rep["invariants"] != ref["invariants"]:
        problems.append("basis-independent results differ from the reference")
    if check_digest and rep["sha256"] != ref["sha256"]:
        problems.append(f"output digest {rep['sha256'][:16]} != reference {ref['sha256'][:16]}")
    return ops, ops if problems else rep["failures"], problems


# -- reporting ------------------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest order statistic with ten samples above it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": sha,
    }


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0, help="picks the field modulus; 0 is the default")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "kloos" / "cli.py").is_file():
        print(f"error: no kloos sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(REFERENCE) as handle:
        ref = json.load(handle)[args.workload]
    wl = WORKLOADS[args.workload]
    default = tuple(ref["modulus"])
    modulus = choose_modulus(wl.r, args.seed, default)
    is_default = modulus == default
    argv_cli = wl.argv(None if is_default else modulus)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    problems: list[str] = []
    attempted = failed = 0

    def repetition(trace_path: str | None = None) -> dict | None:
        nonlocal attempted, failed
        request = {"mode": "run", "argv": argv_cli, "trace_path": trace_path}
        try:
            rep = child(request)
        except ChildError as exc:
            rep = None
            problems.append(str(exc))
        ops, bad, found = judge(rep, ref, check_digest=is_default)
        attempted += ops
        failed += bad
        problems.extend(found)
        return rep

    setup_request = {"mode": "setup", "r": wl.r, "modulus": list(modulus)}
    child(setup_request)  # compiles bytecode; a CLI user does not pay this on every run
    setups = [] if args.trace else [child(setup_request) for _ in range(SETUP_REPS)]

    jobs2_sha = None
    if wl.command == "verify":
        jobs2 = child({"mode": "run", "argv": wl.argv(None if is_default else modulus, jobs=2), "probe": False})
        jobs2_sha = jobs2["sha256"]
        if not is_default:
            weights = child(
                {
                    "mode": "weights",
                    "r": wl.r,
                    "modulus": list(modulus),
                    "instances": [k.split(",n=") for k in ref["dual_weights"]],
                }
            )
            if weights["dual_weights"] != ref["dual_weights"]:
                problems.append("sorted dual-weight multisets differ from the reference")

    plain: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []
    start = time.monotonic()
    for i in itertools.count():
        rep = repetition()
        if rep is not None:
            plain.append(rep)
        if args.trace:
            path = RESULTS / f"trace-{tag}-rep{i}.jsonl"
            rep = repetition(str(path))
            if rep is not None:
                traced.append(rep)
                metrics = layer_metrics(read_jsonl(str(path)))
                for name in TIME_METRICS:
                    metrics[name] /= rep["slowness"]
                metrics["moments.checks_total"] = rep["operations"] if wl.command == "verify" else 0
                metrics["moments.max_N_bits"] = rep.get("max_N_bits", 0)
                metrics["cli.output_bytes"] = rep["bytes"]
                layers.append(metrics)
        if time.monotonic() - start >= args.seconds:
            break

    if not plain or (args.trace and not traced):
        for problem in problems:
            print(f"PROBLEM: {problem}", file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1
    shas = {rep["sha256"] for rep in plain + traced}
    if jobs2_sha is not None and shas != {jobs2_sha}:
        problems.append("--jobs 2 output differs from --jobs 1")
    for name in COUNT_METRICS:
        if len({m[name] for m in layers}) > 1:
            problems.append(f"{name} differs between traced repetitions")

    walls = [rep["wall_s"] for rep in plain]
    raw_walls = [rep["raw_wall_s"] for rep in plain]
    if args.trace:
        values = {n: statistics.median(m[n] for m in layers) for n in PER_LAYER if n != "trace.overhead_s"}
        values.update({n: layers[0][n] for n in COUNT_METRICS})  # equal in every traced repetition
        values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(walls)
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": statistics.median(rep["maxrss_kb"] / 1024 for rep in plain),
        }
        units = END_TO_END
    correct = not problems and failed == 0

    env = environment()
    tail = tail_percentile(walls)
    print(f"workload {args.workload}  seed {args.seed}  modulus {','.join(map(str, modulus))}"
          f"{' (default)' if is_default else ''}  trace {args.trace}")
    print(f"python {env['python']}  nproc {env['nproc']}  cpu {env['cpu']}  git {env['git_sha']}")
    print(f"wall_s samples n={len(walls)}  p50 {statistics.median(walls):.4f} s  "
          + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "tail percentile n/a (needs >= 11 samples)"))
    print(f"measured wall p50 {statistics.median(raw_walls):.4f} s  host slowness p50 "
          f"{statistics.median(r['slowness'] for r in plain):.3f} (reference 1.0)")
    if setups:
        print(f"setup_s samples n={len(setups)}  measured p50 "
              f"{statistics.median(s['raw_setup_s'] for s in setups):.4f} s")
    print(f"operations attempted {attempted}  failed {failed}  failed_ratio {failed / attempted:.6f}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    for name, value in values.items():
        print(f"{name:38s} {value:16.6f} {units[name]}")
    with open(RESULTS / f"{tag}.json", "w") as handle:
        json.dump(
            {"environment": env, "argv": argv_cli, "wall_samples": walls, "raw_wall_samples": raw_walls,
             "slowness_samples": [r["slowness"] for r in plain], "setup_samples": setups,
             "layer_samples": layers, "problems": problems, "metrics": values},
            handle,
            indent=2,
        )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": unit} for n, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
