"""Record reference.json: output digests and basis-independent results.

    python3 perfbench/record_reference.py

Run only at a commit whose outputs are known to be right (the references
in the repository were recorded at the commit that added the benchmark).
A later change that alters output bytes on purpose re-records and says so;
re-recording to make a failing gate pass hides a defect.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, ROOT, WORKLOADS, child, primitive_moduli


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from kloos.field import DEFAULT_MODULI

    reference = {}
    for name, wl in WORKLOADS.items():
        rep = child({"mode": "run", "argv": wl.argv(None)})
        if rep["rc"] != 0 or rep["failures"] or rep["invariants"] is None:
            print(f"error: {name} did not produce a passing output", file=sys.stderr)
            return 1
        entry = {key: rep[key] for key in ("sha256", "bytes", "operations", "invariants")}
        entry["argv"] = wl.argv(None)
        entry["modulus"] = list(DEFAULT_MODULI[wl.r])
        if wl.command == "verify" and len(primitive_moduli(wl.r)) > 1:
            instances = [key.split(",n=") for key in rep["invariants"]["SK"]]
            weights = child({"mode": "weights", "r": wl.r, "modulus": None, "instances": instances})
            entry["dual_weights"] = weights["dual_weights"]
        reference[name] = entry
    with open(REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
