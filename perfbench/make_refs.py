"""Record the reference outputs the benchmark checks every run against.

    PYTHONPATH=src python3 perfbench/make_refs.py [--workload NAME ...]

Run from the repository root. Writes perfbench/refs/<workload>.json: for
each pooled input, every op's output arrays (exact float repr) and the
SHA-256 of their float64 bytes. Re-record only in a change that is allowed
to edit the benchmark, and say why in CHANGES.md.
"""

import argparse
import json
import os
import sys

import workload as wlmod

POOL_SIZES = {
    "paper-closed": [(0, len(wlmod.CLOSED_DROPS))],
    "paper-mc": [(d, len(wlmod.MC_SEEDS)) for d in range(len(wlmod.MC_DROPS))],
    "desk-cdf-pool": [(0, len(wlmod.CDF_SEEDS))],
    "validate-desk": [(0, 1)],
}


def record(name):
    cls = wlmod.WORKLOADS[name]
    entries = {}
    for seed, units in POOL_SIZES[name]:
        wl = cls(seed, tiny=False)
        for i in range(units):
            inputs = wl.inputs(i)
            ops = wl.run(inputs, workers=getattr(wl, "workers", 1))
            if any(v is None for v in ops.values()) or not ops:
                raise RuntimeError(f"{name} {inputs}: an op raised")
            entries[wl.key(inputs)] = {
                op: {f: {"values": v.tolist(), "sha256": wlmod.digest(v)}
                     for f, v in fields.items()}
                for op, fields in ops.items()}
            print(f"{name} {wl.key(inputs)}: {len(ops)} ops", file=sys.stderr)
    path = os.path.join(wlmod.REFS, f"{name}.json")
    os.makedirs(wlmod.REFS, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"tolerance": {"rel": wlmod.REL_TOL},
                   "entries": entries}, fh, separators=(",", ":"))
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(wlmod.WORKLOADS))
    args = parser.parse_args(argv)
    for name in args.workload or sorted(wlmod.WORKLOADS):
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
