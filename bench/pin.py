"""Record every op's expected exit status and stdout SHA-256 for the pinned seeds.

    python3 bench/pin.py

Rewrites pinned.json from the program's current output.  Run it only at a
commit whose outputs are known to be right: it refuses when the output of a
seeded op disagrees with its reference, or when an op without a reference
prints different output for different seeds.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    pinned: dict = {}
    with run.scratch_dir() as scratch:
        for name in workloads.WORKLOADS:
            entry = pinned[name] = {}
            for seed in workloads.PINNED_SEEDS:
                for op in workloads.build(name, seed, scratch):
                    got = run.run_fresh(run.command(op.argv, op.script), env, scratch)[1]
                    if op.reference is not None:
                        want_status, text = op.reference()
                        if workloads.digest(want_status, text.encode()) != got:
                            print(f"{name} {op.name} seed {seed}: output differs from "
                                  "the reference", file=sys.stderr)
                            return 1
                    elif entry.get(op.name) and got not in entry[op.name].values():
                        print(f"{name} {op.name}: output depends on the seed but the op "
                              "has no reference", file=sys.stderr)
                        return 1
                    entry.setdefault(op.name, {})[str(seed)] = got
                    print(f"{name} seed {seed} {op.name}: exit {got[0]} {got[1][:16]}")
    workloads.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
