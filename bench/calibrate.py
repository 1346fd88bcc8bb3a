"""Fixed reference work that the benchmark times to track the machine's speed.

    python3 bench/calibrate.py

It imports standard modules the CLI also imports and runs a small mix of the
workloads' kinds of work: Fraction sums, a prefix scan over a list of words,
and a dict keyed by strings.  It never imports recmeasure, so no change to
the program can move its time; only the machine can.
"""

from __future__ import annotations

import argparse  # noqa: F401
import dataclasses  # noqa: F401
import enum  # noqa: F401
import json  # noqa: F401
import random
from fractions import Fraction


def main() -> None:
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    rng = random.Random(0)
    words = sorted({format(rng.getrandbits(16), "b") for _ in range(250)})
    kept = [w for w in words if not any(w != p and w.startswith(p) for p in words)]
    {format(i, "b"): Fraction(i, len(kept)) for i in range(8000)}


if __name__ == "__main__":
    main()
