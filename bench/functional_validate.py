"""Run ``oracle.functional_validate`` on a built-in kernel and print a report.

    PYTHONPATH=src python3 bench/functional_validate.py KERNEL DEPTH

No CLI subcommand reaches ``functional_validate``, so the benchmark runs it
through this script, in a fresh process like the CLI ops.  Exit status 1
means the kernel has violations.
"""

from __future__ import annotations

import sys

from recmeasure import oracle


def main(argv: list[str]) -> int:
    kernel, depth = argv[0], int(argv[1])
    f = oracle.BUILTIN_KERNELS[kernel]()
    violations = oracle.functional_validate(f, depth)
    lines = [f"kernel: {f.name}", f"depth: {depth}", f"violations: {len(violations)}"]
    lines += [f"violation: {v}" for v in violations]
    sys.stdout.write("\n".join(lines) + "\n")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
