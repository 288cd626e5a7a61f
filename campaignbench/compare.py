#!/usr/bin/env python3
"""Compare two campaign-benchmark result files.

    python3 campaignbench/compare.py BASE.json NEW.json

The files are the ones run.py writes to
.bench_build/campaignbench/results/. Results are comparable only when
they carry the same configuration tag (compiler, build type, native-arch
flag, nproc, pool threads, fleet workers, log level) and the same
workload and trace mode; otherwise this refuses (exit 2). Prints each
metric of both files and the NEW/BASE ratio.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path).read()) for path in argv[1:])
    for key in ("tag", "workload", "trace"):
        if base[key] != new[key]:
            print(f"refusing to compare: {key} differs\n  {argv[1]}: {base[key]}\n"
                  f"  {argv[2]}: {new[key]}", file=sys.stderr)
            return 2
    print(f"{'metric':34s} {'base':>14s} {'new':>14s} {'new/base':>9s}")
    for name, value in base["metrics"].items():
        other = new["metrics"].get(name)
        ratio = f"{other / value:9.3f}" if other is not None and value else "        -"
        other_text = f"{other:14.6g}" if other is not None else f"{'-':>14s}"
        print(f"{name:34s} {value:14.6g} {other_text} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
