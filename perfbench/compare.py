"""Compare two result files of perfbench/run.py.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric of both runs and the change in per cent. Refuses (exit
2) when the two results come from different backends, workloads or trace
modes, since their numbers do not compare.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (json.loads(open(path).read()) for path in argv)
    for key in ("workload", "trace"):
        if before[key] != after[key]:
            print(f"refusing: {key} differs ({before[key]!r} vs {after[key]!r})", file=sys.stderr)
            return 2
    pb, pa = before["provenance"], after["provenance"]
    if pb["backend"] != pa["backend"]:
        print(f"refusing: backend differs ({pb['backend']!r} vs {pa['backend']!r})", file=sys.stderr)
        return 2
    print(f"{before['workload']} trace={before['trace']}  backend: {pb['backend']}")
    print(f"  real x264: {pa['real_ffmpeg_claims']}")
    for key in ("git_sha", "seed", "nproc", "python", "numpy", "runner.floor_ms"):
        print(f"  {key:16s} {pb[key]!s:>20} -> {pa[key]!s}")
    for name, metric in before["metrics"].items():
        b, a = metric["value"], after["metrics"].get(name, {}).get("value")
        if a is None:
            print(f"  {name:28s} {b:12.4f} -> (missing)")
            continue
        change = f"{(a - b) / b:+8.1%}" if b else ""
        print(f"  {name:28s} {b:12.4f} -> {a:12.4f} {metric['unit']:6s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
