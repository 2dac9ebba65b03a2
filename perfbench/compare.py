"""Compare two traced benchmark runs side by side.

Usage (from the repository root)::

    python3 perfbench/compare.py .perfbench/traces/A.json .perfbench/traces/B.json

Prints, for each run, the per-layer metrics and then every span name's
count and self time per traced round (duration minus the part covered
by its child spans), with the change from A to B.  Exits 2 if the two
runs are of different workloads or sizes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: Path) -> dict:
    data = json.loads(path.read_text())
    for key in ("provenance", "layers", "self_times", "spans"):
        if key not in data:
            raise SystemExit(f"{path}: not a perfbench trace (no {key!r})")
    return data


def rounds_of(data: dict) -> int:
    return len({s["round"] for s in data["spans"] if s["phase"] == "round"}) or 1


def change(a: float, b: float) -> str:
    if a == b:
        return "="
    if a == 0:
        return "new"
    return f"{(b - a) / abs(a):+.1%}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    a, b = load(args.a), load(args.b)
    pa, pb = a["provenance"], b["provenance"]
    if (pa["workload"], pa["size"]) != (pb["workload"], pb["size"]):
        print(f"different workloads: {pa['workload']}/{pa['size']} vs "
              f"{pb['workload']}/{pb['size']}", file=sys.stderr)
        return 2
    for label, p in (("A", pa), ("B", pb)):
        print(f"{label}: {p['workload']}/{p['size']} seed {p['seed']} "
              f"src {p['src_sha256'][:12]} git {str(p['git_sha'])[:12]} "
              f"cpus {p['cpu_count']}")

    print(f"\n{'per-layer metric':32} {'A':>14} {'B':>14} {'change':>9}")
    for name in sorted(set(a["layers"]) | set(b["layers"])):
        va, vb = a["layers"].get(name, 0.0), b["layers"].get(name, 0.0)
        print(f"{name:32} {va:14.6g} {vb:14.6g} {change(va, vb):>9}")

    ra, rb = rounds_of(a), rounds_of(b)
    print(f"\nper traced round (A: {ra} rounds, B: {rb} rounds)")
    print(f"{'span':24} {'count A':>9} {'count B':>9} "
          f"{'self A s':>10} {'self B s':>10} {'change':>9}")
    names = sorted(set(a["self_times"]) | set(b["self_times"]))
    zero = {"count": 0, "self_s": 0.0}
    for name in names:
        sa = a["self_times"].get(name, zero)
        sb = b["self_times"].get(name, zero)
        ca, cb = sa["count"] / ra, sb["count"] / rb
        ta, tb = sa["self_s"] / ra, sb["self_s"] / rb
        print(f"{name:24} {ca:9.1f} {cb:9.1f} {ta:10.4f} {tb:10.4f} "
              f"{change(ta, tb):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
