"""Compare two sets of benchmark records (``.bench_work/records/*.json``).

Usage::

    python3 perfbench/compare.py --old A/*.json --new B/*.json

Records whose host stamps differ are never compared: the command refuses
with exit code 2.  Otherwise it prints, per workload and metric, the
median of each side and the change as a share of the old median, and
exits 1 when an end-to-end metric got worse by more than its bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def stamp_mismatch(records) -> str | None:
    """Why the records may not be compared, or ``None`` when they may."""
    stamps = {json.dumps(r["host"], sort_keys=True) for r in records}
    if len(stamps) > 1:
        return "host stamps differ: " + " | ".join(sorted(stamps))
    return None


def compare(old, new, spec) -> tuple[list[str], bool]:
    """Report lines and whether any end-to-end metric regressed."""
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    groups: dict = {}
    for side, records in (("old", old), ("new", new)):
        for r in records:
            key = (r["workload"], r["trace"])
            for name, doc in r["metrics"].items():
                groups.setdefault(key, {}).setdefault(name, {"old": [], "new": []})
                groups[key][name][side].append(doc["value"])
    lines, regressed = [], False
    for (workload, trace), metrics in sorted(groups.items()):
        for name, sides in metrics.items():
            if not sides["old"] or not sides["new"]:
                continue
            a = statistics.median(sides["old"])
            b = statistics.median(sides["new"])
            m = meta.get(name, {})
            worse = (b - a) if m.get("better") == "lower" else (a - b)
            share = worse / abs(a) if a else 0.0
            flag = ""
            if "bound" in m and share > m["bound"]:
                flag, regressed = "  REGRESSION", True
            lines.append(f"{workload:<15} {name:<26} {a:>12.6g} -> {b:<12.6g}"
                         f" worse by {share:+.1%}{flag}")
    return lines, regressed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--old", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    old, new = load(args.old), load(args.new)
    why = stamp_mismatch(old + new)
    if why:
        print(f"refused: {why}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regressed = compare(old, new, spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
