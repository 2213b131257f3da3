"""Summarise benchmark results; compare sets of them; warn across hosts.

    python3 perfbench/compare.py                  # every result in .perfbench_out/
    python3 perfbench/compare.py BEFORE/ AFTER/   # one column per directory

Each result file is what ``run.py`` writes (``<workload>-seed<n>-trace<t>.json``).
For every workload, trace mode, run length and metric this prints the
median and the quartile spread as a share of the median, per directory
(self-test results are skipped).  Results whose
host fingerprints (cores, Python, numpy, kernel backend, numba) differ
are flagged, because their numbers do not compare.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import OUT  # noqa: E402


def load(directory: Path) -> "list[dict]":
    return [
        json.loads(p.read_text())
        for p in sorted(directory.glob("*-trace[01].json"))
    ]


def spread(values: "list[float]") -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv: "list[str]") -> int:
    sides = [Path(a) for a in argv] or [OUT]
    results = {side: load(side) for side in sides}
    hosts = {
        json.dumps(r["host"], sort_keys=True)
        for rs in results.values()
        for r in rs
    }
    if len(hosts) > 1:
        print(f"WARNING: these results come from {len(hosts)} different hosts:")
        for host in sorted(hosts):
            print(f"  {host}")
    table: dict = defaultdict(lambda: defaultdict(list))
    for side, rs in results.items():
        for r in rs:
            if r["tiny"]:
                continue  # self-test sizes measure nothing
            for name, metric in r["metrics"].items():
                key = (r["workload"], r["trace"], r["seconds"], name, metric["unit"])
                table[key][side].append(metric["value"])
    header = "".join(f"{str(s)[-24:]:>34}" for s in sides)
    print(f"{'workload':<14}{'t':>2}{'s':>4} {'metric':<38}{header}")
    for (workload, trace, seconds, name, unit), by_side in sorted(table.items()):
        cells = ""
        for side in sides:
            values = by_side.get(side, [])
            if values:
                cells += (
                    f"{statistics.median(values):>14.5g} {unit:<5}"
                    f"n={len(values):<3}iqr {100 * spread(values):4.1f}%"
                )
            else:
                cells += f"{'-':>34}"
        print(f"{workload:<14}{trace:>2}{seconds:>4g} {name:<38}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
