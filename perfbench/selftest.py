"""Self-test of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

Runs every workload for one second in both trace modes and checks that
each run's verdict is clean and that the metrics it prints are exactly
the ones ``BENCHMARK.json`` declares, with the same units.  Then checks
that the benchmark refuses to run, with no result line, in a directory
holding only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import END_TO_END, HERE, PER_LAYER, ROOT, WORK, WORKLOADS  # noqa: E402


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    tables = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    assert tables[0] == {n: u for n, u, _ in END_TO_END}, "end_to_end drifted"
    assert tables[1] == {n: u for n, u, _ in PER_LAYER}, "per_layer drifted"
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(
                ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny",
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == tables[trace], (workload, trace, set(got) ^ set(tables[trace]))
            print(f"ok  {workload:<14} trace {trace}: {len(got)} metrics")

    WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print(f"ok  bare directory refused with exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
