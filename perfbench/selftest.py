"""Self-test of the benchmark at tiny sizes; about half a minute.

    python3 perfbench/selftest.py

For every workload it checks that
* a tiny run exits 0 and its last stdout line is the result object, with
  exactly the metrics BENCHMARK.json names, each with the unit named there:
  the end-to-end ones untraced, the per-layer ones traced;
* two untraced runs with one seed print identical digests;
* the summary records the Python version, nproc, the commit, the seed and
  the op and sample counts.
It also checks that a copy holding only BENCHMARK.json and the benchmark's
own files exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
checks = []  # one bool per check


def run(script: Path, workload: str, trace: int, cwd: Path = ROOT):
    argv = [
        sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
        "--seconds", "0.5", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def expect(cond: bool, what: str) -> None:
    checks.append(cond)
    if not cond:
        print(f"FAIL {what}")


def check_result(proc, wanted: list, label: str) -> None:
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        expect(False, f"{label}: last stdout line is a JSON result")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result.get("correct") is True and result.get("failed") == 0, f"{label}: correct")
    metrics = result.get("metrics", {})
    expect(list(metrics) == [m["name"] for m in wanted], f"{label}: metric names")
    for m in wanted:
        got = metrics.get(m["name"], {})
        expect(
            got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
            f"{label}: {m['name']} in {m['unit']}",
        )


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    script = ROOT / "perfbench" / "run.py"
    for workload in [w["name"] for w in bench["workloads"]]:
        first, second = run(script, workload, 0), run(script, workload, 0)
        check_result(first, bench["end_to_end"], f"{workload} untraced")
        digests = [[l for l in p.stdout.splitlines() if " digest " in l] for p in (first, second)]
        same = len(digests[0]) == 2 and digests[0] == digests[1]
        expect(same, f"{workload}: same digests twice")
        header = first.stdout.splitlines()[0] if first.stdout else ""
        for field in ("python=", "nproc=", "commit=", f"seed={SEED}"):
            expect(field in header, f"{workload}: summary records {field}")
        counts = "(n=" in first.stdout and "ops " in first.stdout
        expect(counts, f"{workload}: op and sample counts")
        check_result(run(script, workload, 1), bench["per_layer"], f"{workload} traced")

    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = run(bare / "perfbench" / "run.py", "extremal", 0, cwd=bare)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    expect(refused, "a copy without src/ exits nonzero and prints no result")
    shutil.rmtree(bare)

    failed = checks.count(False)
    print(f"{len(checks)} checks, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
