"""Fast smoke test of the benchmark itself (about half a minute).

    python3 bench/smoke_test.py

Runs every workload at a tiny size, untraced and traced, and checks that
the printed metric names and units are exactly those in BENCHMARK.json and
that no operation fails.  Then flips the label of one case and checks that
the run counts it as failed in every round instead of crashing.  Exits 0
when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("float-generic", "float-structured", "exact-rational", "brute-words")
TINY_LIST_LENGTH = {"float-structured": 2}


def run(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(ok, message):
    if not ok:
        raise AssertionError(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "workload names differ from BENCHMARK.json")
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, trace)
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{workload}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want[trace],
                  f"{workload} trace={trace}: metrics {got}, want {want[trace]}")
            check(all(isinstance(v["value"], float | int)
                      for v in result["metrics"].values()),
                  f"{workload}: a metric value is not a number")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{workload} trace={trace}: {result}")
            print(f"ok {workload} trace={trace} attempted={result['attempted']}")

    length = TINY_LIST_LENGTH["float-structured"]
    result = run("float-structured", 0, "--mislabel", "0")
    check(result["correct"], f"mislabel: correct must stay true: {result}")
    check(result["failed"] * length == result["attempted"],
          f"mislabel: want one failure per round of {length}: {result}")
    print(f"ok mislabelled case counted as failed: {result['failed']} of "
          f"{result['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
