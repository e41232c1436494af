#!/usr/bin/env python3
"""The benchmark's own test: every workload at minimal length.

    python3 perfbench/selftest.py

For each workload it runs `run.py --size small` untraced and traced and
asserts that every metric BENCHMARK.json names is present with its unit,
that no unit failed (fail_frac = 0), that the replay self-checks are
clean, and that ledger.unattributed_frac is reported and within the
tolerance the benchmark states. Exits non-zero on the first failure.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--size", "small"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                            timeout=600)
    if result.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {result.returncode}\n"
                 f"{result.stdout}{result.stderr}")
    lines = result.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check(condition, message):
    if not condition:
        sys.exit(f"FAIL {message}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines, result = run(workload, trace)
            where = f"{workload} trace={trace}"
            metrics = result["metrics"]
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0,
                  f"{where}: fail_frac {result['failed']}/{result['attempted']}")
            check(result["attempted"] >= 1, f"{where}: nothing attempted")
            check(set(metrics) == {m["name"] for m in declared},
                  f"{where}: metric names differ from BENCHMARK.json")
            for m in declared:
                check(metrics[m["name"]]["unit"] == m["unit"],
                      f"{where}: {m['name']} unit {metrics[m['name']]['unit']}")
            if trace == 0:
                for name, metric in metrics.items():
                    check(metric["value"] > 0, f"{where}: {name} is not positive")
            else:
                check(metrics["ledger.replay_mismatches"]["value"] == 0,
                      f"{where}: replay mismatches")
                tolerance = [l for l in lines if "ledger tolerance" in l]
                check(len(tolerance) == 1, f"{where}: no stated tolerance")
                bound = float(re.search(r"<= ([0-9.]+)", tolerance[0]).group(1))
                unattributed = metrics["ledger.unattributed_frac"]["value"]
                check(unattributed <= bound,
                      f"{where}: unattributed_frac {unattributed} > {bound}")
            print(f"ok {where}: {result['attempted']} units", flush=True)
    print("perfbench self-test passed")


if __name__ == "__main__":
    main()
