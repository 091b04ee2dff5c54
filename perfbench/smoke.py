"""Smoke test of the benchmark itself, on reduced inputs (about a minute).

    python3 perfbench/smoke.py

From the root of a checkout.  Checks that

* a reduced run of every workload prints each end-to-end metric of
  BENCHMARK.json untraced, and each per-layer metric traced, by name
  with its unit, both in the text lines and in the final JSON line;
* the correctness gate fires (non-zero exit, ``"correct": false``, the
  gate's message) when a Table 2 row of ``ilm-fanout`` or a re-checked
  case of ``eval-small`` is corrupted;
* the runner refuses, without printing a result, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per workload, the gate message its ``--corrupt`` pass must trigger.
CORRUPTED_GATES = {
    "ilm-fanout": "link-mode ILM columns differ",
    "eval-small": "backup cost",
}


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_metrics(lines: list[str], expected: list[dict], label: str) -> list[str]:
    errors = []
    result = json.loads(lines[-1])
    got = result["metrics"]
    if set(got) != {m["name"] for m in expected}:
        errors.append(f"{label}: metric names {sorted(set(got) ^ {m['name'] for m in expected})} differ")
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        if got.get(name, {}).get("unit") != unit:
            errors.append(f"{label}: {name} not reported in {unit}")
        if not any(line.startswith(f"{name} ") and f" {unit} " in line for line in lines[:-1]):
            errors.append(f"{label}: no text line for {name} [{unit}]")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: run not correct: {lines[-1][:200]}")
    return errors


def main() -> int:
    errors: list[str] = []
    for workload in SPEC["workloads"]:
        name = workload["name"]
        for trace, expected in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            label = f"{name} trace={trace}"
            code, lines = run(["--workload", name, "--seed", "1", "--seconds", "1",
                               "--trace", trace, "--reduced"])
            if code != 0 or not lines:
                errors.append(f"{label}: exit {code}")
                continue
            errors += check_metrics(lines, expected, label)
            print(f"ok {label}")

    for name, message in CORRUPTED_GATES.items():
        code, lines = run(["--workload", name, "--seed", "1", "--seconds", "1",
                           "--trace", "0", "--reduced", "--corrupt"])
        verdict = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        caught = any(line.startswith("# FAILED:") and message in line for line in lines)
        if code == 0 or verdict.get("correct") is not False or not verdict.get("failed") or not caught:
            errors.append(f"{name}: corruption not caught by '{message}' (exit {code}, {verdict})")
        else:
            print(f"ok {name} corruption caught")

    bare = ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(["--workload", "ilm-fanout", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        errors.append(f"bare directory not refused (exit {code})")
    else:
        print("ok bare directory refused")

    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
