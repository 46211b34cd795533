#!/usr/bin/env python3
"""Smoke self-test of the perfbench harness.

Run from the repository root:

    python3 perfbench/test_smoke.py

Checks that BENCHMARK.json is exactly what the harness's metric
registry renders, then runs every workload briefly with --trace 0 and
--trace 1 and asserts that the last output line is a correct result
carrying every metric named in BENCHMARK.json with its unit, and that
the traced run writes its spans.  Exits nonzero on the first failure.
"""

import json
import os
import subprocess
import sys
import tempfile

RUN = [sys.executable, "perfbench/run.py"]


def last_json_line(out: str) -> dict:
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise AssertionError("no output")
    return json.loads(lines[-1])


def check_run(workload: str, trace: int, expected: dict) -> None:
    args = RUN + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    with tempfile.TemporaryDirectory() as tmp:
        spans = os.path.join(tmp, "spans.json")
        if trace:
            args += ["--spans", spans]
        proc = subprocess.run(args, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
        if trace:
            with open(spans) as f:
                if not json.load(f)["traceEvents"]:
                    raise AssertionError(f"{workload}: the traced run recorded no spans")
    res = last_json_line(proc.stdout)
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{workload} trace={trace}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace}: not a correct run: {res}")
    got = res["metrics"]
    if sorted(got) != sorted(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise AssertionError(f"{workload} trace={trace}: missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        m = got[name]
        if m.get("unit") != unit:
            raise AssertionError(f"{workload} trace={trace}: {name} unit {m.get('unit')} != {unit}")
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            raise AssertionError(f"{workload} trace={trace}: {name} value {m.get('value')!r}")
    print(f"ok  {workload:12s} trace={trace}  {len(got)} metrics")


def main() -> int:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    rendered = subprocess.run(
        RUN + ["--write-manifest", "-"], capture_output=True, text=True, timeout=900
    )
    if rendered.returncode != 0 or json.loads(rendered.stdout) != bench:
        print("FAIL BENCHMARK.json differs from the registry (regenerate with --write-manifest)")
        return 1
    print("ok  BENCHMARK.json matches the registry")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    try:
        for w in bench["workloads"]:
            check_run(w["name"], 0, e2e)
            check_run(w["name"], 1, layers)
    except AssertionError as e:
        print(f"FAIL {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
