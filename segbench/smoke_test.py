#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload briefly in both modes and asserts that:
  * the run passes its correctness gate and exits 0;
  * the JSON line carries exactly the metrics BENCHMARK.json names for the
    mode, each with its unit, and every metric is also printed as a
    `metric` line (`failed_ratio` included);
  * a deliberately corrupted expected digest (--corrupt-digest) trips the
    correctness gate: exit code 1 and "correct": false.

Usage (from the repository root): python3 segbench/smoke_test.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("%s: no output\n%s" % (" ".join(cmd), done.stderr))
    return done.returncode, lines, json.loads(lines[-1])


def check_metrics(label, lines, result, expected):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, "%s: metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
        label, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
        sorted(n for n in set(got) & set(want) if got[n] != want[n]))
    printed = {l.split()[1]: l.split()[-1] for l in lines if l.startswith("metric ")}
    for name, unit in want.items():
        assert printed.get(name) == unit, "%s: metric line for %s missing or wrong unit" % (label, name)
    assert result["attempted"] >= 1, label + ": no ops attempted"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s --trace %d" % (workload, trace)
            try:
                code, lines, result = run(workload, trace)
                assert code == 0 and result["correct"], label + ": correctness gate failed:\n" + \
                    "\n".join(l for l in lines if l.startswith("correctness"))
                check_metrics(label, lines, result, expected)
                if trace == 0:
                    assert any(l.startswith("metric failed_ratio ") for l in lines), \
                        label + ": failed_ratio not printed"
                print("ok   " + label)
            except AssertionError as e:
                failures.append(str(e))
                print("FAIL " + label)
        label = workload + " --corrupt-digest"
        try:
            code, lines, result = run(workload, 0, "--corrupt-digest")
            assert code == 1 and result["correct"] is False, label + ": corrupted digest did not trip the gate"
            assert any(l.startswith("correctness: FAIL verify") for l in lines), \
                label + ": gate tripped for another reason"
            print("ok   " + label)
        except AssertionError as e:
            failures.append(str(e))
            print("FAIL " + label)
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
