#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload named in BENCHMARK.json it runs perfbench/run.py on
smoke-size inputs for one second and checks that

- the last line is a result with exactly the keys correct, attempted,
  failed and metrics;
- `--trace 0` emits every end_to_end metric and `--trace 1` every
  per_layer metric, each with its unit, and nothing else;
- every pass of an untampered run is correct;
- a run whose reference was deliberately tampered with reports failed
  passes and `correct: false`.

Exits 0 when all of this holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def run(workload, trace, tamper=False):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "smoke"]
    if tamper:
        cmd.append("--tamper-reference")
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=600, check=False)
    lines = p.stdout.decode().strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, "exit code %d: %s" % (p.returncode, p.stderr.decode()[-2000:])
    return json.loads(lines[-1]), None


def check_metrics(result, wanted):
    errors = []
    got = result["metrics"]
    for name, unit in wanted.items():
        m = got.get(name)
        if m is None:
            errors.append("missing metric %s" % name)
        elif set(m) != {"value", "unit"} or m["unit"] != unit:
            errors.append("metric %s is %r, want unit %s" % (name, m, unit))
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append("metric %s has value %r" % (name, m["value"]))
    for name in set(got) - set(wanted):
        errors.append("unexpected metric %s" % name)
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace, wanted in ((0, e2e), (1, layers)):
            result, err = run(w, trace)
            if err:
                failures.append("%s --trace %d: %s" % (w, trace, err))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s --trace %d: result keys %s" % (w, trace, sorted(result)))
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append("%s --trace %d: %r" % (w, trace, {k: result[k] for k in
                                                                 ("correct", "attempted",
                                                                  "failed")}))
            failures += ["%s --trace %d: %s" % (w, trace, e) for e in check_metrics(result, wanted)]
        result, err = run(w, 0, tamper=True)
        if err:
            failures.append("%s tampered: %s" % (w, err))
        elif result["correct"] or result["failed"] < 1:
            failures.append("%s: a tampered reference was not reported as a failed pass (%r)"
                            % (w, {k: result[k] for k in ("correct", "attempted", "failed")}))
        print("%-16s checked" % w, flush=True)
    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("FAILED" if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
