#!/usr/bin/env python3
"""The benchmark's own test. Run from the root of a checkout:

    python3 perfbench/test_run.py

Checks that (1) a seed-42 run passes its pinned output checks and reports
exactly the end-to-end metrics BENCHMARK.json names, (2) the traced run
passes and reports exactly its per-layer metrics, (3) a wrong pinned
digest makes the run fail with a non-zero exit, while the right digest
passes at a seed with no other pins, and (4) outside a full checkout the
command exits non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

CMD = ["python3", "perfbench/run.py", "--workload", "prefix_heavy", "--seconds", "1"]


def run(cmd, cwd="."):
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return p.returncode, result, p.stdout


def main():
    bench = json.load(open("BENCHMARK.json"))
    failures = []

    rc, result, _ = run(CMD)
    names = {m["name"] for m in bench["end_to_end"]}
    if rc != 0 or not result or not result["correct"] or result["failed"] != 0:
        failures.append(f"pinned seed-42 run should pass: rc={rc} result={result}")
    elif set(result["metrics"]) != names:
        failures.append(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(names)}")

    rc, result, _ = run(CMD + ["--trace", "1"])
    layers = {m["name"] for m in bench["per_layer"]}
    if rc != 0 or not result or not result["correct"]:
        failures.append(f"traced run should pass (traced digests equal untraced ones): rc={rc}")
    elif set(result["metrics"]) != layers:
        failures.append(f"traced metrics differ from BENCHMARK.json: {set(result['metrics']) ^ layers}")

    rc, result, _ = run(CMD + ["--expect-digest", "0" * 32])
    if rc == 0 or not result or result["correct"] or result["failed"] == 0:
        failures.append(f"a wrong pinned digest should fail the run: rc={rc} result={result}")

    _, _, out = run(CMD + ["--seed", "7"])
    digest = re.search(r" digest=([0-9a-f]{32})", out)
    rc, result, _ = run(CMD + ["--seed", "7", "--expect-digest", digest.group(1) if digest else "-"])
    if rc != 0 or not result or not result["correct"]:
        failures.append(f"the right digest at seed 7 should pass: rc={rc} result={result}")

    bare = os.path.join(".perfbench", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    shutil.copy("BENCHMARK.json", bare)
    try:
        rc, result, _ = run(["python3", "perfbench/run.py", "--workload", "paper_sweep", "--seconds", "1"], cwd=bare)
        if rc == 0 or result is not None:
            failures.append(f"outside a checkout the run should fail without a result: rc={rc}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(".perfbench")
        except OSError:
            pass

    for f in failures:
        print("FAIL:", f)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
