#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload internet_5k --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py                     # every workload, one after another

Builds perfbench/main.exe and the rfd-simd daemon from source with dune,
runs one workload per process (so peak RSS belongs to that workload), and
passes the workload's report through. The last line of standard output is
one JSON object: correct, attempted, failed, metrics. The metric names and
units are those BENCHMARK.json lists, checked here. The exit code is 0 only
when every output check passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["paper_sweep", "internet_5k", "prefix_heavy", "serve_mix"]
RUN_TIMEOUT = 170  # seconds per workload process


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_fingerprint():
    """Commit id when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.md5()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "source-md5:" + h.hexdigest()


def host_line():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True,
                               text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        ocaml = "unknown"
    return json.dumps({"nproc": os.cpu_count(), "cpu": cpu, "ocaml": ocaml,
                       "commit": source_fingerprint()})


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        fail("run me from the root of an rfd checkout (dune-project, lib/ and bin/ are missing)")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    cmd = ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/rfd_simd.exe"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed", 1)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def catalogue(trace):
    """Metric name -> unit, from BENCHMARK.json: the end-to-end list, or
    the per-layer list for a traced run."""
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def conform(result, units, trace):
    """Check a workload's metrics against the catalogue and put them in its
    order. A layer the workload does not run reads 0; every end-to-end
    metric must be there. Returns the result and its problem lines."""
    got, problems = result["metrics"], []
    for name, m in got.items():
        if name not in units:
            problems.append(f"metric {name} is not in BENCHMARK.json")
        elif m.get("unit") != units[name]:
            problems.append(f"metric {name} has unit {m.get('unit')}, BENCHMARK.json says {units[name]}")
    metrics = {}
    for name, unit in units.items():
        if name in got:
            metrics[name] = got[name]
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            problems.append(f"end-to-end metric {name} is missing")
    result = dict(result, metrics=metrics)
    if problems:
        result.update(correct=False, failed=max(1, result["failed"]))
    return result, problems


def run_workload(name, args, scratch):
    """Run one workload process in its own process group; returns (exit code, result)."""
    os.makedirs(scratch, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("OCAML_RUNTIME_EVENTS")}
    # The traced run starts this process's own event ring here.
    env["OCAML_RUNTIME_EVENTS_DIR"] = scratch
    cmd = ["./_build/default/perfbench/main.exe", "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--simd", "./_build/default/bin/rfd_simd.exe", "--scratch", scratch]
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        stdout = ""
        print(f"perfbench: {name} exceeded {RUN_TIMEOUT}s", file=sys.stderr)
    finally:
        # Whatever the outcome, nothing this run started outlives it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    result = last_json(stdout)
    body = stdout.splitlines()
    sys.stdout.write("\n".join(body[:-1] if result else body) + "\n")
    if result is None:
        print(f"perfbench: {name} printed no result line", file=sys.stderr)
        return 1, None
    result, problems = conform(result, catalogue(args.trace), args.trace)
    for p in problems:
        print("FAILED CHECK: " + p)
    return proc.returncode or (1 if problems else 0), result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42, help="workload seed; outputs are pinned at 42")
    ap.add_argument("--seconds", type=float, default=20, help="measurement window per workload")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1],
                    help="0: end-to-end metrics; 1: traced run, per-layer metrics")
    ap.add_argument("--expect-digest", default=None,
                    help="check the workload's output digest against this value instead of the seed-42 pin")
    args = ap.parse_args()

    build()
    print("host " + host_line(), flush=True)
    scratch_root = ".perfbench"
    scratch = os.path.join(scratch_root, str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results, code = {}, 0
    try:
        for name in names:
            rc, result = run_workload(name, args, os.path.join(scratch, name))
            code = code or rc
            if result is None:
                sys.exit(code or 1)
            results[name] = result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name in names:
            print(name + " " + json.dumps(results[name]))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    sys.exit(code if final["correct"] else (code or 1))


if __name__ == "__main__":
    main()
