#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Builds the perfbench binary from the library sources (CMake, into
.bench_build/ at the repository root), runs one workload, checks the result
against manifest.json, and prints the result as the last line of standard
output:

    python3 perfbench/run.py --workload ca_densenet --seed 3 --seconds 10 --trace 0

--trace 0 reports every end-to-end metric, --trace 1 every per-layer metric.
Extra arguments (--tiny, --nvram-mib N) are passed to the
binary; the self-tests use them.

    python3 perfbench/run.py --write-benchmark-json

regenerates BENCHMARK.json at the repository root from manifest.json.  The
manifest's "ungated_workloads" run the same way but stay out of
BENCHMARK.json (each says why), and so do the "ungated_per_layer" metrics,
which only those workloads report.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
MANIFEST = os.path.join(HERE, "manifest.json")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def load_manifest():
    with open(MANIFEST) as f:
        return json.load(f)


def metric_specs(manifest, key, workload):
    """The metrics a `key` ("end_to_end" or "per_layer") run of `workload`
    reports."""
    specs = list(manifest[key])
    ungated = {w["name"] for w in manifest["ungated_workloads"]}
    if key == "per_layer" and workload in ungated:
        specs += manifest["ungated_per_layer"]
    return specs


def benchmark_json(manifest):
    """The BENCHMARK.json view of the manifest: the contract keys only."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": manifest["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in manifest["workloads"]],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in manifest["end_to_end"]],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in manifest["per_layer"]],
    }


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally.  Build output goes to
    stderr so the result stays the last line of stdout."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        log("configuring " + os.path.relpath(BUILD, ROOT))
        rc = subprocess.call(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return False
    rc = subprocess.call(["cmake", "--build", BUILD, "--target", "perfbench",
                          "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    return rc == 0 and os.path.exists(BINARY)


def commit():
    """The checked-out commit, or "unknown" outside a git work tree.  The
    ceiling keeps git from reporting an enclosing repository's commit."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(args, extra, manifest):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd + extra, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench exited with code %d" % proc.returncode)
        return 1
    print("meta: commit %s" % commit())
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    key = "per_layer" if args.trace else "end_to_end"
    specs = {m["name"]: m for m in metric_specs(manifest, key, args.workload)}
    got = set(raw["metrics"])
    if got != set(specs):
        log("metric set differs from manifest.json %s: missing %s, extra %s"
            % (key, sorted(set(specs) - got), sorted(got - set(specs))))
        return 1
    bad = [n for n in got if not NAME_RE.match(n)]
    if bad:
        log("invalid metric names: %s" % bad)
        return 1

    attempted = int(raw["attempted"])
    result = {
        "correct": bool(raw["correct"]),
        "attempted": attempted,
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": raw["metrics"][name], "unit": m["unit"]}
                    for name, m in specs.items()},
    }
    if attempted < 1:
        log("no iteration was attempted")
        return 1
    print(json.dumps(result), flush=True)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-benchmark-json", action="store_true")
    args, extra = p.parse_known_args()
    manifest = load_manifest()

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(manifest), f, indent=2)
            f.write("\n")
        return 0

    names = [w["name"] for w in
             manifest["workloads"] + manifest["ungated_workloads"]]
    if args.workload not in names:
        log("--workload must be one of %s" % ", ".join(names))
        return 2
    if args.seconds is None:
        args.seconds = manifest["run_seconds"]
    if not build():
        log("build failed")
        return 1
    return run(args, extra, manifest)


if __name__ == "__main__":
    sys.exit(main())
