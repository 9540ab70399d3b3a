#!/usr/bin/env python3
"""Build the benchmark from source and run it.

One workload (the form BENCHMARK.json's "command" takes):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the result object; the exit code is
non-zero when the build fails or a correctness check fails.

Every workload, each in a fresh process, untraced and then traced:

    python3 perfbench/run.py [--seed <n>] [--seconds <s>]

prints every end-to-end metric with its unit, the per-layer metrics, and
the tracing overhead (traced minus untraced end-to-end numbers), and exits
non-zero if any check failed.

Run from the repository root. Builds go to $CARGO_TARGET_DIR, by default
.bench_build/ at the root.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch_spouse_2k", "ingest_kb300", "mixed_kb6"]


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's own output goes to stderr so the result stays the last line
    # of standard output.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(done.returncode)
    return os.path.join(target, "release", "deepdive-perfbench")


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def arg(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def run_all(exe, env, args):
    seed = arg(args, "--seed", "1")
    seconds = arg(args, "--seconds", "30")
    ok = True
    rows = []
    for workload in WORKLOADS:
        results = {}
        for trace in ("0", "1"):
            cmd = [exe, "--workload", workload, "--seed", seed,
                   "--seconds", seconds, "--trace", trace]
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            report = next((json.loads(l[len("report: "):]) for l in lines
                           if l.startswith("report: ")), {})
            results[trace] = report.get("end_to_end", {})
            if done.returncode != 0:
                ok = False
        for name, m in results["0"].items():
            traced = results["1"].get(name, {}).get("value")
            rows.append((workload, name, m["value"], traced, m["unit"]))
    print()
    print("%-16s %-30s %14s %14s %10s  %s" % (
        "workload", "metric", "untraced", "traced", "overhead", "unit"))
    for workload, name, plain, traced, unit in rows:
        overhead = "" if traced is None or plain == 0 else "%+.1f%%" % (
            100.0 * (traced - plain) / plain)
        print("%-16s %-30s %14.4f %14s %10s  %s" % (
            workload, name, plain, "" if traced is None else "%.4f" % traced,
            overhead, unit))
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    exe = build()
    env = dict(os.environ, PERFBENCH_GIT_REV=git_rev())
    if "--workload" not in args:
        sys.exit(run_all(exe, env, args))
    sys.exit(subprocess.run([exe] + args, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
