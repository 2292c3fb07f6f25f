#!/usr/bin/env python3
"""Builds and runs the PIPES end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (which compiles ../src) in
the build directory, then runs the harness with the given arguments; the
harness prints the result as the last line of standard output. The build
directory is $CARGO_TARGET_DIR when set, else .bench_build, relative to the
checkout root. Build output goes to standard error.

--self-test runs every workload at a tiny size, untraced and traced, and
checks that each prints every metric BENCHMARK.json names as a finite
number, with no failed operation and a passing result check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] +
            generator, stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(["cmake", "--build", out, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        return None
    return os.path.join(out, "perfbench")


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            name = workload["name"]
            proc = subprocess.run(
                [binary, "--workload", name, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--tiny", "--trace-dir",
                 os.path.join(os.path.dirname(binary), "selftest-traces")],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            problems = []
            if proc.returncode != 0:
                problems.append("exit code %d: %s" %
                                (proc.returncode, proc.stderr.strip()))
            else:
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                report = json.loads(lines[-2])["report"]
                if not result["correct"] or result["failed"] != 0:
                    problems.append("failed operations: %s" %
                                    report["failures"])
                if report["error_ratio"] != 0:
                    problems.append("error_ratio %s" % report["error_ratio"])
                # The harness leaves an unmeasured metric out of the
                # result line and writes a non-finite value as null.
                for metric in spec[key]:
                    got = result["metrics"].get(metric["name"])
                    if got is None:
                        problems.append("missing " + metric["name"])
                    elif not isinstance(got["value"], (int, float)) or \
                            not math.isfinite(got["value"]):
                        problems.append("not finite: " + metric["name"])
                if set(result["metrics"]) != {m["name"] for m in spec[key]}:
                    problems.append("metric set differs from BENCHMARK.json")
                if "was not measured" in proc.stderr:
                    problems.append(proc.stderr.strip())
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("self-test %-16s trace=%s %s" % (name, trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return self_test(binary)
    traces = ["--trace-dir", os.path.join(build_dir(), "traces")]
    return subprocess.run([binary] + traces + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
