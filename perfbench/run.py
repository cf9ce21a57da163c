#!/usr/bin/env python3
"""Runs one workload of the ISDC benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
library and the isdc_perfbench binary from source into .bench_build (or
$CARGO_TARGET_DIR when set); later calls rebuild only what changed. Build
output goes to standard error. The binary's report goes to standard output,
and its last line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics
of BENCHMARK.json, with --trace 1 its per_layer metrics; anything else is
an error. Exit status: the binary's (0 when every check passed), 2 when
the build fails, 3 when the report does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# What a run may take beyond --seconds: the pass that overruns it, a traced
# twin, extra set-ups, sign-off and replays. The slowest traced run at
# --seconds 10 (scale_partitioned) takes about 56 s on 4 cores.
RUN_MARGIN_S = 160


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds isdc_perfbench; returns its path."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "isdc_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "isdc_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def check_report(report, trace):
    """Returns a list of the ways `report` breaks the output contract."""
    problems = []
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys are %s" % sorted(report))
        return problems
    if not isinstance(report["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(report[key], int) or report[key] < 0:
            problems.append("%s is not a whole number" % key)
    if isinstance(report["attempted"], int) and report["attempted"] < 1:
        problems.append("attempted is below 1")
    expected = expected_metrics(trace)
    got = report["metrics"]
    for name in sorted(set(expected) - set(got)):
        problems.append("metric %s is missing" % name)
    for name in sorted(set(got) - set(expected)):
        problems.append("metric %s is not in BENCHMARK.json" % name)
    for name in sorted(set(expected) & set(got)):
        if got[name].get("unit") != expected[name]:
            problems.append("metric %s has unit %s, not %s"
                            % (name, got[name].get("unit"), expected[name]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    timeout_s = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print("perfbench: isdc_perfbench ran over %d s" % timeout_s,
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        print("perfbench: isdc_perfbench exited %d without a report"
              % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    problems = check_report(report, args.trace)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for p in problems:
            print("perfbench: %s" % p, file=sys.stderr)
        return 3
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(report))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
