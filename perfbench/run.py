#!/usr/bin/env python3
"""Entry point of the service benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles ../src) into
.bench_build/, runs one workload, forwards its report, and prints as the last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end set. With --trace 1
they are its per_layer set, where a layer the workload leaves idle reads 0.
Spans of a traced run are kept in .bench_build/traces/<workload>-seed<N>.jsonl.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
# Printed for reference, not gated: the pooled median of whole-graph
# queries, which analytic_mean_ms replaces (see WORKLOADS.md).
INFO_METRICS = {"analytic_p50_ms"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(src_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", src_dir, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    r = subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out_dir = os.path.join(root, ".bench_build")
    binary = build(here, os.path.join(out_dir, "perfbench"))
    workdir = os.path.join(out_dir, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)

    result = None
    for line in stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    spans = os.path.join(workdir, "spans.jsonl")
    if os.path.exists(spans):
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.move(spans, os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed)))
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or result is None:
        fail("workload exited with code %d" % proc.returncode)

    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = set(result["metrics"]) - known - INFO_METRICS
    if unknown:
        fail("workload reported unknown metrics: " + ", ".join(sorted(unknown)))
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None and args.trace:
            got = {"value": 0, "unit": m["unit"]}  # a layer this workload idles
        if got is None:
            fail("workload did not report metric " + m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" % (
                m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
