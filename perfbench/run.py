#!/usr/bin/env python3
"""End-to-end benchmark: a real dist::Server with its WAL on, three donors
and a heartbeat probe over loopback, in one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call builds perfbench/ (which compiles ../src) into .bench_build/.
Each run prints the host fingerprint, the load before and after, one line
per metric, and as its last line one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer breakdown with --trace 1. It exits non-zero when an answer differs
from the serial reference or the program cannot be built.

--self-test runs a tiny version of every workload in both trace modes and
checks that every metric named in BENCHMARK.json is printed, finite and has
its unit, and that the WAL-tail replay applied every recovered record.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_e2e"
WORKLOADS = ("dsearch_compute", "dprml_staged", "control_tiny_units")
RUN_TIMEOUT_S = 170


def build():
    """Configure and build incrementally; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench_e2e", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(args, echo=True):
    """Run the benchmark binary in its own process group; returns (code, lines)."""
    proc = subprocess.Popen([str(BINARY)] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        print("error: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    lines = out.splitlines()
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return code, lines


def result_of(lines):
    """The trailing JSON result line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        return None
    return result


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            before = len(failures)
            work = ROOT / ".bench_build" / ("selftest-%s-%d" % (workload, os.getpid()))
            try:
                code, lines = run_binary(["--workload", workload, "--seed", "7",
                                          "--seconds", "1", "--trace", str(trace),
                                          "--work-dir", str(work), "--tiny"], echo=False)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            where = "%s --trace %d" % (workload, trace)
            result = result_of(lines)
            if code != 0 or result is None or not result["correct"]:
                failures.append("%s: exit %d, correct %s" %
                                (where, code, result and result["correct"]))
            metrics = result["metrics"] if result else {}
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None:
                    failures.append("%s: metric %s missing" % (where, m["name"]))
                elif not isinstance(got.get("value"), (int, float)) or \
                        not math.isfinite(got["value"]):
                    failures.append("%s: metric %s not finite" % (where, m["name"]))
                elif got.get("unit") != m["unit"]:
                    failures.append("%s: metric %s unit %r, expected %r" %
                                    (where, m["name"], got.get("unit"), m["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                failures.append("%s: metrics not in BENCHMARK.json: %s" %
                                (where, sorted(extra)))
            if trace == 1:
                replay = [l for l in lines if l.startswith("wal replay:")]
                m = re.match(r"wal replay: (\d+) records .* (\d+) applied, (\d+) failed",
                             replay[0]) if replay else None
                if not m or int(m.group(1)) == 0 or m.group(1) != m.group(2) or \
                        m.group(3) != "0":
                    failures.append("%s: WAL replay did not apply every record: %r" %
                                    (where, replay))
            print("self-test %-40s %s" % (where, "ok" if len(failures) == before else "FAIL"),
                  flush=True)
    for f in failures:
        print("FAIL " + f)
    print("self-test %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("error: build failed: %s" % e, file=sys.stderr)
        return 1
    if args.self_test:
        return self_test()

    work = ROOT / ".bench_build" / ("work-%s-%d" % (args.workload, os.getpid()))
    extra = []
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        extra = ["--trace-out", str(traces / ("%s-seed%d.jsonl" % (args.workload, args.seed)))]
    try:
        code, lines = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace",
                                  str(args.trace), "--work-dir", str(work)] + extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code == 0 and result_of(lines) is None:
        print("error: no result line", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
