#!/usr/bin/env python3
"""Builds and runs the xmtfft benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload host3d_256 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout: the script finds the repository root as
the parent of its own directory, builds perfbench/CMakeLists.txt (which
builds the libraries under src/) into .bench_build/perfbench, and runs the
benchmark program. Build output goes to stderr; the program's stdout passes
through, its last line being the JSON result. With --trace 1 the spans are
written to .bench_build/perfbench-traces/.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
WORKLOADS = ("host3d_256", "host3d_256_pool", "host1d_mix", "sim_fft")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the build up to date (a no-op when it is)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found under %s" % os.path.join(ROOT, "src"))
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if run_child(cmd, sys.stderr)[0]:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """The git commit when the root is a git checkout, else a hash of the
    source files. (git is not asked outside a checkout: it would report
    whatever repository encloses the directory.)"""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_child(cmd, stdout):
    """Runs `cmd` to completion and returns (exit code, captured stdout or
    None). On SIGTERM the child is stopped and waited for before this script
    exits, so no process outlives it."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True)

    def stop(signum, _frame):
        proc.terminate()
        proc.wait()
        sys.exit(128 + signum)

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        out, _ = proc.communicate()
    finally:
        signal.signal(signal.SIGTERM, previous)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own unit checks")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 2
    if args.selftest:
        return run_child([os.path.join(BUILD, "perfbench_selftest")], None)[0]

    cmd = [os.path.join(BUILD, "xmtfft_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.json" % (args.workload, args.seed))]
    returncode, out = run_child(cmd, subprocess.PIPE)
    out = out.rstrip("\n")
    if returncode not in (0, 1) or not out:
        if out:
            print(out)
        log("xmtfft_perfbench exited with %d" % returncode)
        return 2
    lines = out.split("\n")
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    unknown = set(result["metrics"]) - declared
    if unknown:
        log("metrics missing from BENCHMARK.json: " + ", ".join(sorted(unknown)))
        return 2
    # Every workload must report every declared metric of its kind.
    missing = declared - set(result["metrics"])
    if missing:
        log("metrics not reported: " + ", ".join(sorted(missing)))
        return 2
    print(out, flush=True)
    return 0 if result["correct"] and returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
