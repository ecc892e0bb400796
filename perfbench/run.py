#!/usr/bin/env python3
"""Benchmark entry point: builds the driver, runs one workload, prints
the result object as the last line of stdout.

    python3 perfbench/run.py --workload <campaigns|multihop|service|scale>
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root (or any checkout of it).  The first run
configures and builds the library and the driver (CMake, Release) under
.bench_build/perfbench, or under $CARGO_TARGET_DIR/perfbench when that is
set; later runs only re-check the build.  With --trace 0 it first runs
PROBES fresh processes that each do a cold set-up and one pass; setup_s
and peak_rss_mb report the medians over those.  See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaigns", "multihop", "service", "scale")
# Cold set-up + one pass processes per end-to-end run.
PROBES = 5
# Wall-clock budget for everything after the build.
DEADLINE_S = 170.0


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "perfbench"


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_driver(cmd, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    if not lines:
        fail("driver printed nothing")
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", code=2)
    out = build_dir()
    exe = build(out)
    deadline = time.monotonic() + DEADLINE_S

    base = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    probes = []
    if not args.trace:
        for _ in range(PROBES):
            probes.append(run_driver(base + ["--probe"], deadline)[1])

    cmd = base + ["--commit", commit(), "--source-digest", source_digest()]
    if args.trace:
        spans = out / f"spans-{args.workload}-{args.seed}.json"
        cmd += ["--spans-out", str(spans)]
    notes, result = run_driver(cmd, deadline)
    for line in notes:
        print(line)
    if not args.trace:
        for name in ("setup_s", "peak_rss_mb"):
            values = [probe[name] for probe in probes]
            result["metrics"][name]["value"] = statistics.median(values)
            print(f"# {name} probes " + json.dumps(values))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
