#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the repository root. The first run builds the library and the
benchmark under .bench_build/ and then the fixture (a synthetic catalog, a
trained encoder, its fastText model and the snapshots), which takes several
minutes; the fixture is cached per hash of the code that shapes it, so a
build of different code never reuses it. The last line of stdout is one JSON
object with the run's metrics; lines starting with '#' explain them.

Workloads: annotate, interactive, catalog_writes, routed (see streams.cc).
BENCHMARK.json lists annotate and catalog_writes. interactive and routed
run the same way by hand; their latencies move with host steal by more than
the benchmark's bounds on a shared 4-core host, so they are not bounded.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
JOBS = "4"
RUN_TIMEOUT_S = 175
WORKLOADS = ("annotate", "interactive", "catalog_writes", "routed")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def check_call(cmd):
    """Runs a build step with its output on stderr."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"'{' '.join(cmd)}' exited {result.returncode}", 1)


def build(root):
    build_dir = os.path.join(BUILD_DIR, "cmake")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    source = os.path.join(root, "perfbench")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={source}\n" not in f.read():
                shutil.rmtree(build_dir)  # Configured for another checkout.
    if not os.path.exists(cache):
        check_call(["cmake", "-S", source, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"])
    check_call(["cmake", "--build", build_dir, "-j", JOBS])
    return build_dir


def fixture_key(root):
    """Hash of everything that shapes the fixture: the library and the
    fixture code."""
    digest = hashlib.sha256()
    files = ["CMakeLists.txt", "perfbench/fixture.h", "perfbench/fixture.cc",
             "perfbench/CMakeLists.txt"]
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            files.append(os.path.relpath(os.path.join(dirpath, name), root))
    for rel in sorted(files):
        digest.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            digest.update(f.read())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def ensure_fixture(root, binary):
    fixture = os.path.join(BUILD_DIR, "fixture-" + fixture_key(root))
    if os.path.exists(os.path.join(fixture, "READY")):
        return fixture
    for name in os.listdir(BUILD_DIR):
        if name.startswith("fixture-"):  # Stale or partial fixtures.
            shutil.rmtree(os.path.join(BUILD_DIR, name))
    partial = fixture + ".partial"
    print("perfbench: building the fixture (once per build)", file=sys.stderr)
    check_call([binary, "--build-fixture", partial])
    os.rename(partial, fixture)
    with open(os.path.join(fixture, "READY"), "w") as f:
        f.write("ok\n")
    return fixture


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the repository root")

    os.makedirs(BUILD_DIR, exist_ok=True)
    build_dir = build(root)
    if args.self_test:
        result = subprocess.run([os.path.join(build_dir, "perfbench_test")])
        sys.exit(result.returncode)

    binary = os.path.join(build_dir, "perfbench")
    fixture = ensure_fixture(root, binary)
    scratch = os.path.join(BUILD_DIR, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch)
    env = dict(os.environ, TMPDIR=os.path.abspath(scratch))
    cmd = [binary, "--fixture", fixture, "--scratch", scratch,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env)

    def stop_child(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    # A traced run's spans; the latest run of each workload is kept.
    traces = os.path.join(BUILD_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    for name in os.listdir(scratch):
        if name.startswith("spans-"):
            os.replace(os.path.join(scratch, name), os.path.join(traces, name))
    shutil.rmtree(scratch)
    sys.exit(code)


if __name__ == "__main__":
    main()
