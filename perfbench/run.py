#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs it.

    python3 perfbench/run.py --workload paper_matrix --seed 1 --seconds 20 --trace 0

The program is configured and built with CMake into $CARGO_TARGET_DIR, or
.bench_build at the checkout's root when that is unset; after the first
build a run only re-checks that the build is up to date. Build output goes
to standard error, so the program's result line stays the last line of
standard output. A traced run also writes its Chrome trace-event JSON to
<build dir>/traces/. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the program; returns its path."""
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", bdir, "-j", jobs]):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                       check=True)
    return os.path.join(bdir, "perfbench")


def bench_env():
    """The caller's environment, minus the knobs that change what is measured:
    one pass-manager thread and the default simulator dispatch."""
    env = dict(os.environ)
    env["VSC_THREADS"] = "1"
    env.pop("VSC_DISPATCH", None)
    env.pop("VSC_CHECK_ANALYSES", None)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper_matrix", "big_loops", "service_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=bench_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
