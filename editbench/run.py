#!/usr/bin/env python3
"""Builds and runs the edit-loop benchmark.

    python3 editbench/run.py --workload corpus-edit|mega-edit|serve-mixed|all \
        --seed N --seconds S --trace 0|1

Builds the benchmark binary and the `yalla` CLI (whose `serve` daemon the
serve-mixed workload drives) in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the workload in a fresh process from
the repository root; `all` runs the three workloads one after another.
The last line of stdout is the JSON result; run records and span files go
to `.bench_out/`. Exits non-zero when the build fails, a run fails or any
output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
WORKLOADS = ("corpus-edit", "mega-edit", "serve-mixed")


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "yalla"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("editbench: build failed: " + " ".join(cmd))


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(binary, yalla, args, env):
    # Relative output dir: the serve daemon's Unix socket lives there, and
    # socket paths are limited to ~100 bytes however deep the checkout is.
    proc = subprocess.Popen([binary, *args, "--yalla", yalla, "--out", ".bench_out"],
                            cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("editbench: run timed out", file=sys.stderr)
        return 1


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target)
    binary = os.path.join(target, "release", "editbench")
    yalla = os.path.join(target, "release", "yalla")
    env = dict(os.environ, EDITBENCH_GIT_REV=git_rev())
    env.pop("YALLA_CACHE_DIR", None)
    env.pop("YALLA_WORKERS", None)
    args = sys.argv[1:]
    i = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[i:i + 1] == ["all"]:
        codes = [run(binary, yalla, args[:i] + [w] + args[i + 1:], env) for w in WORKLOADS]
        sys.exit(1 if any(codes) else 0)
    sys.exit(run(binary, yalla, args, env))


if __name__ == "__main__":
    main()
