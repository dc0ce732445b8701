#!/usr/bin/env python3
"""Build bufferkitd and the benchmark program from source, then run it.

Usage, from the repository root:

    python3 benchmark/run.py --workload paper-nets --seed 1 --seconds 20 --trace 0

Every argument is passed on to the benchmark program (see main.go). The Go
build cache, the binaries and the determinism records all live under
.bench_build/ in the repository root, so a run reads and writes nothing
outside the checkout. The program prints its result as the last line of
standard output; a failed build exits non-zero without a result.
"""

import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")

# A first build compiles the standard library into an empty cache; both
# builds share this budget, so build plus run stay within 900 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    server = os.path.join(BIN, "bufferkitd")
    bench = os.path.join(BIN, "benchmark")
    builds = [
        (ROOT, ["go", "build", "-o", server, "./cmd/bufferkitd"]),
        (HERE, ["go", "build", "-o", bench, "."]),
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cwd, cmd in builds:
        try:
            done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"benchmark: {' '.join(cmd)}: {err}", file=sys.stderr)
            return 2
        if done.returncode != 0:
            print(f"benchmark: {' '.join(cmd)} failed in {cwd}", file=sys.stderr)
            return 2
    cmd = [bench, *sys.argv[1:],
           "-server-bin", server,
           "-state-dir", os.path.join(BUILD, "state"),
           "-spec", os.path.join(ROOT, "BENCHMARK.json")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
