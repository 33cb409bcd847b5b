#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload shift-closed --seed 1 --seconds 20 --trace 0

Builds perfbench/ (a Go module that imports the simulator's packages
from the checkout around it) into .bench_build/, then runs it with the
given arguments. Go's build cache, module cache, configuration and
temporary files all stay under .bench_build/. The last line of standard
output is the benchmark's JSON result. Exits non-zero, without a result,
when the build fails (as it does outside a full checkout).
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config"),
                     ("TMPDIR", "tmp")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOFLAGS="-mod=mod", GOPROXY="off", GOTOOLCHAIN="local",
               GOWORK="off", GOENV="off", CGO_ENABLED="0")
    return env


def main():
    if not os.path.isfile(os.path.join(BENCH, "go.mod")):
        sys.exit("run.py: run from the root of a checkout")
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH,
                           env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    run = subprocess.run([binary, "-tmpdir", os.path.join(BUILD, "tmp")] + sys.argv[1:],
                         cwd=ROOT, env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
