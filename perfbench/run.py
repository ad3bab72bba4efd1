#!/usr/bin/env python3
"""Build the annotator-wait benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload annotate --seed 1 --seconds 10 --trace 0

The Go toolchain builds perfbench/ (its own module, which replaces the
repository module with the checkout's sources) into .bench_build/, with the
build cache, temporary files and Go's own config kept there too, so the run
reads and writes only inside the checkout. Arguments pass through to the
benchmark; its last line of output is the JSON result.
"""

import os
import subprocess
import sys

BUILD = ".bench_build"


def main():
    root = os.getcwd()
    build = os.path.join(root, BUILD)
    for sub in ("tmp", "gocache", "gopath", "config"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
