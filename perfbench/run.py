#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig6 --seed 1 --seconds 30 --trace 0

The Go toolchain is the only requirement. Every file the build writes
(compiler cache, temporary files, the binary) goes under .bench_build/
at the repository root. The binary replaces this process, so the exit
code and the output are the benchmark's own.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    # The build's own messages go to stderr: stdout carries only the
    # benchmark's report.
    built = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
