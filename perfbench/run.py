#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0

The program is built with the Go toolchain into .bench_build/ (or
$CARGO_TARGET_DIR when set) with the build cache, temporary files and the
go command's config kept there too, so the run reads and writes only
inside the checkout. Every other argument is
passed through; the program's output and exit code are its own. A build
failure exits with code 2 and prints no result.
"""

import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = os.path.join(build, "perfbench")
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        # The go command keeps its telemetry counters under the user
        # config directory; keep them in the build directory too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOTELEMETRY="off",
    )
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    args = [binary, "-out", out] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=root)

    def forward(signum, _frame):
        proc.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    return proc.wait()


if __name__ == "__main__":
    sys.exit(main())
