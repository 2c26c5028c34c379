#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload dense-kernel --seed 0 --seconds 20 --trace 0

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the libraries it drives from ../src. The build tree goes to
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset. Every argument is passed to the benchmark binary, whose last
line of standard output is the JSON result; build output goes to
standard error. See perfbench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    if not (ROOT / "src" / "vm" / "Engine.h").is_file():
        log(f"no ADE source tree at {ROOT / 'src'}; nothing to build")
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    build_dir = target.resolve() / "perfbench"
    if not build(build_dir):
        return 2
    child = subprocess.Popen([str(build_dir / "perfbench"), *sys.argv[1:]])
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
