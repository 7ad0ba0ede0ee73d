#!/usr/bin/env python3
"""Builds and runs the benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first call configures and builds
perfbench/ (and the libraries under src/ it links) into .bench_build/; later
calls only rebuild what changed.  The benchmark binary's last stdout line is
the JSON result; build output goes to stderr so it never mixes with it.  The
exit code is the binary's, or nonzero when the build fails.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, target)


def main(argv):
    try:
        if argv == ["--selftest"]:
            return subprocess.run([build("perfbench_selftest")]).returncode
        binary = build("tprm_perfbench")
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 3
    scratch = os.path.join(BUILD, "run")
    os.makedirs(scratch, exist_ok=True)
    # Relative socket paths keep them short whatever the checkout's path.
    return subprocess.run(
        [binary, *argv, "--scratch", os.path.relpath(scratch, ROOT)]
    ).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
