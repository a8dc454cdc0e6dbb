#!/usr/bin/env python3
"""Build and run the alfi benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <vgg16-coupled|vit-scale|yolo-detect> \
        --seed <n> --seconds <s> --trace <0|1>

The harness in perfbench/harness is a Cargo package of its own that
depends on the repository through a path dependency. It is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build). Campaign
outputs go to a scratch directory under .perfbench_work that is removed
afterwards. The last line printed is the result object: correct,
attempted, failed and metrics. The exit code is 0 only for a run whose
checks all passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vgg16-coupled", "vit-scale", "yolo-detect")
RUN_TIMEOUT_S = 170


def build(target_dir):
    manifest = os.path.join(HERE, "harness", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    binary = os.path.join(target_dir, "release", "alfi-perfbench")
    if not os.path.isfile(binary):
        sys.exit("perfbench: built binary not found at " + binary)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    binary = build(target_dir)

    work_dir = os.path.join(ROOT, ".perfbench_work", "%s-%d" % (args.workload, os.getpid()))
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", work_dir,
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
