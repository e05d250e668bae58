#!/usr/bin/env python3
"""The pqidxd benchmark: build, then run one workload with one seed.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0

Run from the root of a pqidx source tree. The first run configures and
builds the benchmark package (perfbench/CMakeLists.txt: the shipped
`pqidx` binary plus the load generator) into .bench_build/ in Release
mode; later runs only rebuild what changed. Every store, standby and
log lives in a private directory under .bench_build/work/ that is removed
when the run ends; traced runs leave their spans in
.bench_build/work/traces/.

The last line of stdout is the JSON result ({"correct", "attempted",
"failed", "metrics"}); --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones. The exit code is nonzero when the build fails, the
run fails, or a served answer diverged from the mirror.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds both binaries; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target",
               "pqidx_perfbench", "pqidx_cli"]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def revision():
    """The git commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only a repository rooted here names these sources.
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "tools", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha1:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no pqidx sources next to perfbench/ (expected src/CMakeLists.txt)")
        return 1
    if not build():
        log("build failed")
        return 1

    cmd = [os.path.join(BIN, "pqidx_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", BIN, "--work-dir", os.path.join(BUILD, "work"),
           "--revision", revision()]
    # Own process group, so a timeout takes the servers down too (they
    # also get SIGTERM when the load generator dies).
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        log(f"benchmark exited with {proc.returncode}")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        log("last line is not a JSON result")
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
