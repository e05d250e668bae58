#!/usr/bin/env python3
"""Determinism self-check of the pqidxd benchmark.

    python3 perfbench/test_determinism.py [--bin-dir .bench_build/bin]

At a small size (a fixed number of ops per connection instead of a time
limit), one seed must give the same op stream and the same exact counts
run to run, and in both untraced and traced mode. Two lines of each run
are compared:

  * "sent:" -- per connection stream, a digest of the ops the load
    generator actually sent (kind, target, query bag, tau/k, edit log
    size, sequence number), and the leader's own registry deltas:
    lookup/topk/apply_edits requests, reads, edits applied, rejections;
  * "replay:" -- the in-process replay's exact counts (pq-grams per
    delta, postings scanned, bytes per request, shards recompiled),
    which the untraced runs produce with --replay.

Every run must also pass its mirror checks.
Builds the benchmark first when --bin-dir is not given.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
OPS = 40
SEED = 7


def run(bin_dir, work_dir, workload, trace):
    cmd = [os.path.join(bin_dir, "pqidx_perfbench"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "5", "--trace", str(trace),
           "--ops", str(OPS), "--bin-dir", bin_dir, "--work-dir", work_dir]
    if not trace:
        cmd.append("--replay")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"FAIL: {workload} trace={trace} exited "
                         f"{out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"FAIL: {workload} trace={trace}: {lines[-1]}")
    compared = [line for line in lines
                if line.startswith(("sent: ", "replay: "))]
    if len(compared) != 2:
        raise SystemExit(f"FAIL: {workload} trace={trace}: no sent/replay "
                         "lines")
    return "\n  ".join(compared), result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin-dir")
    args = parser.parse_args()
    bin_dir = args.bin_dir
    if bin_dir is None:
        sys.path.insert(0, HERE)
        import run as bench_run  # noqa: E402 -- perfbench/run.py
        if not bench_run.build():
            raise SystemExit("FAIL: build")
        bin_dir = bench_run.BIN

    # Scratch space inside the build directory the binaries came from.
    with tempfile.TemporaryDirectory(dir=os.path.dirname(bin_dir)) as work_dir:
        for workload in ("write_small", "read_hot"):
            first, _ = run(bin_dir, work_dir, workload, 0)
            second, _ = run(bin_dir, work_dir, workload, 0)
            traced, result = run(bin_dir, work_dir, workload, 1)
            if not first == second == traced:
                raise SystemExit(
                    f"FAIL: {workload}: counts differ\n  untraced: {first}\n"
                    f"  untraced: {second}\n  traced:   {traced}")
            exact = {k: v["value"] for k, v in result["metrics"].items()
                     if k.startswith(("incremental.delta_", "wire.",
                                      "lookup_engine.postings"))
                     and not k.endswith("_p50")}
            print(f"ok {workload}: {first}")
            print(f"   exact counts (traced run): {json.dumps(exact)}")
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
