#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the benchmark executable
and the `macgame` CLI from source with dune, runs the workload, and passes
the benchmark's output through: the last line of stdout is the JSON result.
Workloads: serve_hot, serve_cold, spatial_10k, paper_repro (README.md).
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ["serve_hot", "serve_cold", "spatial_10k", "paper_repro"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORK_DIR = "_perfbench"
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
CLI_EXE = os.path.join("_build", "default", "bin", "macgame_cli.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha1()
    for top in ["lib", "bin", "perfbench", "dune-project"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def run_group(cmd, timeout):
    """Run cmd in its own process group; on timeout or exit, no process of
    the group survives."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    for needed in ["dune-project", "lib", "bin", os.path.join("perfbench", "dune")]:
        if not os.path.exists(needed):
            fail("run from the root of a checkout: %s is missing" % needed)

    # The build stays inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe",
             "./bin/macgame_cli.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode)

    os.makedirs(WORK_DIR, exist_ok=True)
    code, out = run_group(
        [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--cli", CLI_EXE, "--work", WORK_DIR,
         "--nproc", str(len(os.sched_getaffinity(0))),
         "--commit", source_revision()],
        RUN_TIMEOUT_S)
    sys.stdout.buffer.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
