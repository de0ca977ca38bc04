#!/usr/bin/env python3
"""Build the benchmark harness and the obda binary from source, then run one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: paper-tables, serve-write (see
perfbench/WORKLOADS.md).  The build goes to .bench_build
(or $DUNE_BUILD_DIR), scratch files to .bench_work.  The harness prints its
metrics and, as its last line, the JSON result; this wrapper passes them
through and exits with the harness's code.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("paper-tables", "serve-write")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout, or when this wrapper
    is told to stop, kill the whole group (the harness and its server)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    except BaseException:
        kill_group()
        raise
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin/obda.ml", "perfbench/dune"):
        if not os.path.exists(need):
            fail("run from the repository root (missing %s)" % need)
    if shutil.which("dune") is None:
        fail("dune is not installed")

    build_dir = os.environ.get("DUNE_BUILD_DIR", ".bench_build")
    # no shared dune cache: the build writes nothing outside the checkout
    code, _ = run_group(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release",
         "./perfbench/perfbench.exe", "./bin/obda.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"))
    if code != 0:
        fail("build failed")

    work = ".bench_work"
    os.makedirs(work, exist_ok=True)
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    obda = os.path.join(build_dir, "default", "bin", "obda.exe")
    code, out = run_group(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--obda", obda, "--work", work],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
