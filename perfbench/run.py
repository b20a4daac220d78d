#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is built with dune into
$CARGO_TARGET_DIR when that is set, else into _build. The workload runs
in a child process with every DCS_* variable removed from its
environment, so the library sees only the explicit settings the
benchmark passes. Its temporary journals live under .perfbench_tmp/ in
the current directory and are removed when it ends.

The child's stdout is relayed; its last line is the JSON result. The
exit status is 0 only if the build and the run both succeeded.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env=None):
    """Run [cmd] to completion, killing it if it outlives [timeout]."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{' '.join(cmd[:2])} timed out after {timeout} s")
    return proc.returncode, out


def build(target):
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("no dune-project and lib/ here: run from the repository root")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    code, out = run([dune, "build", "--root", ".", "--build-dir", build_dir,
                     "--profile", "release", f"./{HERE}/{target}"], BUILD_TIMEOUT_S)
    if code != 0:
        sys.stderr.write(out)
        fail(f"building {target} failed")
    return os.path.join(build_dir, "default", HERE, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        code, out = run([build("selftest.exe")], RUN_TIMEOUT_S)
        sys.stdout.write(out)
        sys.exit(code)
    if not args.workload:
        fail("--workload NAME is required")

    exe = build("main.exe")
    env = {k: v for k, v in os.environ.items() if not k.startswith("DCS_")}
    os.makedirs(".perfbench_tmp", exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run", dir=".perfbench_tmp")
    try:
        code, out = run([exe, "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--tmp", tmp], RUN_TIMEOUT_S, env=env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail(f"workload {args.workload} exited with status {code}")


if __name__ == "__main__":
    main()
