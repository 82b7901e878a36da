#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/main.exe with dune from the checkout this file sits in,
then runs it with the same arguments.  The program prints a fingerprint
line, with --trace 1 a trace summary line, and as its last line one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is the program's: 0 when every output check passed.  A failed build exits
non-zero without printing a result.

IW_* environment variables are removed for the child, so every run
measures the program's defaults.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, "_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = {k: v for k, v in os.environ.items() if not k.startswith("IW_")}
    try:
        build = subprocess.run(
            [
                "dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
                "--display", "quiet", "./perfbench/main.exe",
            ],
            cwd=ROOT,
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.exists(EXE):
        print("build failed", file=sys.stderr)
        return build.returncode or 1

    # One CPU for the measured process: the server runs with one domain,
    # so its threads run OCaml code one at a time anyway, and pinning
    # removes the cross-CPU thread wake-up jitter that otherwise dominates
    # the run-to-run spread on a small shared machine.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--commit", source_id(),
        "--work-dir", os.path.join(ROOT, ".bench_work"),
    ]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
