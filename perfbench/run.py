#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload t1-sweep --seed 1 --seconds 10 --trace 0

Builds the perfbench Go program from source inside the checkout and runs
one workload. Everything the build and the run write stays under
.bench_build/ at the checkout root: the Go build cache, the binary, scratch
state, and one result file per run with its provenance. The last line of
standard output is the result: {"correct", "attempted", "failed",
"metrics"}. Exits non-zero, printing no result, when the build or the run
fails. See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def go_env():
    """Confine the Go toolchain's caches, temp files and config to BUILD."""
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    tmp = os.path.join(BUILD, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        PPROF_TMPDIR=tmp,
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    return env


def source_revision():
    """A content hash of the Go sources: the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-reference", action="store_true",
                   help="rewrite the workload's reference digests (run at the recorded seed)")
    args = p.parse_args()

    env = go_env()
    binary = os.path.join(BUILD, "bin", "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: build: {e}\n")
        return 2
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 2

    work = os.path.join(BUILD, "run", f"{args.workload}-{os.getpid()}")
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-work", work, "-results", os.path.join(BUILD, "results"),
           "-reference", os.path.join(HERE, "reference.json"),
           "-commit", source_revision()]
    if args.update_reference:
        cmd.append("-update-reference")
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: run: {e}\n")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = run.stdout.decode(errors="replace")
    if run.returncode != 0:
        sys.stderr.write(out)
        return run.returncode or 3
    lines = out.strip().splitlines()
    if args.update_reference:
        print(out, end="")
        return 0
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(f"unexpected keys {sorted(result)}")
    except (IndexError, ValueError) as e:
        sys.stderr.write(out)
        sys.stderr.write(f"perfbench: malformed result: {e}\n")
        return 3
    print(out, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
