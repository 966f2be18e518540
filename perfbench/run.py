#!/usr/bin/env python3
"""Build and run the seeded compiler/daemon benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compile-branchy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The benchmark itself is an OCaml executable (perfbench/_src).  The
repository's libraries are private to its dune project, so this script
stages a build tree under .bench_build/perfbench/ws: the project's
dune-project and lib/ plus the benchmark sources, then builds it there
with dune and runs it.  Only files whose bytes changed are rewritten, so
a rebuild after the first run is incremental.  The executable prints
every metric as text and ends its output with one JSON line; this
script forwards its output and exit code unchanged.

Workload defaults are the ones a user gets: every TRIPS_* escape hatch
is removed from the child's environment.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(".bench_build", "perfbench")
WS = os.path.join(OUT, "ws")
WORKLOADS = ("compile-branchy", "compile-loopy", "serve-mixed")


def sync_tree(src, dst):
    """Mirror src into dst, rewriting only files whose bytes differ."""
    wanted = set()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = [d for d in dirnames if not d.startswith((".", "_build"))]
        rel = os.path.relpath(dirpath, src)
        os.makedirs(os.path.join(dst, rel), exist_ok=True)
        for name in filenames:
            s = os.path.join(dirpath, name)
            d = os.path.normpath(os.path.join(dst, rel, name))
            wanted.add(d)
            with open(s, "rb") as f:
                data = f.read()
            try:
                with open(d, "rb") as f:
                    if f.read() == data:
                        continue
            except FileNotFoundError:
                pass
            with open(d, "wb") as f:
                f.write(data)
    for dirpath, _, filenames in os.walk(dst):
        for name in filenames:
            p = os.path.normpath(os.path.join(dirpath, name))
            if p not in wanted:
                os.remove(p)


def stage():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found next to perfbench/; "
                     "run from the root of a full checkout")
    os.makedirs(WS, exist_ok=True)
    shutil.copyfile(os.path.join(ROOT, "dune-project"),
                    os.path.join(WS, "dune-project"))
    sync_tree(os.path.join(ROOT, "lib"), os.path.join(WS, "lib"))
    sync_tree(os.path.join(HERE, "_src"), os.path.join(WS, "perfbench"))


def build(targets):
    stage()
    cmd = ["dune", "build", "--root", WS] + targets
    r = subprocess.run(cmd, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(f"perfbench: build failed ({' '.join(cmd)})")


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("TRIPS_")}


def run_child(cmd, cwd=None):
    # the child owns every process and domain it starts and joins them
    # before exiting; waiting here keeps no process alive behind us
    r = subprocess.run(cmd, env=clean_env(), cwd=cwd)
    return r.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own arithmetic and parser tests")
    a = ap.parse_args()
    if a.self_test:
        build(["perfbench/selftest.exe"])
        # alcotest writes its logs under the working directory
        return run_child([os.path.abspath(os.path.join(
            WS, "_build", "default", "perfbench", "selftest.exe"))], cwd=OUT)
    if a.workload is None:
        ap.error("--workload is required")
    build(["perfbench/main.exe"])
    exe = os.path.join(WS, "_build", "default", "perfbench", "main.exe")
    return run_child([exe, "--workload", a.workload, "--seed", str(a.seed),
                      "--seconds", str(a.seconds), "--trace", str(a.trace),
                      "--out", OUT])


if __name__ == "__main__":
    sys.exit(main())
