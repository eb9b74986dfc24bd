#!/usr/bin/env python3
"""Build the release `autocheck` CLI and the benchmark harness, then run it.

    python3 clibench/run.py --workload cg-text --seed 1 --seconds 30 --trace 0

Run from the repository root. Both builds go to `$CARGO_TARGET_DIR`
(default `target`); generated traces, results and span files go to
`.clibench/`. All arguments are passed on to the harness (see NOTES.md).
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        sys.stderr.write("clibench: run from the repository root (crates/core is missing)\n")
        return 2
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", "target"))
    # One target directory for both builds: without it the harness, a
    # workspace of its own, would build into clibench/target.
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "autocheck-core", "--bin", "autocheck"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "clibench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
            sys.stderr.write("clibench: build failed: %s\n" % " ".join(cmd))
            return 2
    release = os.path.join(target, "release")
    harness = os.path.join(release, "clibench")
    argv = [harness, "--autocheck", os.path.join(release, "autocheck"), "--work", ".clibench"]
    os.execv(harness, argv + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
