#!/usr/bin/env python3
"""Builds the release `repro` binary and the benchmark, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload warm-repeat --seed 1 --seconds 15 --trace 0

Cargo output goes to stderr; the benchmark's record line and, last, its result
line go to stdout. The build directory is `$CARGO_TARGET_DIR`, `.bench_build`
by default.
"""

import hashlib
import os
import subprocess
import sys


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, env):
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        stdout=sys.stderr,
        env=env,
    )
    if result.returncode != 0:
        fail("build failed")


def source_digest():
    """A digest of the Rust sources and manifests: the checkout carries no git
    history, so this identifies the code under test when no commit is known."""
    digest = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "src", "perfbench"]
    paths = []
    for root in roots:
        if os.path.isfile(root):
            paths.append(root)
        for base, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths.extend(
                os.path.join(base, f)
                for f in files
                if f.endswith((".rs", ".toml", ".lock", ".py"))
            )
    for path in sorted(paths):
        digest.update(path.encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return source_digest()


def main():
    if not (
        os.path.isfile("Cargo.toml")
        and os.path.isdir("crates/server")
        and os.path.isfile("perfbench/Cargo.toml")
    ):
        fail("run from the repository root (Cargo.toml, crates/ and perfbench/)")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    env["CARGO_TARGET_DIR"] = target
    cargo_build(["--manifest-path", "Cargo.toml", "-p", "bench", "--bin", "repro"], env)
    cargo_build(["--manifest-path", "perfbench/Cargo.toml"], env)
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    command = [
        os.path.join(target, "release", "perfbench"),
        "--repro",
        os.path.join(target, "release", "repro"),
        "--spans-dir",
        os.path.join(target, "perfbench-spans"),
        "--commit",
        commit_id(),
        "--rustc",
        rustc.stdout.strip() or "unknown",
    ] + sys.argv[1:]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
