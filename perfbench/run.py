#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Build output goes to $CARGO_TARGET_DIR
(default .bench_build).  The last line of standard output is the JSON
result; the exit code is the benchmark's own (0 = every reply verified).
"""

import hashlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path


def profile_overrides():
    """The root manifest's [profile.release] as --config flags, so the
    in-process layers are compiled exactly like the daemon."""
    with open("Cargo.toml", "rb") as manifest:
        profile = tomllib.load(manifest).get("profile", {}).get("release", {})
    flags = []
    for key, value in profile.items():
        if isinstance(value, bool):
            literal = "true" if value else "false"
        elif isinstance(value, (int, float)):
            literal = str(value)
        else:
            literal = '"%s"' % value
        flags += ["--config", "profile.release.%s=%s" % (key, literal)]
    return flags


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    if git.returncode == 0:
        return git.stdout.strip()
    digest = hashlib.sha256()
    for root in ("Cargo.toml", "Cargo.lock", "crates", "shims", "src"):
        paths = [Path(root)] if Path(root).is_file() else sorted(Path(root).rglob("*"))
        for path in paths:
            if path.is_file():
                digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        lambda: ["--manifest-path", "Cargo.toml", "-p", "experiments", "--bin", "iqft-experiments"],
        lambda: ["--manifest-path", "perfbench/Cargo.toml", *profile_overrides()],
    ]
    for build in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *build()]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    run = [
        str(target / "release" / "perfbench"),
        *sys.argv[1:],
        "--daemon", str(target / "release" / "iqft-experiments"),
        "--run-dir", str(target / "perfbench-run"),
        "--commit", source_id(),
        "--rustc", rustc or "unknown",
    ]
    sys.exit(subprocess.run(run).returncode)


if __name__ == "__main__":
    main()
