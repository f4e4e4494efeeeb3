#!/usr/bin/env python3
"""Build the powermed benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: traffic_hetero, fleet_faults, fleet_recorded, fleet_warmstart.

The benchmark is the Rust package beside this script. It is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build in the
current directory), offline, against the repository's crates. Build
output goes to stderr. After a successful build this script prints one
provenance line (CPU count and model, rustc version, source revision,
build profile) and hands over to the benchmark, whose last line of
standard output is the JSON result. The exit code is the benchmark's,
or 1 when the build fails. Nothing outside the current directory is
written, and BENCH_harness.json is never touched.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
PROFILE = "release"


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(PACKAGE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def source_revision(root):
    """The git commit when run inside a clone, else a digest of the
    sources the benchmark builds from (an exported tree has no git)."""
    if (root / ".git").exists():
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    parts = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "vendor", PACKAGE.name):
        parts += sorted(p for p in (root / top).rglob("*")
                        if p.is_file() and "target" not in p.parts)
    for path in parts:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    if not build():
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    root = PACKAGE.parent
    provenance = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "rustc": rustc_version(),
        "rev": source_revision(root),
        "profile": PROFILE,
    }
    print("provenance " + json.dumps(provenance), flush=True)
    exe = target_dir() / PROFILE / "powermed-perfbench"
    return subprocess.run([str(exe)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
