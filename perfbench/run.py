#!/usr/bin/env python3
"""Builds and runs the KGpip end-to-end benchmark.

    python3 perfbench/run.py --workload predict --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The benchmark package (perfbench/CMakeLists.txt) compiles the library
sources under src/ in Release mode into the build directory, which is
$CARGO_TARGET_DIR when set and .bench_build otherwise, relative to the
repository root. The first run builds; later runs rebuild only what
changed. The benchmark binary's stdout passes through unchanged: its last
line is the result object. Result files (host/build stamp, metrics,
details; with --trace 1 also a Chrome trace and a MetricsRegistry
snapshot) land in <build dir>/results/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# The benchmark bounds its own run time; this only reaps a hung binary.
RUN_TIMEOUT_S = 175


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    configured = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return configured if configured.is_absolute() else ROOT / configured


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", target], check=True, stdout=sys.stderr)
    return out / target


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """sha256 over the program and benchmark sources: the build identity
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if path.suffix not in (".h", ".cc", ".txt", ".py"):
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_binary(command):
    process = subprocess.Popen(command, cwd=ROOT)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S}s; killed")
        process.kill()
        process.wait()
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["train", "fit_sweep", "predict",
                                 "serve_open"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper unit tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"KGpip sources not found under {ROOT / 'src'}")
        return 2
    try:
        if args.self_test:
            return run_binary([str(build("perfbench_util_test"))])
        binary = build("kgpip_perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2

    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", str(results),
               "--commit", git_commit(), "--source-digest", source_digest()]
    return run_binary(command)


if __name__ == "__main__":
    sys.exit(main())
