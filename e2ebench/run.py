#!/usr/bin/env python3
"""Builds the k-SIR libraries and the end-to-end benchmark, then runs it.

Usage (from the repository root):

    python3 e2ebench/run.py --workload tweet_ingest --seed 1 --seconds 12 \
        --trace 0

Every argument is passed through to the benchmark program (see README.md
beside this file). The build goes to $CARGO_TARGET_DIR when set, else
.bench_build, both relative to the repository root. Build output goes to
stderr; the program's last stdout line is the result JSON.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_timeout_s(args):
    """Allowance for one run: input generation, set-ups and checks take a
    fixed ~20 s; the timed phase is sized to --seconds on a quiet host and
    can stretch several-fold on a busy one."""
    try:
        seconds = float(option(args, "--seconds", "10"))
    except ValueError:
        seconds = 10.0
    return 50 + 10 * seconds


def build_dir():
    return os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "engine.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("e2ebench: the k-SIR sources (%s) are missing next to %s"
                     % (needed, HERE))
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "ksir_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "ksir_e2e")


def binary_digest(path):
    digest = hashlib.sha1()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def option(args, name, default=None):
    return args[args.index(name) + 1] if name in args[:-1] else default


def program_command(binary, args):
    """The program invocation: the caller's arguments plus a per-binary
    fingerprint directory and, for traced runs, a default trace file."""
    out = build_dir()
    fingerprints = os.path.join(out, "fingerprints", binary_digest(binary))
    os.makedirs(fingerprints, exist_ok=True)
    command = [binary] + args + ["--fingerprint-dir", fingerprints]
    if option(args, "--trace") == "1" and "--trace-out" not in args:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%s.json" % (option(args, "--workload", "unknown"),
                                       option(args, "--seed", "1")))]
    return command


def main():
    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        sys.exit("e2ebench: build failed (%s)" % err)
    timeout = run_timeout_s(sys.argv[1:])
    proc = subprocess.Popen(program_command(binary, sys.argv[1:]), cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("e2ebench: benchmark program exceeded %g s" % timeout)


if __name__ == "__main__":
    sys.exit(main())
