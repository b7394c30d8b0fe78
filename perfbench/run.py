#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds perfbench/ -- which
compiles the simulator libraries from src/ -- into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
whisper_bench with the same arguments. Build output goes to stderr; the
last line of stdout is the result JSON. See perfbench/README.md.

Exit codes: 2 for bad arguments, 1 when the build fails, the checkout has
no simulator sources, or an output check fails; otherwise whisper_bench's.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("matrix_cold", "sweep_deep", "serve_open")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seed >= 2**64:
        p.error("--seed must be in [0, 2^64)")
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be in [1, 600]")
    return args


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def sources_digest():
    """A digest of src/ and perfbench/, the files the benchmark builds."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def source_id():
    """The git commit, with the sources' digest when the tree has changes;
    the digest alone in a checkout without git."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            commit = head.stdout.strip()
            if status.stdout.strip():
                return commit + "-dirty-" + sources_digest()
            return commit
    return sources_digest()


def configured_for_this_checkout(out):
    """True when `out` holds a CMake cache made from this perfbench/."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            cache = f.read()
    except OSError:
        return False
    key = "CMAKE_HOME_DIRECTORY:INTERNAL="
    for line in cache.splitlines():
        if line.startswith(key):
            return (os.path.realpath(line[len(key):]) ==
                    os.path.realpath(os.path.join(ROOT, "perfbench")))
    return False


def build(out):
    if not configured_for_this_checkout(out):
        # A build tree from another checkout cannot be reused: start over.
        shutil.rmtree(out, ignore_errors=True)
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(["cmake", "--build", out, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources (src/) next to perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 1
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, "whisper_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
