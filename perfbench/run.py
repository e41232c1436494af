#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a dynvote checkout. The harness is configured and
built under .bench_build/perfbench (the first run compiles the dynvote
libraries, later runs only re-check them), then started with the same
arguments plus an environment stamp; its output, whose last line is the
JSON result, passes through unchanged. A failed build exits non-zero
without printing a result. Extra flags (--size small, --print-digests)
are forwarded to the harness.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def commit_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the harness is built from."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        if not (BUILD / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode:
                shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"configure failed, see {log_path}")
        if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=log, stderr=log).returncode:
            fail(f"build failed, see {log_path}")
    return BUILD / "perfbench"


def main():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no dynvote sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    binary = build()
    command = [str(binary), *sys.argv[1:], "--commit", commit_id(),
               "--out-dir", str(BUILD / "results")]
    sys.stdout.flush()
    result = subprocess.run(command, cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
