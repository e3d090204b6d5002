#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload classic --seed 1 --seconds 10 --trace 0

The Go build keeps its cache, module cache, temporary files and toolchain
state inside the build directory ($CARGO_TARGET_DIR, else .bench_build), so
the run writes nothing outside the checkout and reads nothing outside it
besides the Go installation. All arguments are passed to the benchmark
binary; its exit code is returned.
"""

import os
import subprocess
import sys
from pathlib import Path

# A run must end within 180 s; the build gets its own, longer budget
# because the first one in a fresh build directory compiles the standard
# library.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main() -> int:
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=str(build / "go-cache"),
        GOPATH=str(build / "go-path"),
        GOMODCACHE=str(build / "go-path" / "pkg" / "mod"),
        XDG_CONFIG_HOME=str(build / "config"),
        XDG_CACHE_HOME=str(build / "cache"),
        GOTMPDIR=str(tmp),
        TMPDIR=str(tmp),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = build / "perfbench"
    built = subprocess.run(
        ["go", "build", "-o", str(binary), "."],
        cwd=bench_dir, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    try:
        ran = subprocess.run([str(binary), *sys.argv[1:]], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
