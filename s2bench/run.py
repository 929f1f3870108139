#!/usr/bin/env python3
"""Builds the S2Server benchmark from this checkout and runs one workload.

Run from the root of a checkout:

    python3 s2bench/run.py --workload similarity|interactive|ingest \
        --seed N --seconds S --trace 0|1
    python3 s2bench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/s2bench (.bench_build/s2bench when the
variable is unset); traces and the ingest workload's WAL and checkpoints go
under .bench_out. Build output goes to standard error, so the last line on
standard output is the benchmark's result. --self-test runs the benchmark's
own test, which feeds every check a corrupted answer.
"""
import json
import os
import shutil
import subprocess
import sys


def build(source_dir, build_dir, target):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    command = ["cmake", "--build", build_dir, "-j", "4", "--target", target]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "s2bench")
    self_test = argv == ["--self-test"]
    target = "s2bench_checks_test" if self_test else "s2bench"
    if not build(source_dir, build_dir, target):
        print("s2bench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(build_dir, target)]
    if self_test:
        return subprocess.run(command).returncode
    proc = subprocess.run(command + argv + ["--revision", revision()],
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode == 0 and not matches_manifest(proc.stdout, argv):
        return 1
    return proc.returncode


def matches_manifest(stdout, argv):
    """The result line must name exactly BENCHMARK.json's metrics and units."""
    if not os.path.exists("BENCHMARK.json"):
        return True
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    listed = manifest["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    lines = stdout.strip().splitlines()
    got = json.loads(lines[-1])["metrics"] if lines else {}
    have = {name: m["unit"] for name, m in got.items()}
    if have != want:
        print("s2bench: metrics differ from BENCHMARK.json: " +
              str(sorted(set(have.items()) ^ set(want.items()))), file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
