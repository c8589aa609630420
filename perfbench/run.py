#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sweep16_corpus --seed 1 --seconds 30 --trace 0

Builds `sweepd` (root workspace) and the `perfbench` package (its own workspace under
`perfbench/`) in release mode into `$CARGO_TARGET_DIR` (default `.bench_build`), then
runs `perfbench run`. Build output goes to stderr; the last stdout line is the JSON
result. Exits non-zero, printing no result, when the build or any check fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def cargo_build(args, cwd):
    proc = subprocess.run(
        ["cargo", "build", "--release", "--quiet", *args],
        cwd=cwd,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed")


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("run from the root of the repository (no Cargo.toml here)")
    target = os.environ.setdefault(
        "CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")
    )
    if not os.path.isabs(target):
        target = os.environ["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    cargo_build(["-p", "sweep-serve", "--bin", "sweepd"], ROOT)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], ROOT)

    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    proc = subprocess.run(
        [exe, "run", *sys.argv[1:], "--sweepd", os.path.join(target, "release", "sweepd"),
         "--work", work],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout if proc.returncode == 0 else "")
        fail(f"perfbench exited with {proc.returncode}")

    # The result must name exactly the metrics BENCHMARK.json declares for this mode.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    result = json.loads(lines[-1])
    traced = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1] != "0"
    declared = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    if set(result["metrics"]) != declared:
        fail(f"metrics {sorted(set(result['metrics']) ^ declared)} do not match BENCHMARK.json")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
