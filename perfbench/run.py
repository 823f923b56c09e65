#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary is built in release mode into
$CARGO_TARGET_DIR (default `.bench_build`) and run from the repository
root, so a traced run writes its files under `.bench_out`. The last line of
standard output is the result JSON; the lines before it are the run
envelope.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def arg(argv, flag):
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def tool_version(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=30)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    argv = sys.argv[1:]
    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    workload = arg(argv, "--workload")
    if workload not in config["workloads"]:
        print(f"run.py: unknown workload {workload!r}", file=sys.stderr)
        return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cap glibc's malloc arenas: otherwise peak RSS depends on how many of
    # the kernel's spare workers happened to allocate, not on the workload.
    # One arena would be steadier still, but costs pipe-bulk a tenth of its
    # throughput in lock contention.
    run_env = dict(os.environ, MALLOC_ARENA_MAX="2")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return build.returncode or 1

    cmd = [os.path.join(target, "release", "perfbench")] + argv
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, env=run_env)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        return run.returncode
    envelope = {
        "rustc": tool_version(["rustc", "-V"]),
        "git_sha": tool_version(["git", "-C", ROOT, "rev-parse", "HEAD"]),
        "mode": "release",
    }
    print(json.dumps({"host": envelope}))
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
