#!/usr/bin/env python3
"""Scenario workload benchmark for the dcluster simulator.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, path
dependencies on the repository's crates) with `cargo build --release
--offline` into `$CARGO_TARGET_DIR` (default `.bench_build`), then
replaces itself with the benchmark binary. The arguments pass through
unchanged; the binary also gets a scratch directory under the target
directory and an environment without `DCLUSTER_*` overrides, so every run
measures the default path users get, and a fixed address-space layout.
The binary prints the metrics by name and ends with one JSON line (see
perfbench/README.md).
"""

import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ADDR_NO_RANDOMIZE = 0x0040000


def fix_layout():
    """Turns off address-space randomization for this process and what it
    execs. With it on, the peak resident set of one workload at one seed
    moves by about 80 KiB (2 %) from run to run, 8 KiB without. Where
    personality(2) is refused the run goes on with a random layout."""
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("DCLUSTER_")}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    status = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr).returncode
    if status != 0:
        sys.exit(f"perfbench: build failed (exit {status})")
    binary = os.path.join(target, "release", "perfbench")
    tmp = os.path.join(target, "perfbench-tmp", str(os.getpid()))
    os.chdir(ROOT)
    fix_layout()
    os.execve(binary, [binary, *sys.argv[1:], "--tmp", tmp], env)


if __name__ == "__main__":
    main()
