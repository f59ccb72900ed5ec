#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds `perfbench/bench.exe`
and `bin/rustbrain_cli.exe` with dune (into $CARGO_TARGET_DIR, default
`.bench_build`, dune cache off), runs the workload, checks that the result
names exactly the metrics BENCHMARK.json declares, and prints the bench's
lines with the result object last. Scratch state goes to `.bench_work/`,
span traces of traced runs to `.bench_traces/`. Exits non-zero without a
result when the checkout, the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    cmd = [dune, "build", "--root", ROOT, "--build-dir", build_dir,
           "--cache=disabled", "--profile", "release",
           "./perfbench/bench.exe", "./bin/rustbrain_cli.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if done.returncode != 0:
        die("build failed")


def run_bench(args):
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("run timed out")
    finally:
        # nothing the run started may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    if proc.returncode != 0:
        die("bench exited with code %d" % proc.returncode)
    return out.splitlines()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("no BENCHMARK.json at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % a.workload)
    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s is missing: not a checkout of the repository" % need)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_abs = os.path.join(ROOT, build_dir)
    build(build_dir)

    work = ".bench_work"
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    # start from a quiet disk: no write-back left over from earlier runs
    os.sync()
    traces = os.path.join(ROOT, ".bench_traces")
    os.makedirs(traces, exist_ok=True)
    spans = os.path.join(traces, "%s-seed%d.jsonl" % (a.workload, a.seed))
    try:
        lines = run_bench([
            os.path.join(build_abs, "default", "perfbench", "bench.exe"),
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace),
            "--cli", os.path.join(build_abs, "default", "bin", "rustbrain_cli.exe"),
            "--work", work, "--spans-out", spans])
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)

    if not lines:
        die("bench printed nothing")
    result = json.loads(lines[-1])
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if a.trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        die("metrics %s differ from BENCHMARK.json %s"
            % (sorted(got.items()), sorted(want.items())))
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
