#!/usr/bin/env python3
"""Build and run the ifet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first form builds `perfbench/` (a cargo
package of its own that depends on the repository's crates by path),
generates the workload's inputs from the seed in one process, measures them
in a second process, and prints the result as the last line of standard
output. With `--trace 1` it prints the per-layer metrics instead of the
end-to-end ones and writes the span trace to `.bench_traces/`.

`--selftest` runs the benchmark's unit tests, then every workload at a tiny
size, traced and untraced, and checks that each metric named in
BENCHMARK.json is emitted with its unit and that every op passed its check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ["playback", "analyze", "track", "serve"]
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORK_ROOT = ".bench_work"
TRACE_ROOT = ".bench_traces"
# One invocation must end within 180 s; the first one may build for longer.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def cargo(args, timeout):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo"] + args + ["--release", "--offline", "--manifest-path", MANIFEST]
    return subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout).returncode


def build():
    if not os.path.exists(MANIFEST) or cargo(["build"], BUILD_LIMIT_S) != 0:
        return None
    exe = os.path.join(target_dir(), "release", "ifet-perfbench")
    return exe if os.path.exists(exe) else None


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_child(cmd, deadline):
    """Run one child to completion (killing it at the deadline); return its
    exit code and standard output."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
        try:
            out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            log(f"timed out: {' '.join(cmd)}")
            return 1, ""
        return p.returncode, out


def measure(exe, workload, seed, seconds, trace, quick=False):
    """Generate inputs and measure one workload; return the result object or
    None on failure."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen = [exe, "gen", "--workload", workload, "--seed", str(seed), "--dir", work]
        if quick:
            gen.append("--quick")
        code, _ = run_child(gen, deadline)
        if code != 0:
            return None
        run = [exe, "run", "--dir", work, "--seconds", str(seconds),
               "--trace", str(trace), "--git-rev", git_rev()]
        if trace:
            run += ["--trace-out", os.path.join(TRACE_ROOT, f"{workload}.jsonl")]
        code, out = run_child(run, deadline)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            return None
        return json.loads(lines[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def expect_metrics(result, specs, label):
    """Errors in `result` against the BENCHMARK.json metric list `specs`."""
    errors = []
    got = result.get("metrics", {})
    for m in specs:
        if m["name"] not in got:
            errors.append(f"{label}: {m['name']} missing")
        elif got[m["name"]].get("unit") != m["unit"]:
            errors.append(f"{label}: {m['name']} has unit {got[m['name']].get('unit')!r}")
    extra = set(got) - {m["name"] for m in specs}
    errors += [f"{label}: unexpected metric {n}" for n in sorted(extra)]
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{label}: checks failed ({result.get('failed')} of {result.get('attempted')})")
    if "ok_ratio" in got and got["ok_ratio"]["value"] != 1.0:
        errors.append(f"{label}: ok_ratio {got['ok_ratio']['value']}")
    return errors


def selftest():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if cargo(["test"], BUILD_LIMIT_S) != 0:
        log("unit tests failed")
        return 1
    exe = build()
    if exe is None:
        log("build failed")
        return 1
    errors = []
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            label = f"{w} --trace {trace}"
            result = measure(exe, w, 1, 1, trace, quick=True)
            if result is None:
                errors.append(f"{label}: no result")
                continue
            errors += expect_metrics(result, spec[key], label)
            log(f"{label}: {len(result['metrics'])} metrics, {result['attempted']} ops")
    for e in errors:
        log(e)
    log("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    exe = build()
    if exe is None:
        log("build failed")
        return 1
    log(f"host: nproc {os.cpu_count()}, git rev {git_rev()}")
    result = measure(exe, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        log(f"{args.workload} failed")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
