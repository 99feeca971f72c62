#!/usr/bin/env python3
"""End-to-end benchmark of the GDELT serving stack (see e2ebench/README.md).

Run from the repository root:

    python3 e2ebench/run.py --workload analyst --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --smoke      # all workloads on `tiny`, seconds

Each run builds the servers and the native driver from source (CMake, in
.bench_build/), generates the dataset once per (preset, data seed, input
tools), then hands over to the driver, whose last stdout line is the result
JSON.
"""
import argparse
import datetime
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PRESET_END = {"tiny": datetime.date(2015, 3, 18), "medium": datetime.date(2020, 1, 1)}
PRESET_START = datetime.date(2015, 2, 18)
TOOLS = ["e2e_driver", "gdelt_serve_tool", "gdelt_router_tool",
         "gdelt_generate_tool", "gdelt_convert_tool"]
# Offset between the base dataset's seed and the seed of the archives the
# servers ingest, so ingested rows are never already in the base database.
LIVE_SEED_OFFSET = 1000
WORKLOADS = ["analyst", "dashboard"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, **kw):
    """Runs a build or input step, its output going to stderr."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, **kw)


def build(root, out):
    cmake_dir = os.path.join(out, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], cwd=root)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", cmake_dir, "-j", jobs, "--target"] + TOOLS, cwd=root)
    return os.path.join(cmake_dir, "repo_src", "tools"), cmake_dir


def ensure_raw(bin_dir, preset, seed, path):
    if os.path.exists(os.path.join(path, ".complete")):
        return
    shutil.rmtree(path, ignore_errors=True)
    run_quiet([os.path.join(bin_dir, "gdelt_generate"), "--preset", preset,
               "--seed", str(seed), "--out", path])
    open(os.path.join(path, ".complete"), "w").close()


def tools_digest(bin_dir):
    """Hash of the binaries that make the inputs: a change to the generator,
    the converter or the on-disk format they link gets fresh inputs."""
    h = hashlib.sha256()
    for tool in ("gdelt_generate", "gdelt_convert"):
        with open(os.path.join(bin_dir, tool), "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()[:16]


def ensure_inputs(bin_dir, out, preset, data_seed):
    """The base database and the archives to ingest, built once."""
    data = os.path.join(out, "data", tools_digest(bin_dir))
    db = os.path.join(data, f"{preset}-{data_seed}-db")
    if not os.path.exists(os.path.join(db, ".complete")):
        raw = os.path.join(data, f"{preset}-{data_seed}-raw")
        ensure_raw(bin_dir, preset, data_seed, raw)
        shutil.rmtree(db, ignore_errors=True)
        run_quiet([os.path.join(bin_dir, "gdelt_convert"), "--in", raw, "--out", db])
        open(os.path.join(db, ".complete"), "w").close()
        shutil.rmtree(raw)
    archives = os.path.join(data, f"{preset}-{data_seed + LIVE_SEED_OFFSET}-raw")
    ensure_raw(bin_dir, preset, data_seed + LIVE_SEED_OFFSET, archives)
    return db, archives


def stop_group(pgid):
    """Stops every process left in the driver's process group."""
    for sig, wait_s in ((signal.SIGTERM, 10), (signal.SIGKILL, 10)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + wait_s
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def run_driver(cmd, timeout_s):
    """Runs the driver in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        return 124, ""
    finally:
        stop_group(proc.pid)
    return proc.returncode, out


def git_sha(root):
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def bench_once(root, args, out_dir, bin_dir, db, archives, setups):
    work = os.path.join(out_dir, "run")
    os.makedirs(work, exist_ok=True)
    days = (PRESET_END[args.preset] - PRESET_START).days
    cmd = [os.path.join(out_dir, "cmake", "e2e_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin", bin_dir, "--db", db, "--archives", archives,
           "--work", work, "--days", str(days), "--setups", str(setups)]
    return run_driver(cmd, timeout_s=170)


def check_result(line, spec, trace):
    """Schema and correctness checks the smoke mode applies to a result."""
    result = json.loads(line)
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    want = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in want):
        missing = {m["name"] for m in want} - set(metrics)
        extra = set(metrics) - {m["name"] for m in want}
        problems.append(f"metric names: missing {sorted(missing)} extra {sorted(extra)}")
    for m in want:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: value {got.get('value')}")
    return problems


def smoke(root, args, out_dir, bin_dir):
    """Every workload, untraced and traced, on the tiny preset."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    args.preset = "tiny"
    db, archives = ensure_inputs(bin_dir, out_dir, "tiny", args.data_seed)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            args.workload, args.trace, args.seconds = workload, trace, 1
            t0 = time.monotonic()
            code, out = bench_once(root, args, out_dir, bin_dir, db, archives, setups=1)
            lines = out.strip().splitlines()
            problems = [f"exit code {code}"] if code != 0 or not lines else \
                check_result(lines[-1], spec, trace)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            log(f"smoke {workload} trace={trace}: {status} ({time.monotonic() - t0:.1f}s)")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1, help="request-sequence seed")
    p.add_argument("--seconds", type=float, default=10, help="measured window")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--preset", choices=sorted(PRESET_END), default="medium")
    p.add_argument("--data-seed", type=int, default=42, help="dataset seed")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload briefly on `tiny` and check the output")
    args = p.parse_args()
    if not args.smoke and args.workload is None:
        p.error("--workload is required")

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("e2ebench: run from the repository root (no src/CMakeLists.txt here)")
        return 2
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        bin_dir, _ = build(root, out_dir)
        if args.smoke:
            return smoke(root, args, out_dir, bin_dir)
        db, archives = ensure_inputs(bin_dir, out_dir, args.preset, args.data_seed)
    except subprocess.CalledProcessError as e:
        log(f"e2ebench: build or input step failed: {e}")
        return 1
    code, out = bench_once(root, args, out_dir, bin_dir, db, archives, setups=3)
    if code != 0:
        log(f"e2ebench: driver failed with exit code {code}")
        return 1
    print("provenance " + json.dumps({"git_sha": git_sha(root), "preset": args.preset,
                                      "data_seed": args.data_seed}))
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
