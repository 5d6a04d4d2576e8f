#!/usr/bin/env python3
"""Repository benchmark: simulator host time end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload overall_sweep --seed 1 --seconds 10 --trace 0

Builds the simulator and perfbench_measure from source (Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs it.
With --trace 0 the last stdout line carries every end-to-end metric of
BENCHMARK.json; with --trace 1 every per-layer metric, and the rows the
benchmark digested are compared byte for byte with the rows `vsched_run` emits
for the same cells and seed. Exits non-zero when the build fails or any
correctness, determinism or replay check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys

OUT_DIR = ".bench_out"
WORKLOADS = ("overall_sweep", "vcpu_latency", "fleet_dc")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("simulator sources (src/) not found; run from the repository root")
        return False
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30)
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def fnv1a_digest(data):
    """Top 53 bits of FNV-1a-64, as perfbench_measure reports model.digest."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h >> 11


def declared_metrics(trace):
    """(name -> unit) of the metrics BENCHMARK.json promises for this mode."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def cross_check_vsched_run(info, metrics):
    """Rows of the same cells and seed from vsched_run must equal the
    benchmark's rows (run indices re-keyed to batch order) and digest."""
    with open(info["rows"], "rb") as f:
        ours = f.read()
    rows = []
    for i, args in enumerate(info["vsched_run"]):
        path = os.path.join(OUT_DIR, f"vsched_run_{i}.jsonl")
        cmd = [os.path.join(build_dir(), "vsched_run")] + args + ["--out", path]
        res = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=170)
        if res.returncode != 0:
            log("vsched_run failed: " + " ".join(cmd))
            return False
        with open(path, "rb") as f:
            rows.extend(line for line in f.read().split(b"\n") if line)
        os.remove(path)
    theirs = b"".join(
        re.sub(rb'^\{"run":\d+,', b'{"run":%d,' % i, row) + b"\n" for i, row in enumerate(rows))
    digest = fnv1a_digest(theirs)
    ok = theirs == ours and digest == int(metrics["model.digest"]["value"])
    log(f"model.digest {digest} from {len(rows)} vsched_run rows: "
        + ("matches" if ok else "MISMATCH"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(build_dir(), "perfbench_measure"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--git-sha", git_sha()]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = [line for line in res.stdout.splitlines() if line.strip()]
    if not lines or not lines[-1].startswith("{"):
        log(f"perfbench_measure printed no result (exit {res.returncode})")
        return 1
    info = {}
    for line in lines[:-1]:
        print(line)
        m = re.match(r"# perfbench (\w+) (.*)$", line)
        if m:
            info[m.group(1)] = m.group(2)
    result = json.loads(lines[-1])

    declared = declared_metrics(args.trace == 1)
    if declared is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared:
            missing = sorted(set(declared) - set(got))
            extra = sorted(set(got) - set(declared))
            log(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
            return 1

    if args.trace == 1:
        info["vsched_run"] = json.loads(info["vsched_run"])
        result["attempted"] += 1
        if not cross_check_vsched_run(info, result["metrics"]):
            result["failed"] += 1
            result["correct"] = False

    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
