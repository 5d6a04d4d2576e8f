#!/usr/bin/env python3
"""Perf gate: saved perfbench runs against the newest BENCH_core.json entry.

    python3 tools/perf_gate.py BENCH_core.json OUT...

Each OUT is the saved stdout of one `python3 perfbench/run.py` run; its
`# perfbench machine` line names the workload and whether the run was traced.
Exits 1, naming the workload and the metric, when

  - a run printed "correct": false, failed > 0, or no result line;
  - a workload's median of an end-to-end metric (over its --trace 0 runs) is
    worse than the newest entry's median by more than that metric's
    BENCHMARK.json bound, in the direction its `better` gives;
  - a workload or metric that the newest entry holds is missing.

Per-layer metrics (from the --trace 1 run) are recorded, not gated. The
comparison goes to stderr; stdout always carries the entry the inputs make,
ready to append to BENCH_core.json once its "pr" is filled in. See
docs/PERF.md, "The perf gate".
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MACHINE_PREFIX = "# perfbench machine "


def log(msg):
    print(f"perf_gate: {msg}", file=sys.stderr)


def read_run(path):
    """(machine block, result line) of one saved perfbench stdout; either is
    None when the run did not print it."""
    machine = result = None
    with open(path) as f:
        for line in f:
            if line.startswith(MACHINE_PREFIX):
                machine = json.loads(line[len(MACHINE_PREFIX):])
            elif line.startswith("{"):
                result = json.loads(line)
    return machine, result


def spread(values):
    """Median and quartiles, as perfbench/README.md computes its noise band."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def make_entry(runs, end_to_end, failures):
    """The BENCH_core.json entry of `runs` [(path, machine, result)]."""
    untraced = {}
    traced = {}
    for path, machine, result in runs:
        workload = machine["workload"]
        if machine["trace"]:
            if workload in traced:
                failures.append(f"{workload}: more than one --trace 1 run ({path})")
            traced[workload] = result["metrics"]
        else:
            untraced.setdefault(workload, []).append(result["metrics"])
    # The machine block's fields every run agrees on: nproc, compiler, build
    # type, git sha, thread cap and seed for a complete set.
    machines = [machine for _, machine, _ in runs]
    common = {k: v for k, v in (machines[0] if machines else {}).items()
              if all(m.get(k) == v for m in machines)}
    workloads = {}
    for workload in dict.fromkeys(m["workload"] for m in machines):
        record = {}
        if workload in untraced:
            passes = untraced[workload]
            record["runs"] = len(passes)
            record["end_to_end"] = {
                name: spread([p[name]["value"] for p in passes])
                for name in end_to_end if all(name in p for p in passes)}
        if workload in traced:
            record["per_layer"] = {name: m["value"] for name, m in traced[workload].items()}
        workloads[workload] = record
    return {"pr": None, "commit": common.get("git_sha"), "machine": common,
            "workloads": workloads}


def gate(newest, entry, end_to_end, failures):
    """Appends a failure for every gated metric outside its bound."""
    ref_name = f"PR {newest.get('pr')} ({newest.get('commit')})"
    for workload, held in newest["workloads"].items():
        ours = entry["workloads"].get(workload)
        if ours is None:
            failures.append(f"{workload}: no run of this workload (the entry holds it)")
            continue
        for name, ref in held.get("end_to_end", {}).items():
            got = ours.get("end_to_end", {}).get(name)
            if got is None:
                failures.append(f"{workload} {name}: missing (no --trace 0 run reports it)")
                continue
            spec = end_to_end[name]
            ref_median, median = ref["median"], got["median"]
            if spec["better"] == "lower":
                worse = median > ref_median * (1 + spec["bound"])
            else:
                worse = median < ref_median * (1 - spec["bound"])
            change = f"{100 * (median / ref_median - 1):+.1f}%" if ref_median else "n/a"
            line = (f"{workload} {name}: median {median:.4g} vs {ref_median:.4g} {spec['unit']}"
                    f" at {ref_name} ({change}; {spec['better']} is better,"
                    f" bound {100 * spec['bound']:.0f}%)")
            if worse:
                failures.append(line)
            else:
                log("ok   " + line)
        for name in held.get("per_layer", {}):
            if name not in ours.get("per_layer", {}):
                failures.append(f"{workload} {name}: missing (no --trace 1 run reports it)")


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        end_to_end = {m["name"]: m for m in json.load(f)["end_to_end"]}
    with open(argv[1]) as f:
        history = json.load(f)
    failures = []
    runs = []
    for path in argv[2:]:
        machine, result = read_run(path)
        if machine is None or result is None:
            failures.append(f"{path}: no '{MACHINE_PREFIX.strip()}' line or no result line")
            continue
        if not result["correct"] or result["failed"] > 0:
            failures.append(f"{machine['workload']}: {path} printed \"correct\": "
                            f"{json.dumps(result['correct'])}, failed {result['failed']}"
                            f" of {result['attempted']}")
        runs.append((path, machine, result))
    entry = make_entry(runs, end_to_end, failures)
    if history.get("schema") != 2 or not history.get("entries"):
        failures.append(f"{argv[1]}: not a schema-2 file with at least one entry")
    else:
        gate(history["entries"][-1], entry, end_to_end, failures)
    print(json.dumps(entry, indent=2))
    for failure in failures:
        log("FAIL " + failure)
    log(f"{len(failures)} failure(s)" if failures else "pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
