#!/usr/bin/env python3
"""Builds and runs the hwgc benchmark (gcbench/hwgc_bench.cpp).

One workload, as BENCHMARK.json's command runs it:

    python3 gcbench/run.py --workload fig5 --seed 42 --seconds 20 --trace 0

builds hwgc_bench in Release (into $CARGO_TARGET_DIR, default .bench_build)
if needed, runs the workload in its own process, passes its "e2e"/"layer"
lines through and prints, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list (and
the spans file lands in <build dir>/spans/). Exit status 0 when every
output checked correct.

Every workload, each in its own process (run it on both sides of a
comparison with the same seeds, then compare the JSONL files with
compare_runs.py):

    python3 gcbench/run.py --all [--seed 42] [--seconds 20]
        [--trace-spans DIR] [--quick] [--json .bench_build/runs/a.jsonl]

Self-check (the bench-smoke ctest label runs this): BENCHMARK.json and
spec.json are well formed and agree, and a --quick traced run of every
workload prints every metric they name, with its unit, and checks clean:

    python3 gcbench/run.py --smoke
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700  # build + first run stay within 900 s
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")


def build():
    """Configures (once) and builds hwgc_bench; returns its path or None."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4",
                  "--target", "hwgc_bench"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=max(1.0, deadline - time.monotonic())
                                ).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build failed: {e}")
            return None
        if rc != 0:
            log(f"build failed: {' '.join(cmd)} exited {rc}")
            return None
    return out / "hwgc_bench"


def run_workload(binary, workload, seed, seconds, spans_dir=None,
                 quick=False):
    """Runs one workload; returns hwgc_bench's closing JSON record or None."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--traces={BENCH_DIR / 'traces'}"]
    if spans_dir is not None:
        Path(spans_dir).mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-spans={spans_dir}")
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{workload}: {e}")
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: no result (exit {proc.returncode})")
        return None
    if proc.returncode != 0 or not record.get("correct"):
        log(f"{workload}: outputs failed their checks "
            f"({record.get('failed')} of {record.get('attempted')})")
    return record


def contract_result(record, wanted):
    """Projects a hwgc_bench record onto BENCHMARK.json's metric list."""
    metrics, missing = {}, []
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if missing:
        log(f"missing or mis-united metrics: {', '.join(missing)}")
    return {"correct": bool(record["correct"]) and not missing,
            "attempted": max(1, int(record["attempted"])),
            "failed": int(record["failed"]),
            "metrics": metrics}


def append_jsonl(path, record):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def check_spec(bench, spec):
    """Self-check of BENCHMARK.json against spec.json; returns errors."""
    errors = []
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    for kind, names, cap in (("workload", workloads, 8),
                             ("end_to_end", e2e, 16),
                             ("per_layer", layers, 128)):
        if len(names) > cap:
            errors.append(f"{len(names)} {kind} entries, at most {cap}")
        if len(set(names)) != len(names):
            errors.append(f"duplicate {kind} names")
        errors += [f"bad {kind} name {n!r}" for n in names
                   if not NAME_RE.match(n)]
    if set(workloads) != set(spec["workloads"]):
        errors.append("BENCHMARK.json and spec.json list different workloads")
    all_e2e = set(e2e) | set(spec["extra_end_to_end"])
    for n in e2e:
        if n not in spec["end_to_end"]:
            errors.append(f"end_to_end {n} has no spec.json entry")
    for n in layers:
        entry = spec["per_layer"].get(n)
        if entry is None:
            errors.append(f"per_layer {n} has no spec.json entry")
            continue
        for metric, workload in entry["moves"]:
            if metric not in all_e2e or workload not in workloads:
                errors.append(f"per_layer {n} moves unknown "
                              f"{metric} on {workload}")
    return errors


def smoke(binary):
    bench = load_json(ROOT / "BENCHMARK.json")
    spec = load_json(BENCH_DIR / "spec.json")
    errors = check_spec(bench, spec)
    spans = build_dir() / "smoke-spans"
    for w in bench["workloads"]:
        name = w["name"]
        record = run_workload(binary, name, 42, 1, spans_dir=spans,
                              quick=True)
        if record is None:
            errors.append(f"{name}: no result")
            continue
        if not record["correct"] or record["failed"] != 0:
            errors.append(f"{name}: checks failed (simulated results must "
                          f"match across reps)")
        if record["reps"] < 2:
            errors.append(f"{name}: fewer than 2 measured reps")
        got = record["metrics"]
        wanted = (bench["end_to_end"] + bench["per_layer"] +
                  [dict(name=n, **m) for n, m in
                   spec["extra_end_to_end"].items()
                   if name in m["applies_to"]])
        for m in wanted:
            if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
                errors.append(f"{name}: {m['name']} [{m['unit']}] not printed")
        if not (spans / f"{name}.spans.json").exists():
            errors.append(f"{name}: no spans file")
    for e in errors:
        log(f"smoke: {e}")
    log("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-spans", metavar="DIR")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--json", metavar="PATH",
                   help="append each workload's full record to PATH")
    p.add_argument("--binary", help="use this hwgc_bench binary instead of building")
    a = p.parse_args()
    if sum(map(bool, (a.workload, a.all, a.smoke))) != 1:
        p.error("give exactly one of --workload, --all, --smoke")

    bench = load_json(ROOT / "BENCHMARK.json")
    binary = Path(a.binary) if a.binary else build()
    if binary is None or not binary.exists():
        return 1
    if a.smoke:
        return smoke(binary)
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]

    if a.workload:
        if a.workload not in [w["name"] for w in bench["workloads"]]:
            p.error(f"unknown workload {a.workload}")
        spans = a.trace_spans or (build_dir() / "spans" if a.trace else None)
        record = run_workload(binary, a.workload, a.seed, seconds, spans,
                              a.quick)
        if record is None:
            return 1
        if a.json:
            append_jsonl(a.json, record)
        result = contract_result(
            record, bench["per_layer"] if spans else bench["end_to_end"])
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    ok = True
    for w in bench["workloads"]:
        record = run_workload(binary, w["name"], a.seed, seconds,
                              a.trace_spans, a.quick)
        if record is None:
            ok = False
            continue
        ok = ok and bool(record["correct"])
        if a.json:
            append_jsonl(a.json, record)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
