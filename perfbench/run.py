#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload live_gateway --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the library and the
benchmark program from source into $CARGO_TARGET_DIR (default
.bench_build). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics (0 for a layer the workload does not exercise). The line before it
holds host-noise diagnostics. Exit status 0 means every output check
passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("live_gateway", "replay_city", "serve_mixed")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "core" / "controller.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "2",
                    "--target", "meshbench"], check=True, **quiet)
    return build_dir / "meshbench"


def cpu_steal_ticks():
    """Total and steal jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return sum(fields), fields[7] if len(fields) > 7 else 0


def check_digest(build_dir, binary, args, result, errors):
    """Outputs depend only on the build, the workload, the seed and the
    passes made: every such run must reproduce the digest and utility the
    first correct one recorded."""
    store = build_dir / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    build_id = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    key = (f"{build_id}:{args.workload}:{args.seed}:{args.trace}:"
           f"{result['passes']}")
    mine = {"digest": result["digest"], "utility": result["utility"]}
    if key in known and known[key] != mine:
        errors.append(f"outputs differ from an earlier run with seed "
                      f"{args.seed}: {known[key]} vs {mine}")
    elif key not in known and not errors:
        known[key] = mine
        store.write_text(json.dumps(known, indent=1, sort_keys=True))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    scratch = build_dir / "scratch" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    spans = build_dir / "spans" / f"{args.workload}-seed{args.seed}.tsv"
    spans.parent.mkdir(parents=True, exist_ok=True)

    with open("/proc/loadavg") as f:
        load_at_start = float(f.read().split()[0])
    total0, steal0 = cpu_steal_ticks()
    wall0 = time.monotonic()
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--spans", str(spans),
             "--scratch", str(scratch)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark program ran past {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    wall = time.monotonic() - wall0
    total1, steal1 = cpu_steal_ticks()

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"the benchmark program printed nothing (exit {proc.returncode})")
    result = json.loads(lines[-1])
    errors = list(result["errors"])
    if proc.returncode != 0 and not errors:
        errors.append(f"the benchmark program exited {proc.returncode}")
    check_digest(build_dir, binary, args, result, errors)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                errors.append(f"end-to-end metric {m['name']} not measured")
                continue
            got = {"value": 0.0, "unit": m["unit"]}  # layer not exercised
        if got["unit"] != m["unit"]:
            errors.append(f"{m['name']}: unit {got['unit']} is not the "
                          f"declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    steal_share = (steal1 - steal0) / max(total1 - total0, 1)
    print(json.dumps({"diagnostics": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "wall_s": wall, "timed_s": result["timed_s"],
        "cpu_s": result["cpu_s"], "steal_share": steal_share,
        "loadavg_1m_at_start": load_at_start, "passes": result["passes"],
        "digest": result["digest"], "utility": result["utility"],
        "repaired": result["repaired"], "errors": errors}}))
    print(json.dumps({"correct": not errors,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
