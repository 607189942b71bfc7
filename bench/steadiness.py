"""Steadiness report: repeated benchmark runs per workload, spread per metric.

    python3 bench/steadiness.py [--runs 10] [--first-seed 1] \
        [--workloads csv_io,estimate] [--out report.json]

Runs the command in BENCHMARK.json once per seed, one run at a time, with
``--trace 0`` and the file's ``run_seconds``.  For each end-to-end metric it
reports the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread (Q3 - Q1) / median beside the metric's bound; a spread should
stay below a third of its bound.  The report also records the machine
(nproc, Python and numpy versions, the calibration reference and the kernel
time each run measured).  Run it from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    tagged = {line.split(":", 1)[0][2:]: json.loads(line.split(":", 1)[1])
              for line in lines if line.startswith(("# machine:", "# raw:"))}
    return json.loads(lines[-1]), tagged["machine"], tagged["raw"], elapsed


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--out", help="write the report here as JSON")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"runs": args.runs, "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in names:
        values, raw_values, cal_ms, wall = {}, {}, [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, machine, raw, elapsed = run_once(bench, workload, seed)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in raw.items():
                raw_values.setdefault(name, []).append(value)
            cal_ms.append(machine.pop("cal_ms"))
            wall.append(elapsed)
            report["machine"] = machine
        rows = {}
        print(f"{workload}: {args.runs} runs, {statistics.median(wall):.1f} s per run (median)")
        for name, vals in values.items():
            row = spread(vals) | {"bound": bounds[name], "values": vals}
            steady = name == "setup_s" or row["spread"] < bounds[name] / 3.0
            ok = ok and steady
            raw_txt = ""
            if name in raw_values:  # uncalibrated wall time, to show what calibration buys
                row["raw"] = spread(raw_values[name]) | {"values": raw_values[name]}
                raw_txt = f"  (raw spread {row['raw']['spread']:.4f})"
            rows[name] = row
            print(f"  {name:<16} median {row['median']:<12.6g} spread {row['spread']:.4f}"
                  f"  bound {bounds[name]}{raw_txt}{'' if steady else '  NOT STEADY'}")
        report["workloads"][workload] = {"metrics": rows, "cal_ms": cal_ms, "run_wall_s": wall}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
