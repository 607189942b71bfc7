"""Benchmark for abelfourier's CLI: one workload, one process.

    python3 bench/run.py --workload csv_io|estimate|witness_sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` beside this directory, never from an installed copy.  Each op is an
in-process ``abelfourier.cli.main(argv)`` call with stdout captured, so
argument parsing, file I/O and JSON/CSV emission are all timed.  Whole passes
over the workload's fixed op list run until ``--seconds`` have passed, and
every op's output is checked against ``reference.py``.

Timings are calibrated: on a shared 2-core host the same code can run up to
2x slower from one minute to the next, so each op's wall time is scaled by
``CAL_REF_MS / cal``, where ``cal`` is a fixed kernel timed just before and
just after the op.  Raw wall times are printed beside the calibrated ones.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of
``layertrace.py``.  The last stdout line is the result object.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported; ``--workers 2`` sweep
# threads are then the only extra threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import gzip
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

# Calibration kernel: a fixed integer loop plus an FFT of a preallocated
# array; it allocates no Python containers, so the program's heap cannot
# change its time.  CAL_REF_MS is its time on a quiet 2-core reference host
# (Python 3.11, numpy 2.4); calibrated times read as seconds on that host.
CAL_LOOP = 6000
CAL_FFT_SIZE = 1 << 15
CAL_REPEATS = 3
CAL_REF_MS = 1.8

SETUP_REPEATS = 5
# Every run makes at least MIN_PASSES passes, so the tail percentile (chosen
# from MIN_PASSES x ops per pass) does not depend on the host's speed.
MIN_PASSES = 3
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

# exit codes the README documents as a usage or capacity error: the op
# failed without claiming a result
EXIT_FAILED = (2, 3)


class Calibrator:
    def __init__(self):
        self._buf = np.exp(2j * np.pi * np.arange(CAL_FFT_SIZE) / 7.0)
        self._out = np.empty_like(self._buf)

    def _kernel(self):
        acc = 0
        for i in range(CAL_LOOP):
            acc ^= (i * 2654435761) & 0xFFFF
        np.fft.fft(self._buf, out=self._out)
        return acc

    def sample_ms(self) -> float:
        best = float("inf")
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best * 1e3


def _build_ops(workload: str, seed: int, workdir: Path):
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload](np.random.default_rng(seed), str(workdir))


def _call(cli, argv):
    """One op: (wall seconds, exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed op; keep the run going
            code = -1
            err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    if code == -1:
        print(f"op crashed: {argv}\n{err.getvalue()}", file=sys.stderr)
    return wall, code, out.getvalue()


class Record:
    __slots__ = ("kind", "raw_s", "cal_s", "code", "ok", "nonconverged")

    def __init__(self, kind, raw_s, cal_ms, code, result):
        self.kind = kind
        self.raw_s = raw_s
        self.cal_s = raw_s * CAL_REF_MS / cal_ms
        self.code = code
        self.ok = result.ok
        self.nonconverged = result.nonconverged


def run_pass(cli, ops, cal, cal_before, tracer=None):
    """Runs every op once; returns the records and the last calibration."""
    records = []
    for op_id, op in enumerate(ops):
        gc.collect()
        if tracer is not None:
            tracer.op_id = op_id
        wall, code, out = _call(cli, op.argv)
        cal_after = cal.sample_ms()
        records.append(Record(op.kind, wall, (cal_before + cal_after) / 2.0, code,
                              op.check(code, out)))
        cal_before = cal_after
    return records, cal_before


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, far steadier than one order statistic when the ops'
    latencies form clusters with gaps between them."""
    from scipy.special import betainc  # here, so set-up probes do not import scipy

    x = np.sort(np.asarray(values))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    return float(np.diff(betainc(a, b, np.arange(n + 1) / n)) @ x)


def tail_percentile(list_len: int) -> float:
    """Highest percentile with at least 10 ops of MIN_PASSES passes beyond it."""
    return next(p for p in TAIL_PERCENTILES if MIN_PASSES * list_len * (1.0 - p / 100.0) >= 10)


def measure_setup(workload: str, seed: int, cal: Calibrator):
    """Median over fresh processes of start-up to ready-for-the-first-op:
    interpreter, ``import abelfourier`` and input generation."""
    cal_times, raw_times = [], []
    for i in range(SETUP_REPEATS):
        workdir = WORK_DIR / f"setup-{os.getpid()}-{i}"
        cal_before = cal.sample_ms()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            raw = time.perf_counter() - start
            proc.stdout.read()
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        cal_ms = (cal_before + cal.sample_ms()) / 2.0
        raw_times.append(raw)
        cal_times.append(raw * CAL_REF_MS / cal_ms)
    return statistics.median(cal_times), statistics.median(raw_times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, cli, ops, cal):
    setup_s, setup_raw_s = measure_setup(args.workload, args.seed, cal)
    records = []
    cal_last = cal.sample_ms()
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < args.seconds:
        recs, cal_last = run_pass(cli, ops, cal, cal_last)
        records += recs
        passes += 1
    pct = tail_percentile(len(ops))
    timings = {}
    for attr in ("cal_s", "raw_s"):
        samples = [getattr(r, attr) for r in records]
        # each op's median over the passes damps the host's second-to-second swings
        per_op = [statistics.median(samples[i::len(ops)]) for i in range(len(ops))]
        timings[attr] = (len(ops) / sum(per_op), hd_quantile(per_op, 0.5) * 1e3,
                         hd_quantile(samples, pct / 100.0) * 1e3)
    estimates = [r for r in records if r.kind == "estimate"]
    converged = [r for r in estimates if not r.nonconverged]
    metrics = {
        "setup_s": (_metric(setup_s, "s"), setup_raw_s),
        **{name: (_metric(timings["cal_s"][i], unit), timings["raw_s"][i])
           for i, (name, unit) in enumerate([("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
                                             ("op_tail_ms", "ms")])},
        "peak_rss_mb": (_metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"), None),
        "ok_frac": (_metric(sum(r.ok for r in records) / len(records), "fraction"), None),
        # vacuously 1 on workloads without estimate ops
        "converged_frac": (_metric(len(converged) / len(estimates) if estimates else 1.0, "fraction"), None),
    }
    print(f"# {args.workload} seed={args.seed}: {passes} passes of {len(ops)} ops, "
          f"{len(records)} ops; op_tail_ms is p{pct:g} ({len(records)} ops); "
          f"nonconverged_frac={1.0 - metrics['converged_frac'][0]['value']:.4f} "
          f"({len(estimates) - len(converged)}/{len(estimates)} estimate ops exited 4)")
    for name, (m, raw) in metrics.items():
        raw_txt = "" if raw is None else f"   raw {raw:.6g}"
        print(f"#   {name:<16} {m['value']:<14.6g} {m['unit']:<9}{raw_txt}")
    print("# raw: " + json.dumps({name: raw for name, (_, raw) in metrics.items() if raw is not None}))
    _print_failures(ops, records)
    return {name: m for name, (m, _) in metrics.items()}, records


def traced(args, cli, ops, cal):
    import layertrace as trace

    tracer = trace.Tracer()
    self_time, counts = {}, {}
    op_wall = 0.0
    plain_cal, traced_cal, raw_pass = [], [], []
    spans = []
    # a first, warm-up pass, so that neither side of the comparison runs cold
    records, cal_last = run_pass(cli, ops, cal, cal.sample_ms())
    start = time.perf_counter()
    while not traced_cal or time.perf_counter() - start < args.seconds:
        recs, cal_last = run_pass(cli, ops, cal, cal_last)
        plain_cal.append(sum(r.cal_s for r in recs))
        raw_pass.append(sum(r.raw_s for r in recs))
        records += recs
        tracer.install()
        try:
            recs, cal_last = run_pass(cli, ops, cal, cal_last, tracer)
        finally:
            tracer.uninstall()
        traced_cal.append(sum(r.cal_s for r in recs))
        records += recs
        pass_self, pass_wall, pass_counts, spans = tracer.close_pass()
        op_wall += pass_wall
        for k, v in pass_self.items():
            self_time[k] = self_time.get(k, 0.0) + v
        for k, v in pass_counts.items():
            counts[k] = counts.get(k, 0) + v
    passes = len(traced_cal)
    metrics = {}
    for name in trace.metric_names():
        layer, _, key = name.rpartition(".")
        if key == "self_frac":
            metrics[name] = _metric(self_time.get(layer, 0.0) / op_wall, "fraction")
        else:
            metrics[name] = _metric(counts.get(name, 0) / passes, "count")
    metrics["bench.trace_overhead_frac"] = _metric(
        statistics.median(traced_cal) / statistics.median(plain_cal) - 1.0, "fraction")
    metrics["bench.raw_wall_s"] = _metric(statistics.median(raw_pass), "s")
    metrics["bench.cal_ms"] = _metric(cal.sample_ms(), "ms")
    _write_spans(args, spans)
    print(f"# {args.workload} seed={args.seed} traced: {passes} traced and {passes} untraced "
          f"passes of {len(ops)} ops")
    for name, m in metrics.items():
        print(f"#   {name:<40} {m['value']:<14.6g} {m['unit']}")
    _print_failures(ops, records)
    return metrics, records


def _write_spans(args, spans):
    """The last traced pass's spans, one JSON object per line."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for layer, start, end, parent, op_id in spans:
            fh.write(json.dumps({"name": layer, "start": start, "end": end,
                                 "parent": parent, "op": op_id}) + "\n")


def _print_failures(ops, records):
    failed = {i % len(ops) for i, r in enumerate(records) if not r.ok}
    for i in sorted(failed):
        print(f"#   failed op {i} (exit {records[i].code}): {' '.join(ops[i].argv)}")


def machine_info(cal: Calibrator) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cal_ref_ms": CAL_REF_MS,
        "cal_ms": cal.sample_ms(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["csv_io", "estimate", "witness_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "abelfourier" / "__init__.py").is_file():
        print(f"abelfourier sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import abelfourier.cli as cli

    if args.probe_setup:
        _build_ops(args.workload, args.seed, Path(args.workdir))
        print("ready", flush=True)
        return 0

    cal = Calibrator()
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        ops = _build_ops(args.workload, args.seed, workdir)
        run = traced if args.trace else end_to_end
        metrics, records = run(args, cli, ops, cal)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = machine_info(cal)
    print("# machine: " + json.dumps(info))
    failed = [r for r in records if not r.ok]
    result = {
        # a wrong result is one an op claimed (exit 0 or 4) that did not verify;
        # an op that exited with a usage or capacity error is failed, not wrong
        "correct": all(r.code in EXIT_FAILED for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
