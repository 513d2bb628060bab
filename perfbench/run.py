"""Closed-loop benchmark of tamebc: one caller, one query in flight.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload valring-dense --seed 1 --seconds 60 --trace 0

The workload's round of queries (see ``workloads.py``) is built from the
seed, then repeated until ``--seconds`` have passed and ``MIN_ROUNDS``
whole rounds are done; each query's latency is its best time over the
rounds.  Every answer is checked against a reference computed before
timing.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run is split into an untraced half and a traced half, and the metrics are
the per-layer ones of ``tracer.py``.  The line before it is a JSON summary
with fail_ratio, sample counts and the host context.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

# set-up is timed this many times before the measured loop and as many
# times after it, so that the median does not rest on one moment of the
# host's speed
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # every query is timed at least twice; its best time counts
OUT_DIR = ".perfbench_out"


def host_calib_ms():
    """Median time of a fixed stdlib-only Fraction/dict loop, in ms."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, 3000):
            total += Fraction(i % 7, i % 11 + 1)
            table[i % 97] = table.get(i % 97, 0) + i
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def load_tamebc(src):
    """Import tamebc afresh from the checkout's src directory."""
    for key in [k for k in sys.modules if k == "tamebc" or k.startswith("tamebc.")]:
        del sys.modules[key]
    import tamebc
    import tamebc.cli  # noqa: F401  (also binds tamebc.specfile)

    if not Path(tamebc.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"tamebc imported from {tamebc.__file__}, not {src}")
    return tamebc


def resolve(tb, target):
    if callable(target):
        return target
    obj = tb
    for part in target.split("."):
        obj = getattr(obj, part)
    return obj


def verdict(op, result, exc):
    if exc is not None:
        return op.error is not None and type(exc).__name__ == op.error
    if op.error is not None:
        return False
    try:
        return bool(op.check(result))
    except Exception:  # a malformed answer is a wrong answer
        return False


def build(name, tb, seed, work_dir, runner):
    rng = random.Random(f"{name}:{seed}")
    if name == "valring-sparse":
        return workloads.build_valring_sparse(tb, rng)
    if name == "valring-dense":
        return workloads.build_valring_dense(tb, rng)
    if name == "zeta":
        return workloads.build_zeta(tb, rng)
    return workloads.build_cli(tb, rng, work_dir, runner)


def setup(name, seed, src, work_dir, runner):
    """Import, build the round and warm up one query per distinct callable."""
    start = time.perf_counter()
    tb = load_tamebc(src)
    ops = build(name, tb, seed, work_dir, runner)
    seen = set()
    for op in ops:
        if op.target in seen:
            continue
        seen.add(op.target)
        try:
            resolve(tb, op.target)(*op.args)
        except Exception:  # answers are checked in the timed loop
            pass
    return time.perf_counter() - start, tb, ops


def measure(ops, fns, seconds, min_rounds, tracer=None):
    """Repeat the round until ``seconds`` have passed and ``min_rounds``
    whole rounds are done, keeping each query's best wall time.

    Untraced runs may stop inside a round; traced runs stop only at the end
    of a round, so that counts divided by rounds are exact.  Each round runs
    on the next CPU in turn, so every query is timed on each CPU: on a
    shared host one CPU can be slowed by a neighbour for many seconds while
    another is not.
    """
    cpus = sorted(os.sched_getaffinity(0))
    best = [float("inf")] * len(ops)
    failures = []
    failed_ops = set()
    samples = 0
    check_s = 0.0
    rounds = 0
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    done = False
    while not done:
        os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
        for i, (op, fn) in enumerate(zip(ops, fns)):
            if tracer is not None:
                tracer.op_id = samples
            t0 = clock()
            try:
                result, exc = fn(*op.args), None
            except Exception as err:
                result, exc = None, err
            t1 = clock()
            samples += 1
            best[i] = min(best[i], t1 - t0)
            if tracer is not None:
                tracer.paused = True
            ok = verdict(op, result, exc)
            if tracer is not None:
                tracer.paused = False
            check_s += clock() - t1
            if not ok:
                failed_ops.add(i)
                failures.append(f"{op.kind}: {exc if exc is not None else result!r}"[:200])
            if tracer is None and rounds >= min_rounds and clock() >= deadline:
                done = True
                break
        else:
            rounds += 1
            if tracer is not None:
                tracer.keep_spans = False  # spans of the first round only
            done = rounds >= min_rounds and clock() >= deadline
    busy = clock() - start - check_s
    os.sched_setaffinity(0, cpus)
    return {"best": best, "samples": samples, "failures": failures,
            "failed_ops": failed_ops, "rounds": rounds, "busy": busy}


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above it."""
    idx = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[idx], len(sorted_values) - idx - 1


def subprocess_ms(argv, env, repeats=5):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def metric(value, unit):
    return {"value": value, "unit": unit}


def best_rate(run):
    """Queries per second of a round made of every query at its best time."""
    return len(run["best"]) / sum(run["best"])


def end_to_end(run, setup_s, rss_mb):
    best = sorted(run["best"])
    ok = len(best) - len(run["failed_ops"])
    p90, above = percentile(best, 90)
    return {
        "ops_per_s": metric(ok / sum(best), "ops/s"),
        "latency_p50_ms": metric(statistics.median(best) * 1000, "ms"),
        "latency_p90_ms": metric(p90 * 1000, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }, {"latency_samples": len(best), "samples_above_p90": above}


def per_layer(tracer, run, base, calib_ms, cli_ms):
    """Per-round layer counts, self times and ratios of a traced run."""
    rounds = run["rounds"]
    totals = tracer.layer_totals()
    out = {}
    for name, (calls, self_s) in totals.items():
        out[f"{name}.calls"] = metric(calls // rounds, "count")
        out[f"{name}.self_ms"] = metric(self_s * 1000 / rounds, "ms")
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    out["dvr.series_mul.fill"] = metric(
        ratio(c.get("dvr.series_mul.fill_sum", 0), totals["dvr.series_mul"][0]), "ratio")
    out["dvr.echelon.kept_ratio"] = metric(
        ratio(c.get("dvr.echelon.cols_kept", 0), c.get("dvr.echelon.cols_in", 0)), "ratio")
    out["dvr.coords.miss_ratio"] = metric(
        ratio(c.get("dvr.coords.misses", 0), totals["dvr.coords"][0]), "ratio")
    out["dvr.smith.pivots"] = metric(c.get("dvr.smith.pivots", 0) // rounds, "count")
    out["dvr.precision_exhausted"] = metric(
        c.get("dvr.precision_exhausted", 0) // rounds, "count")
    out["jumps.jump_entries"] = metric(c.get("jumps.jump_entries", 0) // rounds, "count")
    out["motivic.reduce.cancel_ratio"] = metric(
        ratio(c.get("motivic.reduce.factors_cancelled", 0),
              c.get("motivic.reduce.factors_in", 0)), "ratio")
    out["cli.interp_ms"] = metric(cli_ms[0], "ms")
    out["cli.import_ms"] = metric(cli_ms[1], "ms")
    out["host.calib_ms"] = metric(calib_ms, "ms")
    out["trace.overhead_ratio"] = metric(best_rate(run) / best_rate(base), "ratio")
    return out


def src_lines(src):
    return sum(len(p.read_text().splitlines()) for p in sorted((src / "tamebc").glob("*.py")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "tamebc" / "__init__.py").is_file():
        print(f"error: {src}/tamebc not found; run from the root of a tamebc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    for key in [k for k in os.environ if k.startswith("TAMEBC_")]:
        del os.environ[key]

    work_dir = root / OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, root, src, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, root, src, work_dir):
    calib_before = host_calib_ms()
    runner = workloads.CliRunner(str(src))
    runner.in_process = args.workload == "cli-inproc"
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_s, tb, ops = setup(args.workload, args.seed, src, str(work_dir), runner)
        setups.append(setup_s)
    is_cli = args.workload in ("cli", "cli-inproc")
    fns = [resolve(tb, op.target) for op in ops]
    extra = {}

    if args.trace == 0:
        result = measure(ops, fns, args.seconds, MIN_ROUNDS)
        setups += [setup(args.workload, args.seed, src, str(work_dir), runner)[0]
                   for _ in range(SETUP_REPEATS)]
        children = args.workload == "cli"
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
        metrics, extra = end_to_end(result, statistics.median(setups), usage.ru_maxrss / 1024)
        calib_ms = (calib_before + host_calib_ms()) / 2
    else:
        cli_ms = (0.0, 0.0)
        if is_cli:
            runner.in_process = True
            cli_ms = (subprocess_ms([sys.executable, "-c", "pass"], runner.env),
                      subprocess_ms([sys.executable, "-c", "import tamebc"], runner.env))
        base = measure(ops, fns, args.seconds / 2, 1)
        tracer = Tracer(tb.PrecisionExhausted)
        tracer.install()
        try:
            fns = [tracer.wrap("op." + op.kind, resolve(tb, op.target)) for op in ops]
            result = measure(ops, fns, args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        if not tracer.restored():
            raise RuntimeError("tracer left a wrapped attribute behind")
        calib_ms = (calib_before + host_calib_ms()) / 2
        metrics = per_layer(tracer, result, base, calib_ms, cli_ms)
        path = root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        extra = {"spans_file": str(path.relative_to(root)), "spans": tracer.write_spans(path)}

    attempted = result["samples"]
    failed = len(result["failures"])
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": result["rounds"],
        "queries_per_round": len(ops),
        "attempted": attempted,
        "fail_ratio": failed / attempted,
        "failures": result["failures"][:5],
        **extra,
        "raw_ops_per_s": attempted / result["busy"],
        "setup_s_samples": setups,
        "host": {
            "calib_ms_before": calib_before,
            "calib_ms": calib_ms,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "src_lines": src_lines(src),
        },
    }
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
