"""Benchmark for qra: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

Run from the root of a checkout; the program is imported from ``src/``:

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload tables --seed 1 --trace 1
    python3 bench/run.py --workload all      # every workload, each in a fresh process

``--trace 0`` sets up several times (fresh interpreters, then this one)
and reports the median set-up time, then runs passes over the workload's
operations for ``--seconds`` (the first pass always completes) and
reports one pass as the sum of each operation's median time.  Every time
it reports is scaled to a nominal host speed by a calibration loop timed
around each set-up and every half second during the passes.
``--trace 1`` runs exactly one untraced and one traced pass, so counts
repeat exactly, and reports the per-layer metrics; its spans are saved
under ``bench/out/``.  Every operation is checked against
``bench/reference.json``.  The last line on stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it gives the samples, the unscaled times, ``ops_failed_frac``
and provenance.
All runs use ``jobs=1``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
# set-up is measured in this many fresh interpreters plus this process
SETUP_PROBES = 4
# calibrations taken just before and just after each set-up to scale it
SETUP_CALIBRATIONS = 3
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 180


class CheckoutError(Exception):
    """The directory does not hold the qra sources this benchmark measures."""


def check_checkout():
    init = SRC / "qra" / "__init__.py"
    if not init.is_file():
        raise CheckoutError(f"no qra sources at {init}")
    return init


def import_qra():
    """Import qra from this checkout's src/, never from an installed copy."""
    init = check_checkout()
    sys.path.insert(0, str(SRC))
    import qra

    if Path(qra.__file__).resolve() != init.resolve():
        raise CheckoutError(f"imported qra from {qra.__file__}, not {init}")
    return qra


def load_workload(name, qra, smoke, reference_path):
    with open(reference_path, encoding="utf-8") as fh:
        reference = json.load(fh)
    sizes = workloads.SMOKE if smoke else workloads.FULL
    return workloads.WORKLOADS[name](qra, reference, sizes)


# A shared host runs the same code up to 1.6 times as long, in spells that
# last from seconds to minutes, longer than one run.  To take that out of
# the reported times, a fixed pure-Python calibration is timed around each
# set-up, and the set-up time is scaled by CAL_NOMINAL_S over the mean of
# those calibrations.  For wall_s and cpu_s the calibration is timed every
# CAL_EVERY_S from a timer signal, also while an operation runs, and each
# operation's times are scaled by CAL_NOMINAL_S over the mean calibration
# time from just before it to its end.  The time spent calibrating inside
# an operation is taken out of the operation's own.  The calibration mixes
# dict updates with a small set-and-tuple backtracking search, the kind of
# work the program does, and is timed in thread CPU time, so a thread the
# program leaves running does not make the host look slower.
CAL_EVERY_S = 0.5
# the calibration's usual thread CPU time on a 2-vCPU x86-64 KVM guest
# running Python 3.11
CAL_NOMINAL_S = 0.011


def _queens(row, cols, left, right, n):
    if row == n:
        return 1
    return sum(_queens(row + 1, cols | {c}, left | {row - c}, right | {row + c}, n)
               for c in range(n)
               if c not in cols and row - c not in left and row + c not in right)


def calibration():
    start = time.thread_time()
    table = {}
    for i in range(50_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    _queens(0, frozenset(), frozenset(), frozenset(), 8)
    return time.thread_time() - start


class HostSpeed:
    """Calibration times taken every CAL_EVERY_S while in a ``with`` block,
    and the wall and CPU time spent taking them."""

    def __init__(self):
        self.loops = []
        self.spent_wall = self.spent_cpu = 0.0

    def _calibrate(self, signum=None, frame=None):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.loops.append(calibration())
        self.spent_wall += time.perf_counter() - wall0
        self.spent_cpu += time.process_time() - cpu0

    def __enter__(self):
        self._calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.loops), self.spent_wall, self.spent_cpu

    def scale(self, first, last):
        """Factor from the host's speed over calibrations first-1..last-1
        (the one before an operation and those during it) to the nominal."""
        return CAL_NOMINAL_S / statistics.fmean(self.loops[first - 1:last])


def set_up(args):
    """Import qra and build the workload's inputs.

    Returns the elapsed time scaled to the nominal host speed by the
    calibrations taken just before and just after it, the unscaled time,
    the workload and its inputs."""
    before = [calibration() for _ in range(SETUP_CALIBRATIONS)]
    start = time.perf_counter()
    qra = import_qra()
    workload = load_workload(args.workload, qra, args.smoke, args.reference)
    inputs = workload.setup()
    elapsed = time.perf_counter() - start
    after = [calibration() for _ in range(SETUP_CALIBRATIONS)]
    scale = CAL_NOMINAL_S / statistics.fmean(before + after)
    return elapsed * scale, elapsed, workload, inputs


def probe_setup(args):
    """Scaled and unscaled set-up time in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--reference", str(args.reference), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["unscaled_setup_s"]


def git_revision():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance():
    import numpy

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None


MALLOC_TRIM = _malloc_trim()


def release_memory():
    """Collect garbage and hand the C heap's free pages back to the OS.

    glibc keeps the heap pages an op frees, so without this the peak RSS
    of a pass depends on the order of its ops (Dq on the 6-chain peaks
    about 21 MB higher after the D4_2_3 search than before it) rather than
    on its largest op."""
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def cpu_seconds():
    """CPU of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_ops(ops, deadline=None, expected=None, tracer=None, speed=None):
    """Run ops in order, each in its own handler.  With a deadline, stop
    before the first op that would end after it if it took its time in
    ``expected``.  Memory is released after each op, outside its timing.
    Returns one (wall, cpu, scale) sample per op run, where scale is the
    op's host-speed factor from ``speed`` (1 without it), and the attempted
    and failed counts."""
    import qra

    samples = []
    attempted = failed = 0
    for index, op in enumerate(ops):
        if deadline is not None and time.perf_counter() + expected[index] > deadline:
            break
        if tracer is not None:
            tracer.op = index
        attempted += op.rows
        before = speed.mark() if speed is not None else None
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            problems = op.fn()
        except (qra.BudgetExhausted, qra.PreconditionError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"] * op.rows
        except Exception as exc:  # one broken op must not end the workload
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"] * op.rows
        wall, cpu, scale = time.perf_counter() - wall0, cpu_seconds() - cpu0, 1.0
        if speed is not None:
            after = speed.mark()
            wall -= after[1] - before[1]
            cpu -= after[2] - before[2]
            scale = speed.scale(before[0], after[0])
        samples.append((wall, cpu, scale))
        release_memory()
        if problems:
            failed += min(len(problems), op.rows)
            for problem in problems:
                print(f"FAILED {op.label}: {problem}", file=sys.stderr)
    return samples, attempted, failed


def measure(args):
    """Untraced run: set-up samples, then passes over the ops for --seconds.

    The first pass always completes.  A later pass stops before the first
    op that would end after the deadline if it took as long as it last
    did, and measuring ends with that pass, so a run overshoots --seconds
    only by the error of that guess.
    wall_s and cpu_s estimate one pass at the nominal host speed (see
    CAL_NOMINAL_S) as the sum over ops of each op's median scaled time; the
    unscaled medians are reported beside them.  peak_rss_mb is the peak
    over set-up and the first pass, in which every op runs once: in later
    passes glibc, having raised its mmap threshold when the first pass
    freed large blocks, serves the 6-chain's blocks from the heap, which
    can peak about 23 MB higher."""
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    setup_s, unscaled_setup_s, workload, inputs = set_up(args)
    setups.append((setup_s, unscaled_setup_s))
    per_op = None
    full_passes = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    with HostSpeed() as speed:
        while True:
            ops = workload.ops(inputs, args.seed)
            if per_op is None:
                samples, a, f = run_ops(ops, speed=speed)
                per_op = [[] for _ in ops]
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            else:
                last = [op_samples[-1][0] for op_samples in per_op]
                samples, a, f = run_ops(ops, deadline, last, speed=speed)
            for op_samples, sample in zip(per_op, samples):
                op_samples.append(sample)
            attempted += a
            failed += f
            if len(samples) < len(ops):
                break
            full_passes.append(sum(wall for wall, _, _ in samples))
            if time.perf_counter() >= deadline:
                break

    def pass_time(column, scaled):
        return sum(statistics.median(sample[column] * (sample[2] if scaled else 1)
                                     for sample in op_samples)
                   for op_samples in per_op)

    metrics = {
        "wall_s": (pass_time(0, True), "s"),
        "cpu_s": (pass_time(1, True), "s"),
        "setup_s": (statistics.median(scaled for scaled, _ in setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    counts = [len(s) for s in per_op]
    info = {"unscaled_wall_s": pass_time(0, False), "unscaled_cpu_s": pass_time(1, False),
            "pass_wall_s": full_passes, "setup_s": [scaled for scaled, _ in setups],
            "unscaled_setup_s": [unscaled for _, unscaled in setups],
            "calibration_s": statistics.quantiles(speed.loops, n=4),
            "rss_mb_all_passes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "samples_per_op": [min(counts), max(counts)]}
    return metrics, info, attempted, failed


def measure_traced(args):
    """One untraced and one traced pass; set-up is traced as well."""
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    qra = import_qra()
    tracer = tracing.Tracer(run_id)
    tracer.install()
    try:
        workload = load_workload(args.workload, qra, args.smoke, args.reference)
        inputs = workload.setup()
    finally:
        tracer.restore()
    plain, a1, f1 = run_ops(workload.ops(inputs, args.seed))
    ops = workload.ops(inputs, args.seed)
    tracer.install()
    try:
        traced, a2, f2 = run_ops(ops, tracer=tracer)
    finally:
        tracer.restore()
    plain_wall = sum(wall for wall, _, _ in plain)
    traced_wall = sum(wall for wall, _, _ in traced)
    tracer.write(OUT / f"trace-{args.workload}.json.gz")
    metrics = tracing.layer_metrics(tracer, traced_wall - plain_wall)
    info = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
            "spans": len(tracer.spans)}
    return metrics, info, a1 + a2, f1 + f2


def run_one(args):
    if args.setup_probe:
        setup_s, unscaled_setup_s, _, _ = set_up(args)
        print(json.dumps({"setup_s": setup_s, "unscaled_setup_s": unscaled_setup_s}))
        return 0
    if args.trace:
        metrics, info, attempted, failed = measure_traced(args)
    else:
        metrics, info, attempted, failed = measure(args)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "samples": info,
        "ops_failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "provenance": provenance(),
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in a fresh process; prints one row per workload."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--reference", str(args.reference)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=RUN_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        result["metrics"]["ops_failed_frac"] = detail["ops_failed_frac"]
        rows[name] = result
    names = list(rows[WORKLOAD_NAMES[0]]["metrics"])
    width = max(len(n) for n in names) + 8
    print(f"{'metric [unit]':<{width}}" + "".join(f"{w:>14}" for w in WORKLOAD_NAMES))
    for metric in names:
        unit = rows[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        cells = "".join(f"{rows[w]['metrics'][metric]['value']:>14.6g}"
                        for w in WORKLOAD_NAMES)
        print(f"{metric + ' [' + unit + ']':<{width}}" + cells)
    print("attempted".ljust(width) + "".join(f"{rows[w]['attempted']:>14}"
                                             for w in WORKLOAD_NAMES))
    print(json.dumps({"provenance": provenance(), "workloads": rows}))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes the order of independent ops")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time an untraced run measures; ignored with --trace 1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="cut-down inputs, for the self-test")
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
