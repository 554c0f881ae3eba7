"""loopcert benchmark: one workload, one process, one client, no threads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a loopcert checkout; the program is imported from
``src/`` there.  An op is one in-process ``loopcert.cli.main(argv)`` call,
``check`` or ``find``, with its output captured, on files the benchmark
wrote.  Ops run as a closed loop: the next starts when the previous one
ends.

``--trace 0`` repeats the workload's batch (a fresh variable renaming each
time) until ``--seconds`` have passed, then reports the end-to-end metrics.
``--trace 1`` runs one batch untraced and the next batch traced, reports the
per-layer metrics and the difference between the two as tracing overhead,
and writes the spans to ``.bench_work/``.  Both check every answer against
its reference; a wrong answer counts as failed and makes the exit code 1.
The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up runs this many times before measuring and again after, so that its
# median spans two moments of a machine whose speed drifts.
SETUP_ROUNDS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Op times are scaled to the speed at which the probe takes PROBE_REF_S, by
# the median probe within PROBE_WINDOW_S of the op.  A shared CPU can run
# markedly slower for seconds or minutes at a time; scaling by a probe taken
# on the same CPU at the same moment removes most of that from the numbers.
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.5
PROBE_REF_S = 0.001


def locate_program(root: Path) -> Path:
    src = root / "src"
    if not (src / "loopcert" / "__init__.py").is_file():
        raise SystemExit(f"error: no loopcert sources under {src}; run from a checkout root")
    return src


def import_program(src: Path):
    """Import loopcert afresh from src and return its cli module."""
    for name in [m for m in sys.modules if m == "loopcert" or m.startswith("loopcert.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("loopcert.cli")
    where = Path(cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"error: imported loopcert from {where}, not from {src}")
    return cli


def set_up(name: str, seed: int, src: Path, work: Path, small: bool = False):
    """Import the program and build the workload and its first batch,
    SETUP_ROUNDS times; return the last workload, its first batch and the
    time each round took, scaled by a probe taken just before it."""
    times = []
    for round_ in range(SETUP_ROUNDS):
        speed = PROBE_REF_S / probe()
        started = time.perf_counter()
        import_program(src)
        workload = WORKLOADS[name](seed, work / f"setup{round_}", small)
        first = workload.batch(0)
        times.append((time.perf_counter() - started) * speed)
        if round_ + 1 < SETUP_ROUNDS:
            shutil.rmtree(work / f"setup{round_}")
    return workload, first, times


def probe() -> float:
    """Least of three timings of a fixed piece of pure-Python work, about a
    millisecond each, with the garbage collector off so that objects the
    program keeps alive cannot slow it.

    It builds, hashes and prints small nested tuples, as the program does
    with terms, so it slows down with the machine much as ops do."""
    best = math.inf
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            started = time.perf_counter()
            table = {}
            term = ("f", ("x", ("s", ("y",))))
            for i in range(300):
                term = ("g", (term[1][1], ("h", (str(i % 13), term[0]))))
                table[term] = table.get(term, 0) + len(repr(term))
            best = min(best, time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return best


class Record:
    """Every op run so far, the probes taken meanwhile, and the first answer
    per op template."""

    def __init__(self):
        self.rows: list[tuple] = []  # (template, kind, answer, error)
        self.answers: dict = {}
        self.spans: list[tuple] = []  # per op, (start, end, time spent in probes)
        self.probe_at: list[float] = []
        self.probes: list[float] = []
        self.probe_cost: list[float] = []

    def add(self, op, start, end, answer, error):
        first = self.answers.setdefault(op.template, answer)
        if error is None and answer != first:
            error = f"answer {answer} differs from {first} on another renaming"
        lo = bisect.bisect_right(self.probe_at, start)
        hi = bisect.bisect_left(self.probe_at, end)
        self.rows.append((op.template, op.kind, answer, error))
        self.spans.append((start, end, sum(self.probe_cost[lo:hi])))

    def take_probe(self, *_signal):
        # Called by the timer signal, and once after it has stopped.
        at = time.perf_counter()
        self.probes.append(probe())
        self.probe_at.append(at)
        self.probe_cost.append(time.perf_counter() - at)

    @contextlib.contextmanager
    def probing(self):
        """Take a probe every PROBE_EVERY_S, also while an op runs: a timer
        signal interrupts the op between bytecodes, and add() takes the
        probe's time back out of the op's."""
        previous = signal.signal(signal.SIGALRM, self.take_probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def failures(self):
        return [(t, e) for t, _, _, e in self.rows if e is not None]

    def latencies(self) -> list[float]:
        return [end - start - probed for start, end, probed in self.spans]

    def scaled(self) -> list[float]:
        """Op times scaled to PROBE_REF_S by the median probe within
        PROBE_WINDOW_S of the op, and at least the probes on either side."""
        out = []
        for latency, (start, end, _) in zip(self.latencies(), self.spans):
            lo = bisect.bisect_left(self.probe_at, start - PROBE_WINDOW_S)
            hi = bisect.bisect_right(self.probe_at, end + PROBE_WINDOW_S)
            i = bisect.bisect_left(self.probe_at, start)
            lo, hi = min(lo, max(i - 1, 0)), max(hi, min(i + 1, len(self.probes)))
            out.append(latency * PROBE_REF_S / statistics.median(self.probes[lo:hi]))
        return out


def run_op(op, record: Record, tracer=None) -> float:
    cli = sys.modules["loopcert.cli"]
    out, err = io.StringIO(), io.StringIO()
    raised = None
    if tracer is not None:
        tracer.open("cli.main")
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception as e:  # an op that raises is a failed op, not a crash
        code, raised = None, e
    ended = time.perf_counter()
    if tracer is not None:
        tracer.close()
        tracer.counts["formats.output_bytes"] += len(out.getvalue().encode())
    if raised is not None:
        answer, error = "raised", f"raised {type(raised).__name__}: {raised}"
    else:
        answer, error = op.judge(code, out.getvalue())
    record.add(op, started, ended, answer, error)
    return ended - started


def tail(latencies):
    """(percentile, value) at the highest listed percentile with at least
    ten ops above it, or None when there are too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def decided_share(rows):
    verdicts = [a for _, kind, a, _ in rows if kind == "check" and a in ("yes", "no", "unknown")]
    if not verdicts:
        return None
    return sum(a != "unknown" for a in verdicts) / len(verdicts)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, first, seconds: float) -> tuple[Record, int]:
    """Run whole batches until seconds have passed, probing all along."""
    record = Record()
    started = time.perf_counter()
    index, ops = 0, first
    with record.probing():
        while True:
            for op in ops:
                run_op(op, record)
            workload.drop(index)
            index += 1
            if time.perf_counter() - started >= seconds:
                break
            ops = workload.batch(index)
    record.take_probe()
    return record, index


def measure_traced(workload, first):
    """Batch 0 untraced and batch 1 traced, op by op in turn and alternating
    which goes first, so that both sides see the same machine; returns the
    record, the tracer, and the untraced and traced op time."""
    record = Record()
    second = workload.batch(1)
    tracer = Tracer()
    untraced = traced = 0.0
    for i, (plain, op) in enumerate(zip(first, second)):
        if i % 2:
            untraced += run_op(plain, record)
        tracer.op = i
        tracer.install()
        try:
            traced += run_op(op, record, tracer)
        finally:
            tracer.uninstall()
        if not i % 2:
            untraced += run_op(plain, record)
    workload.drop(0)
    workload.drop(1)
    return record, tracer, untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = locate_program(root)
    sys.path.insert(0, str(src))
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, first, setup_times = set_up(args.workload, args.seed, src, work)
        if args.trace:
            record, tracer, untraced, traced = measure_traced(workload, first)
            batches = 2
        else:
            record, batches = measure(workload, first, args.seconds)
            setup_times += set_up(args.workload, args.seed, src, work / "again")[2]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n = len(record.rows)
    failures = record.failures
    print(f"workload {args.workload}, seed {args.seed}: {n} ops in {batches} batches")
    for template, error in failures[:20]:
        print(f"WRONG {template}: {error}")
    share = decided_share(record.rows)
    print(f"  error_rate {len(failures) / n:.6f}  ({len(failures)} of {n} ops)")
    print(f"  decided_share {'n/a (no check ops)' if share is None else f'{share:.6f}'}")

    if args.trace:
        overhead = traced - untraced
        extra = {
            "trace.untraced_s": untraced,
            "trace.traced_s": traced,
            "trace.overhead_s": overhead,
            "trace.overhead_share": overhead / untraced,
        }
        metrics = tracer.metrics(extra)
        spans = root / ".bench_work" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        for missing in tracer.missing:
            print(f"  MISSING binding {missing}: its metrics read null")
        print(f"  {len(tracer.spans)} spans written to {spans.relative_to(root)}")
    else:
        scaled = record.scaled()
        raw = record.latencies()
        metrics = {
            "throughput_ops_s": {"value": n / sum(scaled), "unit": "1/s"},
            "op_ms_p50": {"value": statistics.median(scaled) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
        print(f"  op times scaled to a {PROBE_REF_S * 1000:g} ms probe; the probe's"
              f" median was {statistics.median(record.probes) * 1000:.4f} ms")
        print(f"  unscaled: {n / sum(raw):.4f} ops/s, p50 {statistics.median(raw) * 1000:.4f} ms")
        high = tail(scaled)
        if high is None:
            print(f"  op_ms_tail omitted: {n} ops is too few")
        else:
            print(f"  op_ms_tail {high[1] * 1000:.4f} ms at p{high[0]:g} of {n} ops")
    for name, m in metrics.items():
        print(f"  {name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
