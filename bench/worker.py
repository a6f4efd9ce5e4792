"""One workload in one fresh process: set up, run the closed loop, check.

``run.py`` starts this file; it is not meant to be run by hand.  The last
line of its standard output is a JSON object.  With ``--setup-only`` it
stops once the workload is built and reports the monotonic clock at that
moment and a speedometer reading, which ``run.py`` turns into a set-up
time at the reference speed.

One caller runs the operations in a fixed order, and the next starts only
when the last has returned.  The loop repeats whole passes over the list
until ``--seconds`` have gone by, so every run attempts a whole number of
passes.  Each output is checked outside the timed interval: in the first
pass by the operation's own check, in later passes by equality with the
first pass's output, whose verdict it then shares.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))


def _import_program():
    """Import ``cliffex`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "cliffex" / "__init__.py").is_file():
        raise SystemExit(f"no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import cliffex

    if Path(cliffex.__file__).resolve().parent != (SRC / "cliffex").resolve():
        raise SystemExit(f"cliffex was imported from {cliffex.__file__}, not from {SRC}")
    return cliffex


def build(workload: str, seed: int, tiny: bool):
    import workloads

    salt = sorted(workloads.WORKLOADS).index(workload)
    return workloads.WORKLOADS[workload](Random(seed * 16 + salt), tiny)


class Verdicts:
    """First-pass checks, and equality with the first output afterwards."""

    def __init__(self):
        self.first: dict = {}

    def verify(self, i: int, op, out, raised) -> str | None:
        if raised is not None:
            return f"raised {raised!r}"
        if i not in self.first:
            try:
                err = op.check(out)
            except Exception as exc:  # a check that breaks counts as a failure
                err = f"check raised {exc!r}"
            self.first[i] = (out, err)
            return err
        first, err = self.first[i]
        if out != first:
            return "output differs from the verified output of the first pass"
        return err


# Time of one reading of the speedometer on an undisturbed machine; the
# end-to-end times are reported at this speed (see README).
REFERENCE_READING_S = 0.001
_FRACTIONS = [Fraction(a, b) for a in range(-4, 4) for b in range(1, 9)]


def _interpreter_work() -> int:
    """Fixed work of the kind the program does: small Fraction arithmetic,
    tuples and dicts.  It does not touch ``cliffex``."""
    fr = _FRACTIONS
    acc = 0
    for i in range(192):
        a, b = fr[i & 63], fr[(i * 7 + 3) & 63]
        c = a * b + a - b
        acc += c.numerator & 7
    d = {k: (k, acc) for k in range(64)}
    return acc + len(d)


class Speedometer:
    """Reads how fast the machine runs the interpreter at the moment.

    Other work on a shared machine slows everything in this process alike
    for seconds at a time.  A reading is the median time of five runs of a
    fixed piece of work, taken with the garbage collector off so that the
    size of the program's heap does not enter it.
    """

    def __init__(self):
        self.times: list = []
        self.readings: list = []

    def read(self) -> float:
        samples = []
        gc.disable()
        try:
            for _ in range(5):
                t0 = time.perf_counter()
                _interpreter_work()
                samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        reading = _median(samples)
        self.times.append(time.perf_counter())
        self.readings.append(reading)
        return reading

    def due(self) -> bool:
        return time.perf_counter() - self.times[-1] >= 0.1

    def scale(self, t0: float, t1: float) -> float:
        """Reference speed over the speed around [t0, t1]: the mean of the
        last reading before t0 and the first after t1."""
        i = bisect.bisect_right(self.times, t0) - 1
        j = min(bisect.bisect_left(self.times, t1), len(self.times) - 1)
        return REFERENCE_READING_S / ((self.readings[i] + self.readings[j]) / 2)


def run_pass(ops, verdicts, tally, tracer=None, meter=None):
    """One pass over the operations; returns [(seconds, rank, start)] per operation."""
    lat = []
    for i, op in enumerate(ops):
        raised = None
        out = None
        if tracer is not None:
            t0 = tracer.begin(i)
            try:
                out = op.call()
            except Exception as exc:
                raised = exc
            t1 = tracer.end(op.name, t0)
            if op.stdout and out is not None:
                tracer.counts["cli.stdout_bytes"] += len(out[1].encode())
        else:
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:
                raised = exc
            t1 = time.perf_counter()
        lat.append((t1 - t0, op.rank, t0))
        if meter is not None and meter.due():
            meter.read()
        err = verdicts.verify(i, op, out, raised)
        tally["attempted"] += 1
        if err is not None:
            tally["failed"] += 1
            if not op.known_fault:
                tally["unexpected"].append(f"{op.name}: {err}")
        elif op.known_fault:
            tally["mended"].append(op.name)
    return lat


def _quantile(values, q):
    """Nearest-rank quantile: the smallest value with a share q at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def end_to_end(passes: list, large_min_rank: int, scale=None) -> dict:
    """Metrics over each operation's median latency across the passes.

    With ``scale``, each latency is first multiplied by ``scale(start, end)``,
    which takes it to the reference speed of the machine.
    """
    import workloads

    ranks = [r for _, r, _ in passes[0]]
    if scale is None:
        per_pass = [[t for t, _, _ in p] for p in passes]
    else:
        per_pass = [[t * scale(t0, t0 + t) for t, _, t0 in p] for p in passes]
    times = [_median([p[i] for p in per_pass]) for i in range(len(ranks))]
    small = [t for t, r in zip(times, ranks) if r <= workloads.SMALL_MAX_RANK]
    top = min(large_min_rank, max(ranks))
    large = [t for t, r in zip(times, ranks) if r >= top]
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": _median(times) * 1e3,
        "op_p90_ms": _quantile(times, 0.9) * 1e3,
        "small_op_p50_ms": _median(small) * 1e3,
        "large_op_p50_ms": _median(large) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    _import_program()
    wl = build(args.workload, args.seed, args.tiny)
    ready = time.monotonic()
    meter = Speedometer()
    reading = _median([meter.read() for _ in range(3)])
    if args.setup_only:
        print(json.dumps({"ready": ready, "reading": reading}))
        return 0

    verdicts = Verdicts()
    tally = {"attempted": 0, "failed": 0, "unexpected": [], "mended": []}
    result = {"ready": ready, "reading": reading, "ops_per_pass": len(wl.ops)}
    end = time.perf_counter() + args.seconds
    if not args.trace:
        lats = []
        while True:
            lats.append(run_pass(wl.ops, verdicts, tally, meter=meter))
            if time.perf_counter() >= end:
                break
        meter.read()
        passes = len(lats)
        result["metrics"] = end_to_end(lats, wl.large_min_rank, meter.scale)
        result["measured"] = end_to_end(lats, wl.large_min_rank)
        result["readings_ms"] = [round(r * 1e3, 4) for r in meter.readings]
    else:
        from tracer import Tracer, layer_metrics

        # One untraced pass first: it fills the program's caches and gives
        # the baseline the tracing overhead is measured against.
        base = sum(t for t, _, _ in run_pass(wl.ops, verdicts, tally))
        tracer = Tracer()
        tracer.install()
        # The untraced pass counts among the passes attempted.
        per_pass, traced_times, passes = [], [], 1
        while True:
            before = tracer.snapshot()
            lat = run_pass(wl.ops, verdicts, tally, tracer)
            per_pass.append(layer_metrics(before, tracer.snapshot()))
            traced_times.append(sum(t for t, _, _ in lat))
            passes += 1
            if time.perf_counter() >= end:
                break
        metrics = dict(per_pass[-1])
        for name in metrics:
            if name.endswith(".self_s"):
                metrics[name] = sum(p[name] for p in per_pass) / len(per_pass)
        metrics["trace.overhead_ratio"] = _median(traced_times) / base
        result["metrics"] = metrics
        counts = [{k: v for k, v in p.items() if not k.endswith(".self_s")} for p in per_pass]
        result["counts_repeat"] = all(c == counts[0] for c in counts)
        result["spans"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(out_dir / f"trace-{args.workload}-s{args.seed}.jsonl")
    result.update(passes=passes, attempted=tally["attempted"], failed=tally["failed"],
                  unexpected=tally["unexpected"][:20], mended=sorted(set(tally["mended"])))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
