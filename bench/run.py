"""Benchmark of cliffex: seeded workloads timed from outside the program.

    python3 bench/run.py --workload algebra_mix --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload runs in fresh single-threaded processes started from here:
several that only set up, for the set-up time, and one that sets up and
then runs the closed loop.  With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; results and spans
are also written under ``bench/out/``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("algebra_mix", "inverse_solve", "structure_scan", "check_cli")
SETUP_SAMPLES = 9
# A run must end within this many seconds, set-up included.
DEADLINE_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("small_op_p50_ms", "ms"),
    ("large_op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    pass


def _spawn(args: list, timeout: float) -> tuple:
    """Run the worker in a fresh interpreter; returns (start clock, last JSON line)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--out-dir", str(OUT)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return start, json.loads(lines[-1])


def _median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--tiny"] if tiny else [])
    from worker import REFERENCE_READING_S

    # Each set-up time is taken to the reference speed by the speedometer
    # readings its process took right after set-up (see README).
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            start, res = _spawn(base + ["--setup-only"], deadline - time.monotonic())
            setups.append((res["ready"] - start) * REFERENCE_READING_S / res["reading"])
    start, res = _spawn(base, deadline - time.monotonic())
    setups.append((res["ready"] - start) * REFERENCE_READING_S / res["reading"])
    if trace:
        from tracer import PER_LAYER

        metrics = {name: {"value": res["metrics"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = dict(res["metrics"], setup_s=_median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        # Failures other than the known faults make the run incorrect.
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "detail": {k: res[k] for k in res if k not in ("metrics", "ready", "reading")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small ranks only, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cliffex" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    for name, res in results.items():
        d = res["detail"]
        print(f"# {name}: seed {args.seed}, {d['passes']} passes of {d['ops_per_pass']} "
              f"operations, attempted {res['attempted']}, failed {res['failed']}")
        for line in d["unexpected"]:
            print(f"#   unexpected failure: {line}")
        for line in d["mended"]:
            print(f"#   known fault no longer fails: {line}")
        for metric, mv in res["metrics"].items():
            value = mv["value"]
            print(f"{name} {metric} {value if isinstance(value, int) else f'{value:.6g}'} "
                  f"{mv['unit']}")
        with open(OUT / f"result-{name}-s{args.seed}-t{args.trace}.json", "w") as fh:
            json.dump(res, fh, indent=1)
    if len(results) == 1:
        (res,) = results.values()
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
