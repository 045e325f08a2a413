"""The csaclass benchmark: seeded workloads through the `csaclass` CLI.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each run starts fresh worker interpreters (perfbench/worker.py), one at a
time, from the root of a checkout that holds `src/csaclass`.  With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs the
ops once with spans around every call into a layer, then replays the same
ops untraced to measure the tracing overhead, and prints per-layer metrics.
Human-readable lines go first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from speed import at_reference, calibrate
from workloads import FINITE, ROOT, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SPAWNS = 11         # probe interpreters timed per run
RUN_TIMEOUT_S = 170       # whole run, all workers included
# Peak RSS is read after this many ops of a pass (or at its end), so that a
# faster program, which fits more sweep ops and cache entries into the same
# seconds, does not read as a memory regression.
RSS_AT_OPS = 2000

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}
# Coarse steps, so that the chosen percentile does not flip between runs
# whose op counts differ a little.
TAIL_PERCENTILES = (50, 75, 90, 99)


class RunFailed(Exception):
    """A worker did not start, crashed or overran the run's deadline."""


def _rank(p: float, n: int) -> int:
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def nearest_rank(sorted_values, p: float):
    """The p-th percentile by nearest rank: the value at rank ceil(p N / 100)."""
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float:
    """The highest of TAIL_PERCENTILES with at least ten of n samples beyond
    it; the median when there are fewer than twenty samples."""
    return max([50] + [p for p in TAIL_PERCENTILES if n - _rank(p, n) >= 10])


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def _spawn(args, deadline: float):
    """Start a worker; return (process, seconds from spawn to `ready`)."""
    started = time.perf_counter()
    # -S -E: no site module and no PYTHON* variables, so the set-up time is
    # mostly the import of csaclass.cli, which imports only the stdlib.
    proc = subprocess.Popen([sys.executable, "-S", "-E", str(WORKER), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise RunFailed(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def _finish(proc, deadline: float) -> str:
    """Wait for a worker until the deadline; kill it past the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("worker overran the run deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}")
    return out


def _work(args, deadline: float) -> tuple[dict, float]:
    proc, ready = _spawn(args, deadline)
    lines = _finish(proc, deadline).strip().splitlines()
    try:
        return json.loads(lines[-1]), ready
    except (IndexError, ValueError):
        raise RunFailed("worker printed no result") from None


def _summary(name: str, ops: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, lines naming the first failures)."""
    failed = [r for r in ops if r["failure"] is not None]
    lines = [f"{name}  FAILED {r['name']}: {r['failure']}" for r in failed[:20]]
    if len(failed) > 20:
        lines.append(f"{name}  ... and {len(failed) - 20} more failures")
    return len(ops), len(failed), lines


def _pass_seconds(workload: str, seconds: float) -> float:
    """A pass of a finite workload runs whole; the run's deadline still holds."""
    return RUN_TIMEOUT_S if workload in FINITE else seconds


def _timings(times, completed: int, p: float) -> dict[str, float]:
    return {"ops_per_s": completed / sum(times),
            "op_p50_ms": 1000 * statistics.median(times),
            "op_tail_ms": 1000 * nearest_rank(sorted(times), p)}


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    """Setup spawns, then passes of the workload until `seconds` have passed.

    A finite workload runs whole passes, each in a fresh worker with a new
    shuffle and new labels, and starts a pass only while time is left.  The
    tail percentile is chosen from the op count of the smallest pass, so it is
    the same in every run, and read from all ops of the run.  Times are
    reported at the reference speed of speed.py; raw wall times are printed.
    """
    setups, loop_times = [], [calibrate()]
    _finish(_spawn(["--probe"], deadline)[0], deadline)  # warm the file cache
    for _ in range(SETUP_SPAWNS):
        proc, ready = _spawn(["--probe"], deadline)
        _finish(proc, deadline)
        setups.append(ready)
        loop_times.append(calibrate())

    passes = []
    started = time.perf_counter()
    while not passes or (workload in FINITE
                         and time.perf_counter() - started < seconds):
        result, _ = _work(
            ["--workload", workload, "--seed", str(seed),
             "--pass", str(len(passes)),
             "--seconds", str(_pass_seconds(workload, seconds))], deadline)
        passes.append(result)

    records = [r for result in passes for r in result["ops"]]
    attempted, failed, lines = _summary(workload, records)
    if not records:
        raise RunFailed("no op ran")
    completed = attempted - failed
    p = tail_percentile(min(len(result["ops"]) for result in passes))
    metrics = {"setup_s": at_reference(statistics.median(setups), loop_times),
               **_timings([r["ref_s"] for r in records], completed, p),
               "peak_rss_mb": max(r["rss_mb"] for result in passes
                                  for r in result["ops"][:RSS_AT_OPS])}
    raw = {"setup_s": statistics.median(setups),
           **_timings([r["wall_s"] for r in records], completed, p)}
    notes = {
        "setup_s": f"median of {len(setups)} spawns",
        "ops_per_s": f"{completed} ops completed, {len(passes)} pass(es)",
        "op_p50_ms": f"n={attempted}",
        "op_tail_ms": f"p{p}, n={attempted}, "
                      f"{attempted - _rank(p, attempted)} beyond",
        "peak_rss_mb": f"largest ru_maxrss of the workers after at most "
                       f"{RSS_AT_OPS} ops each",
    }
    for name, value in metrics.items():
        wall = f"; wall {raw[name]:.6g}" if name in raw else ""
        lines.append(f"{workload}  {name} = {value:.6g} "
                     f"{END_TO_END_UNITS[name]}  ({notes[name]}{wall})")
    lines.append(f"{workload}  error_rate = {error_rate(attempted, failed):.6g}"
                 f"  ({failed} failed / {attempted} attempted)")
    packed = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
              for k, v in metrics.items()}
    return attempted, failed, packed, lines


LAYER_UNITS = {"ratio": "ratio", "share": "ratio", "bytes": "B/op",
               "ms": "ms/op"}


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1].rsplit("_", 1)[-1]
    return LAYER_UNITS.get(suffix, "count/op")


def traced(workload: str, seed: int, seconds: float, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]
    result, _ = _work(common + ["--seconds", str(_pass_seconds(workload, seconds)),
                                "--trace", "1"], deadline)
    attempted, failed, lines = _summary(workload, result["ops"])
    replay, _ = _work(common + ["--limit", str(attempted)], deadline)
    r_attempted, r_failed, r_lines = _summary(workload, replay["ops"])
    lines += r_lines
    layers = dict(result["layers"])
    layers["trace.overhead_ratio"] = (sum(r["ref_s"] for r in result["ops"])
                                      / sum(r["ref_s"] for r in replay["ops"]))
    for name, value in sorted(layers.items()):
        lines.append(f"{workload}  {name} = {value:.6g} {layer_unit(name)}")
    for command, sub in result["by_command"].items():
        lines.append(
            f"{workload}  [{command}] theta.useful_ratio = "
            f"{sub['theta.useful_ratio']:.4g}, classnum.memo_hit_ratio = "
            f"{sub['classnum.memo_hit_ratio']:.4g}, theta.self_share = "
            f"{sub['theta.self_share']:.4g}")
    if result["absent_hooks"]:
        lines.append(f"{workload}  absent hooks: "
                     + ", ".join(result["absent_hooks"]))
    note = result.get("theta_engines")
    if note and "timed" in note:
        lines.append(
            f"{workload}  note: theta on {note['timed']} of {note['keys']} "
            f"distinct keys: {note['production']} {note['production_ms']:.1f} ms,"
            f" theta_enum {note['enum_ms']:.1f} ms, enum faster on "
            f"{note['enum_faster']}, values agree: {note['all_agree']}")
    elif note:
        lines.append(f"{workload}  note: theta engines not compared, absent "
                     f"{note['absent']}")
    lines.append(f"{workload}  spans written to {result['spans_file']}")
    packed = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    return (attempted + r_attempted, failed + r_failed, packed, lines)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    measure = traced if trace else end_to_end
    attempted, failed, metrics, lines = measure(workload, seed, seconds, deadline)
    for line in lines:
        print(line, flush=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "csaclass" / "cli.py").is_file():
        print(f"error: no csaclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run(name, args.seed, args.seconds, args.trace)
                   for name in names}
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = results[args.workload] if args.workload != "all" else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
