"""One pass of a workload, run by worker.py once `csaclass.cli` is imported.

Ops go through `csaclass.cli.main(argv)` in process, one at a time, until
the op stream ends, `--limit` ops have run or `--seconds` have passed.  Only
the `main` call is timed; writing the config file and checking the output
are not.  Each op record holds its wall time and that time at the reference
speed of speed.py, from the speed loop timed nearest to it.  The last line
of stdout is a JSON record of the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import importlib
import io
import json
import resource
import shutil
import time

from checks import CheckFailed, check
from spans import KEY, LAYER, OP, PARENT, SID, Tracer, layer_metrics
from speed import at_reference, calibrate, nearby
from workloads import ROOT, ops

OUT_DIR = ROOT / ".perfbench"
CALIBRATE_EVERY_S = 0.2   # op time between two timings of the speed loop


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, n))


def _prime_degree_check(cli, classnum):
    """The prime-degree closed form for ops whose algebra degree is prime."""
    def order_check(op):
        if not _prime(op.config["degree"]):
            return None
        order = cli.parse_config(json.dumps(op.config)).order
        return classnum.prime_degree_class_number(order)
    return order_check


def _run_op(cli, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        finally:
            elapsed = time.perf_counter() - started
    return rc, out.getvalue(), err.getvalue(), elapsed


def _timed_ms(fn, *args):
    started = time.perf_counter()
    value = fn(*args)
    return (time.perf_counter() - started) * 1000, value


def _theta_engines_note(keys, budget_s: float) -> dict:
    """Time theta_enum against the production theta on the same keys."""
    from csaclass.algebra import Place
    theta_mod = importlib.import_module("csaclass.theta")
    production = (getattr(theta_mod, "theta_genfun", None)
                  or getattr(theta_mod, "theta", None))
    enum = getattr(theta_mod, "theta_enum", None)
    if enum is None or production is None:
        return {"absent": "csaclass.theta.theta_enum or its production theta"}
    note = {"production": production.__name__, "keys": len(keys), "timed": 0,
            "production_ms": 0.0, "enum_ms": 0.0, "enum_faster": 0,
            "all_agree": True}
    deadline = time.perf_counter() + budget_s
    for q, deg, d, f_vec, s in sorted(keys):
        if time.perf_counter() > deadline:
            break
        args = (Place("v", deg, d), f_vec, s, q)
        production_ms, expected = _timed_ms(production, *args)
        enum_ms, value = _timed_ms(enum, *args)
        note["timed"] += 1
        note["production_ms"] += production_ms
        note["enum_ms"] += enum_ms
        note["enum_faster"] += enum_ms < production_ms
        note["all_agree"] &= value == expected
    return note


def main(argv, cli, classnum) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass", dest="pass_no", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = Tracer()
    if args.trace:
        tracer.install()
    order_check = _prime_degree_check(cli, classnum)

    tmp = OUT_DIR / f"tmp-{args.workload}-{args.seed}-{args.pass_no}-{args.trace}"
    tmp.mkdir(parents=True, exist_ok=True)
    records = []
    output_bytes = 0
    loops = [(0, calibrate())]   # (index of the next op, loop time)
    since_loop = 0.0
    deadline = time.perf_counter() + args.seconds
    try:
        for idx, op in enumerate(ops(args.workload, args.seed, args.pass_no)):
            if args.limit is not None and idx >= args.limit:
                break
            if args.limit is None and time.perf_counter() >= deadline:
                break
            path = tmp / f"op{idx}.json"
            path.write_text(json.dumps(op.config), encoding="utf-8")
            tracer.op = idx
            rc, out, err, elapsed = _run_op(
                cli, ["--config", str(path), *op.argv])
            tracer.op = None
            path.unlink()
            output_bytes += len(out.encode())
            records.append({"name": op.name, "command": op.command,
                            "wall_s": elapsed, "ref_s": None,
                            "failure": _failure(op, rc, out, err, order_check),
                            "rss_mb": _peak_rss_mb()})
            since_loop += elapsed
            if since_loop >= CALIBRATE_EVERY_S:
                loops.append((idx + 1, calibrate()))
                since_loop = 0.0
        loops.append((len(records), calibrate()))
        for i, rec in enumerate(records):
            rec["ref_s"] = at_reference(rec["wall_s"], nearby(loops, i))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {"ops": records}
    if args.trace:
        tracer.uninstall()
        result.update(_trace_report(tracer, records, output_bytes, args))
    print(json.dumps(result), flush=True)
    return 0


def _failure(op, rc: int, out: str, err: str, order_check) -> str | None:
    """Why the op failed, or None when it exited 0 with a correct report."""
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    try:
        check(op, out, order_check)
    except CheckFailed as exc:
        return f"check: {exc}"
    except Exception as exc:  # a crash in a check is a failure, not a stop
        return f"check raised {exc!r}"
    return None


def _trace_report(tracer, records, output_bytes: int, args) -> dict:
    """Per-layer metrics, for the run and per command, and the spans file."""
    layers = layer_metrics(tracer.spans, len(records))
    layers["cli.output_bytes"] = output_bytes / max(len(records), 1)
    by_command = {}
    for command in sorted({r["command"] for r in records}):
        ids = {i for i, r in enumerate(records) if r["command"] == command}
        subset = _renumber([s for s in tracer.spans if s[OP] in ids])
        by_command[command] = layer_metrics(subset, len(ids))
    report = {"absent_hooks": tracer.absent, "layers": layers,
              "by_command": by_command}
    if args.workload == "ladder":
        keys = {s[KEY] for s in tracer.spans
                if s[LAYER] == "theta" and s[KEY] is not None}
        report["theta_engines"] = _theta_engines_note(keys, budget_s=20.0)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    return report


def _renumber(spans):
    """Copy a subset of spans with ids and parent ids renumbered densely."""
    new_id = {s[SID]: i for i, s in enumerate(spans)}
    return [[s[OP], new_id[s[SID]], new_id.get(s[PARENT]), *s[PARENT + 1:]]
            for s in spans]

