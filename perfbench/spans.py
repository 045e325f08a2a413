"""In-memory spans around calls into the csaclass layers.

Hooks wrap a name in the namespace of the module that calls it, for example
`csaclass.classnum.theta` or `csaclass.cli.parse_config`, so a span opens
wherever that module calls the function, whatever module defines it.  The
layer of a span is the `__module__` of the wrapped function.  A hook whose
module or name no longer exists is reported as absent.

A span's duration is the time spent inside the call; for a generator it is
the time spent inside all of its resumptions, and its `items` counts what it
yielded.  Spans are recorded only while an op is active.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# (calling module, name).  Every call the CLI makes into another layer is
# hooked, so that the CLI's self time is its own parsing and formatting.
HOOKS = (
    ("csaclass.cli", "main"),
    ("csaclass.cli", "parse_config"),
    ("csaclass.cli", "class_number_report"),
    ("csaclass.cli", "weight_class_numbers"),
    ("csaclass.cli", "embedding_count"),
    ("csaclass.cli", "transfer_check"),
    ("csaclass.cli", "total_class_number_genera"),
    ("csaclass.cli", "mass_hereditary"),
    ("csaclass.cli", "theta"),
    ("csaclass.cli", "theta_enum"),
    ("csaclass.cli", "theta_genfun"),
    ("csaclass.cli", "count_omega"),
    ("csaclass.cli", "enumerate_omega"),
    ("csaclass.cli", "validate"),
    ("csaclass.cli", "constant_field_degree"),
    ("csaclass.classnum", "weight_class_numbers"),
    ("csaclass.classnum", "level_rhs"),
    ("csaclass.classnum", "class_number"),
    ("csaclass.classnum", "derived_order"),
    ("csaclass.classnum", "theta"),
    ("csaclass.classnum", "mass_hereditary"),
    ("csaclass.classnum", "mass_maximal"),
    ("csaclass.classnum", "centralizer_spec"),
    ("csaclass.classnum", "constant_field_degree"),
    ("csaclass.classnum", "constant_extension"),
    ("csaclass.classnum", "enumerate_omega"),
    ("csaclass.classnum", "enumerate_genera"),
    ("csaclass.classnum", "count_genera"),
    ("csaclass.massform", "mass_hereditary"),
    ("csaclass.massform", "centralizer_spec"),
    ("csaclass.massform", "zeta_at_negative"),
    ("csaclass.massform", "local_unit_index"),
    ("csaclass.algebra", "constant_extension"),
    ("csaclass.theta", "enumerate_omega"),
    ("csaclass.theta", "local_unit_index"),
)

LAYERS = ("cli", "classnum", "theta", "omega", "massform", "algebra",
          "basefield", "orders")

# Span fields, stored as lists so that durations can accumulate in place.
OP, SID, PARENT, LAYER, NAME, DUR, ITEMS, KEY = range(8)


def theta_key(bound: inspect.BoundArguments):
    """Label-free (q, deg v, d_v, f_v, s) of a theta call, or None."""
    args = bound.arguments
    try:
        place = args["place"]
        return (args["q"], place.degree, place.local_index,
                tuple(args["f_vec"]), args["s"])
    except (KeyError, AttributeError, TypeError):
        return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self, hooks=HOOKS) -> None:
        for module_name, attr in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _open(self, layer: str, name: str, key) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [self.op, len(self.spans), parent, layer, name, 0.0, 0, key]
        self.spans.append(span)
        return span

    def _wrap(self, fn):
        layer = (getattr(fn, "__module__", None) or "?").rsplit(".", 1)[-1]
        name = fn.__name__
        sig = None
        if layer == "theta":
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError):
                pass
        stack = self._stack
        clock = time.perf_counter

        def key_of(args, kwargs):
            if sig is None:
                return None
            try:
                return theta_key(sig.bind(*args, **kwargs))
            except TypeError:
                return None

        if inspect.isgeneratorfunction(fn):
            def traced_gen(span, gen):
                try:
                    while True:
                        stack.append(span[SID])
                        started = clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            span[DUR] += clock() - started
                            stack.pop()
                        span[ITEMS] += 1
                        yield item
                finally:
                    gen.close()

            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if self.op is None:
                    return gen
                return traced_gen(self._open(layer, name, key_of(args, kwargs)), gen)
        else:
            def wrapper(*args, **kwargs):
                if self.op is None:
                    return fn(*args, **kwargs)
                span = self._open(layer, name, key_of(args, kwargs))
                stack.append(span[SID])
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[DUR] += clock() - started
                    stack.pop()

        return functools.wraps(fn)(wrapper)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[DUR]
    return [s[DUR] - child[s[SID]] for s in spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `ops` traced ops.

    Counts and times are means per op; ratios are over the whole run.  A
    layer's `calls` and `ms` count entries into it: spans whose parent is in
    another layer.  `theta.useful_ratio` is distinct theta keys per op over
    theta calls; `classnum.memo_hit_ratio` is the share of weight solves
    with no `level_rhs` span below them.
    """
    selfs = self_times(spans)
    layer_of = [s[LAYER] for s in spans]
    entry = [s[PARENT] is None or layer_of[s[PARENT]] != s[LAYER] for s in spans]

    def count(pred) -> int:
        return sum(1 for s in spans if pred(s))

    def ms(pred) -> float:
        return 1000 * sum(s[DUR] for s in spans if pred(s))

    def by_name(name):
        return lambda s: s[NAME] == name

    def entries(layer):
        return lambda s: entry[s[SID]] and s[LAYER] == layer

    # A weight solve that opened no level_rhs span below it hit the memo.
    solved = set()
    for s in spans:
        if s[NAME] == "level_rhs":
            p = s[PARENT]
            while p is not None:
                if spans[p][NAME] == "weight_class_numbers":
                    solved.add(p)
                p = spans[p][PARENT]
    solves = [s[SID] for s in spans if s[NAME] == "weight_class_numbers"]
    hits = sum(1 for sid in solves if sid not in solved)

    theta_calls = [s for s in spans if entries("theta")(s)]
    distinct = len({(s[OP], s[KEY]) for s in theta_calls if s[KEY] is not None})
    root_ms = ms(lambda s: s[PARENT] is None)
    self_ms = {}
    for layer, value in zip(layer_of, selfs):
        self_ms[layer] = self_ms.get(layer, 0.0) + 1000 * value

    per_op = {
        "theta.calls": len(theta_calls),
        "theta.distinct": distinct,
        "theta.ms": ms(entries("theta")),
        "classnum.solve_calls": len(solves),
        "classnum.level_solves": count(by_name("level_rhs")),
        "classnum.derived_orders": count(by_name("derived_order")),
        "classnum.derived_order_ms": ms(by_name("derived_order")),
        "omega.calls": count(entries("omega")),
        "omega.elements": sum(s[ITEMS] for s in spans if entries("omega")(s)),
        "omega.ms": ms(entries("omega")),
        "massform.calls": count(entries("massform")),
        "massform.ms": ms(entries("massform")),
        "algebra.centralizer_calls": count(by_name("centralizer_spec")),
        "algebra.centralizer_ms": ms(by_name("centralizer_spec")),
        "basefield.extension_calls": count(by_name("constant_extension")),
        "basefield.extension_ms": ms(by_name("constant_extension")),
        "orders.unit_index_calls": count(by_name("local_unit_index")),
        "orders.genera": sum(s[ITEMS] for s in spans
                             if s[NAME] == "enumerate_genera"),
        "cli.parse_ms": ms(by_name("parse_config")),
    }
    for layer in LAYERS:
        per_op[f"{layer}.self_ms"] = self_ms.get(layer, 0.0)
    out = {k: v / ops if ops else 0.0 for k, v in per_op.items()}
    out["theta.useful_ratio"] = _ratio(distinct, len(theta_calls))
    out["theta.self_share"] = _ratio(self_ms.get("theta", 0.0), root_ms)
    out["classnum.memo_hit_ratio"] = _ratio(hits, len(solves))
    return out

