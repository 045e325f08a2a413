"""Command line interface: JSON config in, canonical JSON or text report out.

Exit codes: 0 success, 1 a failed selfcheck or an unwritable stdout, 2
config/validation error, 3 integrality violation, 4 work budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii

from .algebra import INFINITY, AlgebraSpec, Place, validate
from .basefield import BaseField, pic_order
from .classnum import (DEFAULT_BUDGET, _level_solver, _one_term, _resum,
                       class_number_report, embedding_count,
                       total_class_number_genera, transfer_check)
from .errors import (BudgetExceededError, CsaClassError,
                     IntegralityViolationError, ValidationError)
from .massform import mass_hereditary
from .omega import enumerate_omega
from .orders import OrderSpec, normalize_invariant
from .theta import omega_size, theta, theta_enum


class ConfigError(ValidationError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


RunConfig = namedtuple("RunConfig", "order")


def _integer(value, name: str) -> int:
    """`value` if the JSON held an integer; a float, a boolean or a string
    is refused, not truncated or converted."""
    if type(value) is not int:
        raise TypeError(f"{name} is not an integer")
    return value


def _parse_base(node, errors: list[str]) -> BaseField | None:
    if not isinstance(node, dict):
        errors.append("base: expected an object")
        return None
    base_type = node.get("type")
    if base_type not in ("rational_function_field", "custom"):
        errors.append(f"base.type: unknown kind {base_type!r}")
        return None
    try:
        q = _integer(node["q"], "q")
        infinity_degree = _integer(node.get("infinity_degree", 1), "infinity_degree")
        declared = (_integer(node["pic_order"], "pic_order")
                    if "pic_order" in node else None)
        l_poly = (1,) if base_type == "rational_function_field" else [
            _integer(c, f"l_polynomial[{i}]")
            for i, c in enumerate(node["l_polynomial"])]
        base = BaseField(q, l_poly, infinity_degree)
        # AlgebraSpec checks this too, but the fault lies in `base`.
        base.check_class_number()
        if declared is not None and declared != pic_order(base):
            raise ValidationError(
                f"pic_order {declared} differs from #Pic(A) = "
                f"P(1) * infinity_degree = {pic_order(base)}")
        return base
    except KeyError as exc:
        errors.append(f"base.{exc.args[0]}: missing field")
    except (TypeError, ValueError, ValidationError) as exc:
        errors.append(f"base: {exc}")
    return None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; raises ConfigError on any problem."""
    errors: list[str] = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"schema: not valid JSON ({exc})"]) from None
    except ValueError:  # an integer past the interpreter's digit cap
        raise ConfigError([f"schema: an integer has more than "
                           f"{sys.get_int_max_str_digits()} digits"]) from None
    except RecursionError:
        raise ConfigError(["schema: JSON nested too deep"]) from None
    if not isinstance(doc, dict):
        raise ConfigError(["schema: top level must be an object"])

    base = _parse_base(doc.get("base"), errors)
    try:
        degree = _integer(doc["degree"], "degree")
    except (KeyError, TypeError):
        errors.append("degree: missing or not an integer")
        degree = 0
    if errors:
        raise ConfigError(errors)

    finite_places: list[Place] = []
    infinity_listed = False
    infinity_invariant: int | None = None
    ramification = doc.get("ramification", [])
    if not isinstance(ramification, list):
        raise ConfigError(["ramification: expected a list"])
    for idx, entry in enumerate(ramification):
        path = f"ramification[{idx}]"
        if not isinstance(entry, dict) or "place" not in entry:
            errors.append(f"{path}: expected an object with a 'place' field")
            continue
        label = entry["place"]
        if type(label) is not str:
            errors.append(f"{path}.place: not a string")
            continue
        if label == INFINITY:
            if infinity_listed:
                errors.append(f"{path}.place: infinity listed twice")
                continue
            infinity_listed = True
        if "invariant" in entry:
            if type(entry["invariant"]) not in (str, int):
                errors.append(f"{path}.invariant: not a string or an integer")
                continue
            try:
                inv = Fraction(str(entry["invariant"]))
            except (ValueError, ZeroDivisionError):
                errors.append(f"{path}.invariant: not a fraction")
                continue
            kappa, d = inv.numerator, inv.denominator
        else:
            kappa, d = None, 1
        if label != INFINITY and "degree" not in entry:
            errors.append(f"{path}.degree: required for finite places")
            continue
        try:
            deg = _integer(entry.get("degree", base.infinity_degree), "degree")
        except TypeError:
            errors.append(f"{path}.degree: not an integer")
            continue
        if label == INFINITY:
            if deg != base.infinity_degree:
                errors.append(
                    f"{path}.degree: infinity has degree "
                    f"{base.infinity_degree} on this base field")
            elif d != degree and degree >= 1:  # else AlgebraSpec says why
                errors.append(f"algebra: not definite: d_infinity = {d} "
                              f"!= n = {degree}")
            infinity_invariant = kappa
        else:
            try:
                finite_places.append(Place(label, deg, d, kappa))
            except ValidationError as exc:
                errors.append(f"{path}: {exc}")
    if errors:
        raise ConfigError(errors)

    try:
        spec = AlgebraSpec(base, degree, tuple(finite_places),
                           infinity_invariant)
    except ValidationError as exc:
        raise ConfigError([f"algebra: {exc}"]) from None
    violations = validate(spec)
    if violations:
        raise ConfigError([f"algebra: {v}" for v in violations])

    invariants: dict[str, tuple[int, ...]] = {}
    order_node = doc.get("order", {})
    if not isinstance(order_node, dict):
        raise ConfigError(["order: expected an object"])
    invariant_node = order_node.get("invariants", {})
    if not isinstance(invariant_node, dict):
        raise ConfigError(["order.invariants: expected an object"])
    for label, vec in invariant_node.items():
        path = f"order.invariants[{label!r}]"
        try:
            invariants[label] = normalize_invariant(
                _integer(e, f"entry {i}") for i, e in enumerate(vec))
        except (TypeError, ValueError, ValidationError) as exc:
            errors.append(f"{path}: {exc}")
    if errors:
        raise ConfigError(errors)
    try:
        order = OrderSpec(spec, tuple(sorted(invariants.items())))
    except ValidationError as exc:
        raise ConfigError([f"order: {exc}"]) from None
    return RunConfig(order)


def _fraction(value):
    """Encoder fallback: exact rationals as "n" or "n/d" strings."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _dumps_indented(value, pad: str = "") -> str:
    """The text of json.dumps(value, sort_keys=True, indent=2,
    default=_fraction), placed at indent `pad`, with each container built by
    one str.join.

    CPython's C encoder does not indent, so json.dumps(indent=2) falls back
    to a pure-Python token generator.  Values may be dicts with str keys,
    lists, tuples, str, int, bool, None and Fraction; anything else raises
    TypeError.
    """
    quote = encode_basestring_ascii  # raises TypeError on a non-str key

    def encode(value, pad: str) -> str:
        if isinstance(value, str):
            return quote(value)
        if type(value) is int:
            return int.__repr__(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(value, dict):
            if not value:
                return "{}"
            items = [f"{quote(k)}: {encode(v, inner)}"
                     for k, v in sorted(value.items())]
            return f"{{\n{inner}{sep.join(items)}\n{pad}}}"
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            items = [encode(e, inner) for e in value]
            return f"[\n{inner}{sep.join(items)}\n{pad}]"
        return quote(_fraction(value))

    return encode(value, pad)


def _emit(report: dict, output: str) -> None:
    """Write the report to the sys.stdout of the moment.

    `--output json` writes json.dumps(report, sort_keys=True, indent=2)
    and a newline; `--output text` writes one `key: <compact JSON>` line per
    key.  A value that is an iterator yields its text in chunks, already
    encoded for its key in that mode, and each chunk is written as it comes;
    the text between such values goes out in one write, so a report without
    one is a single write.
    """
    write = sys.stdout.write
    if output == "json":
        first, sep, end = "{\n  ", ",\n  ", "\n}\n"
    else:
        first, sep, end = "", "\n", "\n"
    text = ""
    for i, (key, value) in enumerate(sorted(report.items())):
        text += sep if i else first
        if output == "json":
            text += f"{encode_basestring_ascii(key)}: "
        else:
            text += f"{key}: "
        if isinstance(value, Iterator):
            write(text)
            for chunk in value:
                write(chunk)
            text = ""
        elif output == "json":
            text += _dumps_indented(value, "  ")
        else:
            text += json.dumps(value, sort_keys=True, default=_fraction)
    write(text + end)


def _cmd_classnum(order: OrderSpec, args) -> dict:
    report = class_number_report(order, budget=args.budget)
    return {
        "s0": report.s0,
        "mass": report.mass,
        "h": {str(level.s): level.h for level in report.levels},
        "h_total": report.h_total,
        "rhs": {str(level.s): level.rhs for level in report.levels},
        "theta": {str(level.s): {label: str(value)
                                 for label, value in level.theta.items()}
                  for level in report.levels},
    }


def _cmd_mass(order: OrderSpec, args) -> dict:
    return {"mass": mass_hereditary(order)}


def _place_arg(order: OrderSpec, label: str) -> Place:
    try:
        return order.algebra.place(label)
    except KeyError:
        raise ValidationError(f"--place: unknown place {label!r}") from None


def _cmd_theta(order: OrderSpec, args) -> dict:
    v = _place_arg(order, args.place)
    value = theta(v, order.invariant_at(args.place), args.s,
                  order.algebra.base.q, budget=args.budget)
    return {"place": args.place, "s": args.s, "theta": str(value)}


def _walkable(layer: str, v: Place, f_vec, s: int, budget: int) -> int:
    """Size of the local index set, from `omega_size`, checked against
    `budget` before the set is walked; the error names `layer`."""
    count = omega_size(v, f_vec, s, budget=budget)
    if count > budget:
        raise BudgetExceededError(
            f"{layer}: local index set of {count} elements exceeds budget of "
            f"{budget}")
    return count


def _cmd_omega(order: OrderSpec, args) -> dict:
    v = _place_arg(order, args.place)
    f_vec = order.invariant_at(args.place)
    out: dict = {"place": args.place, "s": args.s,
                 "count": _walkable("omega", v, f_vec, args.s, args.budget)}
    if args.list:
        out["elements"] = [[list(slice_vec) for slice_vec in elem]
                           for elem in enumerate_omega(v, f_vec, args.s)]
    return out


# Rows of `per_genus` joined into one chunk: a few hundred kB of text.
_CHUNK_ROWS = 2048


def _per_genus_chunks(report, output: str):
    """`per_genus` as text chunks: together, the list of row dicts
    ({"class_number": h, "genus": {label: vector}}) as `_emit` writes it
    under a top-level key in `output` mode.

    A row is the head of its class number, picked by its genus's reduced
    vectors, then one entry per axis from the axis's walk, each with the
    text that follows it baked in.  A chunk joins `_CHUNK_ROWS` rows.
    """
    def padding(depth: int) -> tuple[str, str, str]:
        """(after the opening bracket, between items, before the closing
        bracket) of a container at `depth`."""
        if output != "json":
            return "", ", ", ""
        inner = "\n" + "  " * (depth + 1)
        return inner, "," + inner, "\n" + "  " * depth

    ((list_open, row_sep, list_close), (row_open, field_sep, row_close),
     (genus_open, genus_sep, genus_close),
     (vec_open, vec_sep, vec_close)) = map(padding, (1, 2, 3, 4))
    axes = report.axes
    genus = f"{{{genus_open}" if axes else f"{{}}{row_close}}}"
    heads = [f'{row_sep}{{{row_open}"class_number": {h}{field_sep}"genus": '
             f'{genus}' for h in report.table]
    # An axis is walked once per genus of the axes before it, so all but
    # the largest are joined into one block first.
    largest = max(axes, key=lambda axis: sum(axis.mults), default=None)
    walks = []
    for j, axis in enumerate(axes):
        blocks = axis.walk(
            f"{encode_basestring_ascii(axis.label)}: [{vec_open}", vec_sep,
            f"{vec_close}]" + (genus_sep if j + 1 < len(axes)
                               else f"{genus_close}}}{row_close}}}"))
        walks.append(blocks if axis is largest else [(
            "", [prefix + tail for prefix, tails, _ in blocks
                 for tail in tails],
            [pick for *_, picks in blocks for pick in picks])])

    def rows(depth: int, key: int, outer: str):
        """(head, text, text) of each row whose first `depth` entries read
        `outer` and reduce to the tuple numbered `key` in `report.table`."""
        size = len(axes[depth].reduced)
        key *= size
        if depth + 1 < len(axes):
            return chain.from_iterable(
                rows(depth + 1, key + pick, outer + prefix + tail)
                for prefix, tails, picks in walks[depth]
                for tail, pick in zip(tails, picks))
        row_heads = heads[key:key + size]
        return chain.from_iterable(
            zip(map(row_heads.__getitem__, picks), repeat(outer + prefix),
                tails) for prefix, tails, picks in walks[depth])

    pieces = chain.from_iterable(rows(0, 0, "") if axes else ((heads[0],),))
    chunks = iter(lambda: "".join(islice(pieces, _CHUNK_ROWS * 3)), "")
    # Every order has at least one genus; its first row opens the list.
    yield f"[{list_open}" + next(chunks)[len(row_sep):]
    yield from chunks
    yield f"{list_close}]"


def _cmd_genera(order: OrderSpec, args) -> dict:
    report = total_class_number_genera(order, budget=args.budget)
    return {"count": report.count,
            "per_genus": _per_genus_chunks(report, args.output),
            "total": report.total}


def _cmd_embed(order: OrderSpec, args) -> dict:
    return {"s": args.s,
            "embeddings": embedding_count(order, args.s, budget=args.budget)}


def _cmd_transfer(order: OrderSpec, args) -> dict:
    report = transfer_check(order, args.s, args.s2, budget=args.budget)
    return {"s": report.s, "s2": report.s2, "lhs": report.lhs,
            "rhs": report.rhs, "equal": report.equal}


def _cmd_selfcheck(order: OrderSpec, args) -> dict:
    checks: dict[str, bool] = {}
    spec = order.algebra
    q = spec.base.q
    levels = _level_solver(spec, args.budget)(_one_term(order))

    checks["mass_consistency"] = _resum(levels, q) == mass_hereditary(order)

    def enumerated(label: str, f_vec, s: int) -> int:
        """theta_enum, the oracle here, on a set `_walkable` has sized."""
        v = spec.place(label)
        _walkable(f"selfcheck: place {label!r}, s = {s}", v, f_vec, s,
                  args.budget)
        return theta_enum(v, f_vec, s, q)

    # The enumeration is compared with the theta factors the solve used.
    checks["theta_engines_agree"] = all(
        enumerated(label, order.invariant_at(label), level.s) == value
        for level in levels for label, value in level.theta.items())

    # OrderSpec keeps the least rotation, so the rotated vector goes to the
    # enumeration, which walks the columns in the order given.
    checks["rotation_invariance"] = all(
        enumerated(label, f_vec[1:] + f_vec[:1], level.s)
        == level.theta[label]
        for level in levels for label, f_vec in order.invariants)

    return {"checks": checks, "all_passed": all(checks.values())}


_COMMANDS = {
    "classnum": _cmd_classnum,
    "mass": _cmd_mass,
    "theta": _cmd_theta,
    "omega": _cmd_omega,
    "genera": _cmd_genera,
    "embed": _cmd_embed,
    "transfer": _cmd_transfer,
    "selfcheck": _cmd_selfcheck,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="csaclass",
        description="Exact class numbers of hereditary orders in definite "
                    "central simple algebras over function fields")
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--output", choices=("json", "text"), default="json")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the report")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classnum")
    sub.add_parser("mass")
    p = sub.add_parser("theta")
    p.add_argument("--place", required=True)
    p.add_argument("--s", type=int, required=True)
    p = sub.add_parser("omega")
    p.add_argument("--place", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--list", action="store_true")
    sub.add_parser("genera")
    p = sub.add_parser("embed")
    p.add_argument("--s", type=int, required=True)
    p = sub.add_parser("transfer")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--s2", type=int, required=True)
    sub.add_parser("selfcheck")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.budget < 0:
        print(f"error: --budget: must be >= 0, got {args.budget}",
              file=sys.stderr)
        return 2
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 2

    # Python caps the digits of an int read from or written as text, at
    # 4300 by default.  The config is read under that cap; the command and
    # its output may write integers of max(cap, --budget) digits, and past
    # that the run exits 4 naming the layer it was in.
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no cap
    if cap:
        sys.set_int_max_str_digits(max(cap, min(args.budget, 2 ** 31 - 1)))
    layer = args.command
    started = time.monotonic()
    try:
        report = _COMMANDS[layer](config.order, args)
        if args.timings:
            report["timings_ms"] = {
                layer: int((time.monotonic() - started) * 1000)}
        layer = "output"
        if sys.stdout is None:  # started with fd 1 closed
            return 1
        _emit(report, args.output)
        sys.stdout.flush()
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: {layer}: integer of more than "
              f"{sys.get_int_max_str_digits()} digits exceeds budget of "
              f"{args.budget}", file=sys.stderr)
        return 4
    except CsaClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (4 if isinstance(exc, BudgetExceededError) else
                3 if isinstance(exc, IntegralityViolationError) else 2)
    except OSError:
        # Only the output layer does I/O: the reader has gone, as in
        # `csaclass ... | head`, or fd 1 was closed.  As the Python docs'
        # note on SIGPIPE advises, stdout then points at devnull, so that
        # the flush at exit prints no "Exception ignored".
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 1
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)
    return int(args.command == "selfcheck" and not report["all_passed"])


if __name__ == "__main__":
    sys.exit(main())
