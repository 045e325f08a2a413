"""Command line interface: JSON config in, canonical JSON or text report out.

Exit codes: 0 success, 1 a failed selfcheck or an unwritable stdout, 2
config/validation error, 3 integrality violation, 4 work budget exceeded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import itemgetter
from types import GeneratorType, SimpleNamespace

from .algebra import INFINITY, AlgebraSpec, Place, validate
from .basefield import BaseField, pic_order
from .classnum import (DEFAULT_BUDGET, class_number_report, embedding_count,
                       selfcheck, total_class_number_genera, transfer_check)
from .errors import (BudgetExceededError, CsaClassError,
                     IntegralityViolationError, ValidationError)
from .massform import mass_hereditary
from .omega import enumerate_omega
from .orders import OrderSpec
from .theta import omega_size, theta


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


def _fraction_parts(text: str) -> tuple[int, int]:
    """(numerator, denominator) of `Fraction(text)`: a plain
    "[+-]digits[/digits]" in ASCII is read with int() and reduced by the
    gcd; any other spelling goes to `Fraction`, which accepts or refuses it.
    Raises ValueError or ZeroDivisionError as `Fraction` does."""
    num, slash, den = text.partition("/")
    if (text.isascii() and (den.isdigit() or not slash)
            and (num.isdigit() or num[:1] in "+-" and num[1:].isdigit())):
        kappa, d = int(num), int(den) if slash else 1
        if d == 0:
            raise ZeroDivisionError(f"Fraction({kappa}, 0)")
        g = gcd(kappa, d)
        return kappa // g, d // g
    value = Fraction(text)
    return value.numerator, value.denominator


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
        if "integer string conversion" in str(exc):
            raise  # a message past the digit cap; parse_config reports it
        errors.append(f"base: {exc}")
    return None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; raises ConfigError on any problem."""
    try:
        return _read_config(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ConfigError([f"schema: not valid JSON ({exc})"]) from None
    except ValueError as exc:
        # An integer past the interpreter's digit cap: in the JSON, or a
        # value read from it that a message prints, such as "1e5000".
        if "integer string conversion" not in str(exc):
            raise
        raise ConfigError([f"schema: an integer has more than "
                           f"{sys.get_int_max_str_digits()} digits"]) from None
    except RecursionError:
        raise ConfigError(["schema: JSON nested too deep"]) from None


def _read_config(doc) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError(["schema: top level must be an object"])
    errors: list[str] = []
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
    delta = base.infinity_degree
    for idx, entry in enumerate(ramification):
        path = f"ramification[{idx}]"
        if not isinstance(entry, dict) or "place" not in entry:
            errors.append(f"{path}: expected an object with a 'place' field")
            continue
        label = entry["place"]
        if type(label) is not str:
            errors.append(f"{path}.place: not a string")
            continue
        at_infinity = label == INFINITY
        if at_infinity:
            if infinity_listed:
                errors.append(f"{path}.place: infinity listed twice")
                continue
            infinity_listed = True
        kappa, d = None, 1
        if "invariant" in entry:
            value = entry["invariant"]
            if type(value) is int:
                kappa = value
            elif type(value) is not str:
                errors.append(f"{path}.invariant: not a string or an integer")
                continue
            else:
                try:
                    kappa, d = _fraction_parts(value)
                except (ValueError, ZeroDivisionError):
                    errors.append(f"{path}.invariant: not a fraction")
                    continue
        if not at_infinity and "degree" not in entry:
            errors.append(f"{path}.degree: required for finite places")
            continue
        deg = entry.get("degree", delta)
        if type(deg) is not int:
            errors.append(f"{path}.degree: not an integer")
            continue
        if at_infinity:
            if deg != delta:
                errors.append(f"{path}.degree: infinity has degree {delta} "
                              "on this base field")
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

    order_node = doc.get("order", {})
    if not isinstance(order_node, dict):
        raise ConfigError(["order: expected an object"])
    invariant_node = order_node.get("invariants", {})
    if not isinstance(invariant_node, dict):
        raise ConfigError(["order.invariants: expected an object"])
    # Entry types and emptiness are checked here; OrderSpec normalises.
    invariants = []
    for label, vec in invariant_node.items():
        path = f"order.invariants[{label!r}]"
        try:
            f_vec = tuple(_integer(e, f"entry {i}") for i, e in enumerate(vec))
        except TypeError as exc:
            errors.append(f"{path}: {exc}")
            continue
        if f_vec:
            invariants.append((label, f_vec))
        else:
            errors.append(f"{path}: invariant vector must be non-empty")
    if errors:
        raise ConfigError(errors)
    try:
        order = OrderSpec(spec, tuple(sorted(invariants)))
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
        if value is None or type(value) is bool:
            return json.dumps(value)
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
    key.  A value that is a generator yields its text in chunks, already
    encoded for its key in that mode, and each chunk is written as it comes;
    the text between such values goes out in one write, so a report without
    one is a single write.
    """
    write = sys.stdout.write
    if output == "json":
        first, sep, end = "{\n  ", ",\n  ", "\n}\n"
    else:
        first, sep, end = "", "\n", "\n"
    quote = encode_basestring_ascii if output == "json" else str
    text = ""
    for i, (key, value) in enumerate(sorted(report.items())):
        text += f"{sep if i else first}{quote(key)}: "
        if isinstance(value, GeneratorType):
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


def _cmd_omega(order: OrderSpec, args) -> dict:
    v = _place_arg(order, args.place)
    f_vec = order.invariant_at(args.place)
    # The set is sized, and checked against the budget, before it is walked.
    count = omega_size(v, f_vec, args.s, budget=args.budget)
    if count > args.budget:
        raise BudgetExceededError(
            f"omega: local index set of {count} elements exceeds budget of "
            f"{args.budget}")
    out: dict = {"place": args.place, "s": args.s, "count": count}
    if args.list:
        out["elements"] = [[list(slice_vec) for slice_vec in elem]
                           for elem in enumerate_omega(v, f_vec, args.s)]
    return out


# Rows after which a chunk ends: it holds fewer than this plus one block.
_CHUNK_ROWS = 2048


def _per_genus_chunks(report, output: str):
    """`per_genus` as text chunks: together, the list of row dicts
    ({"class_number": h, "genus": {label: vector}}) as `_emit` writes it
    under a top-level key in `output` mode.

    A row is the head of its class number, picked by its genus's reduced
    vectors, then one entry per axis from the axis's walk, each with the
    text that follows it baked in.  Each walk block of the last axis
    becomes its rows by three slice assignments; chunks join whole blocks.
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
        walk = axis.walk(
            f"{encode_basestring_ascii(axis.label)}: [{vec_open}", vec_sep,
            f"{vec_close}]" + (genus_sep if j + 1 < len(axes)
                               else f"{genus_close}}}{row_close}}}"))
        walks.append(walk if axis is largest else [(
            "", [prefix + tail for prefix, tails, _ in walk for tail in tails],
            [pick for *_, picks in walk for pick in picks])])

    def blocks(depth: int, key: int, outer: str):
        """The rows whose first `depth` entries read `outer` and reduce to
        the tuple numbered `key` in `report.table`: a list of (head, text,
        text) pieces per block of the last axis's walk."""
        key *= len(axes[depth].reduced)
        if depth + 1 < len(axes):
            for prefix, tails, picks in walks[depth]:
                for tail, pick in zip(tails, picks):
                    yield from blocks(depth + 1, key + pick,
                                      outer + prefix + tail)
            return
        key_heads = heads[key:key + len(axes[depth].reduced)]
        for prefix, tails, picks in walks[depth]:
            block = [outer + prefix] * (3 * len(tails))
            picked = itemgetter(*picks)(key_heads)
            # itemgetter gives a one-row block its head bare, not in a tuple.
            block[::3] = picked if len(picks) > 1 else (picked,)
            block[2::3] = tails
            yield block

    parts = blocks(0, 0, "") if axes else iter([[heads[0]]])
    # Every order has at least one genus; its first row opens the list.
    chunk = next(parts)
    chunk[0] = f"[{list_open}" + chunk[0][len(row_sep):]
    for block in parts:
        if len(chunk) >= 3 * _CHUNK_ROWS:
            yield "".join(chunk)
            chunk = []
        chunk += block
    chunk.append(f"{list_close}]")
    yield "".join(chunk)


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
    return {**report._asdict(), "equal": report.equal}


def _cmd_selfcheck(order: OrderSpec, args) -> dict:
    checks = selfcheck(order, budget=args.budget)
    return {"checks": checks, "all_passed": all(checks.values())}


# Each command's function and its options after the command word, as
# (flag, type): a bool option is a flag, every other one is required and
# takes the next word as its value.
_COMMANDS = {
    "classnum": (_cmd_classnum, ()),
    "mass": (_cmd_mass, ()),
    "theta": (_cmd_theta, (("--place", str), ("--s", int))),
    "omega": (_cmd_omega, (("--place", str), ("--s", int), ("--list", bool))),
    "genera": (_cmd_genera, ()),
    "embed": (_cmd_embed, (("--s", int),)),
    "transfer": (_cmd_transfer, (("--s", int), ("--s2", int))),
    "selfcheck": (_cmd_selfcheck, ()),
}


@functools.cache
def build_parser():
    """The one argparse parser, built on first use; parse_args leaves it
    unchanged.  Only command lines that `_plain_args` does not read reach
    it, so a plain run imports no argparse."""
    import argparse

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
    for command, (_, options) in _COMMANDS.items():
        p = sub.add_parser(command)
        for flag, kind in options:
            if kind is bool:
                p.add_argument(flag, action="store_true")
            else:
                p.add_argument(flag, type=kind, required=True)
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The attributes `build_parser().parse_args(argv)` sets, read without
    argparse, for an argv spelled plainly: `--config P [--output json|text]
    [--budget N] [--timings] <command> [its options]`, each option spelled
    in full and given once, and each value the next word, one that does not
    start with "-".  None for any other argv, so that argparse reads it and
    its help, usage and errors stay as they are."""
    options = {"--config": str, "--output": str, "--budget": int,
               "--timings": bool}
    args = {"output": "json", "budget": DEFAULT_BUDGET, "timings": False}
    words = iter(argv)
    for word in words:
        kind = options.pop(word, None)
        if kind is bool:
            args[word[2:]] = True
        elif kind is not None:
            value = next(words, "-")
            if value.startswith("-"):
                return None
            try:
                args[word[2:]] = kind(value)
            except ValueError:
                return None
        elif "command" not in args and word in _COMMANDS:
            args["command"] = word
            options = dict(_COMMANDS[word][1])
            args.update((flag[2:], False)
                        for flag, kind in options.items() if kind is bool)
        else:
            return None
    if ("command" not in args or "config" not in args
            or args["output"] not in ("json", "text")
            or any(kind is not bool for kind in options.values())):
        return None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
    if args.budget < 0:
        print(f"error: --budget: must be >= 0, got {args.budget}",
              file=sys.stderr)
        return 2
    try:
        with open(args.config, "rb", buffering=0) as fh:
            text = fh.read().decode()
        # Text mode's newline translation, which JSON error positions count.
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        config = parse_config(text)
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
        report = _COMMANDS[layer][0](config.order, args)
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
