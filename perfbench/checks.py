"""Output checks, run on each op's captured stdout outside the timed interval.

The mass is recomputed here from the closed form, independently of the
program: #Pic(A)/(q-1) * prod_{i<n} zeta_K(-i), one ramification factor per
ramified place and one unit index per non-maximal place.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

from workloads import Op

GOLDEN = {"mass": "169/5", "h": {"1": 64, "2": 14, "4": 4}, "h_total": 82}


class CheckFailed(Exception):
    """An op's output is malformed or wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _unit_index(N: int, d: int, f_vec) -> Fraction:
    num = 1
    for i in range(1, sum(f_vec) + 1):
        num *= N ** (d * i) - 1
    den = 1
    for e in f_vec:
        for j in range(1, e + 1):
            den *= N ** (d * j) - 1
    return Fraction(num, den)


def expected_mass(config: dict) -> Fraction:
    """Mass of the config's order, from the closed form above."""
    base = config["base"]
    q = base["q"]
    poly = base.get("l_polynomial", [1])
    inf_deg = base.get("infinity_degree", 1)

    def P(x: int) -> int:
        return sum(c * x ** k for k, c in enumerate(poly))

    n = config["degree"]
    mass = Fraction(base.get("pic_order", P(1) * inf_deg), q - 1)
    for i in range(1, n):
        mass *= Fraction(P(q ** i), (1 - q ** i) * (1 - q ** (i + 1)))
    places = {}
    for entry in config["ramification"]:
        deg = entry.get("degree", inf_deg)
        d = Fraction(entry["invariant"]).denominator if "invariant" in entry else 1
        places[entry["place"]] = (q ** deg, d)
        for i in range(1, n):
            if i % d:
                mass *= (q ** deg) ** i - 1
    for label, f_vec in config.get("order", {}).get("invariants", {}).items():
        N, d = places[label]
        mass *= _unit_index(N, d, f_vec)
    return mass


def genus_count(config: dict) -> int:
    """Number of genera: prod over non-maximal places of C(m+r-1, r-1)."""
    total = 1
    for f_vec in config.get("order", {}).get("invariants", {}).values():
        if len(f_vec) > 1:
            total *= comb(sum(f_vec) + len(f_vec) - 1, len(f_vec) - 1)
    return total


def _frac(text) -> Fraction:
    _require(isinstance(text, (int, str)), f"not an exact rational: {text!r}")
    return Fraction(text)


def _check_classnum(op: Op, out: dict, order_check) -> None:
    q = op.config["base"]["q"]
    h = {int(s): v for s, v in out["h"].items()}
    _require(all(isinstance(v, int) and v >= 0 for v in h.values()),
             "h_s not non-negative integers")
    _require(out["h_total"] == sum(h.values()), "h_total != sum h_s")
    mass = _frac(out["mass"])
    _require(mass == expected_mass(op.config), "mass != closed form")
    resum = sum((Fraction(v, q ** s - 1) for s, v in h.items()), Fraction(0))
    _require(resum == mass, "sum h_s/(q^s-1) != mass")
    if op.name == "golden":
        _require({k: out[k] for k in GOLDEN} == GOLDEN, "golden values differ")
    expected = order_check(op) if order_check is not None else None
    if expected is not None:
        _require(expected == out["h_total"], "prime-degree formula != h_total")


def check(op: Op, stdout: str, order_check=None) -> None:
    """Raise CheckFailed unless `stdout` is a correct report for `op`.

    `order_check(op)`, when given, returns the prime-degree closed-form class
    number for ops on prime-degree algebras, and None otherwise.
    """
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON ({exc})") from None
    _require(stdout == json.dumps(out, sort_keys=True, indent=2) + "\n",
             "output is not canonical JSON")
    try:
        if op.command == "classnum":
            _check_classnum(op, out, order_check)
        elif op.command == "mass":
            _require(_frac(out["mass"]) == expected_mass(op.config),
                     "mass != closed form")
        elif op.command == "embed":
            s = int(op.argv[op.argv.index("--s") + 1])
            e = out["embeddings"]
            _require(out["s"] == s and isinstance(e, int) and e >= 0
                     and e % s == 0, "embedding count not a multiple of s")
        elif op.command == "transfer":
            _require(out["equal"] is True and out["lhs"] == out["rhs"],
                     "transfer principle fails")
        elif op.command == "genera":
            rows = out["per_genus"]
            _require(out["total"] == sum(r["class_number"] for r in rows),
                     "genera total != sum of rows")
            _require(out["count"] == len(rows) == genus_count(op.config),
                     "genus count wrong")
        else:
            raise CheckFailed(f"no check for command {op.command!r}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckFailed(f"malformed report ({exc!r})") from None
