"""Seeded op streams for the three benchmark workloads.

An op is one `csaclass` command line plus the JSON config it reads.  The
same (workload, seed, pass) always yields the same ops in the same order.
Within one stream no two ops pose the same label-free problem (same command,
base field, degree and multiset of (deg v, d_v, f_v)), so no cache inside
the program, keyed on labels or not, can serve one op from another.  Each
stream runs in its own fresh interpreter.

- ladder: an explicit list of classnum rungs where the local theta factors
  do almost all the work.  The list is explicit because random compositions
  at n = 12 and degree 4/6 with ten or more parts take many seconds each.
  The seed picks the rung order, the place labels and the sign of 1/n.
- sweep: an unbounded stream of small random algebras and orders (q <= 5,
  n <= 8, at most three finite ramified places of degree <= 3), some over
  genus-1/2 base fields.  Per-op fixed costs dominate: config parsing,
  validation, centralizer specs, zeta values, output.
- fanout: an explicit list of transfer and genera problems whose global
  index sets and genus counts run into the thousands but need few distinct
  weight solves.  The seed picks the order and the labels.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CONFIG = ROOT / "configs" / "dvg-example.json"

WORKLOADS = ("ladder", "sweep", "fanout")
FINITE = ("ladder", "fanout")


@dataclass(frozen=True)
class Op:
    """One command: `csaclass --config <file> <argv...>` on `config`."""

    name: str
    argv: tuple[str, ...]
    config: dict

    @property
    def command(self) -> str:
        return self.argv[0]

    def problem_key(self) -> tuple:
        """Label-free identity of the problem this op poses."""
        base = self.config["base"]
        places = {e["place"]: e for e in self.config["ramification"]}
        invariants = self.config.get("order", {}).get("invariants", {})
        local = []
        for label, entry in places.items():
            if label == "infinity":
                continue
            d = Fraction(entry["invariant"]).denominator if "invariant" in entry else 1
            local.append((entry["degree"], d, tuple(invariants.get(label, ()))))
        return (self.argv, base["q"], tuple(base.get("l_polynomial", (1,))),
                self.config["degree"], tuple(sorted(local)))


def _label(rng: random.Random, stem: str) -> str:
    return f"{stem}{rng.getrandbits(24):06x}"


def _one_split_place(q, n, deg, f_vec, rng, extra=()):
    """T ramified with +-1/n, one or more split places carrying order data."""
    sign = rng.choice((1, -1))
    t_label = _label(rng, "t")
    ram = [{"place": t_label, "degree": 1, "invariant": f"{sign}/{n}"}]
    invariants = {}
    for k, (deg_k, f_k) in enumerate(((deg, f_vec),) + tuple(extra)):
        label = _label(rng, f"u{k}_")
        ram.append({"place": label, "degree": deg_k})
        invariants[label] = list(f_k)
    ram.append({"place": "infinity", "invariant": f"{-sign}/{n}"})
    return {"base": {"type": "rational_function_field", "q": q},
            "degree": n, "ramification": ram,
            "order": {"invariants": invariants}}


# (n, deg U, f_U): each is run at q = 2 and q = 3, except the n = 12 Iwahori
# rung, which runs at q = 2 only (4-6 s on a 2-core x86 box).
LADDER_RUNGS = (
    (6, 2, (1,) * 6), (6, 3, (1,) * 6), (6, 6, (1,) * 6),
    (6, 3, (2, 2, 2)), (6, 6, (2, 2, 2)), (6, 6, (3, 3)),
    (6, 3, (1, 1, 2, 2)), (6, 6, (1, 1, 1, 1, 2)),
    (8, 2, (1,) * 8), (8, 4, (1,) * 8), (8, 2, (2, 2, 2, 2)),
    (8, 4, (2, 2, 2, 2)), (8, 2, (1, 1, 2, 2, 1, 1)),
    (8, 4, (1, 1, 1, 1, 2, 2)),
    (12, 2, (2,) * 6), (12, 2, (3, 3, 3, 3)), (12, 3, (3, 3, 3, 3)),
    (12, 3, (4, 4, 4)), (12, 4, (4, 4, 4)), (12, 4, (6, 6)),
    (12, 6, (6, 6)),
)
LADDER_Q2_ONLY = ((12, 2, (1,) * 12),)


def ladder_ops(seed: int, pass_no: int = 0):
    rng = random.Random(f"ladder:{seed}:{pass_no}")
    rungs = [(q, *r) for q in (2, 3) for r in LADDER_RUNGS]
    rungs += [(2, *r) for r in LADDER_Q2_ONLY]
    rng.shuffle(rungs)
    golden_at = rng.randrange(len(rungs) + 1)
    for idx, (q, n, deg, f_vec) in enumerate(rungs):
        if idx == golden_at:
            yield golden_op()
        yield Op(f"classnum q={q} n={n} deg={deg} f={f_vec}", ("classnum",),
                 _one_split_place(q, n, deg, f_vec, rng))
    if golden_at == len(rungs):
        yield golden_op()


def golden_op() -> Op:
    config = json.loads(GOLDEN_CONFIG.read_text(encoding="utf-8"))
    return Op("golden", ("classnum",), config)


# Fan-out problems: (q, n, [(deg, f), ...] split places, argv).  Two or
# three non-maximal split places multiply the global index set and the genus
# count while each theta factor stays small, so theta is a minor share here.
_IWAHORI = {n: (1,) * n for n in (4, 5, 6, 7, 8)}
FANOUT_PROBLEMS = tuple(
    [(q, n, [(1, _IWAHORI[n])], ("genera",))
     for n in (6, 7, 8) for q in (2, 3, 4, 5)]
    + [(q, 4, [(1, _IWAHORI[4]), (2, _IWAHORI[4])], ("genera",))
       for q in (2, 3, 4, 5)]
    + [(q, 5, [(1, _IWAHORI[5]), (1, _IWAHORI[5])], ("genera",))
       for q in (3, 4)]
    + [(q, 6, [(1, _IWAHORI[6]), (1, (2, 2, 2))], ("genera",))
       for q in (3, 4, 5)]
    + [(q, 4, [(2, _IWAHORI[4]), (2, _IWAHORI[4])],
        ("transfer", "--s", "2", "--s2", s2))
       for q in (3, 4, 5) for s2 in ("2", "4")]
    + [(q, 6, [(2, _IWAHORI[6]), (2, _IWAHORI[6])],
        ("transfer", "--s", "2", "--s2", s2))
       for q in (3, 4, 5) for s2 in ("2", "6")]
    + [(q, 6, [(2, _IWAHORI[6]), (2, (1, 1, 2, 2))],
        ("transfer", "--s", "2", "--s2", "2"))
       for q in (3, 4, 5)]
    + [(q, 8, [(2, _IWAHORI[8]), (2, (2, 2, 2, 2))],
        ("transfer", "--s", "2", "--s2", s2))
       for q in (3, 4, 5) for s2 in ("2", "4", "8")]
    + [(3, 8, [(2, _IWAHORI[8]), (2, _IWAHORI[8])],
        ("transfer", "--s", "2", "--s2", "2"))]
)


def fanout_ops(seed: int, pass_no: int = 0):
    rng = random.Random(f"fanout:{seed}:{pass_no}")
    problems = list(FANOUT_PROBLEMS)
    rng.shuffle(problems)
    for q, n, places, argv in problems:
        (deg, f_vec), *extra = places
        yield Op(f"{argv[0]} q={q} n={n} places={places} {' '.join(argv[1:])}",
                 argv, _one_split_place(q, n, deg, f_vec, rng, extra))


def irreducible_count(q: int, d: int) -> int:
    """Monic irreducible polynomials of degree d over F_q (d <= 3 here)."""
    if d == 1:
        return q
    if d == 2:
        return (q * q - q) // 2
    if d == 3:
        return (q ** 3 - q) // 3
    raise ValueError(f"degree {d} is outside the sweep")


def _ord(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def constant_field_degree(n: int, places) -> int:
    """s0 from (deg v, d_v) of every listed place, infinity included."""
    s0 = 1
    for p in (p for p in range(2, n + 1) if n % p == 0
              and all(p % r for r in range(2, p))):
        caps = [_ord(n // d, p) for deg, d in places
                if _ord(gcd(deg, n), p) > _ord(n // d, p)]
        s0 *= p ** (min(caps) if caps else _ord(n, p))
    return s0


def _random_composition(rng: random.Random, total: int, parts: int):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


# Genus-1 L-polynomials 1 + aT + qT^2 with |a| <= 2 sqrt(q); over a prime
# field each of them belongs to an elliptic curve.  Genus 2 uses products of
# two of them.  Both satisfy the functional equation c_{2g-k} = q^(g-k) c_k.
_TRACES = {2: range(-2, 3), 3: range(-3, 4), 5: range(-4, 5)}


def _random_base(rng: random.Random):
    q = rng.choice((2, 3, 4, 5))
    if q == 4 or rng.random() < 0.7:
        return q, {"type": "rational_function_field", "q": q}
    a = rng.choice(_TRACES[q])
    poly = [1, a, q]
    if rng.random() < 0.5:
        b = rng.choice(_TRACES[q])
        poly = [1, a + b, 2 * q + a * b, q * (a + b), q * q]
    return q, {"type": "custom", "q": q, "l_polynomial": poly}


def _random_sweep_problem(rng: random.Random, idx: int) -> Op | None:
    q, base = _random_base(rng)
    n = rng.randint(2, 8)
    proper = [d for d in range(2, n + 1) if n % d == 0]
    used: dict[int, int] = {}
    places = []  # [label, deg, d, kappa]
    total = Fraction(0)
    for k in range(rng.randint(1, 3)):
        deg = rng.randint(1, 3)
        if used.get(deg, 0) >= irreducible_count(q, deg):
            return None
        used[deg] = used.get(deg, 0) + 1
        d = rng.choice(proper)
        kappa = rng.choice([x for x in range(1, d) if gcd(x, d) == 1])
        places.append([f"p{idx}_{k}", deg, d, kappa])
        total += Fraction(kappa, d)
    residual = -total % 1
    if residual.denominator != n:
        return None  # infinity must carry exact denominator n
    ram = [{"place": lab, "degree": deg, "invariant": f"{kappa}/{d}"}
           for lab, deg, d, kappa in places]
    ram.append({"place": "infinity", "invariant": f"{residual.numerator}/{n}"})

    invariants = {}
    if rng.random() < 0.5 and used.get(1, 0) < q:
        label = f"s{idx}"
        ram.append({"place": label, "degree": 1})
        places.append([label, 1, 1, None])
    for label, deg, d, _ in places:
        m_v = n // d
        if m_v > 1 and rng.random() < 0.5:
            invariants[label] = _random_composition(
                rng, m_v, rng.randint(2, min(m_v, 3)))
    config = {"base": base, "degree": n, "ramification": ram}
    if invariants:
        config["order"] = {"invariants": invariants}

    roll = rng.random()
    if roll < 0.5:
        argv = ("classnum",)
    elif roll < 0.75:
        argv = ("mass",)
    else:
        s0 = constant_field_degree(
            n, [(deg, d) for _, deg, d, _ in places] + [(1, n)])
        argv = ("embed", "--s",
                str(rng.choice([s for s in range(1, s0 + 1) if s0 % s == 0])))
    return Op(f"{argv[0]} sweep#{idx}", argv, config)


def sweep_ops(seed: int, max_redraws: int = 10_000):
    rng = random.Random(f"sweep:{seed}")
    seen = set()
    idx = 0
    redraws = 0
    while redraws < max_redraws:
        op = _random_sweep_problem(rng, idx)
        if op is None or op.problem_key() in seen:
            redraws += 1
            continue
        seen.add(op.problem_key())
        redraws = 0
        idx += 1
        yield op


def ops(workload: str, seed: int, pass_no: int = 0):
    """The op stream of one pass of a workload.

    ladder and fanout are finite lists, run whole in each pass; the pass
    number reshuffles them and draws new labels.  sweep is unbounded and runs
    as a single pass.  Raises ValueError for an unknown workload.
    """
    if workload == "ladder":
        return ladder_ops(seed, pass_no)
    if workload == "sweep":
        return sweep_ops(seed)
    if workload == "fanout":
        return fanout_ops(seed, pass_no)
    raise ValueError(f"unknown workload {workload!r}")

