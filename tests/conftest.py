"""Shared fixtures and the helpers only the tests use: the worked golden
example, a random spec generator, a split place listed by label, a long
vector's strip, a genus vector's reduction, the genus vectors of a place,
the genera of an order one dict at a time, and a genera report's rows."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from csaclass import AlgebraSpec, BaseField, OrderSpec, Place
from csaclass.algebra import _finite_place_count, validate
from csaclass.errors import ValidationError
from csaclass.orders import normalize_invariant


def with_listed_place(spec: AlgebraSpec, label: str,
                      degree: int) -> AlgebraSpec:
    """`spec` with the implicit split place `label` listed, so that order
    data can refer to it; `spec` itself if it is listed with that degree."""
    try:
        existing = spec.place(label)
    except KeyError:
        return AlgebraSpec(spec.base, spec.degree,
                           spec.finite_places + (Place(label, degree, 1),),
                           spec.infinity_invariant)
    if existing.degree != degree:
        raise ValidationError(
            f"place {label!r} already listed with degree {existing.degree}")
    return spec


def flatten_strip(slice_vec) -> tuple[int, ...]:
    """Long vector of one slice with zero entries removed."""
    stripped = tuple(e for e in slice_vec if e != 0)
    if not stripped:
        raise ValidationError("slice is all zero")
    return stripped


class PowerlessInt(int):
    """An int that compares and multiplies, but raises once a power of it is
    formed: a call given one shows that it never raised it to a power."""

    def __pow__(self, exponent, modulo=None):
        raise AssertionError(f"{int(self)} ** {exponent} formed")


def genus_reduce(g_vec) -> tuple[int, ...]:
    """The non-zero entries of a genus vector: the invariant vector of the
    order its genus reduces to."""
    reduced = tuple(filter(None, g_vec))
    if not reduced or min(reduced) < 0:
        raise ValueError(f"not a genus vector: {g_vec}")
    return reduced


def genus_vectors(total: int, parts: int):
    """Every vector of `parts` non-negative integers summing to `total`, in
    ascending lexicographic order, by the recursive definition."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in genus_vectors(total - first, parts - 1):
            yield (first,) + rest


def enumerate_genera(order: OrderSpec):
    """All genus vectors, as {label: vector} over the non-maximal places.

    Places with a single invariant block admit only the forced genus and are
    omitted from the dictionaries.
    """
    labels = [label for label, _ in order.invariants]
    for combo in product(*(genus_vectors(sum(f), len(f))
                           for _, f in order.invariants)):
        yield dict(zip(labels, combo))


def per_genus(report):
    """((label, vector) pairs of each genus, its class number) rows of a
    `GeneraReport`, in the axes' product order: each genus's class number is
    read from `report.table` by the reductions of its vectors."""
    axes = report.axes
    table = dict(zip(product(*(axis.reduced for axis in axes)),
                     report.table))
    return tuple(
        (genus, table[tuple(normalize_invariant(genus_reduce(g))
                            for _, g in genus)])
        for genus in product(*([(axis.label, g) for g in genus_vectors(
            axis.total, axis.parts)] for axis in axes)))


@pytest.fixture
def golden_spec() -> AlgebraSpec:
    """Degree-4 division algebra over F_3(T), ramified at infinity, T, T+1, T+2."""
    base = BaseField(3)
    return AlgebraSpec(
        base, 4,
        (Place("T", 1, 4, 1), Place("T+1", 1, 2, 1), Place("T+2", 1, 2, 1)),
        -1)


@pytest.fixture
def golden_order(golden_spec) -> OrderSpec:
    return OrderSpec(golden_spec, ())


def random_composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    """Random composition of `total` into `parts` positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def random_definite_spec(rng: random.Random, max_degree: int = 6,
                         max_places: int = 4,
                         infinity_degree: int = 1) -> AlgebraSpec:
    """A random valid definite algebra spec over a rational base field whose
    place at infinity has degree `infinity_degree`.

    Finite ramified invariants are drawn freely; a final balancer place
    absorbs the fractional part so reciprocity holds, retrying until the
    residual invariant at infinity has exact denominator n (definiteness).
    """
    for _ in range(1000):
        q = rng.choice([2, 3, 4, 5])
        n = rng.randint(1, max_degree)
        count = rng.randint(0, max_places - 1) if n > 1 else 0
        proper = [d for d in range(2, n + 1) if n % d == 0]
        used_degrees: dict[int, int] = {}

        def pick_degree() -> int | None:
            for _ in range(20):
                deg = rng.randint(1, 3)
                used = used_degrees.get(deg, 0)
                if used < _finite_place_count(q, deg, infinity_degree,
                                              used + 1):
                    used_degrees[deg] = used + 1
                    return deg
            return None

        places = []
        total = Fraction(0)
        ok = True
        for idx in range(count):
            if not proper:
                break
            d = rng.choice(proper)
            kappa = rng.choice([k for k in range(1, d) if gcd(k, d) == 1])
            deg = pick_degree()
            if deg is None:
                ok = False
                break
            places.append(Place(f"p{idx}", deg, d, kappa))
            total += Fraction(kappa, d)
        if not ok:
            continue
        residual = -total % 1
        # infinity must carry denominator exactly n for definiteness
        if residual.denominator != n:
            continue
        spec = AlgebraSpec(BaseField(q, infinity_degree=infinity_degree), n,
                           tuple(places), residual.numerator if n > 1 else None)
        if validate(spec):
            continue
        return spec
    raise RuntimeError("failed to generate a valid random spec")


def random_order(rng: random.Random, spec: AlgebraSpec,
                 extra_split_places: int = 1) -> OrderSpec:
    """Random hereditary order: random compositions at a few places."""
    algebra = spec
    candidates = list(spec.finite_places)
    for k in range(extra_split_places):
        if rng.random() < 0.5:
            label = f"u{k}"
            deg = rng.randint(1, 2)
            existing = sum(1 for v in algebra.finite_places if v.degree == deg)
            if existing >= _finite_place_count(
                    spec.base.q, deg, spec.base.infinity_degree, existing + 1):
                continue
            algebra = with_listed_place(algebra, label, deg)
            candidates.append(algebra.place(label))
    invariants = {}
    for v in candidates:
        m_v = algebra.capacity(v)
        if m_v > 1 and rng.random() < 0.6:
            r = rng.randint(1, m_v)
            invariants[v.label] = random_composition(rng, m_v, r)
    return OrderSpec(algebra, tuple(sorted(invariants.items())))
