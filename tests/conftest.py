"""Shared fixtures and the helpers only the tests use: the worked golden
example, random spec and L-polynomial generators, a split place listed by
label, the centralizer algebra as a spec, a long vector's strip, the theta
factor by a walk of the index set and by a walk of its columns, a genus
vector's reduction, the genus
vectors of a place, the genera of an order one dict at a time, a genera
report's rows, and s0 prime by prime."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, prod
from operator import eq

import pytest

from csaclass import (AlgebraSpec, BaseField, OrderSpec, Place,
                      constant_extension, constant_field_degree)
from csaclass.algebra import _finite_place_count, places_above, validate
from csaclass.basefield import _prime_factors
from csaclass.errors import InvalidDivisorError, ValidationError
from csaclass.omega import _slot_entries, enumerate_omega, local_shape
from csaclass.orders import local_unit_index, normalize_invariant, q_factorial
from csaclass.theta import _weights, residue_power


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


def centralizer_spec(spec: AlgebraSpec, s: int) -> AlgebraSpec:
    """The centralizer algebra D'_s of an embedded L_s, as a spec over L_s.

    Its finite places are the `places_above` the listed finite places.
    Derived places that become split are dropped; invariants are not carried
    over (no formula here needs them).  The reference for `_level_mass` at
    s and for the derived orders of the brute-force transfer sum."""
    s0 = constant_field_degree(spec)
    if s < 1 or s0 % s != 0:
        raise InvalidDivisorError(f"s = {s} does not divide s0 = {s0}")
    if s == 1:
        return spec
    return AlgebraSpec(constant_extension(spec.base, s), spec.degree // s,
                       tuple(w for v in spec.finite_places
                             for w in places_above(v, s) if w.local_index > 1))


def constant_field_degree_reference(spec: AlgebraSpec) -> int:
    """s0 one prime p | n at a time, the tests' reference for
    `constant_field_degree`: the exponent of p is ord_p(n), capped at
    ord_p(m_v) by every place v, infinity included, where ord_p of
    gcd(deg v, n) exceeds ord_p(m_v)."""
    n = spec.degree
    s0 = 1
    for p, exponent in _prime_factors(n).items():
        for v in spec.all_places():
            cap = _prime_factors(spec.capacity(v)).get(p, 0)
            if _prime_factors(gcd(v.degree, n)).get(p, 0) > cap:
                exponent = min(exponent, cap)
        s0 *= p ** exponent
    return s0


def flatten_strip(slice_vec) -> tuple[int, ...]:
    """Long vector of one slice with zero entries removed."""
    stripped = tuple(e for e in slice_vec if e != 0)
    if not stripped:
        raise ValidationError("slice is all zero")
    return stripped


def theta_enum(place: Place, f_vec, s: int, q: int) -> int:
    """The theta factor by a walk of the local index set: the sum over its
    elements of the product of their slice unit indices.  The oracle of
    the production `theta`; it takes no budget."""
    if local_shape(place, f_vec, s)[3] is None:
        return 0
    Q = residue_power(place, s, q)
    total = 0
    for elem in enumerate_omega(place, f_vec, s):
        term = 1
        for slice_vec in elem:
            term *= local_unit_index(Q, 1, slice_vec)
        total += term
    return total


def theta_columns(place: Place, f_vec, s: int, q: int) -> int:
    """The theta factor by a walk of the columns (the parts of f_v) over the
    l rows (the places w above v), where `theta` walks the rows over the
    columns.  A row's weight [m; N]_Q prod_i g_t(N_i) is [m]!_Q over the
    prod_i [N_i]!_Q times the g_t, so the product over the rows is
    [m]!_Q^l / prod_b [b]!_Q times, per column of target b, the multinomial
    [b; N_1, ..., N_l]_Q prod_w g_t(N_w): the telescoped product of
    cell[left][N_w] with left starting at b.  The state maps the sorted
    non-zero rooms left in the rows to a weight; each column is split over
    them by `omega._slot_entries`, and the last column takes every room
    left whole.  At Q = 0 every Gaussian binomial is 1 and so is the
    prefactor, so the sum is the size of the index set."""
    l, t, m, targets = local_shape(place, f_vec, s)
    if targets is None:
        return 0
    Q = residue_power(place, s, q)
    *walked, last = sorted(b for b in targets if b)
    cell = _weights(Q, last, t)
    states = {(m,) * l: 1}
    for b in walked:
        merged: dict[tuple[int, ...], int] = {}
        for rooms, weight in states.items():
            runs = (False, *map(eq, rooms[1:], rooms))
            for entries, orderings in _slot_entries(
                    (rooms, runs, b, True), lambda *_: None):
                term, left = weight * orderings, b
                for e in entries:
                    term *= cell[left][e]
                    left -= e
                key = tuple(sorted(r - e for r, e in zip(rooms, entries)
                                   if r > e))
                merged[key] = merged.get(key, 0) + term
        states = merged
    total = 0
    for rooms, weight in states.items():
        left = last
        for r in rooms:
            weight *= cell[left][r]
            left -= r
        total += weight
    if not Q:
        return total
    return (q_factorial(Q, m) ** l * total
            // prod(q_factorial(Q, b) for b in targets))


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


def random_l_poly(rng: random.Random, q: int) -> tuple[int, ...]:
    """P(T) of genus 0, 1 or 2: 1 + aT + qT^2 with |a| <= 2 sqrt(q), or the
    product of two of them; every constant extension has P(1) >= 1."""
    bound = isqrt(4 * q)
    a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
    return [(1,), (1, a, q),
            (1, a + b, 2 * q + a * b, q * (a + b), q * q)][rng.randrange(3)]


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
