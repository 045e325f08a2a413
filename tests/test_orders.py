"""Order invariants, unit indices, genus vectors."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csaclass import (AlgebraSpec, BaseField, OrderSpec, Place,
                      local_unit_index, maximal_order, normalize_invariant)
from csaclass.errors import IntegralityViolationError, ValidationError
from csaclass.orders import count_genera, genus_axes
from conftest import (PowerlessInt, enumerate_genera, genus_reduce,
                      genus_vectors, with_listed_place)


@pytest.mark.parametrize("vec,expected", [
    ((1, 2), (1, 2)),
    ((2, 1), (1, 2)),
    ((3, 1, 3, 1), (1, 3, 1, 3)),
    ((5,), (5,)),
])
def test_normalize_invariant(vec, expected):
    assert normalize_invariant(vec) == expected


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6))
def test_normalize_is_rotation_canonical(vec):
    vec = tuple(vec)
    canon = normalize_invariant(vec)
    rotations = {vec[i:] + vec[:i] for i in range(len(vec))}
    assert canon in rotations
    for rot in rotations:
        assert normalize_invariant(rot) == canon


def projective_line_size(q: int) -> int:
    """#P^1(F_q) by listing one-dimensional subspaces of F_q^2."""
    seen = set()
    for x, y in product(range(q), repeat=2):
        if (x, y) == (0, 0):
            continue
        line = frozenset(
            ((k * x) % q, (k * y) % q) for k in range(1, q))
        seen.add(line)
    return len(seen)


def test_local_unit_index_examples():
    assert local_unit_index(9, 1, (2,)) == 1
    assert local_unit_index(9, 1, (1, 1)) == 10
    assert type(local_unit_index(9, 1, (1, 1))) is int
    # Iwahori index in degree 2 equals the projective line count
    for q in (2, 3):
        assert local_unit_index(q, 1, (1, 1)) == projective_line_size(q)


def test_local_unit_index_zero_entries_ignored():
    assert local_unit_index(9, 1, (1, 0, 1)) == local_unit_index(9, 1, (1, 1))
    assert local_unit_index(3, 2, (0, 0, 2)) == 1


@given(st.integers(2, 9), st.integers(1, 3),
       st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_local_unit_index_symmetric_and_at_least_one(N, d, f):
    values = {local_unit_index(N, d, p) for p in permutations(f)}
    assert len(values) == 1
    value = values.pop()
    assert value >= 1
    nonzero = [e for e in f if e]
    assert (value == 1) == (len(nonzero) <= 1)


def test_local_unit_index_integral_index():
    # group index of unit groups: always an integer
    for N in (2, 3, 4, 9):
        for f in ((1, 1), (1, 2), (1, 1, 1), (2, 2)):
            assert local_unit_index(N, 1, f).denominator == 1


def test_local_unit_index_rejects_a_non_integral_quotient():
    # A negative entry is no invariant vector: its quotient is 1 / (N^3 - 1).
    with pytest.raises(IntegralityViolationError):
        local_unit_index(3, 1, (3, -1))


def test_local_unit_index_of_one_block_forms_no_power():
    # At most one non-zero entry: the Gaussian multinomial [m; m] is 1, and
    # no N^(d i) - 1 is multiplied out for it.
    for f in ((5,), (0, 5, 0), ()):
        assert local_unit_index(PowerlessInt(3), 2, f) == 1
    # (3, -1) still raises: see the test above.
    for N in (1, 0, -3):
        with pytest.raises(ValidationError, match="N must be at least 2"):
            local_unit_index(PowerlessInt(N), 1, (5,))


@pytest.mark.parametrize("vec,expected", [
    ((3, 6, 0, 1, 0), (3, 6, 1)),
    ((4,), (4,)),
    ((0, 2, 0), (2,)),
])
def test_genus_reduce(vec, expected):
    assert genus_reduce(vec) == expected


def test_genus_reduce_empty_rejected():
    with pytest.raises(ValueError):
        genus_reduce((0, 0, 0))
    with pytest.raises(ValueError):
        genus_reduce((0, -1, 2))


def _iwahori_order(m: int = 2) -> OrderSpec:
    base = BaseField(3)
    spec = AlgebraSpec(base, m, (Place("v0", 1, m, 1),), -1)
    spec = with_listed_place(spec, "w", 1)
    return OrderSpec(spec, (("w", (1,) * m),))


def test_enumerate_genera_counts():
    order = _iwahori_order(2)
    genera = list(enumerate_genera(order))
    assert len(genera) == 3
    assert {g["w"] for g in genera} == {(2, 0), (1, 1), (0, 2)}
    assert count_genera(order) == 3


def test_enumerate_genera_trivial_for_maximal(golden_order):
    assert list(enumerate_genera(golden_order)) == [{}]
    assert count_genera(golden_order) == 1


def test_enumerate_genera_product_of_places():
    base = BaseField(3)
    spec = AlgebraSpec(base, 2, (Place("v0", 1, 2, 1),), -1)
    spec = with_listed_place(with_listed_place(spec, "a", 1), "b", 1)
    order = OrderSpec(spec, (("a", (1, 1)), ("b", (1, 1))))
    genera = list(enumerate_genera(order))
    assert len(genera) == 9
    assert count_genera(order) == comb(3, 1) ** 2


def _order_with_axis(f_vec) -> OrderSpec:
    m = sum(f_vec)
    base = BaseField(3)
    spec = AlgebraSpec(base, m, (Place("v0", 1, m, 1),), -1)
    return OrderSpec(with_listed_place(spec, "w", 1), (("w", f_vec),))


def _walked(axis, sep: str = ",") -> list:
    """(text, reduction) of each vector of the axis's walk, in its order."""
    return [(prefix + tail, axis.reduced[pick])
            for prefix, tails, picks in axis.walk("<", sep, ">")
            for tail, pick in zip(tails, picks)]


def _check_axis(axis, vectors, sep: str = ",") -> None:
    """The walk of `axis` renders `vectors`, in order, and reduces each;
    `reduced` numbers the reductions by first appearance and `mults`
    counts them."""
    reductions = [normalize_invariant(genus_reduce(g)) for g in vectors]
    assert _walked(axis, sep) == [
        (f"<{sep.join(map(str, g))}>", r) for g, r in zip(vectors, reductions)]
    counts = Counter(reductions)
    assert axis.reduced == tuple(counts)
    assert axis.mults == tuple(counts.values())


def test_compositions_match_the_recursive_definition():
    # An invariant with `parts` entries summing to `total` has as genus
    # vectors every composition of `total` into `parts` non-negative parts,
    # in ascending lexicographic order.
    for total in range(2, 9):
        for parts in range(2, total + 1):
            f_vec = (1,) * (parts - 1) + (total - parts + 1,)
            (axis,) = genus_axes(_order_with_axis(f_vec))
            assert (axis.total, axis.parts) == (total, parts)
            _check_axis(axis, list(genus_vectors(total, parts)), ", ")


def _axis_sizes(limit: int, max_total: int):
    """Every (m, r), 2 <= r <= m <= `max_total`, with at most `limit` genus
    vectors."""
    for r in range(2, max_total + 1):
        for m in range(r, max_total + 1):
            if comb(m + r - 1, r - 1) <= limit:
                yield m, r


def test_genus_axes_match_brute_force():
    # Every axis of at most 2000 vectors with m <= 64.  Past m = 64 only
    # r = 2 fits, whose vectors are all (a, m - a), and those 1935 axes
    # would hold 2M vectors.  The last entry of a vector summing to m is m
    # minus the others, so product over r - 1 entries gives the vectors of
    # product over r that sum to m, at a (m + 1)-th of the cost.
    sizes = list(_axis_sizes(2000, 64))
    assert {(61, 3), (20, 4), (12, 5), (8, 6), (7, 7)} <= set(sizes)
    assert not {(62, 3), (21, 4), (13, 5), (9, 6), (8, 7)} & set(sizes)
    for m, r in sizes:
        (axis,) = genus_axes(_order_with_axis((1,) * (r - 1) + (m - r + 1,)))
        _check_axis(axis, sorted(g + (m - sum(g),)
                                 for g in product(range(m + 1), repeat=r - 1)
                                 if sum(g) <= m))


def test_genus_axes_with_few_parts_and_a_large_total():
    # Two or three parts, so that a block of the walk holds one vector.
    for f_vec in ((1, 1998), (1, 1, 58)):
        m = sum(f_vec)
        (axis,) = genus_axes(_order_with_axis(f_vec))
        _check_axis(axis, sorted(g + (m - sum(g),) for g in product(
            range(m + 1), repeat=len(f_vec) - 1) if sum(g) <= m))
        assert sum(axis.mults) == count_genera(_order_with_axis(f_vec))


def test_genus_axes_number_reductions_by_first_appearance():
    (axis,) = genus_axes(_iwahori_order(3))
    assert axis.label == "w"
    assert axis.reduced == ((3,), (1, 2), (1, 1, 1))
    assert axis.mults == (3, 6, 1)
    _check_axis(axis, list(genus_vectors(3, 3)))
    assert genus_axes(maximal_order(_iwahori_order(3).algebra)) == ()


def test_order_spec_validation(golden_spec):
    with pytest.raises(ValidationError):
        OrderSpec(golden_spec, (("T+1", (1, 2)),))  # sums to 3, capacity is 2
    with pytest.raises(ValidationError):
        OrderSpec(golden_spec, (("nowhere", (1, 1)),))
    with pytest.raises(ValidationError):
        OrderSpec(golden_spec, (("T+1", (0, 2)),))


def test_order_spec_normalizes_and_drops_maximal(golden_spec):
    order = OrderSpec(golden_spec, (("T+1", (2,)), ("T+2", (1, 1))))
    assert order.invariants == (("T+2", (1, 1)),)
    assert order.invariant_at("T+1") == (2,)
    assert order.invariant_at("T+2") == (1, 1)


def test_order_spec_rotation_equality(golden_spec):
    spec = with_listed_place(golden_spec, "u", 2)
    a = OrderSpec(spec, (("u", (1, 3)),))
    b = OrderSpec(spec, (("u", (3, 1)),))
    assert a == b
