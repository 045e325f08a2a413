"""Local index sets: emptiness, enumeration against brute force, stripping,
strip counts against the walk."""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import product
from math import factorial, gcd

import pytest

from csaclass import (AlgebraSpec, BaseField, OrderSpec, Place,
                      enumerate_omega, normalize_invariant, omega_size,
                      strip_counts, theta, transfer_check)
from csaclass.errors import BudgetExceededError, ValidationError
from csaclass.omega import local_shape
from conftest import flatten_strip, with_listed_place


def count(place: Place, f_vec, s: int) -> int:
    """|Omega| by enumeration, checked against the row recursion's count."""
    size = sum(1 for _ in enumerate_omega(place, f_vec, s))
    assert omega_size(place, f_vec, s) == size
    return size


def nonempty(place: Place, f_vec, s: int) -> bool:
    return local_shape(place, f_vec, s)[3] is not None


def brute_force_omega(place: Place, f_vec, s: int) -> list[tuple]:
    """Filter every candidate entry array by the two sum constraints."""
    f_vec = tuple(f_vec)
    m_v = sum(f_vec)
    r = len(f_vec)
    l = gcd(s, place.degree)
    t = gcd(s // l, place.local_index)
    scale = s // (l * t)
    slots = r * t
    out = []
    if (m_v * t) % s != 0:
        return out
    m_s = m_v * t // s
    for flat in product(range(m_s + 1), repeat=l * slots):
        slices = [flat[w * slots:(w + 1) * slots] for w in range(l)]
        if any(sum(sl) != m_s for sl in slices):
            continue
        ok = True
        for i in range(r):
            col = sum(sl[j * r + i] for sl in slices for j in range(t))
            if scale * col != f_vec[i]:
                ok = False
                break
        if ok:
            out.append(tuple(slices))
    return out


def small_cases():
    """Place data keeping the brute-force candidate space tractable."""
    cases = []
    for deg in (1, 2, 3):
        for d in (1, 2, 3, 4):
            for s in (1, 2, 3, 4, 6):
                for m in (1, 2, 3, 4):
                    if m * d < s:  # keep l*r*t and m_s tiny
                        continue
                    for r in range(1, min(m, 3) + 1):
                        for f in _compositions_pos(m, r):
                            try:
                                l, t, m_s, _ = local_shape(
                                    Place("v", deg, d), f, s)
                            except Exception:
                                continue
                            size = l * r * t
                            if size > 12:
                                continue
                            if (m_s + 1) ** (l * r * t) > 300000:
                                continue
                            cases.append((deg, d, s, f))
    return cases


def _compositions_pos(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions_pos(total - first, parts - 1):
            yield (first,) + rest


@pytest.mark.parametrize("deg,d,s,f", small_cases())
def test_enumeration_matches_brute_force(deg, d, s, f):
    place = Place("v", deg, d)
    expected = brute_force_omega(place, f, s)
    actual = list(enumerate_omega(place, f, s))
    assert sorted(actual) == sorted(expected)
    assert len(actual) == len(set(actual))
    assert omega_size(place, f, s) == len(expected)
    assert nonempty(place, f, s) == bool(expected)


def test_enumeration_is_lexicographic():
    place = Place("v", 1, 2)
    elems = [sum(e, ()) for e in enumerate_omega(place, (2,), 2)]
    assert elems == sorted(elems)


def test_golden_counts():
    # degree-4 example: T has d=4, f=(1); T+1, T+2 have d=2, f=(2)
    t_place = Place("T", 1, 4)
    iw_place = Place("T+1", 1, 2)
    assert count(t_place, (1,), 4) == 4
    assert count(iw_place, (2,), 4) == 2
    assert count(t_place, (1,), 2) == 2
    assert count(iw_place, (2,), 2) == 3


def test_split_singleton():
    # d = 1 and r = 1: exactly one element, the full-capacity slice per w
    place = Place("v", 2, 1)
    elems = list(enumerate_omega(place, (4,), 2))
    assert len(elems) == 1
    assert elems[0] == ((2,), (2,))


def test_nonempty_divisibility():
    assert not nonempty(Place("v", 1, 1), (1, 1), 2)
    assert nonempty(Place("v", 1, 4), (1,), 4)
    assert nonempty(Place("v", 2, 1), (4,), 2)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_prime_degree_counts(n):
    # fully split place at level n: multinomial count
    for f in _compositions_pos(n, 2):
        assert count(Place("v", n, 1), f, n) == \
            factorial(n) // (factorial(f[0]) * factorial(f[1]))
    # ramified place of degree coprime to n: n elements
    assert count(Place("v", 1, n), (1,), n) == n


def test_omega_size_matches_enumeration_random():
    # Wider vectors and t up to 4, past what the brute force can reach.
    rng = random.Random(400)
    checked = nonzero = 0
    while checked < 200:
        deg, d = rng.choice((1, 2, 3, 4, 6)), rng.choice((1, 1, 2, 3, 4))
        f = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6)))
        s = rng.choice([x for x in range(1, sum(f) * d + 1)
                        if sum(f) * d % x == 0])
        place = Place("v", deg, d)
        try:
            size = omega_size(place, f, s, budget=2000)
        except (ValidationError, BudgetExceededError):
            continue
        if size > 2000:
            continue
        assert size == sum(1 for _ in enumerate_omega(place, f, s)), \
            (deg, d, f, s)
        checked += 1
        nonzero += size > 0
    assert nonzero > 100


def test_omega_size_budget_names_the_layer():
    # The 14-part vector that trips theta's budget in tests/test_cli.py.
    f = (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 1, 2, 1, 2)
    with pytest.raises(BudgetExceededError) as exc:
        omega_size(Place("U", 4, 1), f, 4, budget=1000)
    assert str(exc.value) == ("omega: place 'U', s = 4: "
                              "row placements exceed budget of 1000")


def test_rotation_bijection():
    place = Place("v", 2, 2)
    for s in (1, 2, 4):
        for f in _compositions_pos(4 // 2 * 2, 2):
            rot = f[1:] + f[:1]
            if not nonempty(place, f, s):
                assert not nonempty(place, rot, s)
                continue
            # rotating f permutes the columns cyclically, so compare the
            # derived strips up to cyclic rotation
            orig = sorted(
                sorted(normalize_invariant(flatten_strip(sl)) for sl in e)
                for e in enumerate_omega(place, f, s))
            rotated = sorted(
                sorted(normalize_invariant(flatten_strip(sl)) for sl in e)
                for e in enumerate_omega(place, rot, s))
            assert orig == rotated


def test_flatten_strip():
    assert flatten_strip((5, 0, 4, 1, 0, 1)) == (5, 4, 1, 1)
    elem2 = ((0, 1, 0, 1), (1, 1, 0, 0))
    assert flatten_strip(elem2[0]) == (1, 1)
    assert flatten_strip(elem2[1]) == (1, 1)


def test_slice_sums_equal_capacity():
    place = Place("v", 2, 2)
    for s in (1, 2, 4):
        for f in ((2, 2), (1, 3), (4,)):
            m_s = local_shape(place, f, s)[2]
            for elem in enumerate_omega(place, f, s):
                for sl in elem:
                    assert sum(sl) == m_s


def test_flatten_strip_rejects_all_zero_slice():
    elem = ((1, 1), (0, 0))
    with pytest.raises(ValidationError):
        flatten_strip(elem[1])


@pytest.mark.parametrize("call", [
    lambda v: theta(v, (0, 0), 1, 2),
    lambda v: omega_size(v, (), 1),
    lambda v: strip_counts(v, (0,), 1),
    lambda v: list(enumerate_omega(v, (0, 0), 1)),
], ids=["theta", "omega_size", "strip_counts", "enumerate_omega"])
def test_zero_sum_vector_is_refused(call):
    # OrderSpec refuses such a vector first, so only library callers get
    # this far.
    with pytest.raises(ValidationError,
                       match="^invariant vector must have positive sum$"):
        call(Place("v", 1))


def walked_strip_counts(place: Place, f_vec, s: int) -> Counter:
    """Walk the set and count each element by its sorted normalised strips."""
    return Counter(
        tuple(sorted(normalize_invariant(flatten_strip(sl)) for sl in elem))
        for elem in enumerate_omega(place, f_vec, s))


def test_strip_counts_match_the_walk_random():
    rng = random.Random(1356)
    keys = Counter()
    while keys["checked"] < 1000:
        deg, d = rng.choice((1, 2, 3, 4, 6)), rng.choice((1, 2, 3))
        m_v = rng.randint(1, 10 // d)
        parts = rng.randint(1, m_v)
        cuts = sorted(rng.sample(range(1, m_v), parts - 1))
        f = tuple(b - a for a, b in zip((0, *cuts), (*cuts, m_v)))
        s = rng.randint(1, 6)
        place = Place("v", deg, d)
        try:
            l, t, _, _ = local_shape(place, f, s)
        except ValidationError:
            continue
        size = omega_size(place, f, s)
        if size > 5000:
            continue
        counts = strip_counts(place, f, s)
        assert counts == walked_strip_counts(place, f, s), (deg, d, f, s)
        assert sum(counts.values()) == size, (deg, d, f, s)
        keys.update(checked=1, l=l > 1, t=t > 1, lt=l > 1 < t,
                    multi=len(counts) > 1)
    assert min(keys["l"], keys["t"], keys["multi"]) > 100
    assert keys["lt"] > 20


def test_strip_counts_reach_sets_past_any_walk():
    # The n = 24 Iwahori order at a degree-3 place: 9,465,511,770 elements
    # at s = 3, every strip (1,) * 8.
    started = time.monotonic()
    counts = strip_counts(Place("U", 3, 1), (1,) * 24, 3)
    assert counts == {((1,) * 8,) * 3: 9_465_511_770}
    assert time.monotonic() - started < 1.0


def test_strip_counts_places_equal_places_once_per_multiset():
    # 24 places of degree 1 above a degree-24 place, each taking one entry
    # from a column of 12: C(24, 12) elements, one choice per slot.
    place = Place("U", 24, 1)
    started = time.monotonic()
    assert strip_counts(place, (12, 12), 24) == {((1,),) * 24: 2_704_156}
    assert time.monotonic() - started < 1.0
    # Each slot places 24 entries and takes its one choice: 50 in all.
    assert strip_counts(place, (12, 12), 24, budget=50)
    for budget in (23, 49):
        with pytest.raises(BudgetExceededError):
            strip_counts(place, (12, 12), 24, budget=budget)


def test_strip_counts_empty_set():
    # At s = 4 the columns scale by 2, which does not divide 1 or 3.
    assert not nonempty(Place("v", 2, 1), (1, 3), 4)
    assert strip_counts(Place("v", 2, 1), (1, 3), 4) == Counter()


@pytest.mark.parametrize("caller", [None, "transfer"])
def test_strip_counts_budget_names_the_layer(caller):
    # The message names transfer, whether strip_counts is called on its own
    # or from transfer_check on an n = 24 order with the same set at U.
    with pytest.raises(BudgetExceededError) as exc:
        if caller is None:
            strip_counts(Place("U", 4, 1), (2,) * 12, 4, budget=1000)
        else:
            spec = AlgebraSpec(BaseField(2), 24,
                               (Place("T", 1, 24, 1),), -1)
            spec = with_listed_place(spec, "U", 4)
            order = OrderSpec(spec, (("U", (2,) * 12),))
            transfer_check(order, 4, 4, budget=1000)
    assert str(exc.value) == ("transfer: place 'U', s = 4: "
                              "strip states exceed budget of 1000")
