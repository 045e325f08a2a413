"""Local theta factors: golden values, agreement with enumeration, edge cases."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import islice, product
from math import comb, factorial, gcd, prod

import pytest

from csaclass import (Place, enumerate_omega, local_unit_index,
                      strip_counts, theta, theta_enum)
from csaclass.errors import BudgetExceededError, ValidationError
from csaclass.omega import local_shape
from csaclass.theta import _weights, omega_size, residue_power
from conftest import PowerlessInt


GOLDEN_Q = 3
T_PLACE = Place("T", 1, 4)
IW_PLACE = Place("T+1", 1, 2)


@pytest.mark.parametrize("place,f,s,expected", [
    (T_PLACE, (1,), 2, Fraction(2)),
    (IW_PLACE, (2,), 2, Fraction(12)),
    (T_PLACE, (1,), 4, Fraction(4)),
    (IW_PLACE, (2,), 4, Fraction(2)),
])
def test_golden_theta_values(place, f, s, expected):
    assert theta_enum(place, f, s, GOLDEN_Q) == expected
    assert theta(place, f, s, GOLDEN_Q) == expected


def test_golden_iwahori_hand_expansion():
    # For the index-2 place at level 2: one strip, capacity 2, residue
    # cardinality 9.  The series factor F(Z) = 1 + Z/8 + Z^2/640 appears
    # squared, so the Z^2 coefficient is 2*a_2 + a_1^2 = 3/160, and the
    # prefactor (9-1)(81-1) = 640 turns that into 12.  Row by row, the one
    # row splits its 2 into t = 2 parts: [2;0] + [2;1] + [2;2] = 1 + 10 + 1.
    Q = residue_power(IW_PLACE, 2, GOLDEN_Q)
    assert Q == 9
    assert local_shape(IW_PLACE, (2,), 2) == (1, 2, 2, (2,))
    a1 = Fraction(1, Q - 1)
    a2 = a1 / (Q * Q - 1)
    coeff = 2 * a2 + a1 ** 2
    assert coeff == Fraction(3, 160)
    assert coeff * (Q - 1) * (Q * Q - 1) == 12
    assert 1 + (Q * Q - 1) // (Q - 1) + 1 == 12
    assert theta(IW_PLACE, (2,), 2, GOLDEN_Q) == 12


def _compositions_pos(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions_pos(total - first, parts - 1):
            yield (first,) + rest


def _local_data(qs, max_m):
    """Every (q, deg, d, s, f) with up to three parts, and its shape."""
    for q in qs:
        for deg in (1, 2, 3):
            for d in (1, 2, 3, 4, 6):
                for s in (1, 2, 3, 4, 6):
                    for m in range(1, max_m + 1):
                        for r in range(1, min(m, 3) + 1):
                            for f in _compositions_pos(m, r):
                                try:
                                    shape = local_shape(
                                        Place("v", deg, d), f, s)
                                except Exception:
                                    continue
                                yield (q, deg, d, s, f), shape


def engine_cases():
    """Local data realizing every (l, r, t) <= 3 with m_s <= 4, followed by
    one case per (q, l, r, t, m_s) with m_s in {5, 6} and q in {2, 3}.

    The larger slices come last, so the cases before them keep their ids.
    """
    cases = []
    seen = set()
    for key, (l, t, m_s, _) in _local_data((2, 3, 4, 9), 6):
        if l > 3 or t > 3 or m_s > 4:
            continue
        if key in seen:
            continue
        seen.add(key)
        cases.append(key)
    shapes = set()
    for key, (l, t, m_s, _) in _local_data((2, 3), 12):
        shape = (key[0], l, len(key[4]), t, m_s)
        if l > 3 or t > 3 or not 5 <= m_s <= 6 or shape in shapes:
            continue
        shapes.add(shape)
        cases.append(key)
    return cases


@pytest.mark.parametrize("q,deg,d,s,f", engine_cases())
def test_engines_agree(q, deg, d, s, f):
    place = Place("v", deg, d)
    value = theta_enum(place, f, s, q)
    production = theta(place, f, s, q)
    assert type(value) is int
    assert type(production) is int
    assert production == value
    assert (value == 0) == (local_shape(place, f, s)[3] is None)
    if value != 0:
        assert value >= 1


def test_level_one_equals_unit_index():
    # At level 1 the index set is a single element and the theta factor
    # reduces to the hereditary unit-index product for the place itself.
    for q in (2, 3, 4):
        for d in (1, 2, 3):
            for f in ((1, 1), (2, 1), (1, 1, 1), (3,)):
                place = Place("v", 2, d)
                N = q ** place.degree
                assert theta_enum(place, f, 1, q) == local_unit_index(N, d, f)
                assert theta(place, f, 1, q) == local_unit_index(N, d, f)


def test_iwahori_product_form():
    # f = (1)^n at a split place of degree deg: each of the l = s rows picks
    # m = n/s columns, and a row of ones has unit index [m]_Q!, so
    # theta = n!/(m!)^s * ([m]_Q!)^s with Q = q^deg when s | deg, else 0.
    for q in (2, 3, 4):
        for deg in (1, 2, 3, 4, 6):
            Q = q ** deg
            for n in range(1, 13):
                for s in range(1, n + 1):
                    if n % s:
                        continue
                    m = n // s
                    expected = 0
                    if deg % s == 0:
                        q_factorial = prod((Q ** j - 1) // (Q - 1)
                                           for j in range(1, m + 1))
                        expected = (factorial(n) // factorial(m) ** s
                                    * q_factorial ** s)
                    assert theta(Place("v", deg), (1,) * n, s, q) == \
                        expected, (q, deg, n, s)


def _iwahori_theta(q: int, deg: int, n: int, s: int) -> int:
    """n!/(m!)^s * ([m]_Q!)^s with Q = q^deg and m = n/s if s | deg, else 0."""
    if deg % s:
        return 0
    Q = q ** deg
    m = n // s
    q_factorial = prod((Q ** j - 1) // (Q - 1) for j in range(1, m + 1))
    return factorial(n) // factorial(m) ** s * q_factorial ** s


def test_iwahori_product_form_large():
    # The product form of test_iwahori_product_form at n = 13-48, where the
    # s equal column budgets of one row are a single multinomial choice.
    for q in (2, 3, 4):
        for deg in (1, 2, 3, 4, 6, 8, 12):
            for n in range(13, 49):
                for s in range(1, n + 1):
                    if n % s == 0:
                        assert theta(Place("v", deg), (1,) * n, s, q) == \
                            _iwahori_theta(q, deg, n, s), (q, deg, n, s)


def test_grouped_rows_agree_with_enumeration():
    # Random keys with three or more equal column budgets, l in {2, 3} rows
    # and t in {1, 2}: each row is placed group by group and the last row is
    # closed, and the enumeration walks every element instead.
    rng = random.Random(8)
    for l, t in product((2, 3), (1, 2)):
        s = l * t
        cases = 0
        while cases < 10:
            q = rng.choice((2, 3))
            # gcd(s, deg) = l places above v, and gcd(s / l, d) = t at the
            # local index d = t.
            deg = l * (1 if t == 2 else rng.choice((1, 2)))
            # t = 2 splits each entry two ways, so it gets fewer columns.
            width = 6 if t == 1 else 4
            f = [rng.choice((1, 2))] * rng.randint(3, width)
            f += [rng.randint(1, 3) for _ in range(rng.randint(0, width - 4))]
            rng.shuffle(f)
            if sum(f) % l:
                continue
            place = Place("v", deg, t)
            assert local_shape(place, f, s)[:2] == (l, t)
            if sum(1 for _ in islice(enumerate_omega(place, f, s), 401)) > 400:
                continue
            assert theta(place, f, s, q) == theta_enum(place, f, s, q), \
                (q, deg, t, f)
            cases += 1


def test_budget_counts_grouped_row_placements():
    # Two rows of two over four columns of budget 1: the first row is one
    # choice (two of the four columns, weight C(4, 2)); the last is forced.
    place = Place("U", 2)
    assert theta(place, (1,) * 4, 2, 2, budget=1) == \
        theta_enum(place, (1,) * 4, 2, 2) == _iwahori_theta(2, 2, 4, 2)
    with pytest.raises(BudgetExceededError) as exc:
        theta(place, (1,) * 4, 2, 2, budget=0)
    assert str(exc.value) == \
        "theta: place 'U', s = 2: row placements exceed budget of 0"
    # One row is closed without a placement, also at t > 1: dvg's index-2
    # place T+1 at s = 2, where l = 1 and t = 2.
    assert theta(place, (1,) * 4, 1, 2, budget=0) == _iwahori_theta(2, 2, 4, 1)
    assert theta(IW_PLACE, (2,), 2, GOLDEN_Q, budget=0) == 12
    assert omega_size(IW_PLACE, (2,), 2, budget=0) == 3


def test_zero_iff_empty():
    place = Place("v", 1, 1)
    assert local_shape(place, (1, 1), 2)[3] is None
    assert theta_enum(place, (1, 1), 2, 3) == 0
    assert theta(place, (1, 1), 2, 3) == 0


def test_empty_set_forms_no_power_of_q():
    # The set is settled as empty before Q, a power of q, is formed.
    place = Place("v", 1, 1)
    assert theta(place, (1, 1), 2, PowerlessInt(3)) == 0
    assert theta_enum(place, (1, 1), 2, PowerlessInt(3)) == 0


@pytest.mark.parametrize("degree,budget,over", [
    (1, 0, False), (1, 1, False), (2, 0, True), (2, 1, False)])
def test_one_matrix_forms_no_power_of_q(degree, budget, over):
    # At t = 1 with one non-zero target every row takes its whole m_s from
    # that column, so theta is 1 before Q is formed.  At s = 2 a place of
    # degree 2 has l = 2 places above it: the one unforced row placement
    # still counts against the budget.
    place = Place("U", degree)
    for f in ((2,), (0, 2)):
        if over:
            with pytest.raises(BudgetExceededError, match=(
                    r"^theta: place 'U', s = 2: row placements exceed "
                    r"budget of 0$")):
                theta(place, f, 2, PowerlessInt(3), budget=budget)
        else:
            assert theta(place, f, 2, PowerlessInt(3), budget=budget) == 1


@pytest.mark.parametrize("place,f,s,q", [
    (Place("U", 3), (1,) * 24, 3, 2),
    (Place("U", 2), (2,) * 12, 2, 2),
    (Place("U", 2), (1, 2, 3, 4, 5, 9), 2, 3),
])
def test_theta_weighs_strip_counts_by_unit_indices(place, f, s, q):
    # Each slice weight is the Gaussian multinomial of its strip, so theta
    # sums count * prod of the strips' unit indices over `strip_counts`: an
    # oracle on sets no walk reaches (9,465,511,770 elements in the first).
    Q = residue_power(place, s, q)
    counts = strip_counts(place, f, s)
    assert sum(counts.values()) == omega_size(place, f, s)
    assert theta(place, f, s, q) == sum(
        count * prod(local_unit_index(Q, 1, strip) for strip in key)
        for key, count in counts.items())


def test_empty_set_builds_no_table(monkeypatch):
    # An empty set returns before the weight table is built.
    def no_table(Q, m, t):
        raise AssertionError(f"table built for Q = {Q}, m = {m}, t = {t}")
    # `csaclass.theta` names the function, so patch the module itself.
    monkeypatch.setattr(sys.modules[theta.__module__], "_weights", no_table)
    place = Place("v", 1, 1)
    assert theta(place, (1, 1), 2, 3) == 0
    assert omega_size(place, (1, 1), 2) == 0


def _single_row_keys():
    """Seeded keys with gcd(s, deg) = 1, so l = 1, and t = gcd(s, d) in
    {1, 2, 3}: q <= 4, up to five targets, m_s up to 48, zeros allowed."""
    rng = random.Random(20)
    keys = []
    for t in (1, 2, 3):
        for _ in range(25):
            s = t * rng.choice((1, 2, 3, 5))
            deg = rng.choice([g for g in range(1, 8) if gcd(g, s) == 1])
            m_s = rng.randint(1, 48)
            cuts = sorted(rng.randint(0, m_s)
                          for _ in range(rng.randint(0, 4)))
            targets = [b - a for a, b in zip([0, *cuts], [*cuts, m_s])]
            scale = s // t
            keys.append((rng.randint(2, 4), Place("v", deg, t),
                         tuple(b * scale for b in targets), s))
    return keys


def test_single_row_closed_form_matches_full_table():
    # At l = 1 the one row is forced, so theta is its weight read off the
    # full (m_s + 1)^2 table, the computation the closed form replaces.
    for q, place, f, s in _single_row_keys():
        l, t, m_s, targets = local_shape(place, f, s)
        assert l == 1 and t == place.local_index, (place, f, s)
        Q = residue_power(place, s, q)
        cell = _weights(Q, m_s, t)
        expected, left = 1, m_s
        for b in targets:
            expected *= cell[left][b]
            left -= b
        assert theta(place, f, s, q) == expected, (q, place, f, s)


def test_single_row_size_is_a_product_of_binomials():
    # At Q = 0 the slice weight is the number of t-way splits of each target.
    for _, place, f, s in _single_row_keys():
        _, t, _, targets = local_shape(place, f, s)
        size = prod(comb(b + t - 1, t - 1) for b in targets)
        assert omega_size(place, f, s) == size, (place, f, s)
        if size <= 5000:
            assert sum(strip_counts(place, f, s).values()) == size, \
                (place, f, s)


def test_single_row_work(monkeypatch):
    # At l = 1 and t = 1 neither theta nor omega_size builds a table; at
    # t > 1 the one table built runs up to the largest target, not to m_s.
    built = []

    def recording(Q, m, t):
        if t == 1:
            raise AssertionError(f"table built for Q = {Q}, m = {m}, t = 1")
        built.append((Q, m, t))
        return _weights(Q, m, t)
    # `csaclass.theta` names the function, so patch the module itself.
    monkeypatch.setattr(sys.modules[theta.__module__], "_weights", recording)
    one = Place("v", 1)
    assert theta(one, (1,) * 48, 1, 2) == _iwahori_theta(2, 1, 48, 1)
    assert omega_size(one, (1,) * 48, 1) == 1
    assert theta(Place("v", 2), (3, 1, 2), 1, 3) == \
        local_unit_index(9, 1, (3, 1, 2))
    assert built == []
    place = Place("v", 1, 2)
    assert theta(place, (4, 2, 6), 2, 3) == \
        theta_enum(place, (4, 2, 6), 2, 3)
    assert built == [(3 ** 2, 6, 2)]
    built.clear()
    assert omega_size(place, (4, 2, 6), 2) == 5 * 3 * 7
    assert built == [(0, 6, 2)]


@pytest.mark.parametrize("place,f,s", [
    (Place("v", 1), (-1, 3), 1),
    (Place("v", 2), (-1, 3, 2), 2),
])
def test_negative_entries_are_validation_errors(place, f, s):
    calls = (lambda: theta(place, f, s, 2), lambda: omega_size(place, f, s),
             lambda: theta_enum(place, f, s, 2),
             lambda: list(enumerate_omega(place, f, s)),
             lambda: strip_counts(place, f, s))
    for call in calls:
        with pytest.raises(ValidationError, match="non-negative"):
            call()


def test_weights_at_zero_count_splits():
    # At Q = 0 every Gaussian binomial is 1, so the theta table is the
    # binomial table C(N + t - 1, t - 1) that counts t-way splits of N.
    for m in range(13):
        for t in range(1, 7):
            cell = _weights(0, m, t)
            assert cell == [[comb(N + t - 1, t - 1) for N in range(left + 1)]
                            for left in range(m + 1)], (m, t)


def test_rotation_invariance():
    for q in (2, 3):
        for s in (1, 2, 4):
            for f in _compositions_pos(4, 2):
                place = Place("v", 2, 2)
                rot = f[1:] + f[:1]
                assert theta(place, f, s, q) == theta(place, rot, s, q)

