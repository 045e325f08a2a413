"""Local theta factors: golden values, agreement with enumeration, edge cases."""

from __future__ import annotations

import pathlib
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice, permutations, product
from math import comb, factorial, gcd, prod

import pytest

from csaclass import (AlgebraSpec, BaseField, OrderSpec, Place,
                      constant_field_degree, enumerate_omega, local_unit_index,
                      strip_counts, theta)
from csaclass.classnum import _level_solver
from csaclass.cli import parse_config
from csaclass.errors import BudgetExceededError, ValidationError
from csaclass.omega import local_shape
from csaclass.theta import _walk, _weights, omega_size, residue_power
from conftest import (PowerlessInt, random_definite_spec, random_order,
                      theta_columns, theta_enum)


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
    # Random keys with three or more equal column budgets, l in {2, 3, 4, 6}
    # rows and t in {1, 2}: each row gives equal columns one choice per
    # multiset and the last row is closed, and the enumeration walks every
    # element instead.  At l = 6 and t = 2 every set drawn below has more
    # than 400 elements, so l = 6 comes with t = 1 only.
    rng = random.Random(8)
    for l, t in [*product((2, 3, 4), (1, 2)), (6, 1)]:
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


@pytest.mark.parametrize("f,budget,side", [
    ((*range(1, 12), 18), 1000, "row"),
    ((20, 30, 40, 50, 64), 300, "column"),
], ids=["rows", "columns"])
def test_placements_are_refused_as_they_are_built(monkeypatch, f, budget,
                                                  side):
    # Twelve places above a place of degree 12 at s = 12: the first step of
    # either walk alone has more choices than the budget (a row of 7 over
    # twelve distinct columns; a column of 20 over twelve rooms of 17), so
    # the budget must stop them while they are built.  No list of partial
    # choices may pass the budget by more than the amount + 1 entries one
    # partial choice can try.
    place = Place("U", 12)
    _, _, m, targets = local_shape(place, f, 12)
    amount = m if side == "row" else min(targets)
    module = sys.modules[theta.__module__]
    slot_entries = module._slot_entries
    counts = []

    def recording(key, spend):
        def tally(*args):
            counts[-1].append(args[-1])
            spend(*args)
        counts.append([])
        return slot_entries(key, tally)

    monkeypatch.setattr(module, "_slot_entries", recording)
    with pytest.raises(BudgetExceededError) as exc:
        theta(place, f, 12, 2, budget=budget)
    assert str(exc.value) == (f"theta: place 'U', s = 12: {side} placements "
                              f"exceed budget of {budget}")
    (first,) = counts
    assert budget < max(first) <= budget + amount + 1


# Seeded keys (deg v, d_v, f_v, s) with l >= 2 places above v, and the least
# budgets at which theta's row walk (q = 2) and strip_counts pass: the row
# placements and the strip states each tries.  theta walks the rows of each
# key but those of COLUMN_BUDGETS, whose columns it walks, with the least
# budget of that walk.
PINNED_BUDGETS = [
    (8, 3, (1, 1, 1, 1, 1, 1), 2, 1, 36),
    (3, 2, (1, 1, 1), 3, 2, 12),
    (10, 9, (1, 1), 18, 1, 69),
    (2, 3, (1, 2, 1), 6, 3, 93),
    (6, 2, (1, 2, 3, 2), 2, 10, 46),
    (8, 2, (1, 1, 1, 1), 4, 3, 20),
    (2, 1, (7, 4, 1, 1, 1), 2, 20, 116),
    (2, 5, (4, 2), 2, 3, 12),
    (6, 3, (1, 5, 2, 1), 9, 30, 1185),
    (8, 1, (4, 4), 2, 3, 18),
    (4, 2, (2, 2, 1, 1, 3, 1), 2, 18, 108),
    (3, 7, (2, 1), 21, 4, 93),
    (2, 4, (3, 1), 4, 2, 48),
    (9, 4, (1, 1, 1), 12, 2, 72),
    (8, 1, (1, 2, 1, 1, 1, 2, 1, 1, 1, 1, 2), 2, 10, 316),
    (6, 2, (8, 4), 8, 3, 122),
    (4, 9, (1, 1), 2, 1, 6),
    (2, 2, (1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1), 2, 3, 243),
    (8, 1, (1,) * 19 + (2, 1, 1, 1), 2, 3, 485),
    (4, 3, (1, 1, 8), 2, 3, 15),
    (12, 2, (2, 1, 1), 8, 7, 64),
    (10, 1, (1, 2, 1, 1), 5, 10, 24),
    (6, 7, (1, 1), 14, 1, 57),
    (6, 3, (1, 4, 2, 2), 3, 31, 106),
    (4, 1, (2, 3, 9), 2, 12, 38),
    (7, 4, (4, 1, 1, 1), 28, 24, 272),
    (7, 3, (1, 1, 1, 3, 1), 21, 22, 259),
    (2, 4, (1, 1), 8, 1, 39),
    (6, 6, (1, 1), 4, 1, 23),
    (10, 4, (2, 3), 5, 10, 12),
]
# Each row's test id ends with its least strip-state budget under the
# earlier strip walk, which filled slot j of every column before slot
# j + 1 and keyed strips by rotation; the ids stay so that each row
# keeps its name.
PINNED_IDS = [
    "8-3-f0-2-1-36", "3-2-f1-3-2-12", "10-9-f2-18-1-115", "2-3-f3-6-3-259",
    "6-2-f4-2-10-44", "8-2-f5-4-3-20", "2-1-f6-2-20-116", "2-5-f7-2-3-12",
    "6-3-f8-9-30-11238", "8-1-f9-2-3-18", "4-2-f10-2-18-118",
    "3-7-f11-21-4-178", "2-4-f12-4-2-82", "9-4-f13-12-2-142",
    "8-1-f14-2-10-605", "6-2-f15-8-3-245", "4-9-f16-2-1-6", "2-2-f17-2-3-308",
    "8-1-f18-2-3-493", "4-3-f19-2-3-15", "12-2-f20-8-7-108",
    "10-1-f21-5-10-24", "6-7-f22-14-1-91", "6-3-f23-3-31-110",
    "4-1-f24-2-12-36", "7-4-f25-28-24-1237", "7-3-f26-21-22-1203",
    "2-4-f27-8-1-55", "6-6-f28-4-1-27", "10-4-f29-5-10-12",
]
COLUMN_BUDGETS = {
    (6, 2, (1, 2, 3, 2), 2): 9,
    (2, 1, (7, 4, 1, 1, 1), 2): 16,
    (4, 2, (2, 2, 1, 1, 3, 1), 2): 18,
    (3, 7, (2, 1), 21): 1,
    (12, 2, (2, 1, 1), 8): 2,
    (10, 1, (1, 2, 1, 1), 5): 3,
    (4, 1, (2, 3, 9), 2): 8,
    (7, 4, (4, 1, 1, 1), 28): 3,
    (7, 3, (1, 1, 1, 3, 1), 21): 4,
    (10, 4, (2, 3), 5): 1,
}


def _row_walk(place: Place, f, s: int, budget: int) -> int:
    """theta at q = 2 by its row walk, whichever side `theta` takes."""
    l, t, m, targets = local_shape(place, f, s)

    def refuse():
        return BudgetExceededError(f"row placements past {budget}")

    return _walk(tuple(sorted(b for b in targets if b)), (m,) * l,
                 _weights(residue_power(place, s, 2), m, t), budget, refuse)


@pytest.mark.parametrize("deg,d,f,s,placements,states", PINNED_BUDGETS,
                         ids=PINNED_IDS)
def test_least_budgets_are_pinned(deg, d, f, s, placements, states):
    place = Place("U", deg, d)
    assert local_shape(place, f, s)[0] >= 2
    value = _row_walk(place, f, s, placements)
    with pytest.raises(BudgetExceededError):
        _row_walk(place, f, s, placements - 1)
    side, least = "row", placements
    if (deg, d, f, s) in COLUMN_BUDGETS:
        side, least = "column", COLUMN_BUDGETS[deg, d, f, s]
    assert theta(place, f, s, 2, budget=least) == value
    with pytest.raises(BudgetExceededError) as exc:
        theta(place, f, s, 2, budget=least - 1)
    assert str(exc.value) == (f"theta: place 'U', s = {s}: {side} placements "
                              f"exceed budget of {least - 1}")
    strip_counts(place, f, s, budget=states)
    with pytest.raises(BudgetExceededError) as exc:
        strip_counts(place, f, s, budget=states - 1)
    assert str(exc.value) == (f"transfer: place 'U', s = {s}: strip states "
                              f"exceed budget of {states - 1}")


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
    # The strip sum of transfer and selfcheck at S = s is the same sum: each
    # place w above v at its level 1 over q^s, where theta is a unit index.
    Q = residue_power(place, s, q)
    counts = strip_counts(place, f, s)
    assert sum(counts.values()) == omega_size(place, f, s)
    assert theta(place, f, s, q) == sum(
        count * prod(local_unit_index(Q, 1, strip) for strip in key)
        for key, count in counts.items())
    n = sum(f)
    spec = AlgebraSpec(BaseField(q), n, (Place("T", 1, n, 1), place), -1)
    solver = _level_solver(OrderSpec(spec, ((place.label, f),)))
    assert solver.factor(place, f, s, s) == theta(place, f, s, q)


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


def test_single_row_of_zeros_and_ones_builds_no_table(monkeypatch):
    # At l = 1 with every target 0 or 1 the slice weight is the unit index
    # times g_t(1) = t per target 1, and the set size is t ** ones.
    rng = random.Random(28)
    keys = []
    for t in range(2, 13):
        for scale in (1, 1, 2, 3):
            s = t * scale
            deg = rng.choice([g for g in range(1, 6) if gcd(g, s) == 1])
            targets = [rng.randint(0, 1) for _ in range(rng.randint(1, 4))]
            targets[rng.randrange(len(targets))] = 1
            keys.append((rng.randint(2, 4), Place("v", deg, t),
                         tuple(b * scale for b in targets), s))
    expected = [(theta_enum(place, f, s, q),
                 sum(1 for _ in enumerate_omega(place, f, s)))
                for q, place, f, s in keys]

    def no_table(Q, m, t):
        raise AssertionError(f"table built for Q = {Q}, m = {m}, t = {t}")
    # `csaclass.theta` names the function, so patch the module itself.
    monkeypatch.setattr(sys.modules[theta.__module__], "_weights", no_table)
    for (q, place, f, s), (value, size) in zip(keys, expected):
        l, t, _, targets = local_shape(place, f, s)
        assert l == 1 and set(targets) <= {0, 1}, (place, f, s)
        assert theta(place, f, s, q) == value, (q, place, f, s)
        assert omega_size(place, f, s) == size == t ** targets.count(1)


def test_weights_at_one_split_are_gaussian_binomials():
    # At t = 1, g is 1 and cell[left][N] is the Gaussian binomial itself.
    for Q in (0, 2, 3, 4):
        for m in range(8):
            assert _weights(Q, m, 1) == [
                [local_unit_index(Q, 1, (N, left - N)) if Q else 1
                 for N in range(left + 1)] for left in range(m + 1)]


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


def test_theta_and_strip_counts_read_f_as_a_multiset():
    # theta reads f_v only as the multiset of its non-zero parts, so the
    # solver keys its memo on the sorted vector; strip_counts keys each
    # element by its sorted strips, so every permutation of f has the same
    # counts.  Seeded keys with up to four parts of size <= 3, against the
    # walk of each permutation's set, t > 1 and l > 1 included.
    rng = random.Random(4264)
    seen = Counter()
    while seen["checked"] < 200:
        deg, d = rng.choice((1, 2, 3, 4, 6)), rng.choice((1, 2, 3))
        f = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
        s, q = rng.randint(1, 6), rng.choice((2, 3))
        place = Place("v", deg, d)
        try:
            l, t, _, targets = local_shape(place, f, s)
        except ValidationError:
            continue
        if targets is None or omega_size(place, f, s) > 300:
            continue
        perms = sorted(set(permutations(f)))
        perms = rng.sample(perms, min(6, len(perms)))
        assert len({theta_enum(place, g, s, q) for g in perms}
                   | {theta(place, g, s, q) for g in perms}) == 1, \
            (deg, d, f, s, q)
        counts = [strip_counts(place, g, s) for g in perms]
        assert all(c == counts[0] for c in counts), (deg, d, f, s)
        seen.update(checked=1, l=l > 1, t=t > 1, lt=l > 1 < t,
                    moved=len(perms) > 1)
    assert min(seen["l"], seen["t"], seen["moved"]) > 25, seen
    assert seen["lt"] > 5, seen


def _seeded_order_keys(rng: random.Random, count: int) -> list[tuple]:
    """(place, f, s, q) for `count` distinct keys (deg, d, f, s, q): every
    listed place of seeded random orders, at every s that divides s0."""
    keys: dict[tuple, tuple] = {}
    while len(keys) < count:
        order = random_order(rng, random_definite_spec(rng, max_degree=12),
                             extra_split_places=2)
        spec = order.algebra
        s0 = constant_field_degree(spec)
        for label in order.relevant_labels():
            v, f = spec.place(label), order.invariant_at(label)
            for s in (s for s in range(1, s0 + 1) if s0 % s == 0):
                keys.setdefault((v.degree, v.local_index, f, s, spec.base.q),
                                (v, f, s, spec.base.q))
    return list(keys.values())[:count]


def test_theta_by_columns_equals_theta_by_rows():
    # The column form, the tests' `theta_columns`, walks the parts of f_v
    # over the l rows where `theta` walks the rows over the parts: the same
    # sum, and at q = 0 the size of the index set.  The reach keys have 12
    # to 48 equal parts or eight distinct ones, at l = 2, 4 and 6.
    reach = pathlib.Path(__file__).resolve().parents[1] / "configs" / "reach"
    keys = _seeded_order_keys(random.Random(42), 600)
    shapes = [local_shape(v, f, s)[:2] for v, f, s, _ in keys]
    assert sum(t > 1 for _, t in shapes) > 150
    assert sum(l > 1 for l, _ in shapes) > 50
    for config, s in (("x24d4", 4), ("iw48d12", 6), ("f8", 2)):
        order = parse_config((reach / f"{config}.json").read_text(
            encoding="utf-8")).order
        keys.append((order.algebra.place("U"), order.invariant_at("U"), s,
                     order.algebra.base.q))
    for v, f, s, q in keys:
        assert theta_columns(v, f, s, q) == theta(v, f, s, q), (v, f, s, q)
        assert theta_columns(v, f, s, 0) == omega_size(v, f, s), (v, f, s)


REACH = pathlib.Path(__file__).resolve().parents[1] / "configs" / "reach"
# The 14-part vector at the degree-4 place of tests/test_cli.py's
# WIDE_ORDER_CONFIG.
WIDE_F = (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 1, 2, 1, 2)


def _reach_u(config: str) -> tuple[Place, tuple[int, ...]]:
    order = parse_config((REACH / f"{config}.json").read_text(
        encoding="utf-8")).order
    return order.algebra.place("U"), order.invariant_at("U")


def _side(place: Place, f, s: int) -> str:
    """The side theta walks, "row" or "column", read off the unit its
    refusal names at budget 0.  At l > 1 a row walk places at least one
    row; a column walk over one column places none, its column forced."""
    try:
        theta(place, f, s, 2, budget=0)
    except BudgetExceededError as exc:
        return str(exc).split(": ")[-1].split()[0]
    return "column"


@pytest.mark.parametrize("key,side", [
    (("f9", 3), "column"),
    (("f8", 4), "column"),
    ((Place("U", 2), (*range(1, 9), 100, 100), 2), "column"),
    ((Place("U", 4), WIDE_F, 4), "column"),
    (("iw48d12", 6), "row"),
    (("x24d4", 4), "row"),
    # Fewer columns than rows, but more sorted rooms than sorted budgets:
    # the columns would take seconds here, the rows milliseconds.
    ((Place("U", 12), (100, 140), 12), "row"),
    ((Place("U", 6), (10, 20, 30), 6), "row"),
], ids=["f9-s3", "f8-s4", "u2-100x2", "wide-s4", "iw48d12-s6", "x24d4-s4",
        "u12-2parts", "u6-3parts"])
def test_theta_walks_the_side_its_shape_picks(key, side):
    if isinstance(key[0], str):
        place, f = _reach_u(key[0])
        key = (place, f, key[1])
    assert _side(*key) == side


def test_theta_walks_either_side_to_the_same_sum():
    # Seeded keys from both sides of the choice, with its edges: r = l
    # and d = l (the rows), and the two state bounds equal.  Each side
    # gives the column form's sum, and at q = 0 the size of the set; on
    # sets of at most 400 elements, the walk of the set's sum.
    rng = random.Random(41)
    seen: Counter = Counter()
    while seen["row"] + seen["column"] < 150:
        deg, d = rng.choice((2, 3, 4, 6, 12)), rng.choice((1, 2, 3, 4))
        f = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 6)))
        s = rng.randint(2, 24)
        place = Place("v", deg, d)
        try:
            l, t, m, targets = local_shape(place, f, s)
        except ValidationError:  # a zero f, or s past the capacity
            continue
        cols = [b for b in targets or () if b]
        if l == 1 or not cols or (t == 1 and len(cols) == 1):
            continue
        side = _side(place, f, s)
        rooms = comb(l + m, l)
        budgets = prod(comb(b + k, k) for b, k in Counter(cols).items())
        seen[side] += 1
        seen[side, "t > 1"] += t > 1
        seen[side, "bounds equal"] += rooms == budgets
        seen["r = l"] += len(cols) == l
        seen["d = l"] += len(set(cols)) == l
        # The columns only where they take fewer steps, or the rows have no
        # equal budgets, and their states are bounded by the rows'.
        assert side == "row" or (len(cols) < l or len(set(cols)) > l) and \
            rooms <= budgets, (place, f, s)
        for q in (0, 2, 3):
            want = theta_columns(place, f, s, q)
            got = omega_size(place, f, s) if q == 0 else theta(place, f, s, q)
            assert got == want, (place, f, s, q)
        if sum(1 for _ in islice(enumerate_omega(place, f, s), 401)) <= 400:
            for q in (2, 3):
                assert theta(place, f, s, q) == theta_enum(place, f, s, q)
    assert min(seen[k] for k in (
        "row", "column", ("row", "t > 1"), ("column", "t > 1"),
        ("row", "bounds equal"), ("column", "bounds equal"), "r = l",
        "d = l")) > 0, seen
