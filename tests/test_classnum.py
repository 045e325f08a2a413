"""Class numbers: golden chain, transfer identity, closed forms, genera."""

from __future__ import annotations

import pathlib
import random
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import prod

import pytest

from csaclass import (AlgebraSpec, BaseField, OrderSpec, Place, class_number,
                      class_number_report, constant_field_degree,
                      embedding_count, mass_hereditary, maximal_order,
                      omega_size, prime_degree_class_number,
                      total_class_number_genera, theta,
                      transfer_check, weight_class_numbers)
from csaclass import classnum
from csaclass.algebra import places_above, validate
from csaclass.cli import main, parse_config
from csaclass.omega import enumerate_omega, strip_counts
from csaclass.orders import count_genera, normalize_invariant
from csaclass.errors import (DEFAULT_BUDGET, BudgetExceededError,
                             IntegralityViolationError, InvalidDivisorError,
                             NotPrimeDegreeError)
from conftest import (centralizer_spec, enumerate_genera, flatten_strip,
                      genus_reduce, per_genus, random_definite_spec,
                      random_l_poly, random_order, theta_enum,
                      with_listed_place)


def test_golden_weight_class_numbers(golden_order):
    assert weight_class_numbers(golden_order) == {1: 64, 2: 14, 4: 4}


def test_golden_class_number(golden_order):
    assert class_number(golden_order) == 82


def test_golden_report(golden_order):
    report = class_number_report(golden_order)
    assert report.s0 == 4
    assert report.mass == Fraction(169, 5)
    assert report.h_total == 82
    assert {level.s: level.h for level in report.levels} == {1: 64, 2: 14, 4: 4}
    # level right-hand sides: s = 4 gives 4*h_4/(q^4-1), etc.
    rhs = {level.s: level.rhs for level in report.levels}
    assert rhs[4] == Fraction(16, 80)
    assert rhs[2] == Fraction(1, 80) * (2 * 12 * 12)


GOLDEN_CONFIG_PATH = (pathlib.Path(__file__).resolve().parents[1]
                      / "configs" / "dvg-example.json")


# The golden solve: h_4 = 20 * rhs_4 = 4 with rhs_4 = 1/5, then h_2 =
# 4 * rhs_2 - 2/5 = 14 with rhs_2 = 18/5.  Scaling M_4 (the mass of the
# degree-1 centralizer) or M_2 (degree 2) makes that level non-integral or
# negative.
@pytest.mark.parametrize("degree,scale,message", [
    (1, Fraction(1, 3), "h_4 = 4/3 is not a non-negative integer"),
    (1, -1, "h_4 = -4 is not a non-negative integer"),
    (2, Fraction(1, 2), "h_2 = 34/5 is not a non-negative integer"),
    (2, Fraction(-1, 9), "h_2 = -2 is not a non-negative integer"),
])
def test_level_solver_integrality_error(golden_order, capsys, monkeypatch,
                                        degree, scale, message):
    real_mass = classnum._level_mass

    def scaled_mass(spec, s):  # M_s, of a centralizer of degree n / s
        return real_mass(spec, s) * (scale if spec.degree // s == degree
                                     else 1)

    monkeypatch.setattr(classnum, "_level_mass", scaled_mass)
    with pytest.raises(IntegralityViolationError) as exc:
        weight_class_numbers(golden_order)
    assert str(exc.value) == message
    assert main(["--config", str(GOLDEN_CONFIG_PATH), "classnum"]) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def _count_specs(monkeypatch) -> list[str]:
    """The class name of each `AlgebraSpec`, `OrderSpec` and checked
    `BaseField` built from now."""
    built = []
    for cls in (AlgebraSpec, OrderSpec, BaseField):
        def counted(cls, *args, _new=cls.__new__, **kwargs):
            built.append(cls.__name__)
            return _new(cls, *args, **kwargs)
        monkeypatch.setattr(cls, "__new__", staticmethod(counted))
    return built


@pytest.mark.parametrize("config", ["dvg-example", "iwahori-two-places"])
def test_solves_build_no_algebra_or_order_spec(config, monkeypatch):
    # Each level's M_s is read off the algebra, with no centralizer spec.
    order = parse_config((GOLDEN_CONFIG_PATH.parent / f"{config}.json")
                         .read_text(encoding="utf-8")).order
    s0 = constant_field_degree(order.algebra)
    assert s0 > 1
    built = _count_specs(monkeypatch)
    weight_class_numbers(order)
    embedding_count(order, 1)
    embedding_count(order, s0)
    total_class_number_genera(order)
    assert built == []


def test_transfer_builds_no_algebra_spec(golden_order, monkeypatch):
    # The derived orders are solved as one on the algebra's own levels, with
    # no derived algebra and no field of its own.
    built = _count_specs(monkeypatch)
    for s, s2 in ((1, 4), (2, 2), (2, 4), (4, 4)):
        assert transfer_check(golden_order, s, s2).equal
    assert built == []


def test_golden_embedding_counts(golden_order):
    # s * sum of h_{s'} over multiples s' of s
    assert embedding_count(golden_order, 4) == 16
    assert embedding_count(golden_order, 2) == 36
    assert embedding_count(golden_order, 1) == 82
    with pytest.raises(InvalidDivisorError):
        embedding_count(golden_order, 3)


def test_golden_transfer_all_pairs(golden_order):
    for s in (1, 2, 4):
        for s2 in (1, 2, 4):
            if s2 % s:
                continue
            report = transfer_check(golden_order, s, s2)
            assert report.equal, (s, s2, report.lhs, report.rhs)


def test_transfer_budget(golden_order):
    with pytest.raises(BudgetExceededError):
        transfer_check(golden_order, 2, 2, budget=1)


def test_transfer_rejects_bad_divisors(golden_order):
    with pytest.raises(InvalidDivisorError):
        transfer_check(golden_order, 2, 3)
    with pytest.raises(InvalidDivisorError):
        transfer_check(golden_order, 3, 3)


def _drinfeld_order(q: int, n: int, deg_v0: int) -> OrderSpec:
    spec = AlgebraSpec(BaseField(q), n,
                       (Place("v0", deg_v0, n, 1),), -1)
    return maximal_order(spec)


@pytest.mark.parametrize("q,n,deg,expected", [
    # class numbers of maximal orders ramified exactly at one finite place
    # and infinity; frozen from the recursion after cross-checking against
    # the prime-degree closed form where it applies
    (2, 2, 1, 1), (2, 2, 3, 3), (3, 2, 1, 1), (3, 2, 3, 4),
    (2, 3, 1, 1), (2, 3, 4, 183), (3, 3, 1, 1), (3, 3, 4, 2524),
])
def test_drinfeld_values(q, n, deg, expected):
    order = _drinfeld_order(q, n, deg)
    assert class_number(order) == expected
    if n in (2, 3):
        assert prime_degree_class_number(order) == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_gekeler_supersingular_count(q):
    # Gekeler: the maximal order of the quaternion algebra over F_q(T)
    # ramified at a prime of degree d and at infinity has class number
    # (q^d - 1)/(q^2 - 1) for even d and (q^d - q)/(q^2 - 1) + 1 for odd d,
    # and h_2 = 1 exactly when d is odd (j = 0 is supersingular).
    for d in range(1, 31):
        h = weight_class_numbers(_drinfeld_order(q, 2, d))
        if d % 2 == 0:
            expected = Fraction(q ** d - 1, q ** 2 - 1)
        else:
            expected = Fraction(q ** d - q, q ** 2 - 1) + 1
        assert sum(h.values()) == expected, d
        assert h.get(2, 0) == d % 2, d


def test_prime_degree_requires_prime(golden_order):
    with pytest.raises(NotPrimeDegreeError):
        prime_degree_class_number(golden_order)


def test_prime_degree_refuses_a_non_integral_class_number(monkeypatch):
    # A mass of 1/7 would not do: its correction term makes it whole.
    order = maximal_order(AlgebraSpec(BaseField(2), 3,
                                      (Place("T", 1, 3, 1),), -1))
    monkeypatch.setattr(classnum, "mass_hereditary",
                        lambda order: Fraction(2, 7))
    with pytest.raises(IntegralityViolationError, match=(
            "^prime-degree class number 8/7 is not a non-negative integer$")):
        prime_degree_class_number(order)


def test_prime_degree_cross_check_random():
    # Bases of genus 0, 1 and 2 with deg infinity 1 and 2: the closed form
    # reads #Pic of the degree-n constant extension, the solve each M_s.
    rng = random.Random(20260823)
    seen = Counter()
    while sum(seen.values()) < 200:
        delta = rng.choice((1, 2))
        shape = random_definite_spec(rng, max_degree=5, infinity_degree=delta)
        if shape.degree not in (2, 3, 5):
            continue
        q = shape.base.q
        spec = AlgebraSpec(BaseField(q, random_l_poly(rng, q), delta),
                           shape.degree, shape.finite_places,
                           shape.infinity_invariant)
        order = random_order(rng, spec)
        assert prime_degree_class_number(order) == class_number(order), order
        seen[len(spec.base.l_poly) // 2, delta, spec.degree] += 1
    assert {key[:2] for key in seen} == set(product((0, 1, 2), (1, 2)))
    assert {key[2] for key in seen} == {2, 3, 5}, seen


def test_s0_one_single_level():
    # a ramified place of degree n blocks all constant subfields
    spec = AlgebraSpec(BaseField(2), 2,
                       (Place("v0", 2, 2, 1),), 1)
    order = maximal_order(spec)
    assert constant_field_degree(spec) == 1
    h = weight_class_numbers(order)
    assert set(h) == {1}
    assert Fraction(h[1], 2 - 1) == mass_hereditary(order)


def test_level_one_rhs_is_mass():
    rng = random.Random(17)
    for _ in range(25):
        spec = random_definite_spec(rng)
        order = random_order(rng, spec)
        level_one = class_number_report(order).levels[0]
        assert level_one.s == 1
        assert level_one.rhs == mass_hereditary(order)


def test_mass_consistency_random():
    rng = random.Random(4)
    for _ in range(40):
        spec = random_definite_spec(rng)
        order = random_order(rng, spec)
        h = weight_class_numbers(order)
        q = spec.base.q
        resum = sum((Fraction(h[s], q ** s - 1) for s in h), Fraction(0))
        assert resum == mass_hereditary(order)
        assert all(v >= 0 for v in h.values())
        assert h[1] >= 1 or len(h) > 1


def _random_transfer_cases(count: int = 10):
    """(order, s, s2, report) for random orders whose transfer fits the budget."""
    rng = random.Random(31)
    checked = 0
    while checked < count:
        spec = random_definite_spec(rng, max_degree=4)
        order = random_order(rng, spec)
        s0 = constant_field_degree(spec)
        divisors = [s for s in range(2, s0 + 1) if s0 % s == 0]
        if not divisors:
            continue
        s = rng.choice(divisors)
        s2 = rng.choice([m for m in divisors + [s0] if m % s == 0 and s0 % m == 0])
        try:
            report = transfer_check(order, s, s2, budget=20000)
        except BudgetExceededError:
            continue
        yield order, s, s2, report
        checked += 1


def test_transfer_random():
    # The embedding count at s solves only the levels s divides, and the
    # transfer only those s2 and s2/s divide; they must agree with a solve
    # of every level at every s | s2 | s0.
    for order, s, s2, report in _random_transfer_cases():
        assert report.equal, (order, s, s2, report)
        h = weight_class_numbers(order)
        for a in h:
            above = [b for b in h if b % a == 0]
            assert embedding_count(order, a) == a * sum(h[b] for b in above)
            for b in above:
                try:
                    pair = transfer_check(order, a, b, budget=20000)
                except BudgetExceededError:
                    continue
                assert pair.lhs == a * h[b], (order, a, b)
                assert pair.equal, (order, a, b, pair)


def test_genera_iwahori_quaternion():
    # one place with invariant (1, 1): three genera, two reduce to the
    # maximal order and must share its class number
    spec = AlgebraSpec(BaseField(3), 2,
                       (Place("v0", 1, 2, 1),), -1)
    spec = with_listed_place(spec, "w", 1)
    order = OrderSpec(spec, (("w", (1, 1)),))
    report = total_class_number_genera(order)
    assert len(per_genus(report)) == 3
    by_genus = dict(per_genus(report))
    h_max = class_number(maximal_order(spec))
    assert by_genus[(("w", (2, 0)),)] == h_max
    assert by_genus[(("w", (0, 2)),)] == h_max
    assert by_genus[(("w", (1, 1)),)] == class_number(order)
    assert report.total == 2 * h_max + class_number(order)


def test_genera_maximal_trivial(golden_order):
    report = total_class_number_genera(golden_order)
    assert per_genus(report) == (((), 82),)
    assert report.total == 82


def test_genera_budget():
    spec = AlgebraSpec(BaseField(3), 2,
                       (Place("v0", 1, 2, 1),), -1)
    spec = with_listed_place(spec, "w", 1)
    order = OrderSpec(spec, (("w", (1, 1)),))
    with pytest.raises(BudgetExceededError,
                       match="^genera: genus count 3 exceeds budget of 2$"):
        total_class_number_genera(order, budget=2)


def test_engines_agree_on_random_orders():
    rng = random.Random(8)
    for _ in range(15):
        order = random_order(rng, random_definite_spec(rng, max_degree=4))
        spec = order.algebra
        s0 = constant_field_degree(spec)
        for s in (s for s in range(1, s0 + 1) if s0 % s == 0):
            for label in order.relevant_labels():
                args = (spec.place(label), order.invariant_at(label), s,
                        spec.base.q)
                assert theta(*args) == theta_enum(*args)


def _one_split_place(q: int, n: int, deg: int, f_vec) -> OrderSpec:
    """T ramified with 1/n, order data f_vec at one split place U of degree deg."""
    spec = AlgebraSpec(BaseField(q), n, (Place("T", 1, n, 1),), -1)
    spec = with_listed_place(spec, "U", deg)
    return OrderSpec(spec, (("U", tuple(f_vec)),))


@pytest.mark.parametrize("n,deg,f_vec,s,budget", [
    (24, 4, (2,) * 12, 4, 10 ** 4),
    (24, 4, (1,) * 24, 2, 100),
    (12, 6, (1,) * 12, 6, 100),
], ids=["n24-deg4-2x12", "n24-deg4-iwahori", "n12-deg6-iwahori"])
def test_transfer_strip_budget_trips_early(n, deg, f_vec, s, budget):
    # Each set at U has millions of elements or more; its strips are counted
    # slot by slot, and the state transitions trip the budget at once.
    order = _one_split_place(2, n, deg, f_vec)
    started = time.monotonic()
    with pytest.raises(BudgetExceededError) as exc:
        transfer_check(order, s, s, budget=budget)
    assert time.monotonic() - started < 1.0
    assert str(exc.value) == (f"transfer: place 'U', s = {s}: "
                              f"strip states exceed budget of {budget}")


def _degree2_places(q: int, f_vecs) -> OrderSpec:
    """T ramified with 1/n, order data f_vecs[i] at the i-th of the split
    places U, V, W, ... of degree 2, n the sum of each vector."""
    n = sum(f_vecs[0])
    spec = AlgebraSpec(BaseField(q), n, (Place("T", 1, n, 1),), -1)
    labels = "UVWXYZ"[:len(f_vecs)]
    for label in labels:
        spec = with_listed_place(spec, label, 2)
    return OrderSpec(spec, tuple(zip(labels, map(tuple, f_vecs))))


def test_transfer_sums_many_places_without_a_derived_order_bound():
    # Four places with four strip groups each at s = 2: 256 derived orders,
    # while no place takes more than 100 strip state transitions.  The sum
    # over them is one solve, so no bound counts the derived orders.
    order = _degree2_places(3, [(1, 1, 2, 2, 2)] * 4)
    assert transfer_check(order, 2, 2, budget=100).equal
    # Six places over F_4, all its monic irreducibles of degree 2: 4096
    # derived orders.
    order = _degree2_places(4, [(1, 1, 2, 2, 2)] * 6)
    assert validate(order.algebra) == []
    started = time.monotonic()
    report = transfer_check(order, 2, 2)
    assert report.equal, (report.lhs, report.rhs)
    assert time.monotonic() - started < 1.0


@pytest.mark.parametrize("s2", [2, 4, 6, 12])
def test_transfer_degree6_iwahori(s2):
    order = _one_split_place(2, 12, 6, (1,) * 12)
    report = transfer_check(order, 2, s2)
    assert report.equal, (s2, report.lhs, report.rhs)


def test_prime_degree_13_iwahori():
    order = _one_split_place(2, 13, 13, (1,) * 13)
    assert class_number(order) == prime_degree_class_number(order)


@pytest.mark.parametrize("n,deg", [(17, 17), (17, 34), (17, 1),
                                   (23, 23), (23, 46), (23, 1)])
def test_prime_degree_iwahori_large(n, deg):
    # The closed form adds its correction term only when n divides the
    # degree of every place the order is not maximal at.
    order = _one_split_place(2, n, deg, (1,) * n)
    assert class_number(order) == prime_degree_class_number(order)


@pytest.mark.parametrize("n,deg,f_vec", [
    (24, 4, (1,) * 24),
    (24, 3, (1,) * 24),
    (24, 2, (2,) * 12),
    (24, 4, (2,) * 12),
    (48, 12, (1,) * 48),
], ids=["n24-deg4-iwahori", "n24-deg3-iwahori", "n24-deg2-2x12",
        "n24-deg4-2x12", "n48-deg12-iwahori"])
def test_reach_orders_resum_to_the_mass(n, deg, f_vec):
    # class_number_report raises unless the weights of every level resum to
    # the mass, so each of these orders checks every theta factor it uses.
    report = class_number_report(_one_split_place(2, n, deg, f_vec))
    assert report.h_total == sum(level.h for level in report.levels) > 0


@pytest.mark.parametrize("n,deg,f_vec,s,s2", [
    *(pytest.param(24, 4, (1,) * 24, 2, s2, id=f"n24-deg4-iwahori-{s2}")
      for s2 in (2, 4, 8, 24)),
    *(pytest.param(24, 3, (1,) * 24, 3, s2, id=f"n24-deg3-iwahori-{s2}")
      for s2 in (3, 6, 24)),
    pytest.param(24, 4, (2,) * 12, 4, 4, id="n24-deg4-2x12-4"),
])
def test_transfer_on_reach_orders(n, deg, f_vec, s, s2):
    # |Omega| at U is C(24, 12) = 2,704,156 for the degree-4 Iwahori order
    # at s = 2 and 9,465,511,770 for the degree-3 one at s = 3; the 2x12
    # order at s = 4 has 58 strip groups.  All run at the default budget.
    report = transfer_check(_one_split_place(2, n, deg, f_vec), s, s2)
    assert report.equal, (report.lhs, report.rhs)


@pytest.mark.parametrize("n", [24, 30])
def test_transfer_with_a_place_above_v_per_degree(n):
    # A split place of degree n at s = n has n places of degree 1 above it,
    # and f = (n/2, n/2) gives C(n, n/2) elements, every strip (1,).
    started = time.monotonic()
    report = transfer_check(_one_split_place(2, n, n, (n // 2,) * 2), n, n)
    assert report.equal, (report.lhs, report.rhs)
    assert time.monotonic() - started < 1.0


def test_budget_reaches_theta_through_every_solve():
    # theta at U for s = 4 walks the rows of (6, 6), 18 placements, and the
    # order has 13 genera, so a budget of 13 lets `genera` reach theta too.
    # (The columns of (4, 8) take 4 placements, fewer than its 13 genera.)
    order = _one_split_place(2, 12, 4, (6, 6))
    assert count_genera(order) == 13
    solves = [
        lambda budget: weight_class_numbers(order, budget=budget),
        lambda budget: class_number_report(order, budget=budget),
        lambda budget: embedding_count(order, 4, budget=budget),
        lambda budget: transfer_check(order, 4, 4, budget=budget),
        lambda budget: total_class_number_genera(order, budget=budget),
    ]
    for solve in solves:
        solve(DEFAULT_BUDGET)
        with pytest.raises(BudgetExceededError) as exc:
            solve(13)
        assert str(exc.value) == ("theta: place 'U', s = 4: "
                                  "row placements exceed budget of 13")


def derived_order(order: OrderSpec, s: int, keys) -> OrderSpec:
    """Order in the centralizer algebra cut out by one global index element.

    `keys` gives the element per place v as (label, strips): one invariant
    vector per place w above v, in the order of `places_above`.  Every place
    above the given places is listed, maximal or not, so all elements over
    the same places give orders in one algebra."""
    spec = order.algebra
    alg = centralizer_spec(spec, s)
    invariants = []
    for label, strips in keys:
        for w, strip in zip(places_above(spec.place(label), s), strips):
            alg = with_listed_place(alg, w.label, w.degree)
            invariants.append((w.label, strip))
    return OrderSpec(alg, tuple(invariants))


def _brute_force_transfer_rhs(order: OrderSpec, s: int, s2: int) -> int:
    """One derived order per global index element, each solved on its own;
    equal derived orders (OrderSpec equality) share one weight solve."""
    spec = order.algebra
    streams = [[(label, tuple(flatten_strip(sl) for sl in elem))
                for elem in enumerate_omega(spec.place(label),
                                            order.invariant_at(label), s)]
               for label in order.relevant_labels()]
    solve = cache(weight_class_numbers)
    return sum(solve(derived_order(order, s, combo))[s2 // s]
               for combo in product(*streams))


def _two_iwahori_places(q: int, n: int, deg: int) -> OrderSpec:
    spec = AlgebraSpec(BaseField(q), n, (Place("T", 1, n, 1),), -1)
    spec = with_listed_place(with_listed_place(spec, "U", deg), "V", deg)
    return OrderSpec(spec, (("U", (1,) * n), ("V", (1,) * n)))


def test_transfer_matches_brute_force_golden(golden_order):
    for s, s2 in ((1, 1), (1, 2), (1, 4), (2, 2), (2, 4), (4, 4)):
        assert transfer_check(golden_order, s, s2).rhs == \
            _brute_force_transfer_rhs(golden_order, s, s2)


def test_transfer_matches_brute_force_random():
    for order, s, s2, report in _random_transfer_cases():
        assert report.rhs == _brute_force_transfer_rhs(order, s, s2), \
            (order, s, s2)


def test_transfer_matches_brute_force_over_curves():
    # Bases of genus 1 and 2 with deg infinity 1, 2 and 3: the sum solved on
    # the algebra's own levels s s' against one solve per derived order in
    # the centralizer spec over L_s, whose masses come from the L-polynomial
    # of L_s.  At most 300 summands per pair.
    rng = random.Random(33)
    seen = Counter()
    while sum(seen.values()) < 64:
        delta = rng.choice((1, 2, 3))
        shape = random_definite_spec(rng, max_degree=6, infinity_degree=delta)
        q = shape.base.q
        l_poly = random_l_poly(rng, q)
        spec = AlgebraSpec(BaseField(q, l_poly, delta), shape.degree,
                           shape.finite_places, shape.infinity_invariant)
        s0 = constant_field_degree(spec)
        if l_poly == (1,) or s0 == 1:
            continue
        order = random_order(rng, spec, extra_split_places=2)
        s = rng.choice([s for s in range(1, s0 + 1) if s0 % s == 0])
        s2 = rng.choice([s2 for s2 in range(s, s0 + 1, s) if s0 % s2 == 0])
        if prod(omega_size(order.algebra.place(label),
                           order.invariant_at(label), s)
                for label in order.relevant_labels()) > 300:
            continue
        report = transfer_check(order, s, s2)
        assert report.equal, (order, s, s2, report)
        assert report.rhs == _brute_force_transfer_rhs(order, s, s2), \
            (order, s, s2)
        seen[len(l_poly) // 2, delta, s > 1] += 1
    assert {key[:2] for key in seen} == set(product((1, 2), (1, 2, 3)))
    assert sum(count for key, count in seen.items() if key[2]) >= 16, seen


@pytest.mark.parametrize("s2", [2, 4, 8])
def test_transfer_matches_brute_force_two_iwahori_places(s2):
    # 70 elements per place, all with strips (1, 1, 1, 1): 4900 summands
    # and a single distinct derived order
    order = _two_iwahori_places(3, 8, 2)
    report = transfer_check(order, 2, s2)
    assert report.equal
    assert report.rhs == _brute_force_transfer_rhs(order, 2, s2)


def test_transfer_counts_strips_once_per_place_shape(monkeypatch):
    # Two degree-2 Iwahori places of a degree-4 algebra share (deg v, d_v,
    # f_v), so their strips are counted once; T, of another shape, once.
    calls = []

    def counted(place, f_vec, s, **kwargs):
        calls.append((place.label, f_vec, s))
        return strip_counts(place, f_vec, s, **kwargs)

    monkeypatch.setattr(classnum, "strip_counts", counted)
    report = transfer_check(_two_iwahori_places(3, 4, 2), 2, 2)
    assert report == classnum.TransferReport(s=2, s2=2, lhs=72000, rhs=72000)
    assert calls == [("T", (1,), 2), ("U", (1,) * 4, 2)]


@pytest.mark.parametrize("s2", [2, 4, 8])
@pytest.mark.parametrize("f_vecs,groups", [
    (((1, 1, 2, 2, 2), (1, 1, 2, 2, 2)), (4, 4)),
    (((1, 1, 2, 4), (1, 1, 3, 3)), (5, 4)),
], ids=["11222-11222", "1124-1133"])
def test_transfer_matches_brute_force_across_strip_groups(f_vecs, groups, s2):
    # Several strip groups at each place, so the solve's factors are sums
    # and the rhs multiplies them out into cross terms of both places.
    order = _degree2_places(4, f_vecs)
    assert tuple(len(strip_counts(order.algebra.place(label), f_vec, 2))
                 for label, f_vec in order.invariants) == groups
    report = transfer_check(order, 2, s2)
    assert report.equal, (report.lhs, report.rhs)
    assert report.rhs == _brute_force_transfer_rhs(order, 2, s2)


@pytest.mark.parametrize("make_order", [
    lambda: _two_iwahori_places(3, 4, 1),
    lambda: _one_split_place(2, 6, 1, (1,) * 6),
    lambda: _one_split_place(3, 6, 2, (1, 1, 2, 2)),
], ids=["two-iwahori-n4", "iwahori-n6", "deg2-1122-n6"])
def test_genera_match_directly_built_orders(make_order):
    order = make_order()
    report = total_class_number_genera(order)
    assert len(per_genus(report)) == sum(1 for _ in enumerate_genera(order))
    for genus, h in per_genus(report):
        direct = OrderSpec(order.algebra, tuple(
            (label, genus_reduce(vec)) for label, vec in genus))
        assert h == class_number(direct), genus
    assert report.total == sum(h for _, h in per_genus(report))


def test_genera_match_directly_built_orders_random():
    rng = random.Random(12)
    checked = 0
    while checked < 8:
        order = random_order(rng, random_definite_spec(rng, max_degree=4),
                             extra_split_places=2)
        if not 1 < count_genera(order) <= 500:
            continue
        checked += 1
        report = total_class_number_genera(order)
        for genus, h in per_genus(report):
            direct = OrderSpec(order.algebra, tuple(
                (label, genus_reduce(vec)) for label, vec in genus))
            assert h == class_number(direct), (order, genus)


def _count_solves(monkeypatch) -> tuple[list, list, list]:
    """Record each solve of the level solvers of `classnum`, as the list of
    its levels' s and number of products; each theta the solvers are asked
    for, as (label, f, s); and each theta they compute, as (deg v, d_v, f,
    s)."""
    solves, asked, computed = [], [], []
    real_solver, real_theta = classnum._level_solver, classnum.theta

    def counted_solver(order, budget=DEFAULT_BUDGET, layer="transfer"):
        solver = real_solver(order, budget, layer)

        def counted_theta(v, f_vec, s):
            asked.append((v.label, f_vec, s))
            return solver.theta(v, f_vec, s)

        def counted_solve(rows, step=1):
            solved = solver.solve(rows, step)
            solves.append([(s, len(h)) for s, _, _, h in solved])
            return solved
        return solver._replace(theta=counted_theta, solve=counted_solve)

    def computed_theta(v, f_vec, s, q, **budget):
        computed.append((v.degree, v.local_index, f_vec, s))
        return real_theta(v, f_vec, s, q, **budget)

    monkeypatch.setattr(classnum, "_level_solver", counted_solver)
    monkeypatch.setattr(classnum, "theta", computed_theta)
    return solves, asked, computed


def test_genera_solve_each_level_once_for_the_table(monkeypatch):
    # Two degree-1 Iwahori places of a degree-5 algebra: 7 reduced vectors
    # each and 49 index tuples.  One solve covers all of them, each level
    # once, largest s first, and each axis asks for the theta of each of
    # its reduced vectors once per level; the two axes share each one.
    solves, asked, computed = _count_solves(monkeypatch)
    report = total_class_number_genera(_two_iwahori_places(3, 5, 1))
    assert report.count == 126 ** 2
    assert len(report.table) == 7 ** 2
    assert solves == [[(5, 49), (1, 49)]]  # s0 = 5
    reduced = [(g, s) for s in (5, 1) for g in report.axes[0].reduced]
    assert len(reduced) == 7 * 2
    for axis in report.axes:
        assert axis.reduced == report.axes[0].reduced
        assert [(g, s) for label, g, s in asked if label == axis.label] \
            == reduced
    # The place T, off the axes, once per level.
    assert [s for label, _, s in asked if label == "T"] == [5, 1]
    assert len(computed) == len(set(computed)) == 7 * 2 + 2


def _reach_order(name: str) -> OrderSpec:
    return parse_config((GOLDEN_CONFIG_PATH.parent / "reach" / f"{name}.json")
                        .read_text(encoding="utf-8")).order


def test_genera_compute_one_theta_per_multiset_key(monkeypatch):
    # g24: f_U = (4)^6 at a place of degree 2 in a degree-24 algebra, with
    # 118,755 genera.  Their reduced vectors ask for 63,488 thetas, each a
    # distinct (deg v, d_v, f, s), but theta reads f only as a multiset,
    # and the solver computes each of the 4,264 multisets once.
    _, asked, computed = _count_solves(monkeypatch)
    report = total_class_number_genera(_reach_order("g24"))
    assert report.count == 118_755
    assert len(set(asked)) == 63_488
    multisets = {(deg, d, tuple(sorted(f)), s) for deg, d, f, s in computed}
    assert len(computed) == len(multisets) == 4_264


@pytest.mark.parametrize("name", ["x24d2", "x24d4"])
def test_transfer_holds_on_every_pair_of_the_reach_orders(name):
    # f_U = (2)^12 at a place of degree 2 or 4 in a degree-24 algebra: every
    # (s, s2) with s | s2 | s0 = 24, 30 pairs each, through the strip sums.
    order = _reach_order(name)
    divisors = [s for s in range(1, 25) if 24 % s == 0]
    pairs = [(s, s2) for s in divisors for s2 in divisors if s2 % s == 0]
    assert len(pairs) == 30
    started = time.monotonic()
    for s, s2 in pairs:
        report = transfer_check(order, s, s2)
        assert report.equal, (s, s2, report)
    assert time.monotonic() - started < 2.0


def test_genera_total_by_multiplicity_matches_the_per_genus_sum():
    # The report sums each solved class number times the genera that reduce
    # to its tuple; the brute force sums one class number per genus.
    rng = random.Random(21)
    counts = []
    while len(counts) < 12:
        order = random_order(rng, random_definite_spec(rng, max_degree=8),
                             extra_split_places=3)
        count = count_genera(order)
        if not 1 < count <= 10 ** 5:
            continue
        report = total_class_number_genera(order)
        rows = per_genus(report)
        assert report.count == count == len(rows), order
        assert report.total == sum(h for _, h in rows), order
        counts.append(count)
    assert max(counts) > 10 ** 4, counts


def test_genera_match_one_solve_per_index_tuple_random():
    # Orders with two or more non-maximal places, some of equal degree and
    # local index, against a solve of every tuple of reduced vectors.
    rng = random.Random(13)
    checked = 0
    while checked < 12:
        order = random_order(rng, random_definite_spec(rng, max_degree=4),
                             extra_split_places=3)
        if len(order.invariants) < 2 or count_genera(order) > 500:
            continue
        checked += 1
        report = total_class_number_genera(order)
        by_tuple = {
            key: class_number(OrderSpec(order.algebra, tuple(
                (axis.label, axis.reduced[i])
                for axis, i in zip(report.axes, key))))
            for key in product(*(range(len(axis.reduced))
                                 for axis in report.axes))}
        assert report.table == tuple(by_tuple.values()), order
        reduced = [{key: i for i, key in enumerate(axis.reduced)}
                   for axis in report.axes]
        for genus, h in per_genus(report):
            assert h == by_tuple[tuple(
                index[normalize_invariant(genus_reduce(g))]
                for index, (_, g) in zip(reduced, genus))], (order, genus)
