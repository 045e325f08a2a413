"""Weight class numbers and everything built on top of them.

The weight-s class numbers are solved one level at a time, largest s first:
at each level the mass M_s of a maximal order in the centralizer algebra
times the product of the local theta factors pins down a weighted partial
sum of the remaining unknowns.  Integrality of every solved value is
enforced, not assumed.  A command solves the orders of one algebra through
one level solver, which computes each M_s and each theta factor once.  The
solver takes each place's factor as a count-weighted sum of theta products,
so the transfer check solves the sum of all its derived orders as one.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import factorial, lcm, prod

from .algebra import (AlgebraSpec, centralizer_spec, constant_field_degree,
                      places_above)
from .basefield import _prime_factors, constant_extension, pic_order
from .errors import (DEFAULT_BUDGET, BudgetExceededError,
                     IntegralityViolationError, InvalidDivisorError,
                     NotPrimeDegreeError)
from .massform import mass_hereditary, mass_maximal
from .omega import strip_counts
from .orders import OrderSpec, count_genera, genus_axes
from .theta import theta


class Level(namedtuple("Level", "s h mass theta")):
    """One solved level: h_s, the mass M_s and its theta factors."""

    __slots__ = ()

    @property
    def rhs(self) -> Fraction:  # M_s times the product of the theta factors
        return self.mass * prod(self.theta.values())


def _level_solver(spec: AlgebraSpec, budget: int = DEFAULT_BUDGET):
    """solve(terms) -> the `Level`s of `terms` in `spec`, largest s first.

    `terms` pairs each label with its (count, ((place, f), ...)) terms; its
    factor at level s is the sum of count * prod theta(place, f, s), and
    rhs_s = M_s * prod of the factors.  An order is the one-term case
    (`_one_term`).  h_s is linear in the rhs of the levels, so several terms
    solve to the count-weighted sum of their orders' h.  M_s depends on s
    alone and theta on (deg, d, f, s) alone, so each is computed once and
    shared by every solve.  `budget` bounds the row placements of each theta.
    With M_s = a/b and E the lcm of b and q^{s2} - 1 over the levels s2 > s
    that s divides, h_s = (A * prod(factors) - sum B_s2 * h_s2) / (s E) for
    the integers A = (q^s - 1) a E/b and B_s2 = (q^s - 1) s E/(q^{s2} - 1).
    """
    q = spec.base.q
    s0 = constant_field_degree(spec)
    divisors = [s for s in range(s0, 0, -1) if s0 % s == 0]
    steps: dict[int, tuple] = {}  # s -> (M_s, A, [(s2, B_s2), ...], s E)
    thetas: dict[tuple, int] = {}

    def theta_at(v, f_vec, s: int) -> int:
        key = (v.degree, v.local_index, f_vec, s)
        if key not in thetas:
            thetas[key] = theta(v, f_vec, s, q, budget=budget)
        return thetas[key]

    def solve(terms) -> list[Level]:
        h: dict[int, int] = {}
        levels = []
        for s in divisors:
            factors = {label: sum(count * prod(theta_at(v, f_vec, s)
                                               for v, f_vec in places)
                                  for count, places in group)
                       for label, group in terms}
            if s not in steps:
                mass = mass_maximal(centralizer_spec(spec, s))
                tail = [s2 for s2 in divisors if s2 > s and s2 % s == 0]
                e = lcm(mass.denominator, *(q ** s2 - 1 for s2 in tail))
                scale = (q ** s - 1) * e
                steps[s] = (mass, scale * mass.numerator // mass.denominator,
                            [(s2, scale * s // (q ** s2 - 1)) for s2 in tail],
                            s * e)
            mass, lead, tail, den = steps[s]
            num = lead * prod(factors.values()) - sum(b * h[s2] for s2, b in tail)
            value, rest = divmod(num, den)
            if rest or value < 0:
                raise IntegralityViolationError(
                    f"h_{s} = {Fraction(num, den)} is not a non-negative integer")
            h[s] = value
            levels.append(Level(s, value, mass, factors))
        return levels

    return solve


def _one_term(order: OrderSpec) -> tuple:
    """The terms of one order: each label's place and vector, count 1."""
    spec = order.algebra
    return tuple(
        (label, ((1, ((spec.place(label), order.invariant_at(label)),)),))
        for label in order.relevant_labels())


def weight_class_numbers(order: OrderSpec, *,
                         budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Map s -> h_s over the divisors of the constant field degree.

    The result is not cached: each call solves every level of `order`.
    """
    solve = _level_solver(order.algebra, budget)
    return {level.s: level.h for level in solve(_one_term(order))}


def class_number(order: OrderSpec) -> int:
    return sum(weight_class_numbers(order).values())


def embedding_count(order: OrderSpec, s: int, *,
                    budget: int = DEFAULT_BUDGET) -> int:
    """Total count of optimal embeddings of the degree-s constant ring."""
    s0 = constant_field_degree(order.algebra)
    if s < 1 or s0 % s != 0:
        raise InvalidDivisorError(f"s = {s} does not divide s0 = {s0}")
    h = weight_class_numbers(order, budget=budget)
    return s * sum(h[s2] for s2 in h if s2 % s == 0)


class TransferReport(namedtuple("TransferReport", "s s2 lhs rhs")):
    __slots__ = ()

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def transfer_check(order: OrderSpec, s: int, s2: int, *,
                   budget: int = DEFAULT_BUDGET) -> TransferReport:
    """Verify s * h_{s2} against the sum over the global index set.

    Each summand is the weight-(s2/s) class number of the derived order cut
    out by one element of the product of local index sets, in the
    centralizer algebra of L_s with every place w above the listed places
    listed.  Listing split places changes neither its masses nor its s0.  A
    derived order reads an element only through its normalised strips, so
    each local set is counted by `strip_counts` without being walked.  A
    derived order's h is linear in the rhs of its levels, and each rhs is a
    product over the places v, so the sum is one solve whose factor at v
    sums count * prod_w theta_w over v's strip groups.  The budget bounds
    each place's strip state transitions and each theta factor's row
    placements.
    """
    spec = order.algebra
    s0 = constant_field_degree(spec)
    if s < 1 or s2 < 1 or s2 % s != 0 or s0 % s2 != 0:
        raise InvalidDivisorError(f"need s | s2 | s0, got s={s}, s2={s2}, s0={s0}")
    lhs = s * weight_class_numbers(order, budget=budget)[s2]

    terms = []
    for label in order.relevant_labels():
        v = spec.place(label)
        counts = strip_counts(v, order.invariant_at(label), s, budget=budget)
        if not counts:
            return TransferReport(s, s2, lhs, 0)
        above = places_above(v, s)
        terms.append((label, tuple((count, tuple(zip(above, strips)))
                                   for strips, count in counts.items())))
    levels = _level_solver(centralizer_spec(spec, s), budget)(tuple(terms))
    h = {level.s: level.h for level in levels}
    return TransferReport(s, s2, lhs, h[s2 // s])


def prime_degree_class_number(order: OrderSpec) -> int:
    """Closed-form class number for prime algebra degree."""
    spec = order.algebra
    n = spec.degree
    if _prime_factors(n) != {n: 1}:
        raise NotPrimeDegreeError(f"degree {n} is not prime")
    q = spec.base.q
    mass = mass_hereditary(order)

    def eps(place) -> int:
        return 1 if place.degree % n != 0 else 0

    ramified = [v for v in spec.all_places() if v.local_index > 1]
    correction = Fraction(0)
    if (all(eps(v) == 1 for v in ramified)
            and all(eps(spec.place(lab)) == 0 for lab, _ in order.invariants)):
        pic_ext = pic_order(constant_extension(spec.base, n))
        term = Fraction(q ** n - q, q ** n - 1) * Fraction(pic_ext, n * n)
        for _ in ramified:
            term *= n
        for _, f_vec in order.invariants:
            multinomial = factorial(sum(f_vec))
            for f_i in f_vec:
                multinomial //= factorial(f_i)
            term *= multinomial
        correction = term

    total = (q - 1) * mass + correction
    if total.denominator != 1 or total < 0:
        raise IntegralityViolationError(
            f"prime-degree class number {total} is not a non-negative integer")
    return int(total)


# `table` holds h per tuple of the axes' reduced vectors, in product order.
GeneraReport = namedtuple("GeneraReport", "axes table count total")


def total_class_number_genera(order: OrderSpec, *,
                              budget: int = DEFAULT_BUDGET) -> GeneraReport:
    """Class numbers of every genus of right ideals, and their sum.

    Every genus reduces to the principal genus of another hereditary order
    in the same algebra.  That order's class number depends only on the
    multiset of (deg v, d_v, reduced vector) over the places of the axes,
    so it is solved once per such multiset, and all solves share one level
    solver.  The budget still bounds the full genus count, and it bounds
    each theta factor's row placements.
    """
    count = count_genera(order)
    if count > budget:
        raise BudgetExceededError(
            f"genera: genus count {count} exceeds budget of {budget}")
    axes = genus_axes(order)
    places = [order.algebra.place(axis.label) for axis in axes]
    solve = _level_solver(order.algebra, budget)
    solved: dict[tuple, int] = {}
    terms = dict(_one_term(order))  # each problem resets the axes' terms

    def reduced_class_number(key) -> int:  # one reduced vector per axis
        problem = tuple(sorted((v.degree, v.local_index, g)
                               for v, g in zip(places, key)))
        if problem not in solved:
            for v, axis, g in zip(places, axes, key):
                terms[axis.label] = ((1, ((v, g),)),)
            solved[problem] = sum(level.h
                                  for level in solve(tuple(terms.items())))
        return solved[problem]

    # Reduced vectors are numbered by first appearance, so the solves run in
    # the order the genera first reach them.
    table = tuple(map(reduced_class_number,
                      product(*(axis.reduced for axis in axes))))
    # Each h counts once per genus that reduces to its tuple.
    total = sum(h * prod(mults) for h, mults in zip(
        table, product(*(axis.mults for axis in axes))))
    return GeneraReport(axes, table, count, total)


# `levels` holds the solved `Level`s in ascending s.
ClassNumberReport = namedtuple("ClassNumberReport", "s0 mass levels h_total")


def _resum(levels, q: int) -> Fraction:
    """Sum of h_s / (q^s - 1) over the levels: the mass, if they solve."""
    return sum((Fraction(level.h, q ** level.s - 1) for level in levels),
               Fraction(0))


def class_number_report(order: OrderSpec, *,
                        budget: int = DEFAULT_BUDGET) -> ClassNumberReport:
    spec = order.algebra
    levels = _level_solver(spec, budget)(_one_term(order))[::-1]
    mass = mass_hereditary(order)
    resum = _resum(levels, spec.base.q)
    if resum != mass:
        raise IntegralityViolationError(
            f"weight class numbers resum to {resum}, not to the mass {mass}")
    return ClassNumberReport(constant_field_degree(spec), mass, tuple(levels),
                             sum(level.h for level in levels))
