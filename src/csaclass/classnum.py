"""Weight class numbers and everything built on top of them.

The weight-s class numbers are solved one level at a time, largest s first:
at each level the mass M_s of a maximal order in the centralizer algebra
times the product of the local theta factors pins down a weighted partial
sum of the remaining unknowns.  Integrality of every solved value is
enforced, not assumed.  Each command solves through one level solver, which
holds the order's places and computes each M_s, each theta factor and each
strip count once.  `transfer_check` solves the sum of its derived orders on
the algebra's own levels s s' through the solver's strip sum, whose factor
at S = s is the theta factor itself: `selfcheck` checks it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import factorial, lcm, prod

from .algebra import constant_field_degree, places_above
from .basefield import _prime_factors, constant_extension, pic_order
from .errors import (DEFAULT_BUDGET, BudgetExceededError,
                     IntegralityViolationError, InvalidDivisorError,
                     NotPrimeDegreeError)
from .massform import _level_mass, mass_hereditary
from .omega import strip_counts
from .orders import OrderSpec, count_genera, genus_axes
from .theta import theta


class Level(namedtuple("Level", "s h mass theta")):
    """One solved level: h_s, the mass M_s and its theta factors."""

    __slots__ = ()

    @property
    def rhs(self) -> Fraction:  # M_s times the product of the theta factors
        return self.mass * prod(self.theta.values())


_Solver = namedtuple("_Solver", "s0 places theta counts factor solve")


def _level_solver(order: OrderSpec, budget: int = DEFAULT_BUDGET,
                  layer: str = "transfer") -> _Solver:
    """The one record of a command on `order`: its level recursion over the
    divisors s of its s0, its places and its memos.

    `places` holds (label, v, f_v) over the order's relevant labels.
    `solve(rows, step)` -> (s, M_s, rows(s), [h_s, ...]) at each s that
    `step` divides, largest first: h_s reads only the levels s divides, so
    these levels are closed.  `rows(s)` gives the rows of factors at level
    s; their outer product, in order, is the list of products, and the i-th
    h_s is solved from the i-th product and the i-th h of each level above.
    An order has one row of one theta per place (`_order_levels`).  M_s,
    from `_level_mass`, depends on s alone and `theta(v, f, s, field=q)` on
    (deg, d, sorted f, s, field) alone, so each is computed once and
    shared by every solve and every strip sum.  `budget` bounds each
    theta's row or column placements.  With M_s = a/b and E the lcm of b
    and q^{s2} - 1 over the levels s2 > s that s divides, h_s = (A *
    product - sum B_s2 * h_s2) / (s E) for the integers A = (q^s - 1) a E/b
    and B_s2 = (q^s - 1) s E/(q^{s2} - 1).

    `counts(v, f, s)` is `strip_counts` once per (deg v, d_v, f as given,
    s), its budget naming `layer`; `factor(v, f, s, S)` sums count * prod_w
    theta(w, g_w, S/s, q^s) over those strip groups, w in
    `places_above(v, s)`.  At S = s each w is at its level 1, where theta
    is its strip's unit index, so the factor is theta(v, f, s) itself.
    """
    spec = order.algebra
    q = spec.base.q
    s0 = constant_field_degree(spec)
    places = tuple((label, spec.place(label), order.invariant_at(label))
                   for label in order.relevant_labels())
    divisors = [s for s in range(s0, 0, -1) if s0 % s == 0]
    steps: dict[int, tuple] = {}  # s -> (M_s, A, [(s2, B_s2), ...], s E)
    thetas: dict[tuple, int] = {}
    counted: dict[tuple, dict] = {}

    def theta_at(v, f_vec, s: int, field: int = q) -> int:
        key = (v.degree, v.local_index, tuple(sorted(f_vec)), s, field)
        if key not in thetas:
            thetas[key] = theta(v, f_vec, s, field, budget=budget)
        return thetas[key]

    def counts(v, f_vec, s: int) -> dict:
        key = (v.degree, v.local_index, f_vec, s)
        if key not in counted:
            counted[key] = strip_counts(v, f_vec, s, budget=budget,
                                        layer=layer)
        return counted[key]

    def factor(v, f_vec, s: int, S: int) -> int:
        above, field = places_above(v, s), q ** s
        return sum(count * prod(theta_at(w, g, S // s, field)
                                for w, g in zip(above, strips))
                   for strips, count in counts(v, f_vec, s).items())

    def solve(rows, step: int = 1) -> list[tuple]:
        h: dict[int, list] = {}
        solved = []
        for s in [d for d in divisors if d % step == 0]:
            level_rows = rows(s)
            products = [prod(row) for row in product(*level_rows)]
            if s not in steps:
                mass = _level_mass(spec, s)
                tail = [s2 for s2 in divisors if s2 > s and s2 % s == 0]
                e = lcm(mass.denominator, *(q ** s2 - 1 for s2 in tail))
                scale = (q ** s - 1) * e
                steps[s] = (mass, scale * mass.numerator // mass.denominator,
                            [(s2, scale * s // (q ** s2 - 1)) for s2 in tail],
                            s * e)
            mass, lead, tail, den = steps[s]
            values = h[s] = []
            for i, term in enumerate(products):
                num = lead * term
                for s2, b in tail:
                    num -= b * h[s2][i]
                value, rest = divmod(num, den)
                if rest or value < 0:
                    raise IntegralityViolationError(
                        f"h_{s} = {Fraction(num, den)} is not a non-negative integer")
                values.append(value)
            solved.append((s, mass, level_rows, values))
        return solved

    return _Solver(s0, places, theta_at, counts, factor, solve)


def _order_levels(solver: _Solver, step: int = 1) -> list[Level]:
    """The `Level`s of the solver's order at the s that `step` divides,
    largest first: each place's row is its one theta factor."""
    labels = [label for label, _, _ in solver.places]
    return [Level(s, h, mass, dict(zip(labels, (t for (t,) in rows))))
            for s, mass, rows, (h,) in solver.solve(lambda s: [
                [solver.theta(v, f, s)] for _, v, f in solver.places], step)]


def weight_class_numbers(order: OrderSpec, *,
                         budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Map s -> h_s over the divisors of the constant field degree.

    The result is not cached: each call solves every level of `order`.
    """
    levels = _order_levels(_level_solver(order, budget))
    return {level.s: level.h for level in levels}


def class_number(order: OrderSpec) -> int:
    return sum(weight_class_numbers(order).values())


def embedding_count(order: OrderSpec, s: int, *,
                    budget: int = DEFAULT_BUDGET) -> int:
    """Total count of optimal embeddings of the degree-s constant ring."""
    solver = _level_solver(order, budget)
    if s < 1 or solver.s0 % s != 0:
        raise InvalidDivisorError(f"s = {s} does not divide s0 = {solver.s0}")
    return s * sum(level.h for level in _order_levels(solver, s))


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
    centralizer D'_s of L_s with every place w above the listed places
    listed.  A derived order reads an element only through its sorted
    strips, so each local set is counted by its strip groups without being
    walked.  A derived order's h is linear in the rhs of its levels, each a
    product over the places v, so the sum is one solve whose factor at v is
    the solver's count-weighted sum of theta products.  D'_s at level s'
    is D at S = s s': its mass is M_S and its q^{s'} - 1 over F_{q^s} is
    q^S - 1.  So the sum is solved on the lhs's solver, sharing each M_S
    and each theta factor, with its factor times s to turn the 1/S of level
    S into the 1/s' of D'_s.  An empty local set, met in label order, makes
    the sum 0.  The budget bounds each place's strip state transitions and
    each theta factor's row or column placements.
    """
    solver = _level_solver(order, budget)
    s0 = solver.s0
    if s < 1 or s2 < 1 or s2 % s != 0 or s0 % s2 != 0:
        raise InvalidDivisorError(f"need s | s2 | s0, got s={s}, s2={s2}, s0={s0}")
    lhs = s * _order_levels(solver, s2)[-1].h  # the last is h_s2

    for _, v, f_vec in solver.places:
        if not solver.counts(v, f_vec, s):
            return TransferReport(s, s2, lhs, 0)
    (h,) = solver.solve(lambda S: [[s * prod(
        solver.factor(v, f, s, S) for _, v, f in solver.places)]], s2)[-1][3]
    return TransferReport(s, s2, lhs, h)


def prime_degree_class_number(order: OrderSpec) -> int:
    """Closed-form class number for prime algebra degree."""
    spec = order.algebra
    n = spec.degree
    if _prime_factors(n) != {n: 1}:
        raise NotPrimeDegreeError(f"degree {n} is not prime")
    q = spec.base.q
    mass = mass_hereditary(order)
    ramified = [v for v in spec.all_places() if v.local_index > 1]
    correction = Fraction(0)
    # eps(v) = 1 exactly where n does not divide deg v.
    if (all(v.degree % n for v in ramified) and not any(
            spec.place(lab).degree % n for lab, _ in order.invariants)):
        pic_ext = pic_order(constant_extension(spec.base, n))
        correction = Fraction((q ** n - q) * pic_ext * n ** len(ramified),
                              (q ** n - 1) * n * n)
        for _, f_vec in order.invariants:  # times the multinomial of f_v
            correction *= factorial(sum(f_vec)) // prod(map(factorial, f_vec))

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
    in the same algebra: one tuple of reduced vectors, one per axis.  One
    solve gives the whole table: its products, in `product` order, are the
    outer product, in label order, of each place's row of thetas, those of
    an axis's reduced vectors or the one of a place off the axes, and each
    tuple's class number sums its h over the levels.  The budget still
    bounds the full genus count, and it bounds each theta factor's row
    or column placements.
    """
    count = count_genera(order)
    if count > budget:
        raise BudgetExceededError(
            f"genera: genus count {count} exceeds budget of {budget}")
    axes = genus_axes(order)
    solver = _level_solver(order, budget)
    reduced = {axis.label: axis.reduced for axis in axes}
    # A place off the axes keeps its own vector: a row of one theta.
    rows = [(v, reduced.get(label, (f_vec,)))
            for label, v, f_vec in solver.places]
    solved = solver.solve(lambda s: [[solver.theta(v, g, s) for g in vectors]
                                     for v, vectors in rows])
    table = tuple(map(sum, zip(*(h for *_, h in solved))))
    # Each h counts once per genus that reduces to its tuple.
    total = sum(number * prod(mults) for number, mults in zip(
        table, product(*(axis.mults for axis in axes))))
    return GeneraReport(axes, table, count, total)


# `levels` holds the solved `Level`s in ascending s.
ClassNumberReport = namedtuple("ClassNumberReport", "s0 mass levels h_total")


def _resum(levels, q: int) -> Fraction:
    """Sum of h_s / (q^s - 1) over the levels, the mass if they solve: an
    integer sum over the lcm of the q^s - 1, reduced once."""
    e = lcm(*(q ** level.s - 1 for level in levels))
    return Fraction(sum(level.h * (e // (q ** level.s - 1))
                        for level in levels), e)


def class_number_report(order: OrderSpec, *,
                        budget: int = DEFAULT_BUDGET) -> ClassNumberReport:
    solver = _level_solver(order, budget)
    levels = _order_levels(solver)[::-1]
    mass = mass_hereditary(order, levels[0].mass)  # M_1 from the solve
    resum = _resum(levels, order.algebra.base.q)
    if resum != mass:
        raise IntegralityViolationError(
            f"weight class numbers resum to {resum}, not to the mass {mass}")
    return ClassNumberReport(solver.s0, mass, tuple(levels),
                             sum(level.h for level in levels))


def selfcheck(order: OrderSpec, *,
              budget: int = DEFAULT_BUDGET) -> dict[str, bool]:
    """The checks of one solve: its h_s resum to the mass, and each theta
    factor equals the solver's strip factor at S = s, on the stored vector
    and on its rotation, which the strip count reads as given and theta
    as the same multiset."""
    spec = order.algebra
    solver = _level_solver(order, budget, "selfcheck")
    levels = _order_levels(solver)

    def agree(places) -> bool:
        return all(solver.factor(v, f_vec, level.s, level.s)
                   == level.theta[label]
                   for level in levels for label, v, f_vec in places)

    mass = mass_hereditary(order, levels[-1].mass)
    return {"mass_consistency": _resum(levels, spec.base.q) == mass,
            "theta_engines_agree": agree(solver.places),
            "rotation_invariance": agree([(label, spec.place(label),
                                           f[1:] + f[:1])
                                          for label, f in order.invariants])}
