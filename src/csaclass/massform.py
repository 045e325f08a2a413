"""Mass sums of hereditary orders, in closed form.

The mass is a product of field data (#Pic(A)/(q-1) and the zeta special
values), one factor per ramified place, and one unit-index factor per place
where the order fails to be maximal.  Places appearing in both sets receive
both factors; the non-maximal factor degenerates to 1 on maximal vectors,
so this reading is self-consistent.  It gives each level's M_s as well.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraSpec, shape_above
from .basefield import constant_extension, pic_order
from .errors import IntegralityViolationError
from .orders import OrderSpec, local_unit_index


def ramification_factor(N: int, d: int, n: int) -> int:
    """prod over 1 <= i <= n-1 with d not dividing i of (N^i - 1)."""
    result, power = 1, 1
    for i in range(1, n):
        power *= N
        if i % d != 0:
            result *= power - 1
    return result


def _level_mass(spec: AlgebraSpec, s: int, index: int = 1) -> Fraction:
    """M_s, s | s0: the mass of a maximal order in the centralizer of L_s,
    from the zeta values of L_s = `constant_extension(base, s)` and the
    places above each place of `spec`, times the unit index `index`.
    Builds no centralizer spec."""
    base = constant_extension(spec.base, s)
    base.check_class_number()
    q, n = base.q, spec.degree // s
    num, den, power = pic_order(base), q - 1, 1
    for _ in range(1, n):  # zeta_{L_s}(-i) at one running power q^i
        power *= q
        num *= base.l_poly_at(power)
        den *= (1 - power) * (1 - power * q)
    for v in spec.all_places():
        l, degree, local_index = shape_above(v, s)
        if local_index > 1:
            num *= ramification_factor(q ** degree, local_index, n) ** l
    mass = Fraction(num * index, den)
    if num <= 0:  # den > 0 and index >= 1
        raise IntegralityViolationError(f"mass {mass} is not positive")
    return mass


def mass_hereditary(order: OrderSpec,
                    maximal: Fraction | None = None) -> Fraction:
    """Exact mass sum: M_1 (`_level_mass` at s = 1), or `maximal` if given
    (the M_1 of a level solve), times the local unit indices."""
    spec, index = order.algebra, 1
    for label, f_vec in order.invariants:
        v = spec.place(label)
        index *= local_unit_index(spec.norm(v), v.local_index, f_vec)
    return _level_mass(spec, 1, index) if maximal is None else maximal * index
