"""Mass sums of hereditary orders, in closed form.

The mass is a product of field data (#Pic(A)/(q-1) and the zeta special
values), one factor per ramified place, and one unit-index factor per place
where the order fails to be maximal.  Places appearing in both sets receive
both factors; the non-maximal factor degenerates to 1 on maximal vectors,
so this reading is self-consistent.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraSpec
from .basefield import pic_order, zeta_at_negative
from .errors import IntegralityViolationError, NotDefiniteError
from .orders import OrderSpec, local_unit_index, maximal_order


def ramification_factor(N: int, d: int, n: int) -> int:
    """prod over 1 <= i <= n-1 with d not dividing i of (N^i - 1)."""
    result = 1
    for i in range(1, n):
        if i % d != 0:
            result *= N ** i - 1
    return result


def mass_hereditary(order: OrderSpec) -> Fraction:
    """Exact mass sum of the given hereditary order."""
    spec = order.algebra
    n = spec.degree
    if spec.infinity.local_index != n:
        raise NotDefiniteError(
            f"d_infinity = {spec.infinity.local_index} != n = {n}")
    base = spec.base
    mass = Fraction(pic_order(base), base.q - 1)
    for i in range(1, n):
        mass *= zeta_at_negative(base, i)
    for v in spec.all_places():
        if v.local_index > 1:
            mass *= ramification_factor(spec.norm(v), v.local_index, n)
    for label, f_vec in order.invariants:
        v = spec.place(label)
        factor = local_unit_index(spec.norm(v), v.local_index, f_vec)
        if factor < 1:
            raise IntegralityViolationError(
                f"place {label!r}: unit index {factor} is below 1")
        mass *= factor
    if mass <= 0:
        raise IntegralityViolationError(f"mass {mass} is not positive")
    return mass


def mass_maximal(spec: AlgebraSpec) -> Fraction:
    """Mass of a maximal order in the algebra."""
    return mass_hereditary(maximal_order(spec))
