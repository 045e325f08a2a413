"""Mass sums of hereditary orders, in closed form.

The mass is a product of field data (#Pic(A)/(q-1) and the zeta special
values), one factor per ramified place, and one unit-index factor per place
where the order fails to be maximal.  Places appearing in both sets receive
both factors; the non-maximal factor degenerates to 1 on maximal vectors,
so this reading is self-consistent.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .algebra import AlgebraSpec
from .basefield import _zeta_terms, pic_order
from .errors import IntegralityViolationError
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
    base = spec.base
    zetas = [_zeta_terms(base, i) for i in range(1, n)]
    num = pic_order(base) * prod(z for z, _ in zetas)
    den = (base.q - 1) * prod(d for _, d in zetas)
    for v in spec.all_places():
        if v.local_index > 1:
            num *= ramification_factor(spec.norm(v), v.local_index, n)
    for label, f_vec in order.invariants:
        v = spec.place(label)
        num *= local_unit_index(spec.norm(v), v.local_index, f_vec)
    mass = Fraction(num, den)
    if mass <= 0:
        raise IntegralityViolationError(f"mass {mass} is not positive")
    return mass


def mass_maximal(spec: AlgebraSpec) -> Fraction:
    """Mass of a maximal order in the algebra."""
    return mass_hereditary(maximal_order(spec))
