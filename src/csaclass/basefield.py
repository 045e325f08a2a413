"""Base field data: (K, infinity) with exact zeta special values.

A global function field K with constant field F_q is described here by the
numerator L-polynomial P(T) of its zeta function,

    zeta_K(s) = P(q^(-s)) / ((1 - q^(-s)) (1 - q^(1-s))),

together with the degree of the chosen infinite place.  That data determines
every field-level quantity used downstream: special values zeta_K(-i), the
order of Pic(A) for the coordinate ring A, and the descriptors of the
constant field extensions L_s = K F_{q^s}.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import (ExtensionNotSupportedError, IntegralityViolationError,
                     ValidationError)


def _prime_factors(n: int) -> dict[int, int]:
    """{p: k} with p^k exactly dividing n, by trial division; {} for n < 2."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


class BaseField(namedtuple("BaseField", "q l_poly infinity_degree")):
    """The pair (K, infinity) as data.

    ``l_poly`` holds the coefficients of P(T), constant term first.  The
    rational function field has P(T) = 1; for a field of genus g the degree
    of P is 2g.
    """

    __slots__ = ()
    # `_make`, and `_replace` through it, build by calling the type.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, q: int, l_poly: tuple[int, ...] = (1,),
                infinity_degree: int = 1):
        if len(_prime_factors(q)) != 1:
            raise ValidationError(f"q = {q} is not a prime power")
        if infinity_degree < 1:
            raise ValidationError("infinity_degree must be positive")
        poly = tuple(l_poly)
        if not poly or poly[0] != 1:
            raise ValidationError("l_poly must have constant term 1")
        if len(poly) % 2 == 0:
            raise ValidationError("l_poly must have even degree 2g")
        # q^g P(1/(qT)) = P(T) symmetry, i.e. c_{2g-k} = q^{g-k} c_k.
        # Users may probe hypothetical data, so this is a warning only.
        g = len(poly) // 2
        for k in range(g + 1):
            if poly[2 * g - k] != q ** (g - k) * poly[k]:
                warnings.warn(
                    "l_poly does not satisfy the functional equation "
                    f"c_{2 * g - k} = q^{g - k} * c_{k}",
                    stacklevel=2,
                )
                break
        return super().__new__(cls, q, poly, infinity_degree)

    def l_poly_at(self, x: int) -> int:
        """Evaluate P at an integer point."""
        acc = 0
        for c in reversed(self.l_poly):
            acc = acc * x + c
        return acc

    def check_class_number(self) -> None:
        """Raise ValidationError unless P(1) = h_K >= 1, as for every curve.

        Construction accepts any L-polynomial, so that the zeta and extension
        oracles can probe hypothetical data; an algebra over K needs a real
        class number.
        """
        h = self.l_poly_at(1)
        if h < 1:
            raise ValidationError(
                f"l_polynomial has P(1) = {h}, but P(1) = h_K >= 1")


def _zeta_terms(base: BaseField, i: int) -> tuple[int, int]:
    """zeta_K(-i) as an unreduced (numerator, positive denominator)."""
    q = base.q
    return base.l_poly_at(q ** i), (1 - q ** i) * (1 - q ** (i + 1))


def zeta_at_negative(base: BaseField, i: int) -> Fraction:
    """Exact special value zeta_K(-i) for i >= 1."""
    if i < 1:
        raise ValidationError("zeta_at_negative requires i >= 1")
    return Fraction(*_zeta_terms(base, i))


def _power_sums_from_l_poly(l_poly: tuple[int, ...], count: int) -> list[int]:
    """Power sums p_1..p_count of the inverse roots of P(T) = prod(1 - a_i T).

    Newton's identities in the coefficients c_k of P (c_0 = 1):
    p_k = -(k c_k + sum_{j=1}^{k-1} c_j p_{k-j}), with c_k = 0 past deg P.
    """
    deg = len(l_poly) - 1
    p = [0] * (count + 1)
    for k in range(1, count + 1):
        acc = k * l_poly[k] if k <= deg else 0
        for j in range(1, min(k - 1, deg) + 1):
            acc += l_poly[j] * p[k - j]
        p[k] = -acc
    return p


def _l_poly_from_power_sums(p: list[int], deg: int) -> tuple[int, ...]:
    """Invert Newton's identities; every coefficient must be integral."""
    coeffs = [1]
    for k in range(1, deg + 1):
        acc = -p[k]
        for j in range(1, k):
            acc -= coeffs[j] * p[k - j]
        if acc % k != 0:
            raise IntegralityViolationError(
                f"non-integral l_poly coefficient {Fraction(acc, k)} "
                f"at degree {k}")
        coeffs.append(acc // k)
    return tuple(coeffs)


def constant_extension(base: BaseField, s: int) -> BaseField:
    """Descriptor of L_s = K F_{q^s}.

    The inverse roots of the new L-polynomial are the s-th powers of those of
    P; they are computed exactly via power sums.  Requires gcd(s, deg inf) = 1
    so that the infinite place stays inert with unchanged residue degree.
    """
    if s < 1:
        raise ValidationError("extension degree must be positive")
    if gcd(s, base.infinity_degree) != 1:
        raise ExtensionNotSupportedError(
            f"gcd(s={s}, infinity_degree={base.infinity_degree}) != 1")
    if s == 1:
        return base
    deg = len(base.l_poly) - 1
    p = _power_sums_from_l_poly(base.l_poly, deg * s)
    p_new = [0] + [p[k * s] for k in range(1, deg + 1)]
    l_poly = _l_poly_from_power_sums(p_new, deg)
    return BaseField(base.q ** s, l_poly, base.infinity_degree)


def pic_order(base: BaseField) -> int:
    """#Pic(A) = h_K * deg(infinity) = P(1) * delta for the ring A of
    functions regular outside infinity, from the degree exact sequence on
    the divisor class group."""
    return base.l_poly_at(1) * base.infinity_degree
