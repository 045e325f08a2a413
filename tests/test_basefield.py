"""Base field data: zeta special values, extensions, Picard orders."""

from __future__ import annotations

import inspect
import warnings
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from csaclass import BaseField, constant_extension, pic_order, zeta_at_negative
from csaclass.basefield import _l_poly_from_power_sums, _power_sums_from_l_poly
from csaclass.errors import (ExtensionNotSupportedError, IntegralityViolationError,
                             ValidationError)


def divisor_counts_rational(q: int, up_to: int) -> list[int]:
    """Effective divisor counts on the projective line, by direct enumeration.

    A degree-d effective divisor is a monic polynomial of degree k (counted
    literally over the prime field by listing coefficient tuples) plus
    (d - k) copies of the infinite place.
    """
    monic = []
    for k in range(up_to + 1):
        monic.append(sum(1 for _ in product(range(q), repeat=k)))
    return [sum(monic[k] for k in range(d + 1)) for d in range(up_to + 1)]


def series_coefficients(q: int, up_to: int) -> list[int]:
    """Taylor coefficients of 1/((1-t)(1-qt)) up to degree `up_to`."""
    return [sum(q ** j for j in range(d + 1)) for d in range(up_to + 1)]


@pytest.mark.parametrize("q", [2, 3])
def test_divisor_counting_zeta_oracle(q):
    assert divisor_counts_rational(q, 6) == series_coefficients(q, 6)


@pytest.mark.parametrize("i,expected", [
    (1, Fraction(1, 16)),
    (2, Fraction(1, 208)),
    (3, Fraction(1, 2080)),
])
def test_zeta_special_values_q3(i, expected):
    # Frozen from the divisor-counting oracle: the rational form
    # 1/((1-t)(1-qt)) gives zeta_K(-i) = 1/((1-q^i)(1-q^(i+1))).
    base = BaseField(3)
    assert zeta_at_negative(base, i) == expected


def test_zeta_custom_trivial_l_poly_matches_rational():
    rational = BaseField(3)
    custom = BaseField(3, [1])
    for i in range(1, 6):
        assert zeta_at_negative(custom, i) == zeta_at_negative(rational, i)


def test_zeta_rejects_nonpositive_index():
    with pytest.raises(ValidationError):
        zeta_at_negative(BaseField(2), 0)


def root_power_l_poly(l_poly, s):
    """Oracle: expand prod(1 - alpha_i^s T) from the exact roots of P."""
    import sympy

    T = sympy.Symbol("T")
    X = sympy.Symbol("X")
    # inverse roots alpha_i are the roots of the reversed polynomial
    reversed_poly = sympy.Poly(
        sum(c * X ** (len(l_poly) - 1 - k) for k, c in enumerate(l_poly)), X)
    alphas = sympy.roots(reversed_poly, multiple=True)
    prod = sympy.prod([1 - (a ** s) * T for a in alphas])
    expanded = sympy.Poly(sympy.expand(sympy.simplify(prod)), T)
    coeffs = [sympy.nsimplify(expanded.coeff_monomial(T ** k))
              for k in range(len(l_poly))]
    return tuple(int(sympy.simplify(c)) for c in coeffs)


@pytest.mark.parametrize("a", range(-5, 6))
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_extension_degree2_matches_root_oracle(a, q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = BaseField(q, [1, a, q])
    ext = constant_extension(base, 2)
    assert ext.q == q ** 2
    assert ext.l_poly == root_power_l_poly((1, a, q), 2)


def test_extension_degree2_closed_form():
    # prod(1 - alpha^2 T) has linear coefficient -(a^2 - 2q) when
    # P = 1 + aT + qT^2; frozen from the root oracle.
    base = BaseField(3, [1, -1, 3])
    assert constant_extension(base, 2).l_poly == (1, -(1 - 6), 9)


def test_extension_rational_stays_trivial():
    base = BaseField(3)
    ext = constant_extension(base, 2)
    assert ext.q == 9
    assert ext.l_poly == (1,)
    assert ext.infinity_degree == base.infinity_degree


def test_extension_identity():
    base = BaseField(2, [1, -2, 2])
    assert constant_extension(base, 1) == base


def test_extension_composition():
    base = BaseField(2, [1, -2, 2], infinity_degree=1)
    lhs = constant_extension(constant_extension(base, 2), 3)
    rhs = constant_extension(base, 6)
    assert lhs == rhs


# L-polynomials of genus 1 and 2 that satisfy the functional equation
# c_{2g-k} = q^{g-k} c_k, as functions of q.
L_POLYS = {
    "g1-trace1": lambda q: (1, -1, q),
    "g1-trace-2": lambda q: (1, 2, q),
    "g2-a": lambda q: (1, 1, 0, q, q * q),
    "g2-b": lambda q: (1, -2, 3, -2 * q, q * q),
}


@pytest.mark.parametrize("infinity_degree", [1, 2])
@pytest.mark.parametrize("shape", sorted(L_POLYS))
@pytest.mark.parametrize("q", [2, 3, 5])
def test_extension_tower_matches_direct_extension(q, shape, infinity_degree):
    # Inverse roots of L_a are alpha^a, so extending by a then c must land
    # on the same field as extending by a * c in one step.
    base = BaseField(q, L_POLYS[shape](q),
                            infinity_degree=infinity_degree)
    degrees = [s for s in range(1, 5) if gcd(s, infinity_degree) == 1]
    for a in degrees:
        for c in degrees:
            direct = constant_extension(base, a * c)
            assert constant_extension(constant_extension(base, a), c) == direct
            assert all(type(x) is int for x in direct.l_poly)
    power_sums = _power_sums_from_l_poly(base.l_poly, 40)
    assert all(type(x) is int for x in power_sums)


def test_extension_rejects_shared_factor_with_infinity():
    base = BaseField(3, infinity_degree=2)
    with pytest.raises(ExtensionNotSupportedError):
        constant_extension(base, 2)


def test_pic_order_cases():
    assert pic_order(BaseField(3)) == 1
    assert pic_order(BaseField(5, infinity_degree=2)) == 2
    # h_K = P(1) for a genus-1 field with inert infinity of degree 1
    assert pic_order(BaseField(2, [1, -2, 2])) == 1
    # h_K * deg(infinity) = P(1) * delta = 4 * 3
    assert pic_order(BaseField(2, [1, 1, 2], infinity_degree=3)) == 12


def test_base_field_is_its_data():
    assert list(inspect.signature(BaseField).parameters) == [
        "q", "l_poly", "infinity_degree"]
    # F_3(T) is one field however P = 1 is written, and so are its
    # constant field extensions.
    assert BaseField(3, [1]) == BaseField(3)
    for s in (2, 3, 4):
        assert constant_extension(BaseField(3, [1]), s) == BaseField(3 ** s)


def test_functional_equation_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        BaseField(3, [1, 0, 5])
    assert [(w.category, w.filename, w.lineno) for w in caught] == [
        (UserWarning, __file__, line)]


def test_l_poly_must_have_even_degree():
    with pytest.raises(ValidationError):
        BaseField(3, [1, 1])


def test_q_must_be_prime_power():
    with pytest.raises(ValidationError):
        BaseField(6)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27):
        BaseField(q)


def test_non_integral_l_poly_is_a_typed_error():
    # power sums p_1 = 1, p_2 = 0 give e_2 = 1/2
    with pytest.raises(IntegralityViolationError):
        _l_poly_from_power_sums([Fraction(0), Fraction(1), Fraction(0)], 2)
