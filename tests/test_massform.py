"""Mass sums: golden values, refinement factorization, invariances."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from csaclass import (AlgebraSpec, BaseField, Place, centralizer_spec,
                      local_unit_index, mass_hereditary, mass_maximal,
                      maximal_order)
from csaclass.basefield import zeta_at_negative
from csaclass.errors import IntegralityViolationError
from csaclass.massform import ramification_factor
from conftest import random_definite_spec, random_order


def test_ramification_factor_examples():
    # q = 3, n = 4: a fully ramified place of degree 1 contributes
    # (3-1)(9-1)(27-1) = 416; an index-2 place skips i = 2.
    assert ramification_factor(3, 4, 4) == 2 * 8 * 26
    assert ramification_factor(3, 2, 4) == 2 * 26
    assert ramification_factor(3, 1, 4) == 1


def test_golden_maximal_mass(golden_spec):
    assert mass_maximal(golden_spec) == Fraction(169, 5)


def test_golden_mass_assembly(golden_spec):
    # Reassemble the product from its factors.
    q = 3
    zeta = Fraction(1, 16) * Fraction(1, 208) * Fraction(1, 2080)
    ram = 416 * 416 * 52 * 52
    assert Fraction(1, q - 1) * zeta * ram == Fraction(169, 5)


def test_golden_centralizer_mass(golden_spec):
    assert mass_maximal(centralizer_spec(golden_spec, 2)) == Fraction(1, 80)
    assert mass_maximal(centralizer_spec(golden_spec, 1)) == Fraction(169, 5)


def test_degree_one_algebra_mass():
    # n = 1: the mass is #Pic(A)/(q-1) with no zeta or local factors.
    spec = AlgebraSpec(BaseField(4), 1, ())
    assert mass_maximal(spec) == Fraction(1, 3)


def test_quaternion_rational_mass():
    # q = 3, n = 2, ramified at a degree-1 place and infinity:
    # (1/2) * zeta(-1) * (3-1)^2 = (1/2)(1/16)(4) = 1/8.
    spec = AlgebraSpec(BaseField(3), 2,
                       (Place("v0", 1, 2, 1),), -1)
    assert mass_maximal(spec) == Fraction(1, 8)


def test_refinement_factorization():
    """Mass of a non-maximal order = maximal mass times unit indices."""
    rng = random.Random(20260823)
    checked = 0
    for _ in range(60):
        spec = random_definite_spec(rng)
        order = random_order(rng, spec)
        full = order.algebra  # may carry extra listed split places
        expected = mass_maximal(full)
        for label, f_vec in order.invariants:
            v = full.place(label)
            expected *= local_unit_index(full.norm(v), v.local_index, f_vec)
        assert mass_hereditary(order) == expected
        if order.invariants:
            checked += 1
    assert checked >= 5


def test_rotation_invariance():
    # OrderSpec stores the least rotation, so the rotated vector goes to the
    # unit index itself.
    rng = random.Random(99)
    checked = 0
    while checked < 20:
        spec = random_definite_spec(rng)
        order = random_order(rng, spec)
        full = order.algebra
        for label, f_vec in order.invariants:
            rotated = f_vec[1:] + f_vec[:1]
            if rotated == f_vec:
                continue
            v = full.place(label)
            N = full.norm(v)
            assert local_unit_index(N, v.local_index, rotated) == \
                local_unit_index(N, v.local_index, f_vec)
            checked += 1
            break


def test_mass_positive_random():
    rng = random.Random(5)
    for _ in range(40):
        spec = random_definite_spec(rng)
        order = random_order(rng, spec)
        assert mass_hereditary(order) > 0


def test_non_positive_mass_is_a_typed_error():
    # P(1) = 1 passes the class number check, but zeta(-1) = P(3) / 16 < 0:
    # the mass must not come out negative
    with pytest.warns(UserWarning):  # no functional equation either
        base = BaseField(3, (1, 1, -1))
    assert zeta_at_negative(base, 1) == Fraction(-5, 16)
    spec = AlgebraSpec(base, 2, (Place("v0", 1, 2, 1),), -1)
    with pytest.raises(IntegralityViolationError):
        mass_hereditary(maximal_order(spec))
