"""Mass sums: golden values, refinement factorization, invariances."""

from __future__ import annotations

import random
import warnings
from fractions import Fraction

import pytest

from csaclass import (AlgebraSpec, BaseField, Place, constant_field_degree,
                      local_unit_index, mass_hereditary, maximal_order)
from csaclass.algebra import shape_above
from csaclass.basefield import (constant_extension, pic_order,
                                zeta_at_negative)
from csaclass.errors import IntegralityViolationError, ValidationError
from csaclass.massform import _level_mass, ramification_factor
from conftest import (centralizer_spec, random_definite_spec, random_l_poly,
                      random_order)


def test_ramification_factor_examples():
    # q = 3, n = 4: a fully ramified place of degree 1 contributes
    # (3-1)(9-1)(27-1) = 416; an index-2 place skips i = 2.
    assert ramification_factor(3, 4, 4) == 2 * 8 * 26
    assert ramification_factor(3, 2, 4) == 2 * 26
    assert ramification_factor(3, 1, 4) == 1


def test_golden_maximal_mass(golden_spec):
    assert mass_hereditary(maximal_order(golden_spec)) == Fraction(169, 5)


def test_golden_mass_assembly(golden_spec):
    # Reassemble the product from its factors.
    q = 3
    zeta = Fraction(1, 16) * Fraction(1, 208) * Fraction(1, 2080)
    ram = 416 * 416 * 52 * 52
    assert Fraction(1, q - 1) * zeta * ram == Fraction(169, 5)


def test_golden_centralizer_mass(golden_spec):
    assert mass_hereditary(maximal_order(
        centralizer_spec(golden_spec, 2))) == Fraction(1, 80)
    assert mass_hereditary(maximal_order(
        centralizer_spec(golden_spec, 1))) == Fraction(169, 5)


def test_degree_one_algebra_mass():
    # n = 1: the mass is #Pic(A)/(q-1) with no zeta or local factors.
    spec = AlgebraSpec(BaseField(4), 1, ())
    assert mass_hereditary(maximal_order(spec)) == Fraction(1, 3)


def test_quaternion_rational_mass():
    # q = 3, n = 2, ramified at a degree-1 place and infinity:
    # (1/2) * zeta(-1) * (3-1)^2 = (1/2)(1/16)(4) = 1/8.
    spec = AlgebraSpec(BaseField(3), 2,
                       (Place("v0", 1, 2, 1),), -1)
    assert mass_hereditary(maximal_order(spec)) == Fraction(1, 8)


def test_refinement_factorization():
    """Mass of a non-maximal order = maximal mass times unit indices."""
    rng = random.Random(20260823)
    checked = 0
    for _ in range(60):
        spec = random_definite_spec(rng)
        order = random_order(rng, spec)
        full = order.algebra  # may carry extra listed split places
        expected = mass_hereditary(maximal_order(full))
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


def test_non_positive_mass_raises_at_every_level():
    # s0 = 2.  At s = 1 the mass is negative; at s = 2, L_2 has P(T) =
    # 1 - 3T + T^2 and P(1) = -1, which its centralizer spec refuses too.
    # Only the base warns of the functional equation: L_2 is built unchecked.
    with pytest.warns(UserWarning):
        base = BaseField(3, (1, 1, -1))
    spec = AlgebraSpec(base, 2, (Place("v0", 1, 2, 1),), -1)
    assert constant_field_degree(spec) == 2
    with pytest.raises(IntegralityViolationError,
                       match="^mass -5/8 is not positive$"):
        _level_mass(spec, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match=r"^l_polynomial has P\(1\) = -1, "):
            _level_mass(spec, 2)
        with pytest.raises(ValidationError,
                           match=r"^l_polynomial has P\(1\) = -1, "):
            centralizer_spec(spec, 2)


def test_level_mass_is_the_mass_of_the_centralizer():
    # M_s, read off the algebra, against the maximal order of the
    # centralizer spec, at every s | s0, over bases of genus 0, 1 and 2 and
    # with deg infinity = 2 (s0 is odd there).
    rng = random.Random(2026)
    seen = {"genus 0": 0, "genus 1": 0, "genus 2": 0, "deg inf 2": 0,
            "dropped": 0, "l > 1": 0}
    for k in range(300):
        delta = 2 if k % 4 == 0 else 1
        shape = random_definite_spec(rng, max_degree=8,
                                     infinity_degree=delta)
        q = shape.base.q
        spec = AlgebraSpec(BaseField(q, random_l_poly(rng, q), delta),
                           shape.degree, shape.finite_places,
                           shape.infinity_invariant)
        s0 = constant_field_degree(spec)
        for s in range(1, s0 + 1):
            if s0 % s:
                continue
            assert _level_mass(spec, s) == mass_hereditary(
                maximal_order(centralizer_spec(spec, s))), (spec, s)
            above = [(v, shape_above(v, s)) for v in spec.finite_places]
            seen[f"genus {len(spec.base.l_poly) // 2}"] += 1
            seen["deg inf 2"] += delta == 2 and s > 1
            seen["dropped"] += any(v.local_index > 1 == index
                                   for v, (_, _, index) in above)
            seen["l > 1"] += any(l > 1 < index for _, (l, _, index) in above)
    assert min(seen.values()) >= 10, seen


def _level_mass_by_extension(spec: AlgebraSpec, s: int) -> Fraction:
    """M_s from the BaseField of L_s that `constant_extension` builds."""
    base = constant_extension(spec.base, s)
    n = spec.degree // s
    mass = Fraction(pic_order(base), base.q - 1)
    for i in range(1, n):
        mass *= zeta_at_negative(base, i)
    for v in spec.all_places():
        l, degree, local_index = shape_above(v, s)
        if local_index > 1:
            mass *= ramification_factor(base.q ** degree, local_index, n) ** l
    return mass


def test_rational_level_mass_matches_the_extension_path():
    # Over P = 1, each level of `_level_mass`, one Fraction over integer
    # products, agrees with the product of `zeta_at_negative` values of the
    # field that `constant_extension` builds, deg infinity 1, 2 and 3
    # included.
    rng = random.Random(30)
    levels = 0
    for k in range(400):
        spec = random_definite_spec(rng, max_degree=8,
                                    infinity_degree=1 + k % 3)
        s0 = constant_field_degree(spec)
        for s in range(1, s0 + 1):
            if s0 % s == 0:
                assert _level_mass(spec, s, 7) == 7 * _level_mass_by_extension(
                    spec, s), (spec, s)
                levels += s > 1
    assert levels >= 200
