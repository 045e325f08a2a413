"""Algebra specs: validation, constant field degree, centralizers."""

from __future__ import annotations

import inspect
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from csaclass import (AlgebraSpec, BaseField, Place, centralizer_spec,
                      constant_field_degree, embedding_count, mass_maximal,
                      maximal_order, validate, weight_class_numbers)
from csaclass.algebra import (_finite_place_count, _irreducible_count,
                              places_above, splitting_data)
from csaclass.errors import InvalidDivisorError, ValidationError
from conftest import random_definite_spec


def test_golden_spec_valid(golden_spec):
    assert validate(golden_spec) == []


def test_broken_reciprocity_detected(golden_spec):
    spec = AlgebraSpec(
        golden_spec.base, 4,
        tuple(v for v in golden_spec.finite_places if v.label != "T+2"),
        golden_spec.infinity_invariant)
    assert any("reciprocity" in v for v in validate(spec))


def test_infinity_is_derived_from_the_base_and_degree():
    # D is definite: infinity has degree deg infinity and local index n, and
    # only its invariant is given.
    assert list(inspect.signature(AlgebraSpec).parameters) == [
        "base", "degree", "finite_places", "infinity_invariant"]
    spec = AlgebraSpec(BaseField(3, infinity_degree=2), 2,
                       (Place("T", 1, 2, 1),), 1)
    assert spec.infinity == Place("infinity", 2, 2, 1)
    assert mass_maximal(spec) == Fraction(1)
    assert weight_class_numbers(maximal_order(spec)) == {1: 2}
    assert AlgebraSpec(BaseField(3), 1).infinity == Place("infinity", 1, 1)


@pytest.mark.parametrize("d,kappa", [(4, 2), (2, 0)])
def test_invariant_prime_to_local_index(d, kappa):
    with pytest.raises(ValidationError,
                       match=r"place 'v': gcd\(kappa, d\) = 2 != 1"):
        Place("v", 1, d, kappa)


def test_infinity_invariant_prime_to_degree():
    with pytest.raises(ValidationError,
                       match=r"place 'infinity': gcd\(kappa, d\) = 2 != 1"):
        AlgebraSpec(BaseField(3), 4, (Place("T", 1, 2, 1),), 2)


@pytest.mark.parametrize("places", [
    (Place("T", 1, 4, 1), Place("T", 1, 2, 1)),
    (Place("T", 1, 2, 1), Place("infinity", 1, 2, 1)),
])
def test_place_labels_must_be_distinct(places):
    with pytest.raises(ValidationError, match="place labels are not distinct"):
        AlgebraSpec(BaseField(3), 4, places, 1)


def test_local_index_must_divide_degree():
    with pytest.raises(ValidationError):
        AlgebraSpec(BaseField(3), 4, (Place("T", 1, 3, 1),), -1)


def test_algebra_needs_positive_class_number():
    # P(1) = 1 - 5 + 3 = -1.  The L-polynomial alone is accepted, since the
    # zeta and extension oracles probe such data; an algebra over it is not.
    base = BaseField(3, (1, -5, 3))
    with pytest.raises(ValidationError, match=r"P\(1\) = -1"):
        AlgebraSpec(base, 2, (Place("v0", 1, 2, 1),), -1)


def test_too_many_places_of_one_degree():
    # F_2[T] has only two monic irreducibles of degree 1
    base = BaseField(2)
    spec = AlgebraSpec(
        base, 2,
        (Place("a", 1, 2, 1), Place("b", 1, 2, 1), Place("c", 1, 2, 1)), 1)
    assert any("degree 1" in v for v in validate(spec))


def test_constant_field_degree_golden(golden_spec):
    assert constant_field_degree(golden_spec) == 4


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_constant_field_degree_drinfeld_type(n):
    spec = AlgebraSpec(BaseField(3), n,
                       (Place("v0", 1, n, 1),), -1)
    assert constant_field_degree(spec) == n


def test_constant_field_degree_unramified_split():
    spec = AlgebraSpec(BaseField(3), 4, (), -1)
    assert constant_field_degree(spec) == 4


def test_constant_field_degree_blocked_by_degree():
    # a ramified place of even degree blocks the 2-part entirely (m_v = 1)
    spec = AlgebraSpec(BaseField(3), 4,
                       (Place("v0", 2, 4, 1),), -1)
    assert constant_field_degree(spec) == 1


def test_embedding_possible(golden_spec):
    # L_s embeds into D exactly when s divides the constant field degree.
    assert constant_field_degree(golden_spec) % 4 == 0
    assert constant_field_degree(golden_spec) % 1 == 0
    drinfeld = AlgebraSpec(BaseField(3), 4,
                           (Place("v0", 2, 4, 1),), -1)
    assert constant_field_degree(drinfeld) % 2 != 0


def test_embedding_possible_requires_divisor(golden_spec):
    with pytest.raises(InvalidDivisorError):
        embedding_count(maximal_order(golden_spec), 3)


def test_centralizer_golden_s2(golden_spec):
    derived = centralizer_spec(golden_spec, 2)
    assert derived.degree == 2
    assert derived.base.q == 9
    assert derived.infinity.local_index == 2
    # T keeps index 2; T+1 and T+2 split completely and are dropped
    assert [(v.label, v.degree, v.local_index) for v in derived.finite_places] \
        == [("T#1", 1, 2)]


def test_centralizer_full_level_is_commutative(golden_spec):
    derived = centralizer_spec(golden_spec, 4)
    assert derived.degree == 1
    assert derived.finite_places == ()
    assert derived.infinity.local_index == 1


def test_centralizer_identity(golden_spec):
    assert centralizer_spec(golden_spec, 1) == golden_spec


def test_centralizer_rejects_nondivisor(golden_spec):
    with pytest.raises(InvalidDivisorError):
        centralizer_spec(golden_spec, 3)


def _shape(spec):
    return (spec.degree, spec.base.q,
            sorted((v.degree, v.local_index) for v in spec.finite_places),
            (spec.infinity.degree, spec.infinity.local_index))


def test_centralizer_composition_random():
    rng = random.Random(20260823)
    checked = 0
    for _ in range(120):
        spec = random_definite_spec(rng)
        s0 = constant_field_degree(spec)
        for s in range(2, s0 + 1):
            if s0 % s:
                continue
            derived = centralizer_spec(spec, s)
            assert constant_field_degree(derived) == s0 // s
            for s2 in range(2, s0 // s + 1):
                if (s0 // s) % s2:
                    continue
                assert _shape(centralizer_spec(derived, s2)) \
                    == _shape(centralizer_spec(spec, s * s2))
                checked += 1
    assert checked > 10


def test_definite_s0_is_prime_to_the_degree_of_infinity():
    # constant_extension raises ExtensionNotSupportedError when gcd(s,
    # deg infinity) != 1.  On a definite spec m_infinity = 1 caps every prime
    # of gcd(deg infinity, n) at exponent 0 in s0, so the guard serves direct
    # library calls only, and every centralizer of a definite spec exists.
    rng = random.Random(20261018)
    shared = checked = 0
    for _ in range(300):
        deg = rng.randint(1, 4)
        spec = random_definite_spec(rng, infinity_degree=deg)
        assert spec.infinity.degree == spec.base.infinity_degree == deg
        s0 = constant_field_degree(spec)
        assert gcd(s0, deg) == 1
        for s in range(1, s0 + 1):
            if s0 % s == 0:
                assert centralizer_spec(spec, s).degree == spec.degree // s
                checked += s > 1 and deg > 1
        shared += gcd(spec.degree, deg) > 1
    assert shared > 30 and checked > 30


def test_places_above_random():
    rng = random.Random(10)
    checked = 0
    for _ in range(80):
        spec = random_definite_spec(rng)
        s0 = constant_field_degree(spec)
        for s in range(1, s0 + 1):
            if s0 % s:
                continue
            labels = []
            for v in spec.all_places():
                above = places_above(v, s)
                l = gcd(s, v.degree)
                t = gcd(s // l, v.local_index)
                assert len(above) == l
                assert all(w.degree == v.degree // l for w in above)
                assert all(w.local_index == v.local_index // t for w in above)
                if s == 1:
                    assert above == (v,)
                labels += [w.label for w in above]
                checked += 1
            assert len(labels) == len(set(labels))
    assert checked > 100


def test_splitting_divisibility_invariant():
    rng = random.Random(7)
    for _ in range(80):
        spec = random_definite_spec(rng)
        s0 = constant_field_degree(spec)
        for s in range(1, s0 + 1):
            if s0 % s:
                continue
            for v in spec.all_places():
                l, t = splitting_data(v, s)
                m_v = spec.capacity(v)
                assert m_v % l == 0
                assert (m_v // l) % (s // (l * t)) == 0


def _mobius(n: int) -> int:
    """mu(n) by trial division."""
    mu, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return mu


def test_irreducible_count_matches_the_sum_over_all_divisors():
    # The count sums over the squarefree divisors only; the oracle walks
    # every e in 1..d.
    for q in range(2, 6):
        for d in range(1, 201):
            want = sum(_mobius(e) * q ** (d // e)
                       for e in range(1, d + 1) if d % e == 0) // d
            assert _irreducible_count(q, d) == want, (q, d)


def test_place_count_bound_keeps_every_verdict():
    # Past the bound q^d is not built; the count, capped at the listed
    # number, is the same, so `validate` refuses the same configs.
    for q in range(2, 6):
        for d in range(1, 201):
            for delta in (1, 2, 3):
                exact = _irreducible_count(q, d) + (d == 1) - (d == delta)
                caps = set(range(min(exact, 50) + 2))
                caps |= {exact - 1, exact, exact + 1} - {-1}
                for cap in caps:
                    assert (_finite_place_count(q, d, delta, cap)
                            == min(cap, exact)), (q, d, delta, cap)


def test_a_place_of_huge_degree_validates_at_once():
    # 3^(10^8) has 47,712,126 digits; the bound settles the count without it.
    spec = AlgebraSpec(BaseField(3, (1,)), 2,
                       (Place("T", 1, 2, 1), Place("P", 10 ** 8)), 1)
    started = time.perf_counter()
    assert validate(spec) == []
    assert time.perf_counter() - started < 0.1
