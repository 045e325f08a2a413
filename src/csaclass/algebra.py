"""Definite central simple algebras given by local invariant data.

An algebra D of degree n over the base field is specified by listing the
places that matter: those where the local index d_v exceeds 1, plus any
split place that carries order data.  Every unlisted place implicitly has
d_v = 1 and capacity m_v = n.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd

from .basefield import BaseField, _prime_factors, constant_extension
from .errors import InvalidDivisorError, ValidationError

INFINITY = "infinity"


class Place(namedtuple("Place", "label degree local_index invariant_num")):
    """One place of K together with the local data of D there."""

    __slots__ = ()
    # `_make`, and `_replace` through it, build by calling the type.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, label: str, degree: int, local_index: int = 1,
                invariant_num: int | None = None):
        if degree < 1:
            raise ValidationError(f"place {label!r}: degree must be positive")
        if local_index < 1:
            raise ValidationError(f"place {label!r}: local index must be positive")
        if invariant_num is not None:
            g = gcd(invariant_num, local_index)
            if g != 1:
                raise ValidationError(
                    f"place {label!r}: gcd(kappa, d) = {g} != 1")
        return super().__new__(cls, label, degree, local_index, invariant_num)


def _irreducible_count(q: int, d: int) -> int:
    """Number of monic irreducible polynomials of degree d over F_q: the
    sum of mu(e) q^(d/e) over e | d, divided by d.  mu vanishes off the
    squarefree divisors, the products of distinct primes of d, and is -1
    to the number of primes on them."""
    mobius = {1: 1}
    for p in _prime_factors(d):
        mobius.update([(e * p, -mu) for e, mu in mobius.items()])
    return sum(mu * q ** (d // e) for e, mu in mobius.items()) // d


def _finite_place_count(q: int, d: int, infinity_degree: int,
                        cap: int) -> int:
    """min(cap, number of places of degree d of F_q(T) other than infinity),
    when infinity has degree `infinity_degree`: the monic irreducibles of
    degree d and the place of 1/T, less infinity itself.

    For d >= 3, d I(q, d) >= q^d - q^(d//2 + 1) >= q^d / 2, and q^d is at
    least 2 to the d times (bit length of q - 1); when that bound passes
    2 d (cap + 1), more than cap places exist, and q^d is not built."""
    if d >= 3 and d * (q.bit_length() - 1) > (2 * d * (cap + 1)).bit_length():
        return cap
    return min(cap, _irreducible_count(q, d) + (d == 1)
               - (d == infinity_degree))


def _ord_p(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


class AlgebraSpec(namedtuple("AlgebraSpec", "base degree finite_places "
                              "infinity_invariant infinity")):
    """A central simple algebra D/K of degree n, definite at infinity: D is
    division there, so infinity has degree deg infinity and local index n,
    and only its invariant kappa/n is given (None if unknown).  The place
    `infinity` is derived from the other fields, so it adds nothing to
    equality."""

    __slots__ = ()
    # `_make`, and `_replace` through it, take the given fields and derive
    # infinity again, as pickle and copy do through `__getnewargs__`.
    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:4]))

    def __new__(cls, base: BaseField, degree: int,
                finite_places: tuple[Place, ...] = (),
                infinity_invariant: int | None = None):
        if degree < 1:
            raise ValidationError("algebra degree must be positive")
        base.check_class_number()
        finite_places = tuple(finite_places)
        infinity = Place(INFINITY, base.infinity_degree, degree,
                         infinity_invariant)
        for v in finite_places:
            if degree % v.local_index != 0:
                raise ValidationError(
                    f"place {v.label!r}: local index {v.local_index} "
                    f"does not divide degree {degree}")
        labels = [v.label for v in finite_places + (infinity,)]
        if len(set(labels)) != len(labels):
            raise ValidationError("place labels are not distinct")
        return super().__new__(cls, base, degree, finite_places,
                               infinity_invariant, infinity)

    def __getnewargs__(self):
        return self[:4]

    def all_places(self) -> tuple[Place, ...]:
        return self.finite_places + (self.infinity,)

    def place(self, label: str) -> Place:
        if label == self.infinity.label:
            return self.infinity
        for v in self.finite_places:
            if v.label == label:
                return v
        raise KeyError(label)

    def capacity(self, place: Place) -> int:
        """m_v = n / d_v."""
        return self.degree // place.local_index

    def norm(self, place: Place) -> int:
        """N(v) = q^deg(v)."""
        return self.base.q ** place.degree


def validate(spec: AlgebraSpec) -> list[str]:
    """The checks that need the whole algebra: reciprocity and the number
    of listed places of each degree.  An empty list means valid."""
    violations: list[str] = []
    # Reciprocity needs every listed invariant; checkable only when present
    # at all places with d_v > 1.
    ramified_places = [v for v in spec.all_places() if v.local_index > 1]
    if all(v.invariant_num is not None for v in ramified_places):
        total = sum(
            Fraction(v.invariant_num, v.local_index)
            for v in spec.all_places() if v.invariant_num is not None)
        if total.denominator != 1:
            violations.append(f"reciprocity fails: sum of invariants = {total}")
    else:
        # Whatever the missing invariants are, a p-adic valuation reached at
        # one place only cannot cancel in the sum.
        for p in _prime_factors(spec.degree):
            parts = [p ** _ord_p(v.local_index, p) for v in ramified_places]
            if parts and max(parts) > 1 and parts.count(max(parts)) == 1:
                violations.append(
                    f"reciprocity fails: {max(parts)} divides a local index "
                    "at one place only")

    if spec.base.l_poly == (1,):
        q, delta = spec.base.q, spec.base.infinity_degree
        by_degree = Counter(v.degree for v in spec.finite_places)
        for d, count in sorted(by_degree.items()):
            available = _finite_place_count(q, d, delta, count)
            if count > available:
                where = (f"monic irreducibles exist over F_{q}" if delta == 1
                         else f"exist on F_{q}(T) with infinity of degree {delta}")
                violations.append(f"{count} listed finite places of degree {d}, "
                                  f"but only {available} {where}")
    return violations


def constant_field_degree(spec: AlgebraSpec) -> int:
    """Degree s0 of the constant field of D over F_q.

    For each prime p | n the exponent of p in s0 is capped by the places
    where the p-part of gcd(deg v, n) exceeds the p-part of m_v; unlisted
    places have m_v = n and never constrain.
    """
    n = spec.degree
    s0 = 1
    for p, n_i in _prime_factors(n).items():
        constraining = []
        for v in spec.all_places():
            n_i_v = _ord_p(gcd(v.degree, n), p)
            m_i_v = _ord_p(spec.capacity(v), p)
            if n_i_v > m_i_v:
                constraining.append(m_i_v)
        exponent = min(constraining) if constraining else n_i
        s0 *= p ** exponent
    return s0


def splitting_data(place: Place, s: int) -> tuple[int, int]:
    """(l, t): number of places of L_s above v, and the capacity gain there."""
    l = gcd(s, place.degree)
    t = gcd(s // l, place.local_index)
    return l, t


def places_above(v: Place, s: int) -> tuple[Place, ...]:
    """The places of L_s above v: l = gcd(s, deg v) places v#1, ..., v#l of
    degree deg(v)/l over F_{q^s}, with local index d_v / t; (v,) at s = 1."""
    if s == 1:
        return (v,)
    l, t = splitting_data(v, s)
    return tuple(Place(f"{v.label}#{w}", v.degree // l, v.local_index // t)
                 for w in range(1, l + 1))


def centralizer_spec(spec: AlgebraSpec, s: int) -> AlgebraSpec:
    """The centralizer algebra D'_s of an embedded L_s, as a spec over L_s.

    Its finite places are the `places_above` the listed finite places.
    Derived places that become split are dropped; invariants are not carried
    over (no downstream formula needs them).
    """
    s0 = constant_field_degree(spec)
    if s < 1 or s0 % s != 0:
        raise InvalidDivisorError(f"s = {s} does not divide s0 = {s0}")
    if s == 1:
        return spec
    derived: list[Place] = []
    for v in spec.finite_places:
        t = splitting_data(v, s)[1]
        if v.local_index > t:  # the places above v have local index d_v / t
            derived += places_above(v, s)
    return AlgebraSpec(constant_extension(spec.base, s), spec.degree // s,
                       tuple(derived))
