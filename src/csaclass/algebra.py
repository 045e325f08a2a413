"""Definite central simple algebras given by local invariant data.

An algebra D of degree n over the base field is specified by listing the
places that matter: those where the local index d_v exceeds 1, plus any
split place that carries order data.  Every unlisted place implicitly has
d_v = 1 and capacity m_v = n.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .basefield import BaseField, _prime_factors
from .errors import ValidationError

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
        return tuple.__new__(cls, (label, degree, local_index, invariant_num))


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
        return tuple.__new__(cls, (base, degree, finite_places,
                                   infinity_invariant, infinity))

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
    # at all places with d_v > 1.  Each d_v divides n: the sum is total / n.
    ramified_places = [v for v in spec.all_places() if v.local_index > 1]
    if all(v.invariant_num is not None for v in ramified_places):
        n = spec.degree
        total = sum(v.invariant_num * (n // v.local_index)
                    for v in spec.all_places() if v.invariant_num is not None)
        if total % n:
            violations.append("reciprocity fails: sum of invariants = "
                              f"{Fraction(total, n)}")
    else:
        # Whatever the missing invariants are, a p-adic valuation reached at
        # one place only cannot cancel in the sum.
        for p in _prime_factors(spec.degree):
            parts = [p ** _prime_factors(v.local_index).get(p, 0)
                     for v in ramified_places]
            if parts and max(parts) > 1 and parts.count(max(parts)) == 1:
                violations.append(
                    f"reciprocity fails: {max(parts)} divides a local index "
                    "at one place only")

    if spec.base.l_poly == (1,):
        q, delta = spec.base.q, spec.base.infinity_degree
        by_degree: dict[int, int] = {}
        for v in spec.finite_places:
            by_degree[v.degree] = by_degree.get(v.degree, 0) + 1
        for d, count in sorted(by_degree.items()):
            # One place of degree d != delta exists: there are q + 1 of
            # degree 1, and an irreducible of every degree d >= 2.
            if count == 1 and d != delta:
                continue
            available = _finite_place_count(q, d, delta, count)
            if count > available:
                where = (f"monic irreducibles exist over F_{q}" if delta == 1
                         else f"exist on F_{q}(T) with infinity of degree {delta}")
                violations.append(f"{count} listed finite places of degree {d}, "
                                  f"but only {available} {where}")
    return violations


def constant_field_degree(spec: AlgebraSpec) -> int:
    """Degree s0 of the constant field of D over F_q: the largest s | n at
    which every place w of L_s above every place v, infinity included, has
    local index d_w dividing n/s.  The s that pass are the divisors of s0;
    unlisted places have d_w = 1 and never constrain."""
    n = spec.degree
    return next(s for s in range(n, 0, -1) if n % s == 0 and all(
        n % (s * shape_above(v, s)[2]) == 0 for v in spec.all_places()))


def places_above(v: Place, s: int) -> tuple[Place, ...]:
    """The places v#1, ..., v#l of L_s above v, sized by `shape_above`:
    degree deg(v)/l over F_{q^s}, local index d_w; (v,) at s = 1."""
    if s == 1:
        return (v,)
    l, degree, local_index = shape_above(v, s)
    return tuple(Place(f"{v.label}#{w}", degree, local_index)
                 for w in range(1, l + 1))


def shape_above(v: Place, s: int) -> tuple[int, int, int]:
    """(l, deg w, d_w): the one rule for how v splits in L_s = K F_{q^s}.
    There are l = gcd(s, deg v) places w above v, each of degree deg(v)/l
    over F_{q^s} and of local degree s/l over v, so the local index of D
    there is d_w = d_v / gcd(s/l, d_v)."""
    l = gcd(s, v.degree)
    return l, v.degree // l, v.local_index // gcd(s // l, v.local_index)
