"""Hereditary order invariants, unit indices and genus vectors.

A hereditary order is pinned down by one invariant vector per finite place:
positive block sizes summing to the local capacity m_v, well defined up to
cyclic rotation.  Places without an entry are maximal, f_v = (m_v).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import combinations
from math import comb, prod
from operator import sub

from .algebra import AlgebraSpec
from .errors import IntegralityViolationError, ValidationError


def normalize_invariant(f_vec) -> tuple[int, ...]:
    """Lexicographically smallest cyclic rotation of the vector."""
    f = tuple(f_vec)
    if not f:
        raise ValidationError("invariant vector must be non-empty")
    return min(f[i:] + f[:i] for i in range(len(f)))


def q_factorial(x: int, k: int) -> int:
    """[k]!_x = prod_{i=1}^{k}(x^i - 1), 1 for k < 1: every product of terms
    x^i - 1 in the mass is one of these, or a quotient of them."""
    result, power = 1, 1
    for _ in range(k):
        power *= x
        result *= power - 1
    return result


def local_unit_index(N: int, d: int, f_vec) -> int:
    """Index of the hereditary unit group in the maximal one.

    [m]!_{N^d} / prod over entries e of [e]!_{N^d} (`q_factorial`), with m
    the entry sum.  Zero entries contribute empty factors, so the same
    routine serves flattened vectors coming from local embedding data.
    The quotient is a Gaussian multinomial, so it is exact, and it is 1
    with at most one non-zero entry, where no power of N is formed."""
    if N < 2:
        raise ValidationError("N must be at least 2")
    f = tuple(f_vec)
    if len(f) - f.count(0) <= 1:
        return 1
    step = N ** d
    num = q_factorial(step, sum(f))
    den = prod([q_factorial(step, e) for e in f])
    index, rest = divmod(num, den)
    if rest != 0:
        raise IntegralityViolationError(
            f"unit index {num}/{den} is not an integer")
    return index


class OrderSpec(namedtuple("OrderSpec", "algebra invariants")):
    """A hereditary order: the algebra plus invariant vectors per place.

    Invariant vectors are normalized at construction so that equal orders
    compare equal; entries equal to the forced maximal vector are dropped.
    """

    __slots__ = ()
    # `_make`, and `_replace` through it, build by calling the type.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, algebra: AlgebraSpec,
                invariants: tuple[tuple[str, tuple[int, ...]], ...] = ()):
        cleaned: list[tuple[str, tuple[int, ...]]] = []
        seen = set()
        for label, f_vec in invariants:
            if label in seen:
                raise ValidationError(f"duplicate invariant for place {label!r}")
            seen.add(label)
            try:
                place = algebra.place(label)
            except KeyError:
                raise ValidationError(
                    f"invariant given for unlisted place {label!r}; "
                    "list it on the algebra first") from None
            if place.label == algebra.infinity.label:
                raise ValidationError("no order invariant at infinity")
            f = normalize_invariant(f_vec)
            if any(e < 1 for e in f):
                raise ValidationError(
                    f"place {label!r}: invariant entries must be positive")
            m_v = algebra.capacity(place)
            if sum(f) != m_v:
                raise ValidationError(
                    f"place {label!r}: invariant sums to {sum(f)}, expected {m_v}")
            if len(f) > 1:
                cleaned.append((label, f))
        cleaned.sort()
        return tuple.__new__(cls, (algebra, tuple(cleaned)))

    def invariant_at(self, label: str) -> tuple[int, ...]:
        for lab, f in self.invariants:
            if lab == label:
                return f
        return (self.algebra.capacity(self.algebra.place(label)),)

    def relevant_labels(self) -> tuple[str, ...]:
        """Every listed finite place, sorted by label."""
        return tuple(sorted({v.label for v in self.algebra.finite_places}))


def maximal_order(algebra: AlgebraSpec) -> OrderSpec:
    return OrderSpec(algebra, ())


def count_genera(order: OrderSpec) -> int:
    return prod(comb(sum(f) + len(f) - 1, len(f) - 1)
                for _, f in order.invariants)


class GenusAxis(namedtuple(
        "GenusAxis", "label total parts reduced mults pick_of")):
    """The genus vectors of one non-maximal place, those of `parts` entries
    >= 0 summing to `total`.  `reduced` holds their distinct normalised
    non-zero parts by first appearance, `mults` how many vectors reduce to
    each, and `pick_of` the index of a vector's reduction by the cuts of its
    non-zero entries: a bit c - 1 for each partial sum c."""

    __slots__ = ()

    def walk(self, start: str, sep: str, end: str) -> list[tuple]:
        """The vectors in lexicographic order as text, each `start`, its
        entries joined by `sep`, and `end`: blocks (prefix, tails, picks)
        whose vectors read prefix + tails[i] and reduce to
        `reduced[picks[i]]`.  A block fixes the first two entries; the text
        of the others is built once per sum they leave, one entry at a time.
        """
        levels: dict[tuple, tuple[list, list]] = {(0, 0): ([end], [0])}

        def level(left: int, k: int) -> tuple[list, list]:
            """(texts, cuts) of the vectors of k entries summing to left;
            a text has `sep` before each entry."""
            if (left, k) not in levels:
                texts, cuts = levels[left, k] = [], []
                for a in range(left + 1) if k else ():
                    tails, tail_cuts = level(left - a, k - 1)
                    texts += map(f"{sep}{a}".__add__, tails)
                    cuts += ([c << a | 1 << a - 1 for c in tail_cuts]
                             if a else tail_cuts)
            return levels[left, k]

        total, rest = self.total, self.parts - 2
        blocks = []
        for a in range(total + 1):
            for b in range(total - a + 1) if rest else (total - a,):
                tails, cuts = level(total - a - b, rest)
                lead = (b and 1 << b - 1) << a | (a and 1 << a - 1)
                pick = {c: self.pick_of[c << a + b | lead] for c in set(cuts)}
                blocks.append((f"{start}{a}{sep}{b}", tails,
                               list(map(pick.__getitem__, cuts))))
        return blocks


def genus_axes(order: OrderSpec) -> tuple[GenusAxis, ...]:
    """One axis per non-maximal place, labels sorted; a genus picks one
    vector from every axis.  No vector is built: a composition of m_v into
    k positive entries is the non-zero part of comb(parts, k) vectors.
    The rotations of a composition share its reduction; rotating it by a
    partial sum a rotates its cuts, as `total` bits, right by a.  So the
    first rotation met is normalised and marks the cuts of all of them."""
    axes = []
    for label, f in order.invariants:
        total, parts = sum(f), len(f)
        full, top = (1 << total) - 1, 1 << total - 1
        index: dict[tuple[int, ...], int] = {}
        mults: Counter[int] = Counter()
        pick_of = {}
        # Fewest entries first, then ascending: the order of first appearance.
        for k in range(min(parts, total)):
            for sums in combinations(range(1, total), k):
                cuts = top  # a bit c - 1 for each partial sum c
                for c in sums:
                    cuts |= 1 << c - 1
                if cuts not in pick_of:
                    i = index[normalize_invariant(
                        map(sub, (*sums, total), (0, *sums)))] = len(index)
                    for a in (0, *sums):
                        pick_of[(cuts >> a | cuts << total - a) & full] = i
                mults[pick_of[cuts]] += comb(parts, k + 1)
        axes.append(GenusAxis(label, total, parts, tuple(index),
                              tuple(mults.values()), pick_of))
    return tuple(axes)
