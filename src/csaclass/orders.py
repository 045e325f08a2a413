"""Hereditary order invariants, unit indices and genus vectors.

A hereditary order is pinned down by one invariant vector per finite place:
positive block sizes summing to the local capacity m_v, well defined up to
cyclic rotation.  Places without an entry are maximal, f_v = (m_v).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .algebra import AlgebraSpec
from .errors import (EmptyGenusError, IntegralityViolationError,
                     ValidationError)


def normalize_invariant(f_vec) -> tuple[int, ...]:
    """Lexicographically smallest cyclic rotation of the vector."""
    f = tuple(f_vec)
    if not f:
        raise ValidationError("invariant vector must be non-empty")
    return min(f[i:] + f[:i] for i in range(len(f)))


def local_unit_index(N: int, d: int, f_vec) -> int:
    """Index of the hereditary unit group in the maximal one.

    prod_{i=1}^{m}(N^{d i}-1) / prod over entries e of prod_{j<=e}(N^{d j}-1),
    with m the entry sum.  Zero entries contribute empty factors, so the same
    routine serves flattened vectors coming from local embedding data.
    The quotient is a Gaussian multinomial, so it is exact.
    """
    if N < 2:
        raise ValidationError("N must be at least 2")
    f = tuple(f_vec)
    m = sum(f)
    num = 1
    for i in range(1, m + 1):
        num *= N ** (d * i) - 1
    den = 1
    for e in f:
        for j in range(1, e + 1):
            den *= N ** (d * j) - 1
    index, rest = divmod(num, den)
    if rest != 0:
        raise IntegralityViolationError(
            f"unit index {num}/{den} is not an integer")
    return index


@dataclass(frozen=True)
class OrderSpec:
    """A hereditary order: the algebra plus invariant vectors per place.

    Invariant vectors are normalized at construction so that equal orders
    compare equal; entries equal to the forced maximal vector are dropped.
    """

    algebra: AlgebraSpec
    invariants: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __post_init__(self) -> None:
        cleaned: list[tuple[str, tuple[int, ...]]] = []
        seen = set()
        for label, f_vec in self.invariants:
            if label in seen:
                raise ValidationError(f"duplicate invariant for place {label!r}")
            seen.add(label)
            try:
                place = self.algebra.place(label)
            except KeyError:
                raise ValidationError(
                    f"invariant given for unlisted place {label!r}; "
                    "list it on the algebra first") from None
            if place.label == self.algebra.infinity.label:
                raise ValidationError("no order invariant at infinity")
            f = normalize_invariant(f_vec)
            if any(e < 1 for e in f):
                raise ValidationError(
                    f"place {label!r}: invariant entries must be positive")
            m_v = self.algebra.capacity(place)
            if sum(f) != m_v:
                raise ValidationError(
                    f"place {label!r}: invariant sums to {sum(f)}, expected {m_v}")
            if len(f) > 1:
                cleaned.append((label, f))
        cleaned.sort()
        object.__setattr__(self, "invariants", tuple(cleaned))

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


def genus_reduce(g_vec) -> tuple[int, ...]:
    """Strip zero entries from a genus vector; the result is an invariant."""
    reduced = tuple(filter(None, g_vec))
    # A negative entry is non-zero, so it survives the stripping.
    if reduced and min(reduced) < 0:
        raise ValidationError("genus entries must be non-negative")
    if not reduced:
        raise EmptyGenusError("genus vector has no non-zero entry")
    return reduced


def _genus_vectors(total: int, parts: int):
    """(vectors, ids, entries): every vector of `parts` non-negative integers
    summing to `total`, in ascending lexicographic order; `ids[i]` numbers
    the non-zero entries of `vectors[i]`, which are `entries[ids[i]]`.

    The vectors that start with a are a followed by those of `total - a`
    in one part fewer; each (left, parts) is built once.  Id 0 numbers no
    entries, and a non-zero a before the entries of id i takes the next id
    when the pair (a, i) is first met.
    """
    prepended: dict[tuple[int, int], int] = {}  # (a, id) -> id
    memo: dict[tuple[int, int], tuple[list, list]] = {(0, 0): ([()], [0])}

    def tails(left: int, parts: int) -> tuple[list, list]:
        key = (left, parts)
        if key not in memo:
            vectors, ids = [], []
            for a in range(left + 1) if parts > 1 else (left,):
                sub_vectors, sub_ids = tails(left - a, parts - 1)
                vectors += map((a,).__add__, sub_vectors)
                if a:
                    id_of = {i: prepended.setdefault((a, i), len(prepended) + 1)
                             for i in set(sub_ids)}
                    sub_ids = map(id_of.__getitem__, sub_ids)
                ids += sub_ids
            memo[key] = vectors, ids
        return memo[key]

    vectors, ids = tails(total, parts)
    entries = [()]  # an id is numbered after the id it extends
    for a, i in prepended:
        entries.append((a,) + entries[i])
    return vectors, ids, entries


def count_genera(order: OrderSpec) -> int:
    total = 1
    for label, f in order.invariants:
        m_v = sum(f)
        total *= comb(m_v + len(f) - 1, len(f) - 1)
    return total


@dataclass(frozen=True)
class GenusAxis:
    """The genus vectors of one non-maximal place and their reductions.

    `reduced` holds the distinct normalised `genus_reduce` results in order
    of first appearance, and `picks[i]` indexes the reduction of
    `vectors[i]` in it.
    """

    label: str
    vectors: tuple[tuple[int, ...], ...]
    reduced: tuple[tuple[int, ...], ...]
    picks: tuple[int, ...]


def genus_axes(order: OrderSpec) -> tuple[GenusAxis, ...]:
    """One axis per non-maximal place, labels sorted; a genus picks one
    vector from every axis, so the genera are the product of the axes.
    """
    axes = []
    for label, f in order.invariants:
        vectors, ids, entries = _genus_vectors(sum(f), len(f))
        # Many vectors share their non-zero entries, so each distinct tuple
        # of them is reduced and normalised once.
        index: dict[tuple[int, ...], int] = {}
        pick_of: dict[int, int] = {}
        for i in dict.fromkeys(ids):
            pick_of[i] = index.setdefault(
                normalize_invariant(genus_reduce(entries[i])), len(index))
        axes.append(GenusAxis(label, tuple(vectors), tuple(index),
                              tuple(map(pick_of.__getitem__, ids))))
    return tuple(axes)
