"""Local index sets of optimal embedding data.

For a place v, an invariant vector f_v and a level s, the index set
collects tuples (f_{w,(i,j)}) of non-negative integers, one r x t matrix per
place w of L_s above v, whose scaled row sums recover the capacity above w
and whose column sums recover f_v.  These tuples drive both the local theta
factors and the transfer recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Place, splitting_data
from .errors import ValidationError


@dataclass(frozen=True)
class LocalContext:
    """Derived constants for one (place, f_vec, s) triple."""

    place: Place
    f_vec: tuple[int, ...]
    s: int
    l: int            # places of L_s above v
    t: int            # capacity gain of the local division algebra
    scale: int        # s / (l * t); must divide every f_{v,i} for non-emptiness
    m_s: int          # capacity above each w: m_v * t / s
    d_new: int        # local index above w: d_v / t

    @classmethod
    def create(cls, place: Place, f_vec, s: int) -> "LocalContext":
        f = tuple(f_vec)
        if s < 1:
            raise ValidationError("s must be positive")
        m_v = sum(f)
        if place.local_index > 0 and m_v < 1:
            raise ValidationError("invariant vector must have positive sum")
        l, t = splitting_data(place, s)
        scale = s // (l * t)
        if (m_v * t) % s != 0:
            raise ValidationError(
                f"s = {s} incompatible with capacity {m_v} at {place.label!r}")
        return cls(place, f, s, l, t, scale, m_v * t // s, place.local_index // t)

    def scaled_targets(self) -> tuple[int, ...] | None:
        """Column targets f_{v,i}^{(s)}, or None when the set is empty."""
        if any(f_i % self.scale != 0 for f_i in self.f_vec):
            return None
        return tuple(f_i // self.scale for f_i in self.f_vec)


def _slices(m_s: int, r: int, t: int, column_budget):
    """Long vectors of length r*t summing to m_s, respecting column budgets.

    Slot pos holds entry (i = pos % r, j = pos // r), matching the
    column-major flattening.  Yields vectors in ascending lexicographic
    order; budgets are tracked on a private copy.
    """
    slots = r * t
    vec = [0] * slots
    budget = list(column_budget)
    # Columns of the slots after pos; r consecutive slots cover every column.
    later = [tuple({p % r for p in range(pos + 1, min(slots, pos + 1 + r))})
             for pos in range(slots)]

    def rec(pos: int, left: int):
        if pos == slots:
            if left == 0:
                yield tuple(vec)
            return
        i = pos % r
        # Lower bound from what later slots can still absorb: each column
        # contributes at most its remaining budget.
        tail_cap = sum(budget[c] for c in later[pos])
        lo = max(0, left - tail_cap)
        hi = min(left, budget[i])
        for e in range(lo, hi + 1):
            vec[pos] = e
            budget[i] -= e
            yield from rec(pos + 1, left - e)
            budget[i] += e
        vec[pos] = 0

    yield from rec(0, m_s)


def enumerate_omega(place: Place, f_vec, s: int):
    """Stream the local index set in deterministic lexicographic order.

    Each element is the tuple of its long vectors, one per place w above v.
    Entry order within each vector follows the column-major flattening
    (f_{w,(1,1)},...,f_{w,(r,1)},f_{w,(1,2)},...,f_{w,(r,t)}).
    """
    ctx = LocalContext.create(place, f_vec, s)
    targets = ctx.scaled_targets()
    if targets is None:
        return
    r = len(ctx.f_vec)
    remaining = list(targets)

    def rec(w: int, acc: list[tuple[int, ...]]):
        if w == ctx.l:
            if all(b == 0 for b in remaining):
                yield tuple(acc)
            return
        for slice_vec in _slices(ctx.m_s, r, ctx.t, remaining):
            consumed = [0] * r
            for pos, e in enumerate(slice_vec):
                consumed[pos % r] += e
            for i in range(r):
                remaining[i] -= consumed[i]
            acc.append(slice_vec)
            yield from rec(w + 1, acc)
            acc.pop()
            for i in range(r):
                remaining[i] += consumed[i]

    yield from rec(0, [])


def flatten_strip(slice_vec) -> tuple[int, ...]:
    """Long vector of one slice with zero entries removed."""
    stripped = tuple(e for e in slice_vec if e != 0)
    if not stripped:
        raise ValidationError("slice is all zero")
    return stripped
