"""Local index sets of optimal embedding data.

For a place v, an invariant vector f_v and a level s, the index set
collects tuples (f_{w,(i,j)}) of non-negative integers, one r x t matrix per
place w of L_s above v, whose scaled row sums recover the capacity above w
and whose column sums recover f_v.  It depends only on `local_shape`, how v
splits in L_s = K F_{q^s}.  `enumerate_omega` walks the set, for `omega
--list` and as the tests' oracle; `strip_counts` counts it by its strips
without walking it, for the transfer check and for `selfcheck`'s check of
the theta factors.  It counts them on `_walk`, the dynamic program over
slots that `theta` and `omega_size` also take.
"""

from __future__ import annotations

from collections import Counter
from operator import eq

from .algebra import Place, shape_above
from .errors import DEFAULT_BUDGET, ValidationError, over_budget


def local_shape(place: Place, f_vec, s: int):
    """(l, t, m_s, targets) at v in L_s: the l places w of `shape_above`,
    the gain t = d_v / d_w, the capacity m_s above each w, and the column
    targets f_{v,i} / (s / (l t)), None when one is not whole (empty set)."""
    f = tuple(f_vec)
    if s < 1:
        raise ValidationError("s must be positive")
    if f and min(f) < 0:
        raise ValidationError(
            "invariant vector entries must be non-negative")
    m_v = sum(f)
    if m_v < 1:
        raise ValidationError("invariant vector must have positive sum")
    l, _, d_w = shape_above(place, s)
    t = place.local_index // d_w
    if (m_v * t) % s != 0:
        raise ValidationError(
            f"s = {s} incompatible with capacity {m_v} at {place.label!r}")
    scale = s // (l * t)
    if scale == 1:
        return l, t, m_v * t // s, f
    if any(e % scale for e in f):
        return l, t, m_v * t // s, None
    return l, t, m_v * t // s, tuple(e // scale for e in f)


def enumerate_omega(place: Place, f_vec, s: int):
    """Stream the local index set in deterministic lexicographic order.

    Each element is the tuple of its long vectors, one per place w above v.
    Entry order within each vector follows the column-major flattening
    (f_{w,(1,1)},...,f_{w,(r,1)},f_{w,(1,2)},...,f_{w,(r,t)}).  One
    recursion fills the l*r*t slots in that order: each long vector sums to
    m_s, and each column i to its scaled target over all of them.
    """
    l, t, m_s, targets = local_shape(place, f_vec, s)
    if targets is None:
        return
    r = len(targets)
    width = r * t
    slots = l * width
    vec = [0] * slots
    budget = list(targets)
    # Columns of the later slots of a vector: r slots cover every column.
    later = [tuple({p % r for p in range(k + 1, min(width, k + 1 + r))})
             for k in range(width)]

    def rec(pos: int, left: int):
        k = pos % width
        if k == 0:  # a long vector ends here, or the first one starts
            if left or pos == slots:
                if not (left or any(budget)):
                    yield tuple(tuple(vec[w:w + width])
                                for w in range(0, slots, width))
                return
            left = m_s
        i = k % r
        # No less than the later slots of the vector can still absorb.
        lo = max(0, left - sum(budget[c] for c in later[k]))
        for e in range(lo, min(left, budget[i]) + 1):
            vec[pos] = e
            budget[i] -= e
            yield from rec(pos + 1, left - e)
            budget[i] += e
        vec[pos] = 0

    yield from rec(0, 0)


def strip_counts(place: Place, f_vec, s: int, *,
                 budget: int = DEFAULT_BUDGET,
                 layer: str = "transfer") -> Counter:
    """Count the local index set by the multisets of its elements' strips.

    The strip of a long vector is its non-zero entries, sorted.  A key is
    the sorted tuple of the strips of one element, one per place w above v,
    and its count is the number of elements with those strips.  The places
    w share their degree and local index, and theta reads a vector only as
    the multiset of its non-zero parts, so the class number of the derived
    order an element cuts out depends only on this key.

    The set is not walked: `_walk` fills each column's t slots in turn, for
    every place w at once, over the places' sorted strips, each with room
    m_s minus its sum.  A column's last slot places all its target, so
    every state completes to elements.  Raises BudgetExceededError, naming
    the caller's `layer`, once the splits the walk builds exceed `budget`.
    """
    l, t, m_s, targets = local_shape(place, f_vec, s)
    if targets is None:
        return Counter()

    def take(strips, entries, _):
        return tuple(sorted(tuple(sorted((*strip, e))) if e else strip
                            for strip, e in zip(strips, entries))), 1

    slots = [(None if j else b, j == t - 1) for b in targets for j in range(t)]
    states = _walk(((),) * l, slots,
                   lambda strips: tuple(m_s - sum(x) for x in strips), take,
                   budget, lambda: over_budget(layer, place, s,
                                               "strip states", budget))
    # Every room ends at 0, so distinct states have distinct strips.
    return Counter({strips: count for (strips, _), count in states.items()})


def _walk(items: tuple, slots, rooms, take, budget: int, refuse) -> dict:
    """The states {(items, budget left): weight} after every slot, from
    `items` at weight 1: the one walk of `theta`, `omega_size` and
    `strip_counts`.  A slot (amount, last) splits its amount, or the budget
    left if amount is None, over the sorted items' `rooms(items)` by
    `_slot_entries`, placing all of it if `last`; `take(items, entries, b)`
    gives the next items and the split's factor, and equal states merge.
    A split reads a room only up to b, so one list serves each (rooms
    clamped to b, runs, b, last).  Every split a state takes counts once
    against `budget`, built or reused; past it, also while a list grows,
    the walk raises `refuse()`.
    """
    tried = 0

    def spend(ways: int) -> None:
        if tried + ways > budget:
            raise refuse()

    splits: dict[tuple, list[tuple[tuple[int, ...], int]]] = {}
    states = {(items, 0): 1}
    for amount, last in slots:
        merged: dict[tuple, int] = {}
        for (items, b), weight in states.items():
            if amount is not None:
                b = amount
            room = rooms(items)
            if max(room) > b:
                room = tuple([r if r < b else b for r in room])
            # Equal items are adjacent, since items are sorted.
            key = (room, (False, *map(eq, items[1:], items)), b, last)
            split = splits.get(key)
            if split is None:
                split = splits[key] = _slot_entries(key, spend)
            spend(len(split))
            tried += len(split)
            for entries, orderings in split:
                nxt, factor = take(items, entries, b)
                state = (nxt, 0 if last else b - sum(entries))
                if orderings > 1:
                    factor *= orderings
                merged[state] = merged.get(state, 0) + factor * weight
        states = merged
    return states


def _slot_entries(key, spend) -> list[tuple[tuple[int, ...], int]]:
    """Entries of one slot for every item, with their number of orderings.

    `key` is (rooms, runs, b, last): each item's room, whether it equals
    the item before it, the budget b to split, and whether the items must
    take all of it.  Within a run of equal items the entries are
    non-decreasing; each choice comes with the number of its distinct
    orderings.  `_walk` is the one caller.  As each partial choice is
    extended, `spend` gets the number of partial choices at this item so
    far, so the walk can refuse a list while it grows.  Each bound below is
    exact, so every entry tried completes to a choice, no item's partial
    choices outnumber the choices, and a room past b reads as b.
    """
    rooms, runs, b, last = key
    l = len(rooms)
    # Position of each item in its run, the items from it to the end of
    # its run, and the rooms after it (items in a run have equal rooms).
    j = [1] * l
    share = [1] * l
    after = [0] * l
    for k in range(1, l):
        if runs[k]:
            j[k] = j[k - 1] + 1
    for k in range(l - 2, -1, -1):
        after[k] = after[k + 1] + rooms[k + 1]
        if runs[k + 1]:
            share[k] = share[k + 1] + 1
    # Partial choices: entries so far, their orderings, the number of equal
    # entries that end them, and the budget left.
    ways = [((), 1, 0, b)]
    for k in range(l):
        grown = []
        add = grown.append
        run, room, split, j_k = runs[k], rooms[k], share[k], j[k]
        # A last slot's items after this one absorb at most `rest`; any
        # other slot may leave its whole budget.
        rest = after[k] if last else b
        for entries, orderings, streak, left in ways:
            hi = left // split
            if hi > room:
                hi = room
            low = left - rest
            if run:
                prev = entries[-1]
                if low < prev:
                    low = prev
                for e in range(low, hi + 1):
                    m = streak + 1 if e == prev else 1
                    add((entries + (e,), orderings * j_k // m, m, left - e))
            else:
                if low < 0:
                    low = 0
                for e in range(low, hi + 1):
                    add((entries + (e,), orderings, 1, left - e))
            spend(len(grown))
        ways = grown
    return [(entries, orderings) for entries, orderings, _, _ in ways]
