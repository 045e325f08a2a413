"""Local index sets of optimal embedding data.

For a place v, an invariant vector f_v and a level s, the index set
collects tuples (f_{w,(i,j)}) of non-negative integers, one r x t matrix per
place w of L_s above v, whose scaled row sums recover the capacity above w
and whose column sums recover f_v.  It depends only on `local_shape`, how v
splits in L_s = K F_{q^s}.  The walk is the reference for the local theta
factors; the transfer check counts the set by its strips instead.
"""

from __future__ import annotations

from collections import Counter
from operator import eq

from .algebra import Place, splitting_data
from .errors import DEFAULT_BUDGET, BudgetExceededError, ValidationError
from .orders import normalize_invariant


def local_shape(place: Place, f_vec, s: int):
    """(l, t, m_s, targets) at v in L_s: l places w above v, the capacity
    gain t, the capacity m_s above each w, and the column targets f_{v,i} /
    (s / (l t)), None when one is not whole, that is, the set is empty."""
    f = tuple(f_vec)
    if s < 1:
        raise ValidationError("s must be positive")
    if any(e < 0 for e in f):
        raise ValidationError(
            "invariant vector entries must be non-negative")
    m_v = sum(f)
    if m_v < 1:
        raise ValidationError("invariant vector must have positive sum")
    l, t = splitting_data(place, s)
    if (m_v * t) % s != 0:
        raise ValidationError(
            f"s = {s} incompatible with capacity {m_v} at {place.label!r}")
    scale = s // (l * t)
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
                 budget: int = DEFAULT_BUDGET) -> Counter:
    """Count the local index set by the normalised strips of its elements.

    The strip of a long vector is its non-zero entries, normalised.  A key
    is the sorted tuple of the strips of one element, one per place w above
    v, and its count is the number of elements with those strips.  The
    places w share their degree and local index, so the class number of the
    derived order an element cuts out depends only on this key.

    The set is not walked: the r*t slots are filled in the column-major
    order of `enumerate_omega`, each for every place w at once.  A state is
    the sorted (strip prefix, room left) pairs of the places w and the
    budget left in each column; equal states merge and their counts add.
    Places with equal pairs are interchangeable, so a slot gives them
    non-decreasing entries and counts each choice once per ordering.  The
    rooms and the budgets left have the same sum, and a column's last slot
    places its whole budget, so every state completes to elements.  Raises
    BudgetExceededError, naming the `transfer` layer it serves, once the
    entries placed, one place w at a time, exceed `budget`.
    """
    l, t, m_s, targets = local_shape(place, f_vec, s)
    if targets is None:
        return Counter()
    r = len(targets)
    placed = 0

    def spend(n: int) -> None:
        nonlocal placed
        placed += n
        if placed > budget:
            raise BudgetExceededError(
                f"transfer: place {place.label!r}, s = {s}: "
                f"strip states exceed budget of {budget}")

    states = {((((), m_s),) * l, targets): 1}
    splits: dict[tuple, list[tuple[tuple[int, ...], int]]] = {}
    for pos in range(r * t):
        i = pos % r
        last = pos // r == t - 1
        merged: dict[tuple, int] = {}
        for (pairs, budgets), count in states.items():
            b = budgets[i]
            # Places with equal pairs are adjacent, since pairs are sorted.
            runs = (False, *map(eq, pairs[1:], pairs))
            key = (tuple(room for _, room in pairs), runs, b, last)
            if key not in splits:
                splits[key] = _slot_entries(key, spend)
            spend(len(splits[key]))
            for entries, orderings in splits[key]:
                nxt = (tuple(sorted(
                           (strip + (e,), room - e) if e else (strip, room)
                           for (strip, room), e in zip(pairs, entries))),
                       budgets[:i] + (b - sum(entries),) + budgets[i + 1:])
                merged[nxt] = merged.get(nxt, 0) + count * orderings
        states = merged
    counts: Counter = Counter()
    for (pairs, _), count in states.items():
        counts[tuple(sorted(normalize_invariant(strip)
                            for strip, _ in pairs))] += count
    return counts


def _slot_entries(key, spend) -> list[tuple[tuple[int, ...], int]]:
    """Entries of one slot for every place w, with their number of orderings.

    `key` is (rooms, runs, b, last): each place's room, whether its pair
    equals the previous place's, the column's budget left, and whether the
    slot must place all of it.  Within a run of equal places the entries
    are non-decreasing; each choice comes with the number of its distinct
    orderings.  The entries tried at each place are passed to `spend`
    before they are placed, and each bound below is exact, so every entry
    tried completes to a choice.
    """
    rooms, runs, b, last = key
    l = len(rooms)
    # Position of each place in its run, the places after it in the run,
    # and the rooms of the places after that run.
    j = [1] * l
    rest = [0] * l
    later = [0] * l
    for k in range(1, l):
        if runs[k]:
            j[k] = j[k - 1] + 1
    for k in range(l - 2, -1, -1):
        if runs[k + 1]:
            rest[k], later[k] = rest[k + 1] + 1, later[k + 1]
        else:
            later[k] = later[k + 1] + rooms[k + 1] * (rest[k + 1] + 1)
    # Partial choices: entries so far, their orderings, and the number of
    # equal entries that end them.
    ways = [((), 1, 0)]
    for k in range(l):
        grown = []
        for entries, orderings, streak in ways:
            left = b - sum(entries)
            low = entries[-1] if runs[k] else 0
            hi = min(rooms[k], left // (rest[k] + 1))
            if last:
                low = max(low, left - later[k] - rest[k] * rooms[k])
            spend(hi + 1 - low)
            for e in range(low, hi + 1):
                m = streak + 1 if runs[k] and e == entries[-1] else 1
                grown.append((entries + (e,), orderings * j[k] // m, m))
        ways = grown
    return [(entries, orderings) for entries, orderings, _ in ways]
