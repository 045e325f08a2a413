"""Local theta factors and index set sizes: one row-by-row integer sum.

A theta factor sums, over the local index set, the product of the slice
unit indices.  Each slice term is a Gaussian multinomial, so the weight of
one slice depends only on its column counts N (one per entry of f_v) and
factorises as [m_s; N]_Q * prod_i g_t(N_i), where g_t(N) sums the Gaussian
multinomials [N; e]_Q over the t-way splits e of N.  `_row_sum` sums over
l x r matrices with row sums m_s and the scaled targets as column sums, one
row at a time, merging the partial sums that leave the same sorted column
budgets; the row weight is symmetric in the columns, so sorting loses
nothing.  A row's weight comes from one table, `_weights(Q, m_s, t)`: N of
the `left` unplaced entries put in the next column contribute
[left; N]_Q * g_t(N), whose product over a row telescopes to the slice
weight.  `theta` takes the table at the residue field size Q, `omega_size`
at q = 0, where Q = 0, every Gaussian binomial is 1 and the weights count
the index set without walking it.  An empty set, read off `local_shape`, is
0 before any power of q is formed, and a set of one matrix, at t = 1 with
at most one non-zero target, is 1.

Each row is a split of m_s over the columns from `omega._slot_entries`,
the step that splits a column's budget over the places w in `strip_counts`;
here the column budgets left are its rooms.  The same symmetry lets it give
columns of equal budget non-decreasing entries, one choice per multiset
weighted by its number of orderings.  When the budgets sum to m_s, one row
is left and it must take every budget whole, so its weight is a single
product.  With one place w above v (l = 1, as at s = 1 and at every place of
degree 1) that row is the whole sum: `_row_sum` returns [m_s; N]_Q * prod_i
g_t(N_i) at once, the Gaussian multinomial from `local_unit_index` (1 at
Q = 0) times, for t > 1, the diagonal g_t of a table up to max N.  It
builds no table at t = 1, nor when every N is 0 or 1, where g_t(N) is 1
or t.  All of it is integer arithmetic.  Each row placement tried, one
choice of a whole row, counts against a work budget; the forced last row
does not.  This is the one theta engine: `selfcheck` checks it against the
strip counts of `omega.strip_counts`, and the tests against a walk of the
set.
"""

from __future__ import annotations

from operator import eq

from .algebra import Place, shape_above
from .errors import DEFAULT_BUDGET, over_budget
from .omega import _slot_entries, local_shape
from .orders import local_unit_index


def residue_power(place: Place, s: int, q: int) -> int:
    """Q = (q^s)^(deg w d_w): the residue field of the division part of D
    at a place w above v, from `shape_above`."""
    _, degree, local_index = shape_above(place, s)
    return (q ** s) ** (degree * local_index)


def _weights(Q: int, m: int, t: int) -> list[list[int]]:
    """The row weights cell[left][N] = [left; N]_Q * g_t(N), N <= left <= m.
    At Q = 0 every Gaussian binomial [a; b]_0 is 1, so cell[left][N] is
    C(N + t - 1, t - 1), the number of t-way splits of N."""
    # binom[a][b] = [a]_Q! / ([b]_Q! [a-b]_Q!) with [k]_Q! = prod_{j<=k}
    # (Q^j - 1), by the Q-Pascal rule [a; b] = [a-1; b-1] + Q^b [a-1; b].
    power = [Q ** b for b in range(m + 1)]
    binom = [[1]]
    for a in range(1, m + 1):
        above = binom[-1]
        binom.append([1, *(above[b - 1] + power[b] * above[b]
                           for b in range(1, a)), 1])
    if t == 1:  # g is 1 throughout
        return binom
    # g[N] sums [N; e]_Q over the t-way splits e of N, one part at a time.
    g = [1] * (m + 1)
    for _ in range(t - 1):
        g = [sum(binom[N][k] * g[N - k] for k in range(N + 1))
             for N in range(m + 1)]
    # Choosing N of the `left` unplaced row entries for the next column
    # contributes binom[left][N] * g[N]; over a row these give the weight.
    return [[binom[left][N] * g[N] for N in range(left + 1)]
            for left in range(m + 1)]


def _row_sum(layer: str, place: Place, f_vec, s: int, q: int,
             budget: int) -> int:
    """Sum of prod_i cell[left][N_i], cell = _weights(Q, m_s, t), over the
    rows (places w above v) of each matrix, 0 for an empty set and 1 for
    a set of one matrix (t = 1, at most one non-zero target); raises
    BudgetExceededError, naming `layer`, past `budget` row placements.

    At l = 1 the one row is forced and counts no placement: its weight is
    the slice weight [m_s; N]_Q * prod_i g_t(N_i) of the targets N, read
    without the (m_s + 1)^2 table.  Otherwise the first l - 1 rows are
    walked forward, each distinct state's rows charged as they are built,
    and the forced last row closes each state."""
    l, t, m, targets = local_shape(place, f_vec, s)
    if targets is None:
        return 0
    if t == 1 and len(targets) - targets.count(0) <= 1:
        # Each row takes its whole m_s from the one column: one matrix, and
        # l - 1 row placements before the forced last row.
        if l - 1 > budget:
            raise over_budget(layer, place, s, "row placements", budget)
        return 1
    Q = residue_power(place, s, q)
    if l == 1:
        # At Q = 0 every Gaussian binomial is 1; cell[b][b] is g_t(b).
        weight = local_unit_index(Q, 1, targets) if Q else 1
        if t > 1:
            top = max(targets)
            if top <= 1:  # g_t(0) = 1 and g_t(1) = t
                return weight * t ** targets.count(1)
            cell = _weights(Q, top, t)
            for b in targets:
                weight *= cell[b][b]
        return weight
    cell = _weights(Q, m, t)
    placements = 0

    def check(_: int, ways: int) -> None:
        if placements + ways > budget:
            raise over_budget(layer, place, s, "row placements", budget)

    # A state maps the sorted non-zero column budgets left to its weight.
    states = {tuple(sorted(b for b in targets if b)): 1}
    for _ in range(l - 1):
        merged: dict[tuple[int, ...], int] = {}
        for cols, weight in states.items():
            runs = (False, *map(eq, cols[1:], cols))
            rows = _slot_entries((cols, runs, m, True), check)
            placements += len(rows)
            for entries, orderings in rows:
                term, left = weight * orderings, m
                for e in entries:
                    term *= cell[left][e]
                    left -= e
                key = tuple(sorted(b - e for b, e in zip(cols, entries)
                                   if b > e))
                merged[key] = merged.get(key, 0) + term
        states = merged
    # The budgets left sum to m: the last row takes each of them whole.
    total = 0
    for cols, weight in states.items():
        left = m
        for b in cols:
            weight *= cell[left][b]
            left -= b
        total += weight
    return total


def theta(place: Place, f_vec, s: int, q: int, *,
          budget: int = DEFAULT_BUDGET) -> int:
    """Theta factor at v for level s, summed one row (place w above v) at a time.

    Raises BudgetExceededError once the row placements tried exceed `budget`.
    """
    return _row_sum("theta", place, f_vec, s, q, budget)


def omega_size(place: Place, f_vec, s: int, *,
               budget: int = DEFAULT_BUDGET) -> int:
    """Size of the local index set: the row sum of `theta` at Q = 0.

    Raises BudgetExceededError once the row placements tried exceed `budget`.
    """
    return _row_sum("omega", place, f_vec, s, 0, budget)
