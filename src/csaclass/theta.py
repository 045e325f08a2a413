"""Local theta factors and index set sizes: one integer sum, walked over
the rows or the columns of the local matrices.

A theta factor sums, over the local index set, the product of the slice
unit indices.  Each slice term is a Gaussian multinomial, so the weight of
one slice depends only on its column counts N (one per entry of f_v) and
factorises as [m_s; N]_Q * prod_i g_t(N_i), where g_t(N) sums the Gaussian
multinomials [N; e]_Q over the t-way splits e of N.  `_local_sum` sums over
l x r matrices with row sums m_s (one row per place w above v) and the
scaled targets as column sums (one column per part of f_v).  A row's weight
comes from one table, `_weights(Q, m_s, t)`: N of the `left` unplaced
entries put in the next column contribute [left; N]_Q * g_t(N), whose
product over a row telescopes to the slice weight.  `theta` takes the
table at the residue field size Q, `omega_size` at q = 0, where Q = 0,
every Gaussian binomial is 1 and the weights count the index set without
walking it.  An empty set, read off `local_shape`, is 0 before any power of
q is formed, and a set of one matrix, at t = 1 with at most one non-zero
target, is 1.

With one place w above v (l = 1, as at s = 1 and at every place of degree
1) the one row is the whole sum: [m_s; N]_Q * prod_i g_t(N_i) at once, the
Gaussian multinomial from `local_unit_index` (1 at Q = 0) times, for t > 1,
the diagonal g_t of a table up to max N.  It builds no table at t = 1, nor
when every N is 0 or 1, where g_t(N) is 1 or t.

Otherwise `omega._walk`, the walk `strip_counts` also takes, goes over the
lines of one side, merging the partial sums that leave the same sorted
capacities on the other; the weight is symmetric in each side's lines, so
sorting loses nothing.  Each line but the last is a slot, a split of its
amount over the capacities left, lines of equal capacity given one choice
per multiset and its number of orderings, and `take` multiplies its cells;
the last line takes every capacity left whole.  The rows walk the l amounts
m_s over the sorted column budgets.  The columns walk the sorted targets b
over the l rooms m_s: the row weights' product is [m_s]!_Q^l / prod_b
[b]!_Q times, per column, the telescoped product of cell[left][N_w] from
left = b, so theta = [m_s]!_Q^l * S / prod_b [b]!_Q for the column sum S
(S itself at Q = 0).  `_by_columns` picks the columns, before either walk
runs, where they take fewer steps (r < l) or the rows have no equal budgets
to merge (more than l distinct targets), and only if their states (the
sorted rooms, C(l + m_s, l)) are no more than the rows' (the sorted budgets,
prod of C(b + k, k) over each target b met k times): f = (100, 140) over
twelve places takes milliseconds on rows and seconds on columns.

All of it is integer arithmetic.  Each placement, one choice of a whole
row's split over the columns or of a whole column's split over the rows,
counts against a work budget once per state that takes it, the forced last
line not, and the refusal names "row placements" or "column placements".
This is the one theta engine: `selfcheck` checks it against the strip
counts of `omega.strip_counts`, and the tests against a walk of the set
and against the column form.
"""

from __future__ import annotations

from math import comb, prod
from operator import sub

from .algebra import Place, shape_above
from .errors import DEFAULT_BUDGET, over_budget
from .omega import _walk, local_shape
from .orders import local_unit_index, q_factorial


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


def _by_columns(l: int, m: int, cols: tuple[int, ...]) -> bool:
    """Whether to walk the r sorted non-zero targets `cols` over l rooms of
    m rather than l rows of m over them: where r < l or more than l targets
    are distinct, and the sorted rooms are no more than the sorted budgets."""
    if len(cols) >= l and len(set(cols)) <= l:
        return False
    # C(b + k, k) for k equal targets b, one factor (b + k) / k at a time:
    # each partial product is a whole number.
    budgets = k = 1
    for i, b in enumerate(cols):
        k = k + 1 if i and b == cols[i - 1] else 1
        budgets = budgets * (b + k) // k
    return comb(l + m, l) <= budgets


def _local_sum(layer: str, place: Place, f_vec, s: int, q: int,
               budget: int) -> int:
    """Sum of prod_i cell[left][N_i], cell = _weights(Q, m_s, t), over the
    rows (places w above v) of each matrix, 0 for an empty set and 1 for
    a set of one matrix (t = 1, at most one non-zero target); raises
    BudgetExceededError, naming `layer`, past `budget` placements of the
    side walked.  At l = 1 the one row is forced and counts no placement:
    its weight is read without the (m_s + 1)^2 table."""
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
    cols = tuple(sorted(filter(None, targets)))
    columns = _by_columns(l, m, cols)
    unit = "column placements" if columns else "row placements"
    # Rows split m_s over the column budgets left, columns a target over the
    # rooms left in the rows; each line's cells telescope from its amount.
    caps, amounts = ((m,) * l, cols) if columns else (cols, (m,) * l)
    *walked, last = amounts
    cell = _weights(Q, last, t)

    def take(caps, entries, left):
        term = 1
        for e in entries:
            if e:  # cell[left][0] is 1
                term *= cell[left][e]
                left -= e
        key = sorted(map(sub, caps, entries))
        return tuple(key[key.count(0):]), term

    states = _walk(caps, [(a, True) for a in walked], lambda caps: caps,
                   take, budget,
                   lambda: over_budget(layer, place, s, unit, budget))
    # The capacities left sum to the last amount: it takes each one whole.
    total = 0
    for (caps, _), weight in states.items():
        left = last
        for c in caps:
            weight *= cell[left][c]
            left -= c
        total += weight
    if not (columns and Q):
        return total
    return (q_factorial(Q, m) ** l * total
            // prod(q_factorial(Q, b) for b in cols))


def theta(place: Place, f_vec, s: int, q: int, *,
          budget: int = DEFAULT_BUDGET) -> int:
    """Theta factor at v for level s, summed one row (place w above v) or
    one column (part of f_v) at a time, on the side its shape picks.

    Raises BudgetExceededError once the row or column placements tried
    exceed `budget`.
    """
    return _local_sum("theta", place, f_vec, s, q, budget)


def omega_size(place: Place, f_vec, s: int, *,
               budget: int = DEFAULT_BUDGET) -> int:
    """Size of the local index set: the sum of `theta` at Q = 0.

    Raises BudgetExceededError once the row or column placements tried
    exceed `budget`.
    """
    return _local_sum("omega", place, f_vec, s, 0, budget)
