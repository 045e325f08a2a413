"""Local theta factors and index set sizes: one row-by-row integer sum.

A theta factor sums, over the local index set, the product of the slice
unit indices.  Each slice term is a Gaussian multinomial, so the weight of
one slice depends only on its column counts N (one per entry of f_v) and
factorises as [m_s; N]_Q * prod_i g_t(N_i), where g_t(N) sums the Gaussian
multinomials [N; e]_Q over the t-way splits e of N.  `_row_sum` sums over
l x r matrices with row sums m_s and the scaled targets as column sums, one
row at a time, memoised on the sorted remaining column budgets; the row
weight is symmetric in the columns, so sorting loses nothing.  A row's
weight comes from one table, `_weights(Q, m_s, t)`: N of the `left` unplaced
entries put in the next column contribute [left; N]_Q * g_t(N), whose product
over a row telescopes to the slice weight.  `theta` takes the table at the
residue field size Q, `omega_size` at q = 0, where Q = 0, every Gaussian
binomial is 1 and the weights count the index set without walking it.  An
empty set, read off `local_shape`, is 0 before any power of q is formed,
and a set of one matrix, at t = 1 with at most one non-zero target, is 1.

The same symmetry lets a row treat the k columns of equal budget b as one
group: it chooses how many of them take N entries, for N = b down to 0,
and counts the ways with the multinomial k! / prod c_N!, instead of giving
each column its N in turn.  When the budgets sum to m_s, one row is left
and it must take every budget whole, so its weight is a single product.
With one place w above v (l = 1, as at s = 1 and at every place of degree
1) that row is the whole sum: `_row_sum` returns [m_s; N]_Q * prod_i
g_t(N_i) at once, the Gaussian multinomial from `local_unit_index` (1 at
Q = 0) times, for t > 1, the diagonal g_t of a table up to max N, and
builds no table at t = 1.  All of it is integer arithmetic.  Each row
placement tried, one choice of a whole row, counts against a work budget;
the forced last row does not.
`theta_enum` walks the index set itself and serves as the reference the
tests compare against.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from math import comb

from .algebra import Place, splitting_data
from .errors import DEFAULT_BUDGET, BudgetExceededError
from .omega import enumerate_omega, local_shape
from .orders import local_unit_index


def residue_power(place: Place, s: int, q: int) -> int:
    """Cardinality of the residue field of the division part above w."""
    l, t = splitting_data(place, s)
    return q ** (place.degree * (place.local_index // t) * s // l)


def theta_enum(place: Place, f_vec, s: int, q: int) -> int:
    """Sum over the local index set of the product of slice unit indices."""
    if local_shape(place, f_vec, s)[3] is None:
        return 0
    Q = residue_power(place, s, q)
    total = 0
    for elem in enumerate_omega(place, f_vec, s):
        term = 1
        for slice_vec in elem:
            term *= local_unit_index(Q, 1, slice_vec)
        total += term
    return total


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
    # g[N] sums [N; e]_Q over the t-way splits e of N, one part at a time.
    g = [1] * (m + 1)
    for _ in range(t - 1):
        g = [sum(binom[N][k] * g[N - k] for k in range(N + 1))
             for N in range(m + 1)]
    # Choosing N of the `left` unplaced row entries for the next column
    # contributes binom[left][N] * g[N]; over a row these give the weight.
    return [[binom[left][N] * g[N] for N in range(left + 1)]
            for left in range(m + 1)]


def _over_budget(layer: str, place: Place, s: int,
                 budget: int) -> BudgetExceededError:
    return BudgetExceededError(f"{layer}: place {place.label!r}, s = {s}: "
                               f"row placements exceed budget of {budget}")


def _row_sum(layer: str, place: Place, f_vec, s: int, q: int,
             budget: int) -> int:
    """Sum of prod_i cell[left][N_i], cell = _weights(Q, m_s, t), over the
    rows (places w above v) of each matrix, 0 for an empty set and 1 for
    a set of one matrix (t = 1, at most one non-zero target); raises
    BudgetExceededError, naming `layer`, past `budget` row placements.

    At l = 1 the one row is forced and counts no placement: its weight is
    the slice weight [m_s; N]_Q * prod_i g_t(N_i) of the targets N, read
    without the (m_s + 1)^2 table."""
    l, t, m, targets = local_shape(place, f_vec, s)
    if targets is None:
        return 0
    if t == 1 and len(targets) - targets.count(0) <= 1:
        # Each row takes its whole m_s from the one column: one matrix, and
        # l - 1 row placements before the forced last row.
        if l - 1 > budget:
            raise _over_budget(layer, place, s, budget)
        return 1
    Q = residue_power(place, s, q)
    if l == 1:
        # At Q = 0 every Gaussian binomial is 1; cell[b][b] is g_t(b).
        weight = local_unit_index(Q, 1, targets) if Q else 1
        if t > 1:
            cell = _weights(Q, max(targets), t)
            for b in targets:
                weight *= cell[b][b]
        return weight
    cell = _weights(Q, m, t)
    memo: dict[tuple[int, ...], int] = {}
    placements = 0

    def rows_below(cols: tuple[int, ...]) -> int:
        """Sum over the remaining rows, given sorted non-zero column budgets."""
        if sum(cols) == m:
            # One row is left, and it must take every column's whole budget.
            weight, left = 1, m
            for b in cols:
                weight *= cell[left][b]
                left -= b
            return weight
        if cols in memo:
            return memo[cols]
        groups = [(b, len(list(run))) for b, run in groupby(cols)]
        # Group j is cols[ends[j] - k_j:ends[j]]; room[j] is what groups j,
        # j+1, ... can take in one row together.
        ends = list(accumulate(k for _, k in groups))
        room = [0] * (len(groups) + 1)
        for j in range(len(groups) - 1, -1, -1):
            room[j] = room[j + 1] + groups[j][0] * groups[j][1]
        total = 0

        def place_row(j: int, k: int, N: int, left: int, weight: int,
                      rest: tuple[int, ...]) -> None:
            """Place `left` entries: k columns of group j are open, and each
            takes at most N; every later group is open in full.  `rest` holds
            the non-zero budgets the decided columns leave to later rows."""
            nonlocal total, placements
            if left == 0:
                placements += 1
                if placements > budget:
                    raise _over_budget(layer, place, s, budget)
                # The open columns keep their budgets: the last k of group
                # j and every column after it.
                key = tuple(sorted(rest + cols[ends[j] - k:]))
                total += weight * rows_below(key)
                return
            b = groups[j][0]
            if k == 0 or N == 0:
                # The k open columns take nothing; move on to group j + 1.
                nb, nk = groups[j + 1]
                place_row(j + 1, nk, min(nb, left), left, weight,
                          rest + (b,) * k)
                return
            # c of the k open columns take N each; the other k - c take at
            # most N - 1, so they and the later groups must absorb the rest.
            lo = max(0, left - room[j + 1] - k * (N - 1))
            hi = min(k, left // N)
            product = 1
            for i in range(lo):
                product *= cell[left - i * N][N]
            for c in range(lo, hi + 1):
                if c > lo:
                    product *= cell[left - (c - 1) * N][N]
                place_row(j, k - c, N - 1, left - c * N,
                          weight * comb(k, c) * product,
                          rest + (b - N,) * c if b > N else rest)

        place_row(0, groups[0][1], min(groups[0][0], m), m, 1, ())
        memo[cols] = total
        return total

    return rows_below(tuple(sorted(b for b in targets if b)))


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
