"""Local theta factors: a row-by-row integer sum and its enumeration oracle.

A theta factor sums, over the local index set, the product of the slice
unit indices.  Each slice term is a Gaussian multinomial, so the weight of
one slice depends only on its column counts N (one per entry of f_v) and
factorises as [m_s; N]_Q * prod_i g_t(N_i), where g_t(N) sums the Gaussian
multinomials [N; e]_Q over the t-way splits e of N.  `theta` therefore sums
over l x r matrices with row sums m_s and the scaled targets as column sums,
one row at a time, memoised on the sorted remaining column budgets; the row
weight is symmetric in the columns, so sorting loses nothing.  All of it is
integer arithmetic.  `theta_enum` walks the index set itself and serves as
the reference the tests compare against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .algebra import Place
from .omega import LocalContext, enumerate_omega
from .orders import local_unit_index


def residue_power(ctx: LocalContext, q: int) -> int:
    """Cardinality of the residue field of the division part above w."""
    N = q ** ctx.place.degree
    return N ** (ctx.d_new * ctx.s // ctx.l)


def theta_enum(place: Place, f_vec, s: int, q: int) -> Fraction:
    """Sum over the local index set of the product of slice unit indices."""
    ctx = LocalContext.create(place, f_vec, s)
    Q = residue_power(ctx, q)
    total = Fraction(0)
    for elem in enumerate_omega(place, f_vec, s):
        term = Fraction(1)
        for slice_vec in elem.entries:
            term *= local_unit_index(Q, 1, slice_vec)
        total += term
    return total


def theta(place: Place, f_vec, s: int, q: int) -> int:
    """Theta factor at v for level s, summed one row (place w above v) at a time."""
    ctx = LocalContext.create(place, f_vec, s)
    targets = ctx.scaled_targets()
    m = ctx.m_s
    if targets is None or sum(targets) != ctx.l * m:
        return 0
    Q = residue_power(ctx, q)

    # [k]_Q! = prod_{j<=k} (Q^j - 1); binom[a][b] = [a]_Q! / ([b]_Q! [a-b]_Q!).
    fact = [1]
    for k in range(1, m + 1):
        fact.append(fact[-1] * (Q ** k - 1))
    binom = [[fact[a] // (fact[b] * fact[a - b]) for b in range(a + 1)]
             for a in range(m + 1)]
    # g[N] sums [N; e]_Q over the t-way splits e of N, one part at a time.
    g = [1] * (m + 1)
    for _ in range(ctx.t - 1):
        g = [sum(binom[N][k] * g[N - k] for k in range(N + 1))
             for N in range(m + 1)]
    # Choosing N of the `left` unplaced row entries for the next column
    # contributes binom[left][N] * g[N]; over a row these give the weight.
    cell = [[binom[left][N] * g[N] for N in range(left + 1)]
            for left in range(m + 1)]

    @cache
    def rows_below(budget: tuple[int, ...]) -> int:
        """Sum over the remaining rows, given sorted non-zero column budgets."""
        if not budget:
            return 1
        total = 0
        rest = [0] * len(budget)
        tail = [sum(budget[i:]) for i in range(len(budget) + 1)]

        def place_row(i: int, left: int, weight: int) -> None:
            nonlocal total
            if i == len(budget):
                key = tuple(sorted(b for b in rest if b))
                total += weight * rows_below(key)
                return
            for N in range(max(0, left - tail[i + 1]), min(left, budget[i]) + 1):
                rest[i] = budget[i] - N
                place_row(i + 1, left - N, weight * cell[left][N])

        place_row(0, m, 1)
        return total

    return rows_below(tuple(sorted(targets)))
