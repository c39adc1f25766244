"""Littlewood-Richardson coefficients by two independent routes.

`lr_coefficient` enumerates LR skew tableaux of shape lambda/mu with content
nu (semistandard filling whose reverse reading word is a lattice word). A
filling is encoded by the count of each value in each row, which determines
it uniquely because rows are weakly increasing; column strictness and the
lattice condition become linear inequalities on those counts, checked
incrementally during the enumeration. Two choices are forced and never
enumerated: within a row the last value takes whatever the row has left, and
the last row takes every copy of each value not placed above it, so that row
is only checked against its column-strictness and lattice bounds and its
length. The coefficient is symmetric in mu and nu, so `lr_coefficient` counts
with the factor that has fewer rows (the lexicographically smaller one on a
tie) as the content nu: that factor branches least, and both orders of one
pair share one cached count. `_tableau_count` itself takes the factors in the
order given.

`lr_coefficient_pieri` is the audit oracle: it expands the second factor
through one-row (complete homogeneous) classes with the alternating-sum
correction over the h-expansion of a Schur class, so it shares no code with
the tableau path beyond the Partition type. Both read `Partition.parts` as
given, since a partition holds no zero parts; the Pieri path trims the raw
tuples it builds itself.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, permutations
from operator import add

from .partitions import Partition, _parts_contain


def _tableau_count(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    nrows = len(lam)
    nvals = len(nu)
    if nvals == 0:
        return 1 if sum(lam) == sum(mu) else 0
    if nrows == 0:
        return 0
    mu = mu + (0,) * (nrows - len(mu))
    last_row = nrows - 1
    last_val = nvals - 1
    # placed[i][t]: copies of value t+1 in row i; one list per row, reused.
    placed = [[0] * nvals for _ in range(nrows)]
    count = 0

    # tot[t]: copies of value t+1 placed in earlier rows; prev_cum[t]: entries
    # <= t+1 in the previous row.
    def fill_row(i: int, tot: tuple[int, ...], prev_cum: tuple[int, ...]) -> None:
        nonlocal count
        row_len = lam[i] - mu[i]
        indent = mu[i - 1] - mu[i] if i > 0 else 0

        if i == last_row:
            # The last row holds every value not yet placed; check its bounds
            # once instead of enumerating.
            cum = 0
            for t in range(nvals):
                cum += nu[t] - tot[t]
                if i > 0 and cum > indent + (prev_cum[t - 1] if t > 0 else 0):
                    return
                # Lattice word: all nu[t] copies of t+1 are placed once this
                # row is, against the tot[t-1] copies of t in earlier rows.
                if t > 0 and nu[t] > tot[t - 1]:
                    return
            if cum == row_len:
                count += 1
            return

        row = placed[i]

        def choose(t: int, cum: int) -> None:
            rest = row_len - cum
            ub = nu[t] - tot[t]
            if rest < ub:
                ub = rest
            if i > 0:
                col = indent + (prev_cum[t - 1] if t > 0 else 0) - cum
                if col < ub:
                    ub = col
            if t > 0:
                # Lattice word: within a row the larger value is read first,
                # so copies of t+1 here are bounded by copies of t in strictly
                # earlier rows.
                lat = tot[t - 1] - tot[t]
                if lat < ub:
                    ub = lat
            if t == last_val:
                # The last value fills the row, so it takes exactly `rest`.
                if ub == rest:
                    row[t] = rest
                    fill_row(i + 1, tuple(map(add, tot, row)), tuple(accumulate(row)))
                return
            for m in range(ub, -1, -1):
                row[t] = m
                choose(t + 1, cum + m)

        choose(0, 0)

    fill_row(0, (0,) * nvals, ())
    return count


@lru_cache(maxsize=None)
def _lr(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    return _tableau_count(lam, mu, nu)


def lr_coefficient(mu: Partition, nu: Partition, lam: Partition) -> int:
    """Multiplicity of the lambda class in the product of the mu and nu classes."""
    lam_t, mu_t, nu_t = lam.parts, mu.parts, nu.parts
    if sum(lam_t) != sum(mu_t) + sum(nu_t):
        return 0
    if not (_parts_contain(lam_t, mu_t) and _parts_contain(lam_t, nu_t)):
        return 0
    # Schur classes commute, so c^lam_{mu,nu} = c^lam_{nu,mu} (Fulton, Young
    # Tableaux, 1997, 5.1). The count branches once per value of the content
    # in every row, so the factor with fewer rows is taken as the content, and
    # both orders share one cache entry.
    if (len(nu_t), nu_t) > (len(mu_t), mu_t):
        mu_t, nu_t = nu_t, mu_t
    return _lr(lam_t, mu_t, nu_t)


def _horizontal_strip_additions(kappa: tuple[int, ...], size: int, within: tuple[int, ...]):
    """Partitions tau ⊆ within with tau/kappa a horizontal strip of `size` boxes."""
    nrows = len(within)
    if len(kappa) > nrows:
        return

    def rec(i: int, remaining: int, prev_tau: int, prev_kappa: int, acc: tuple[int, ...]):
        if i == nrows:
            if remaining == 0:
                yield acc
            return
        k_i = kappa[i] if i < len(kappa) else 0
        lo = k_i
        hi = min(within[i], prev_tau, k_i + remaining, prev_kappa if i > 0 else within[i])
        # horizontal strip: tau_i <= kappa_{i-1}; partition: tau_i <= tau_{i-1}
        for tau_i in range(lo, hi + 1):
            yield from rec(i + 1, remaining - (tau_i - k_i), tau_i, k_i, acc + (tau_i,))

    yield from rec(0, size, within[0] if within else 0, 0, ())


def _perm_sign(perm: tuple[int, ...]) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def lr_coefficient_pieri(mu: Partition, nu: Partition, lam: Partition) -> int:
    """Audit oracle for `lr_coefficient` via iterated one-row expansions."""
    lam_t, mu_t, nu_t = lam.parts, mu.parts, nu.parts
    if sum(lam_t) != sum(mu_t) + sum(nu_t):
        return 0
    k = len(nu_t)
    total = 0
    for perm in permutations(range(k)):
        sizes = [nu_t[i] + perm[i] - i for i in range(k)]
        if any(sz < 0 for sz in sizes):
            continue
        cur: dict[tuple[int, ...], int] = {mu_t: 1}
        for sz in sizes:
            nxt: dict[tuple[int, ...], int] = {}
            for kappa, c in cur.items():
                for tau in _horizontal_strip_additions(kappa, sz, lam_t):
                    tau_trim = tau
                    while tau_trim and tau_trim[-1] == 0:
                        tau_trim = tau_trim[:-1]
                    nxt[tau_trim] = nxt.get(tau_trim, 0) + c
            cur = nxt
            if not cur:
                break
        total += _perm_sign(perm) * cur.get(lam_t, 0)
    return total
