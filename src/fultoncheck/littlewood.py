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

Both engines recurse through module-level functions that take their state as
arguments, never through nested functions that call themselves: such a
closure refers to itself through its own cell, so every count would leave a
reference cycle, and a sweep of thousands of counts would run the cyclic
garbage collector hundreds of times. As written, everything a count allocates
is freed by reference counting.

`lr_coefficient_pieri` is the audit oracle: it expands the second factor
through one-row (complete homogeneous) classes with the alternating-sum
correction over the h-expansion of a Schur class, so it shares no code with
the tableau path beyond the Partition type. When that factor has more rows
than columns it expands the conjugate triple instead, whose second factor has
fewer rows. Both read `Partition.parts` as given, since a partition holds no
zero parts; the Pieri path trims the raw tuples it builds itself.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import add, le

from .partitions import Partition, _parts_contain


def _tableau_count(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """Number of LR skew tableaux of shape lam/mu with content nu.

    The row recursion (`_fill_row`) and the value recursion within a row
    (`_choose`, which lists the rows' successor states) are module-level
    functions that take their state as arguments, so a count forms no
    reference cycle and triggers no pass of the cyclic garbage collector (see
    the module docstring).
    """
    nvals = len(nu)
    if nvals == 0:
        return 1 if sum(lam) == sum(mu) else 0
    if not lam:
        return 0
    mu = mu + (0,) * (len(lam) - len(mu))
    return _fill_row(0, lam, mu, nu, (0,) * nvals, ())


def _fill_row(
    i: int,
    lam: tuple[int, ...],
    mu: tuple[int, ...],
    nu: tuple[int, ...],
    tot: tuple[int, ...],
    prev_cum: tuple[int, ...],
) -> int:
    """Fillings of rows i, i+1, ... of lam/mu, given the rows above.

    tot[t]: copies of value t+1 placed in earlier rows; prev_cum[t]: entries
    <= t+1 in the previous row (empty for the first row).
    """
    row_len = lam[i] - mu[i]
    indent = mu[i - 1] - mu[i] if i else 0
    if i < len(lam) - 1:
        below: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        _choose(0, 0, [0] * len(nu), i, row_len, indent, nu, tot, prev_cum, below)
        count = 0
        for tot_below, cum_below in below:
            count += _fill_row(i + 1, lam, mu, nu, tot_below, cum_below)
        return count
    # The last row holds every value not yet placed; check its bounds once
    # instead of enumerating.
    cum = 0
    for t in range(len(nu)):
        cum += nu[t] - tot[t]
        if i and cum > indent + (prev_cum[t - 1] if t else 0):
            return 0
        # Lattice word: all nu[t] copies of t+1 are placed once this row is,
        # against the tot[t-1] copies of t in earlier rows.
        if t and nu[t] > tot[t - 1]:
            return 0
    return 1 if cum == row_len else 0


def _choose(
    t: int,
    cum: int,
    row: list[int],
    i: int,
    row_len: int,
    indent: int,
    nu: tuple[int, ...],
    tot: tuple[int, ...],
    prev_cum: tuple[int, ...],
    below: list[tuple[tuple[int, ...], tuple[int, ...]]],
) -> None:
    """Append to `below` the (tot, prev_cum) state that `_fill_row` starts row
    i+1 from, for each way to place values t+1, t+2, ... in row i, given `cum`
    entries of row i already chosen in `row[:t]`.  Only `_fill_row` recurses
    across rows, so a count nests one frame per row, not one per value too."""
    rest = row_len - cum
    ub = nu[t] - tot[t]
    if rest < ub:
        ub = rest
    if i:
        col = indent + (prev_cum[t - 1] if t else 0) - cum
        if col < ub:
            ub = col
    if t:
        # Lattice word: within a row the larger value is read first, so
        # copies of t+1 here are bounded by copies of t in strictly earlier
        # rows.
        lat = tot[t - 1] - tot[t]
        if lat < ub:
            ub = lat
    if t == len(nu) - 1:
        # The last value fills the row, so it takes exactly `rest`.
        if ub == rest:
            row[t] = rest
            below.append((tuple(map(add, tot, row)), tuple(accumulate(row))))
        return
    for m in range(ub, -1, -1):
        row[t] = m
        _choose(t + 1, cum + m, row, i, row_len, indent, nu, tot, prev_cum, below)


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
    if len(kappa) > len(within):
        return iter(())
    return _strip_rows(kappa, within, 0, size, within[0] if within else 0, 0, ())


def _strip_rows(
    kappa: tuple[int, ...],
    within: tuple[int, ...],
    i: int,
    remaining: int,
    prev_tau: int,
    prev_kappa: int,
    acc: tuple[int, ...],
):
    """The strips of `_horizontal_strip_additions` that extend the rows `acc`
    chosen above row i; a module-level generator, so it forms no cycle."""
    if i == len(within):
        if remaining == 0:
            yield acc
        return
    k_i = kappa[i] if i < len(kappa) else 0
    hi = min(within[i], prev_tau, k_i + remaining, prev_kappa if i > 0 else within[i])
    # horizontal strip: tau_i <= kappa_{i-1}; partition: tau_i <= tau_{i-1}
    for tau_i in range(k_i, hi + 1):
        yield from _strip_rows(
            kappa, within, i + 1, remaining - (tau_i - k_i), tau_i, k_i, acc + (tau_i,)
        )


def lr_coefficient_pieri(mu: Partition, nu: Partition, lam: Partition) -> int:
    """Audit oracle for `lr_coefficient` via iterated one-row expansions.

    Jacobi-Trudi writes the nu class as the signed sum over permutations v of
    the products of h_{nu_i + v_i - i}; each product is expanded by Pieri's
    rule, one strip at a time. The permutations are searched depth first over
    their prefixes (`_pieri_prefixes`), so a prefix with a negative size or an
    empty expansion cuts every permutation that extends it.

    There are len(nu)! permutations. The involution omega of symmetric
    functions is a ring automorphism taking each Schur class to its conjugate's
    (Stanley, EC2, 1999, 7.14.5), so c^lam_{mu,nu} = c^{lam'}_{mu',nu'}, and
    when nu has more rows than columns the conjugate triple is expanded: nu'
    has nu_1 rows, so nu = 1^10 needs one strip instead of up to 10! products.

    Every class in a product of h-classes with the kappa class contains kappa
    (Pieri adds boxes), and the product commutes, so the coefficient is 0
    unless lam contains both mu and nu; that is checked first, since a nu
    that does not fit would otherwise walk every dead permutation.
    """
    lam_t, mu_t, nu_t = lam.parts, mu.parts, nu.parts
    if sum(lam_t) != sum(mu_t) + sum(nu_t):
        return 0
    if any(len(f) > len(lam_t) or not all(map(le, f, lam_t)) for f in (mu_t, nu_t)):
        return 0
    if nu_t and len(nu_t) > nu_t[0]:
        lam_t, mu_t, nu_t = _conjugate(lam_t), _conjugate(mu_t), _conjugate(nu_t)
    return _pieri_prefixes(0, tuple(range(len(nu_t))), {mu_t: 1}, nu_t, lam_t)


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate partition: column j of the diagram becomes row j."""
    return tuple(sum(1 for x in parts if x > j) for j in range(parts[0] if parts else 0))


def _pieri_prefixes(
    i: int,
    rest: tuple[int, ...],
    cur: dict[tuple[int, ...], int],
    nu: tuple[int, ...],
    lam: tuple[int, ...],
) -> int:
    """The signed lam-coefficient summed over the permutations whose first i
    values are fixed, `cur` being mu times their h-classes and `rest` the
    values left, ascending; a module-level function, so it forms no cycle."""
    if not rest:
        return cur.get(lam, 0)
    total = 0
    for idx, v in enumerate(rest):
        size = nu[i] + v - i
        if size < 0:
            continue
        nxt: dict[tuple[int, ...], int] = {}
        for kappa, c in cur.items():
            for tau in _horizontal_strip_additions(kappa, size, lam):
                while tau and tau[-1] == 0:
                    tau = tau[:-1]
                nxt[tau] = nxt.get(tau, 0) + c
        if nxt:
            # The idx smaller values still left each form an inversion with v.
            count = _pieri_prefixes(i + 1, rest[:idx] + rest[idx + 1:], nxt, nu, lam)
            total += -count if idx % 2 else count
    return total
