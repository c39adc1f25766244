"""Exact coefficient fields: F_p is `Field(p)`, and Q is `Field(0)`.

All arithmetic is exact. F_p is the workhorse (default modulus 2^31 - 1; any
prime below PRIME_BOUND, where the primality test is proven exact, is
accepted); Q audits it on small instances. Elements are plain Python
numbers, and `Field` only names, reduces and samples them: callers write
`+`, `*` and literal 0 and 1, reducing with `reduce`, and row reduction
(`rowred`) inverts its own pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

DEFAULT_PRIME = 2**31 - 1
# The agreeing samples a generic value needs by default, and the cap on the
# samples drawn for one value (`homspace.stabilized_min`).  They live here so
# that a configuration is validated without loading linear algebra.
DEFAULT_TRIALS = 3
MAX_TOTAL_TRIALS = 10


class SolverFault(Exception):
    """The exact solver failed on one instance; a sweep fails the instance, not
    the run.  Defined here, where every command loads it, so that catching it
    loads no linear algebra."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all of _MR_BASES (Sorenson and
# Webster, Math. Comp. 86, 2017): below it the test is exact.
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases `_MR_BASES`, exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def least_prime_from(n: int) -> int:
    """The least prime >= n, for n below PRIME_BOUND."""
    while not _is_prime(n):
        n += 1
    return n


@dataclass(frozen=True)
class Field:
    """F_p for a prime p, or Q for p = 0; elements are plain Python numbers.

    Over F_p an element is an int in [0, p). Over Q it is an int, or a
    `Fraction` once a pivot division has made one.
    """

    p: int

    def __post_init__(self) -> None:
        if self.p >= PRIME_BOUND:
            raise ValueError(f"modulus {self.p} too large: primality is decided only below {PRIME_BOUND}")
        if self.p and not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @property
    def name(self) -> str:
        return f"prime:{self.p}" if self.p else "rational"

    def reduce(self, x):
        """The element an integer (or rational, over Q) stands for."""
        return x % self.p if self.p else x

    def sample(self, rng: Random) -> int:
        # Over Q the draw is the same as over F_DEFAULT_PRIME, so a fixed
        # seed yields the same integer matrix in either mode.
        return rng.randrange(self.sample_size)

    @property
    def sample_size(self) -> int:
        """The number of values `sample` draws from, uniformly."""
        return self.p or DEFAULT_PRIME


def field_from_name(name: str) -> Field:
    """`rational` (p = 0), `prime` (p = DEFAULT_PRIME) or `prime:P`, P prime."""
    if name == "rational":
        return Field(0)
    if name == "prime":
        return Field(DEFAULT_PRIME)
    if name.startswith("prime:"):
        try:
            p = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"field {name!r}: prime:P needs an integer prime P") from None
        if name != f"prime:{p}":  # one spelling per field: P in plain decimal
            raise ValueError(f"field {name!r}: prime:P needs an integer prime P")
        if p == 0:
            raise ValueError("modulus 0 is not prime")
        return Field(p)
    raise ValueError(f"unknown field name {name!r}")
