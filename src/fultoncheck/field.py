"""Exact coefficient fields: a prime field F_p and the rationals.

All arithmetic is exact. The prime field is the workhorse (default modulus
2^31 - 1; any prime below PRIME_BOUND, where the primality test is proven
exact, is accepted); the rational field audits it on small instances. Code
that must tell the fields apart reads only `characteristic` (p, or 0 for Q).
The fields have no inverse: row reduction (`rowred`) inverts its own pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

DEFAULT_PRIME = 2**31 - 1

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
class PrimeField:
    """Arithmetic in Z/pZ; elements are ints in [0, p)."""

    p: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if self.p >= PRIME_BOUND:
            raise ValueError(f"modulus {self.p} too large: primality is decided only below {PRIME_BOUND}")
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @property
    def name(self) -> str:
        return f"prime:{self.p}"

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, x: int) -> int:
        return x % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def sample(self, rng: Random) -> int:
        return rng.randrange(self.p)

    @property
    def sample_size(self) -> int:
        """The number of values `sample` draws from, uniformly."""
        return self.p


@dataclass(frozen=True)
class RationalField:
    """Exact rational arithmetic via fractions.Fraction."""

    characteristic = 0

    @property
    def name(self) -> str:
        return "rational"

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, x: int | Fraction) -> Fraction:
        return Fraction(x)

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def sample(self, rng: Random) -> Fraction:
        # Mirrors the prime-field sampling stream so that a fixed seed yields
        # the same integer matrix in either mode.
        return Fraction(rng.randrange(DEFAULT_PRIME))

    @property
    def sample_size(self) -> int:
        return DEFAULT_PRIME


Field = PrimeField | RationalField


def field_from_name(name: str) -> Field:
    if name == "rational":
        return RationalField()
    if name.startswith("prime:"):
        return PrimeField(int(name.split(":", 1)[1]))
    if name == "prime":
        return PrimeField()
    raise ValueError(f"unknown field name {name!r}")
