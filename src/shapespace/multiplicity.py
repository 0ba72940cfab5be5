"""Bounded multiplicity algebra.

A multiplicity is an interval over the naturals extended with an
unbounded upper limit (written ``omega`` here, represented by
``math.inf``).  With the precision bound fixed to 1 there are exactly
six values:

    0, 0..1, 0+, 1, 1+, 2+

Arithmetic results are re-approximated to the smallest of these values
whose interval encloses the exact interval, so every operation
over-approximates its exact counterpart.
"""

from __future__ import annotations

import functools
import math

OMEGA = math.inf


@functools.total_ordering
class Multiplicity:
    """Interval ``<lo, hi>`` with ``lo <= hi`` and ``hi`` possibly omega.

    The six values are interned: ``Multiplicity(lo, hi)`` returns one of
    ``BOUNDED`` (and raises ValueError for any other interval), so
    equality and hashing are by identity.  A value is immutable, and
    ``copy`` and ``pickle`` return the interned object.  Ordered
    lexicographically by ``(lo, hi)``; this is an arbitrary total order
    used for canonical sorting (``rank`` is the place in it), not the
    subsumption order: ``bits`` has bit c set when the interval meets class
    c of 0, 1 and 2+, so ``mu`` lies below ``nu`` iff ``not mu.bits & ~nu.bits``.
    """

    __slots__ = ("lo", "hi", "rank", "bits")

    def __new__(cls, lo, hi):
        mu = _VALUES.get((lo, hi))
        if mu is not None:
            return mu
        if lo < 0:
            raise ValueError(f"negative lower bound: {lo}")
        if lo > hi:
            raise ValueError(f"empty interval <{lo},{hi}>")
        raise ValueError(f"not a bounded multiplicity: <{lo},{hi}>")

    def __setattr__(self, name, value):
        raise AttributeError(f"{self!r} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self!r} is immutable")

    def __reduce__(self):
        return Multiplicity, (self.lo, self.hi)

    def __lt__(self, other):
        if other.__class__ is not Multiplicity:
            return NotImplemented
        return (self.lo, self.hi) < (other.lo, other.hi)

    @property
    def is_concrete(self) -> bool:
        return self.lo == 1 and self.hi == 1

    def text(self) -> str:
        return _TEXT[self]

    def __repr__(self):
        return f"Mult({self.text()})"


def _value(lo, hi) -> Multiplicity:
    mu = object.__new__(Multiplicity)
    object.__setattr__(mu, "lo", lo)
    object.__setattr__(mu, "hi", hi)
    return mu


ZERO = _value(0, 0)
ZERO_ONE = _value(0, 1)
ZERO_PLUS = _value(0, OMEGA)
ONE = _value(1, 1)
ONE_PLUS = _value(1, OMEGA)
TWO_PLUS = _value(2, OMEGA)

BOUNDED = (ZERO, ZERO_ONE, ZERO_PLUS, ONE, ONE_PLUS, TWO_PLUS)

for _rank, _mu in enumerate(BOUNDED):
    object.__setattr__(_mu, "rank", _rank)
    object.__setattr__(_mu, "bits", sum(1 << c for c in range(3) if _mu.lo <= c <= _mu.hi))

_VALUES = {(mu.lo, mu.hi): mu for mu in BOUNDED}

_TEXT = {
    ZERO: "0",
    ZERO_ONE: "0..1",
    ZERO_PLUS: "0+",
    ONE: "1",
    ONE_PLUS: "1+",
    TWO_PLUS: "2+",
}


def bounded(lo, hi) -> Multiplicity:
    """Smallest of the six values whose interval contains ``[lo, hi]``:
    the lower bound cut to at most 2, an upper bound above 1 widened."""
    if lo > hi:
        raise ValueError(f"empty interval <{lo},{hi}>")
    return _VALUES[min(int(lo), 2), int(hi) if hi <= 1 else OMEGA]


def approx_card(k: int) -> Multiplicity:
    """Bounded approximation of a set cardinality."""
    if k < 0:
        raise ValueError(f"negative cardinality: {k}")
    return bounded(k, k)


def add(mu: Multiplicity, nu: Multiplicity) -> Multiplicity:
    """Interval sum, re-approximated (omega is absorbing)."""
    return bounded(mu.lo + nu.lo, mu.hi + nu.hi)


def subtract_one(mu: Multiplicity) -> Multiplicity:
    """Remove one unit from a population.

    Requires ``hi >= 1``: removal must be justified by a witness, which
    is why populations with ``lo = 0`` (but a nonzero upper bound) may
    still yield one unit.
    """
    if mu.hi < 1:
        raise ValueError(f"cannot remove a unit from {mu.text()}")
    hi = mu.hi if mu.hi == OMEGA else mu.hi - 1
    return bounded(max(mu.lo - 1, 0), hi)


def subsumes(nu: Multiplicity, mu: Multiplicity) -> bool:
    """Whether ``mu``'s interval is included in ``nu``'s (mu below nu)."""
    return mu.lo >= nu.lo and mu.hi <= nu.hi


def positive_part(mu: Multiplicity) -> Multiplicity:
    """Restriction of the interval to values > 0 (must be nonempty)."""
    if mu.hi < 1:
        raise ValueError(f"{mu.text()} has no positive values")
    return bounded(max(mu.lo, 1), mu.hi)

