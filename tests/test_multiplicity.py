"""Bounded multiplicity algebra, checked against a set-of-naturals oracle.

The oracle represents each bounded value by the set of naturals (plus an
unbounded marker) it contains, drawn from representatives 0..10 and
omega; since every bound of the six values is at most 2, these
representatives separate all of them.
"""

import copy
import itertools
import math
import pickle

import pytest

from shapespace import (BOUNDED, OMEGA, ONE, ONE_PLUS, TWO_PLUS, ZERO,
                        ZERO_ONE, ZERO_PLUS, Multiplicity, add, approx_card,
                        bounded, positive_part, subsumes, subtract_one)

from conftest import contains, from_text

REPS = list(range(11)) + [OMEGA]


def members(mu):
    return frozenset(k for k in REPS if contains(mu, k))


def smallest_enclosing(values):
    """Oracle: the least bounded value containing every given number."""
    candidates = [b for b in BOUNDED if all(contains(b, v) for v in values)]
    assert candidates, f"no bounded value encloses {values}"
    best = min(candidates, key=lambda b: len(members(b)))
    # the least enclosing value must be unique by inclusion
    for c in candidates:
        assert members(best) <= members(c)
    return best


# --- shape of the value set ----------------------------------------------


def test_exactly_six_values():
    assert len(BOUNDED) == 6
    assert len(set(BOUNDED)) == 6


def test_texts_round_trip():
    for b in BOUNDED:
        assert from_text(b.text()) == b
    with pytest.raises(ValueError):
        from_text("3+")


def test_values_are_interned():
    assert bounded(0, 1) is Multiplicity(0, 1) is ZERO_ONE
    assert all(Multiplicity(mu.lo, mu.hi) is mu for mu in BOUNDED)
    assert sorted(reversed(BOUNDED)) == list(BOUNDED)   # (lo, hi) order
    with pytest.raises(TypeError):   # ordered among themselves only
        ONE < 1
    for mu in BOUNDED:
        assert copy.copy(mu) is mu and copy.deepcopy(mu) is mu
        assert pickle.loads(pickle.dumps(mu)) is mu
    with pytest.raises(AttributeError):
        ONE.lo = 0
    with pytest.raises(AttributeError):
        del ONE.hi
    assert ONE.lo == 1 and ONE.hi == 1


def test_invalid_intervals_rejected():
    with pytest.raises(ValueError):
        Multiplicity(2, 1)
    with pytest.raises(ValueError):
        Multiplicity(-1, 0)
    with pytest.raises(ValueError):
        Multiplicity(0, 2)  # finite upper bound above the precision bound
    with pytest.raises(ValueError):
        Multiplicity(3, OMEGA)


def test_concreteness_and_contains():
    assert ONE.is_concrete
    assert not ONE_PLUS.is_concrete
    assert contains(ZERO_PLUS, 0) and contains(ZERO_PLUS, 7) and contains(ZERO_PLUS, OMEGA)
    assert not contains(ZERO_ONE, 2)


# --- approximation --------------------------------------------------------


def test_approx_card_against_oracle():
    for k in range(11):
        assert approx_card(k) == smallest_enclosing([k])
    assert approx_card(0) == ZERO
    assert approx_card(1) == ONE
    for k in range(2, 11):
        assert approx_card(k) == TWO_PLUS
    with pytest.raises(ValueError):
        approx_card(-1)
    # ``normalise`` folds k nodes of multiplicity 1 with ``add``, which
    # is how ``abstract`` counts a class of k concrete nodes
    folded = ONE
    for k in range(2, 11):
        folded = add(folded, ONE)
        assert folded == approx_card(k)


def test_bounded_is_smallest_enclosing():
    for lo in range(6):
        for hi in list(range(lo, 8)) + [OMEGA]:
            got = bounded(lo, hi)
            reps_in = [k for k in REPS if lo <= k <= hi]
            assert got == smallest_enclosing(reps_in)
    with pytest.raises(ValueError, match="empty interval"):
        bounded(2, 1)


# --- arithmetic -----------------------------------------------------------


def test_add_against_oracle():
    for mu, nu in itertools.product(BOUNDED, repeat=2):
        sums = {a + b for a, b in itertools.product(members(mu), members(nu))}
        assert add(mu, nu) == smallest_enclosing(sums)


def test_add_commutative_and_sound():
    for mu, nu in itertools.product(BOUNDED, repeat=2):
        assert add(mu, nu) == add(nu, mu)
        sums = {a + b for a, b in itertools.product(members(mu), members(nu))}
        assert all(contains(add(mu, nu), v) for v in sums)


def test_subtract_one_against_oracle():
    for mu in BOUNDED:
        if mu.hi < 1:
            with pytest.raises(ValueError):
                subtract_one(mu)
            continue
        reduced = {k - 1 if k != OMEGA else OMEGA
                   for k in members(mu) if k >= 1}
        got = subtract_one(mu)
        assert got == smallest_enclosing(reduced)


def test_subtract_one_examples():
    assert subtract_one(ONE) == ZERO
    assert subtract_one(TWO_PLUS) == ONE_PLUS
    assert subtract_one(ONE_PLUS) == ZERO_PLUS
    assert subtract_one(ZERO_ONE) == ZERO
    assert subtract_one(ZERO_PLUS) == ZERO_PLUS


def test_positive_part():
    assert positive_part(ZERO_PLUS) == ONE_PLUS
    assert positive_part(ZERO_ONE) == ONE
    assert positive_part(TWO_PLUS) == TWO_PLUS
    with pytest.raises(ValueError):
        positive_part(ZERO)


# --- subsumption order ----------------------------------------------------


def test_subsumption_is_membership_inclusion():
    for mu, nu in itertools.product(BOUNDED, repeat=2):
        assert subsumes(nu, mu) == (members(mu) <= members(nu))


def test_subsumption_order_laws():
    for mu in BOUNDED:
        assert subsumes(mu, mu)
    for mu, nu in itertools.product(BOUNDED, repeat=2):
        if subsumes(nu, mu) and subsumes(mu, nu):
            assert mu == nu
    for mu, nu, pi in itertools.product(BOUNDED, repeat=3):
        if subsumes(nu, mu) and subsumes(pi, nu):
            assert subsumes(pi, mu)


def test_key_subsumption_facts():
    assert subsumes(ONE_PLUS, TWO_PLUS)
    assert subsumes(ZERO_PLUS, ONE)
    assert not subsumes(TWO_PLUS, ONE)
    assert not subsumes(ONE, TWO_PLUS)


def test_operations_monotone_in_subsumption():
    for mu, nu, pi in itertools.product(BOUNDED, repeat=3):
        if subsumes(nu, mu):
            assert subsumes(add(nu, pi), add(mu, pi))
            if mu.hi >= 1 and nu.hi >= 1:
                assert subsumes(subtract_one(nu), subtract_one(mu))


# --- rank and bits --------------------------------------------------------


def test_bit_set_inclusion_is_interval_inclusion():
    # all 36 ordered pairs; the intervals are compared from lo and hi
    for mu, nu in itertools.product(BOUNDED, repeat=2):
        assert (not mu.bits & ~nu.bits) == (nu.lo <= mu.lo and mu.hi <= nu.hi)
    assert {mu.text(): mu.bits for mu in BOUNDED} == {
        "0": 0b001, "0..1": 0b011, "0+": 0b111, "1": 0b010, "1+": 0b110, "2+": 0b100}


def test_rank_order_is_lo_hi_order(rng):
    assert [mu.rank for mu in BOUNDED] == list(range(6))
    for mu, nu in itertools.product(BOUNDED, repeat=2):
        assert (mu.rank < nu.rank) == ((mu.lo, mu.hi) < (nu.lo, nu.hi))
    for _ in range(50):
        values = rng.choices(BOUNDED, k=rng.randint(1, 12))
        assert (sorted(values, key=lambda mu: mu.rank)
                == sorted(values, key=lambda mu: (mu.lo, mu.hi)))


def test_rank_and_bits_are_immutable():
    for name in ("rank", "bits"):
        with pytest.raises(AttributeError):
            setattr(ONE, name, 0)
    assert (pickle.loads(pickle.dumps(ZERO_ONE)).bits, copy.copy(ONE).rank) == (0b011, 3)
