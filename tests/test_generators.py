"""Seeded random family generation."""

import random
from itertools import combinations

import pytest

import ekrforge.generators
from conftest import pairwise_added
from ekrforge.binomial import binom
from ekrforge.covers import is_saturated, tau
from ekrforge.families import UniformFamily, is_intersecting, ksets_colex, mask_of
from ekrforge.generators import (TABLE_LIMIT, _disjoint_positions, _shuffle,
                                 blocked_lift_seed, lift_seed,
                                 random_intersecting_seed,
                                 random_saturated_family, sample_saturated_tau3,
                                 saturate_random)


def test_saturate_random_is_maximal():
    rng = random.Random(0)
    for _ in range(10):
        fam = random_saturated_family(7, 3, rng, "free")
        assert is_intersecting(fam)
        assert is_saturated(fam)


def test_seed_reproducibility():
    a = sample_saturated_tau3(9, 4, 20, seed=42)
    b = sample_saturated_tau3(9, 4, 20, seed=42)
    assert a == b
    c = sample_saturated_tau3(9, 4, 20, seed=43)
    assert a != c


def test_sampled_families_have_tau3():
    for fam in sample_saturated_tau3(9, 4, 30, seed=1):
        assert tau(fam) >= 3
        assert is_saturated(fam)


def test_blocked_lift_guarantees_window():
    rng = random.Random(3)
    w5 = mask_of([1, 2, 3, 4, 5], 11)
    for _ in range(10):
        fam = saturate_random(blocked_lift_seed(11, 5), rng)
        assert all((m & w5).bit_count() >= 2 for m in fam.masks)
    with pytest.raises(ValueError):
        blocked_lift_seed(7, 3)


def test_lift_seed_traces():
    rng = random.Random(4)
    seed = lift_seed(9, 4, rng, partial=False)
    w5 = mask_of([1, 2, 3, 4, 5], 9)
    r_edges = {mask_of(e, 9) for e in [(1, 2, 3), (1, 4, 5), (2, 3, 5)]}
    assert all(m & w5 in r_edges for m in seed.masks)
    partial = lift_seed(9, 4, rng, partial=True)
    assert len(partial) >= 3 and set(partial.masks) <= set(seed.masks)
    assert is_intersecting(partial)


def test_common_free_seed():
    rng = random.Random(5)
    fam = random_intersecting_seed(8, 3, rng, size=4)
    assert is_intersecting(fam)
    common = fam.masks[0]
    for m in fam.masks[1:]:
        common &= m
    assert common == 0
    with pytest.raises(ValueError):
        random_intersecting_seed(8, 3, rng, size=2)


# the generators' grid points, all inside the table, and (14,6), (20,3) and
# (24,3), past it; at (24,3) the lists would hold 2,691,920 positions
SATURATION_POINTS = ((6, 3), (7, 3), (8, 3), (9, 4), (11, 5), (13, 6), (14, 6),
                     (20, 3), (24, 3))


@pytest.mark.parametrize("n,k", SATURATION_POINTS)
def test_saturate_random_against_pairwise_scan(monkeypatch, n, k):
    """The same family and the same rng state afterwards as the pairwise
    saturation scan over a shuffle of the colex k-sets, drawn from an equal
    stream; seeds of every generation mode that fits the point, and the
    star at 1 without its two colex-first members, whose completion ends
    at position 0 wherever the shuffle puts the second of them first.  Past
    the limit no list of disjoint positions is built."""
    past = binom(n, k) * binom(n - k, k) > TABLE_LIMIT
    assert past == ((n, k) in ((14, 6), (20, 3), (24, 3)))
    if past:
        def unlisted(*args):
            raise AssertionError("lists of disjoint positions built past the limit")

        monkeypatch.setattr(ekrforge.generators, "_disjoint_positions", unlisted)
    seeds = random.Random(n * 100 + k)
    families = [random_intersecting_seed(n, k, seeds, size=3 + i % 3) for i in range(3)]
    families += [lift_seed(n, k, seeds, partial=True), UniformFamily(n, k, ())]
    if k >= 4 and n >= 2 * k + 1:
        families.append(blocked_lift_seed(n, k))
    families.append(UniformFamily(n, k, tuple(m for m in ksets_colex(n, k) if m & 1)[2:]))
    for i, seed_family in enumerate(families):
        rng, twin = random.Random(i), random.Random(i)
        fam = saturate_random(seed_family, rng)
        order = list(ksets_colex(n, k))
        twin.shuffle(order)
        expected = UniformFamily.from_masks(
            n, k, [*seed_family.masks, *pairwise_added(seed_family, order)])
        assert fam == expected
        assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("n,k", [(7, 3), (8, 3), (9, 4), (11, 5), (13, 6)])
def test_disjoint_table_against_pairwise_scan(n, k):
    """Position i of the table of disjoint positions lists exactly the
    colex positions of the k-sets disjoint from the i-th, in increasing
    order."""
    sets = list(ksets_colex(n, k))
    table = _disjoint_positions(n, k)
    assert len(table) == len(sets)
    for a, row in zip(sets, table):
        assert list(row) == [j for j, b in enumerate(sets) if not a & b]
        assert len(row) == binom(n - k, k)


@pytest.mark.parametrize("n,k", [(9, 4), (11, 5), (13, 6)])
def test_cached_lifts_equal_their_definitions(n, k):
    """The full lift and the blocked lift are one cached family per (n, k),
    equal to a fresh family of their definitions, and the full lift draws
    nothing from ``rng``."""
    window = mask_of(range(1, 6), n)
    edges = {mask_of(e, n) for e in [(1, 2, 3), (1, 4, 5), (2, 3, 5)]}
    lift = [m for m in ksets_colex(n, k) if m & window in edges]
    blockers = [mask_of([1, 2, 3, 4, *t], n) for t in combinations(range(6, n + 1), k - 4)]
    rng = random.Random(n)
    state = rng.getstate()
    full = lift_seed(n, k, rng)
    assert rng.getstate() == state
    assert full == UniformFamily.from_masks(n, k, lift)
    assert lift_seed(n, k, random.Random(0)) is full
    blocked = blocked_lift_seed(n, k)
    assert blocked == UniformFamily.from_masks(n, k, lift + blockers)
    assert blocked_lift_seed(n, k) is blocked


@pytest.mark.parametrize("seed", (0, 1, 7, 13, 2024))
def test_shuffle_draws_as_random_shuffle(seed):
    """``_shuffle`` gives the permutation of ``random.Random.shuffle`` and
    leaves the generator in the same state, at every length 0..600 and at
    C(13,6) = 1716 and C(14,6) = 3003, one length after another from one
    stream.  A CPython whose shuffle draws otherwise fails here."""
    rng, twin = random.Random(seed), random.Random(seed)
    for length in [*range(601), 1716, 3003]:
        mine, theirs = list(range(length)), list(range(length))
        _shuffle(mine, rng)
        twin.shuffle(theirs)
        assert mine == theirs, length
        assert rng.getstate() == twin.getstate(), length


@pytest.mark.parametrize("n,k", ((9, 4), (14, 6)))
def test_saturate_random_refuses_non_intersecting_input(n, k):
    """Both paths refuse a family with two disjoint members before drawing."""
    fam = UniformFamily.from_sets(n, k, [range(1, k + 1), range(k + 1, 2 * k + 1)])
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="requires an intersecting family"):
        saturate_random(fam, rng)
    assert rng.getstate() == state
