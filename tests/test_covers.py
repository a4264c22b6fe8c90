"""Covers, covering number, saturation."""

import random

import pytest

from ekrforge.binomial import binom
from ekrforge.constructions import build_G, build_HM, build_K34, build_R, build_S, full_star
from conftest import (fano_plane, pairwise_added, reference_covers, reference_has_cover,
                      reference_point_index, reference_saturate, reference_tau)
from ekrforge.covers import (_added, all_covers, brute_force_tau, covers, has_cover,
                             is_saturated, saturate, tau)
from ekrforge.families import UniformFamily, is_intersecting, ksets_colex
from ekrforge.generators import (TABLE_LIMIT, random_intersecting_seed, random_saturated_family,
                                 saturate_random)


def test_covers_of_R_matches_listed_pairs():
    result = {s for s in covers(build_R(5), 2).sets()}
    assert result == {(1, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)}


def test_covers_of_S_matches_listed_pairs():
    result = {s for s in covers(build_S(6), 2).sets()}
    assert result == {(1, 2), (3, 4), (2, 4), (1, 6), (1, 4), (2, 5)}


def test_covers_star_and_empty():
    star = full_star(7, 3)
    assert covers(star, 1).sets() == [(1,)]
    empty = UniformFamily(5, 2)
    assert len(covers(empty, 2)) == binom(5, 2)


def test_covers_padding_property():
    fam = build_S(7)
    for ell in range(1, 6):
        if len(covers(fam, ell)):
            assert len(covers(fam, ell + 1))


def test_tau_named_values():
    assert tau(build_G(9, 4)) == 3
    assert tau(full_star(7, 3)) == 1
    assert tau(build_S(6)) == 2
    assert tau(build_K34(4)) == 2
    with pytest.raises(ValueError):
        tau(UniformFamily(6, 3))


def test_tau_matches_brute_force_on_random_families():
    rng = random.Random(7)
    for _ in range(40):
        n, k = rng.choice(((6, 3), (7, 3), (8, 4)))
        fam = saturate_random(random_intersecting_seed(n, k, rng, size=3), rng)
        assert tau(fam) == brute_force_tau(fam)


def test_has_cover_matches_brute_force_tau():
    """Seeded random families, intersecting or not, at every ℓ from 0 to k."""
    rng = random.Random(11)
    for _ in range(60):
        n, k = rng.choice(((6, 3), (7, 3), (8, 4), (9, 4)))
        pool = list(ksets_colex(n, k))
        fam = UniformFamily.from_masks(n, k, rng.sample(pool, rng.randint(1, 12)))
        t = brute_force_tau(fam)
        for ell in range(k + 1):
            assert has_cover(fam, ell) == (t <= ell), (fam.sets(), ell)


def test_has_cover_of_empty_family():
    empty = UniformFamily(6, 3)
    assert all(has_cover(empty, ell) for ell in range(4))
    with pytest.raises(ValueError):
        has_cover(empty, -1)


def _cover_cases():
    """(label, family): seeded random families, intersecting or not, with
    every size from 1 to 12 members, and the empty family."""
    rng = random.Random(23)
    for i in range(40):
        n, k = rng.choice(((6, 3), (7, 3), (8, 4), (9, 4), (10, 2)))
        pool = list(ksets_colex(n, k))
        yield f"random {i}", UniformFamily.from_masks(n, k, rng.sample(pool, rng.randint(1, 12)))
    yield "empty", UniformFamily(6, 3)


@pytest.mark.parametrize("family", [pytest.param(fam, id=label)
                                    for label, fam in _cover_cases()])
def test_point_indexed_covers_against_member_scans(family):
    """``covers``, ``has_cover`` and ``tau`` on the point index agree with
    the scans over member lists that they replace."""
    for ell in range(1, family.n + 1):
        assert covers(family, ell) == reference_covers(family, ell)
    for ell in range(family.k + 1):
        assert has_cover(family, ell) == reference_has_cover(family, ell)
    if family.masks:
        assert tau(family) == reference_tau(family)


def test_has_cover_2_against_member_scans():
    """``has_cover(F, 2)``, whose children are leaves tested point by point,
    agrees with the member-list scan on 200 seeded draws at (9,4) and at
    (11,5), cycling the four generation modes, and on families of τ = 1, 2
    and 3, the empty family and both families at k = 0.  Every 2-cover of
    the last τ = 2 family holds the point 1, which its first member,
    {2,3,4,5}, avoids."""
    rng = random.Random(2)
    modes = ("free", "r_lift", "r_lift_partial", "r_lift_blocked")
    families = [random_saturated_family(n, k, rng, modes[i % 4])
                for n, k in ((9, 4), (11, 5)) for i in range(200)]
    base = 0b11110
    first_avoids_1 = UniformFamily.from_masks(
        9, 4, [base] + [m for m in ksets_colex(9, 4) if m & 1 and m & base and m >> 5])
    families += [full_star(9, 4), build_HM(9, 4), build_G(9, 4), build_G(11, 5),
                 UniformFamily(9, 4), UniformFamily(9, 0), UniformFamily(9, 0, (0,)),
                 first_avoids_1]
    assert first_avoids_1.masks[0] == base and tau(first_avoids_1) == 2
    answers = [has_cover(fam, 2) for fam in families]
    assert answers == [reference_has_cover(fam, 2) for fam in families]
    taus = {tau(fam) for fam in families if fam.masks and fam.k}
    assert {1, 2, 3} <= taus
    assert True in answers[:400] and False in answers[:400]


def test_point_indexed_covers_of_G_24_7():
    """G(24,7), the family of the paper's bound at 82,141 members, has τ = 3
    and 43 3-covers, by the point index and by the member scans alike."""
    g = build_G(24, 7)
    assert tau(g) == reference_tau(g) == 3
    assert not has_cover(g, 2) and has_cover(g, 3)
    three = covers(g, 3)
    assert len(three) == 43 and three == reference_covers(g, 3)


def test_tau_of_the_family_of_the_empty_set():
    """No set meets ∅, so {∅} has no covering number, and no cover."""
    fam = UniformFamily(3, 0, (0,))
    with pytest.raises(ValueError, match="holding the empty set"):
        tau(fam)
    assert not any(has_cover(fam, ell) for ell in range(4))
    assert all(len(covers(fam, ell)) == 0 for ell in range(1, 4))


def test_saturation_scan_matches_pairwise_scan():
    """The point-indexed scan keeps the same candidates, in the same order."""
    rng = random.Random(17)
    for _ in range(30):
        n, k = rng.choice(((7, 3), (9, 4), (11, 5)))
        seed = random_intersecting_seed(n, k, rng, size=rng.randint(3, 6))
        order = list(ksets_colex(n, k))
        rng.shuffle(order)
        assert list(_added(seed, order)) == list(pairwise_added(seed, order))
    for fam in (build_S(7), full_star(7, 3), UniformFamily(6, 3), build_G(9, 4)):
        order = list(ksets_colex(fam.n, fam.k))
        assert list(_added(fam, order)) == list(pairwise_added(fam, order))


def _saturation_cases():
    rng = random.Random(23)
    seeds = [random_intersecting_seed(n, k, rng, size=rng.randint(3, 6))
             for n, k in ((7, 3), (9, 4), (11, 5)) for _ in range(10)]
    return seeds + [build_G(9, 4), full_star(7, 3), build_S(7), UniformFamily(7, 3),
                    UniformFamily(5, 0), UniformFamily(5, 0, (0,))]


def test_saturate_against_pairwise_colex_greedy():
    """``saturate`` scans only the k-covers and ``is_saturated`` looks for a
    non-member k-cover; both agree with the greedy over every k-set."""
    for fam in _saturation_cases():
        expected = reference_saturate(fam)
        assert saturate(fam) == expected, fam
        assert is_saturated(fam) == (expected == fam), fam
        assert is_saturated(expected), fam


def test_saturation_leaves_the_family_index_unchanged():
    """``_added`` grows a copy of the family's cached point index: after
    ``saturate``, ``is_saturated`` and ``saturate_random`` above the table
    (at (14,6)) the family's own index is still that of its members."""
    assert binom(14, 6) * binom(8, 6) > TABLE_LIMIT
    rng = random.Random(41)
    above_table = [random_intersecting_seed(14, 6, rng, size=3), UniformFamily(14, 6)]
    for fam in _saturation_cases() + above_table:
        index = fam.index
        saturate(fam)
        is_saturated(fam)
        if fam.n == 14:
            saturate_random(fam, rng)
        assert fam.index is index
        assert index == tuple(reference_point_index(fam.masks, fam.n))


def test_tau_monotone_under_supersets():
    rng = random.Random(13)
    for _ in range(25):
        n, k = rng.choice(((7, 3), (8, 3)))
        small = random_intersecting_seed(n, k, rng, size=3)
        big = saturate_random(small, rng)
        assert tau(small) <= tau(big)


def test_saturate_star_is_fixed_point():
    star = full_star(7, 3)
    assert saturate(star) == star
    assert is_saturated(star)


def test_saturate_idempotent_and_maximal():
    seed = build_S(7)
    sat = saturate(seed)
    assert is_intersecting(sat)
    assert is_saturated(sat)
    assert saturate(sat) == sat
    assert set(seed.masks) <= set(sat.masks)
    assert tau(sat) >= tau(seed)


def test_saturated_named_families():
    assert is_saturated(build_G(9, 4))
    single = UniformFamily.from_sets(7, 3, [(1, 2, 3)])
    assert not is_saturated(single)
    with pytest.raises(ValueError):
        saturate(UniformFamily.from_sets(6, 3, [(1, 2, 3), (4, 5, 6)]))


def test_tau_at_most_k_for_intersecting():
    rng = random.Random(5)
    for _ in range(20):
        n, k = rng.choice(((7, 3), (9, 4)))
        fam = saturate_random(random_intersecting_seed(n, k, rng, size=3), rng)
        assert tau(fam) <= k


def test_prop14_cover_family_intersecting_small_run():
    """T(H) intersecting for saturated H; the full-sized run is acceptance #9."""
    from itertools import combinations
    rng = random.Random(2)
    for _ in range(25):
        n, k = rng.choice(((7, 3), (8, 3), (9, 4)))
        fam = saturate_random(random_intersecting_seed(n, k, rng, size=3), rng)
        cover_masks = all_covers(fam)
        assert all(a & b for a, b in combinations(cover_masks, 2))


def test_fano_plane_is_maximal_with_tau3():
    fano = fano_plane()
    assert is_intersecting(fano)
    assert tau(fano) == 3
    assert is_saturated(fano)
