"""Named constructions and the lexicographic order."""

from bisect import bisect_left

import pytest

from conftest import reference_build_G
from ekrforge.binomial import binom
from ekrforge.constructions import (_g_heads, _star_with_base, build_F_H, build_G,
                                    build_HM, build_K34, build_R, build_S, full_star,
                                    g_size_formula, lex_family, lex_precedes)
from ekrforge.covers import brute_force_tau, covers, is_saturated, tau
from ekrforge.families import UniformFamily, elements_of, is_intersecting, ksets_colex, mask_of


def test_binom_convention():
    assert binom(7, 3) == 35
    assert binom(1, 4) == 0
    assert binom(2 * 5 - 3, 5 - 1) == 35
    assert binom(5, -1) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_small_patterns():
    assert set(build_S(6).sets()) == {(1, 2, 3), (1, 4, 5), (2, 4, 6)}
    assert set(build_R(5).sets()) == {(1, 2, 3), (1, 4, 5), (2, 3, 5)}
    assert len(build_K34(4)) == 4
    with pytest.raises(ValueError):
        build_S(5)
    with pytest.raises(ValueError):
        build_R(4)
    with pytest.raises(ValueError):
        build_K34(3)


def test_g_sizes_known_values():
    assert len(build_G(9, 4)) == 48 == g_size_formula(9, 4)
    assert len(build_G(8, 4)) == binom(7, 3) == 35
    assert len(build_G(11, 5)) == 199 == g_size_formula(11, 5)
    assert len(build_G(7, 3)) == 10 == g_size_formula(7, 3)
    assert g_size_formula(13, 6) == 778
    with pytest.raises(ValueError):
        build_G(7, 4)
    with pytest.raises(ValueError):
        build_G(5, 2)


def test_build_G_matches_reference_filter():
    """Every ID-G-SIZE grid point with k <= 7, and (16,8), (20,8) and
    (28,8), the largest point and the one with the most tails."""
    points = [(n, k) for k in range(3, 8) for n in range(2 * k, 2 * k + 13)]
    for n, k in points + [(16, 8), (20, 8), (28, 8)]:
        assert build_G(n, k).masks == reference_build_G(n, k).masks, (n, k)


def test_build_G_passes_the_checked_constructor():
    """``build_G`` checks its heads and tails and joins them unchecked; at
    every point of the default ID-G-SIZE grid its members pass the
    per-member checks of ``UniformFamily`` and number |G(n,k)|, and they
    are the masks below 2^n of G(2k+12,k), the prefix that ID-G-SIZE
    counts.  The comparison with ``reference_build_G`` is above."""
    for k in range(3, 9):
        largest = build_G(2 * k + 12, k).masks
        for n in range(2 * k, 2 * k + 13):
            g = build_G(n, k)
            assert UniformFamily(n, k, g.masks) == g, (n, k)
            assert len(g) == g_size_formula(n, k), (n, k)
            assert g.masks == largest[:bisect_left(largest, 1 << n)], (n, k)


def test_g_heads_are_cached_tuples():
    """The heads of G(n,k) are built and checked once per k, as tuples, so
    no caller can change them for the next build."""
    _g_heads.cache_clear()
    for n in (8, 9, 12):
        build_G(n, 4)
    info = _g_heads.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    heads = _g_heads(4)
    assert type(heads) is tuple and len(heads) == 4
    assert all(type(head) is tuple for head in heads)
    assert all(m & 1 and m.bit_count() == j + 1 and m < 1 << 8
               for j, head in enumerate(heads) for m in head)


def test_g_structure_instances():
    for n, k in ((9, 4), (11, 5)):
        g = build_G(n, k)
        assert is_intersecting(g)
        assert tau(g) == 3
        assert is_saturated(g)
    assert len(build_G(13, 6)) == g_size_formula(13, 6)


def test_g_saturated_at_13_6():
    g = build_G(13, 6)
    assert is_saturated(g)
    assert tau(g) == 3


def test_f_h_single_member():
    h = UniformFamily.from_sets(7, 3, [(2, 3, 4)])
    fh = build_F_H(h, 7, 3)
    assert set(h.masks) <= set(fh.masks)
    assert is_intersecting(fh)
    assert tau(fh) == 2
    assert len(fh) >= len(h)


def test_f_h_k34_hypothesis_check():
    """Cover-completion of K3(4) on {2,3,4,5}: both the residual-cover τ and
    τ(F_H) are 3, confirming the τ = r implication on this instance."""
    h = UniformFamily.from_sets(7, 3, [(2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)])
    assert tau(h) == 2
    fh = build_F_H(h, 7, 3)
    assert is_intersecting(fh)
    # T(H) \ T^(3)(H): covers of size <= 2; exhaustively they are the six
    # pairs of {2,3,4,5}, whose own covering number is 3
    small_covers = [c for ell in (1, 2) for c in covers(h, ell).sets()]
    assert small_covers == [(2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 5)]
    residual = UniformFamily.from_sets(7, 2, small_covers)
    assert brute_force_tau(residual) == 3
    assert tau(fh) == 3
    assert tau(fh) <= tau(h) + 1


def test_f_h_rejects_bad_h():
    with pytest.raises(ValueError):
        build_F_H(UniformFamily.from_sets(7, 3, [(1, 2, 3)]), 7, 3)
    with pytest.raises(ValueError):
        build_F_H(UniformFamily.from_sets(7, 3, [(2, 3, 4), (5, 6, 7)]), 7, 3)


def test_full_star_and_hm():
    star = full_star(6, 3)
    assert len(star) == binom(5, 2)
    assert all(1 in s for s in star.sets())
    hm = build_HM(7, 3)
    assert len(hm) == binom(6, 2) - binom(3, 2) + 1
    assert is_intersecting(hm)
    assert tau(hm) == 2


def test_star_with_base_against_its_definition():
    """{F : 1 ∈ F, F ∩ [2,ℓ+1] ≠ ∅} ∪ {[2,ℓ+1] ∪ T : T ⊆ [ℓ+2..n]}, filtered
    out of every k-set, at every 2 <= ℓ <= k <= 6 and 2k < n <= 16; at
    ℓ = k it is the Hilton-Milner family."""
    points = 0
    for k in range(2, 7):
        for n in range(2 * k + 1, 17):
            for ell in range(2, k + 1):
                base = mask_of(range(2, ell + 2), n)
                expected = tuple(m for m in ksets_colex(n, k)
                                 if (m & base if m & 1 else m & base == base))
                assert _star_with_base(n, k, ell).masks == expected, (n, k, ell)
                points += 1
            assert build_HM(n, k) == _star_with_base(n, k, k)
    assert points == 100


def test_lex_family_values():
    assert lex_family(5, 2, 4).sets() == [(1, 2), (1, 3), (1, 4), (1, 5)]
    assert len(lex_family(6, 3, 0)) == 0
    with pytest.raises(ValueError):
        lex_family(5, 2, 11)


def test_lex_star_prefix():
    m = binom(5, 2)
    fam = lex_family(6, 3, m)
    assert all(1 in s for s in fam.sets())
    assert len(fam) == m
    # the next lex set no longer contains 1
    bigger = lex_family(6, 3, m + 1)
    assert sum(1 for s in bigger.sets() if 1 not in s) == 1


def test_lex_nesting():
    prev = set()
    for m in range(0, binom(6, 3) + 1):
        cur = set(lex_family(6, 3, m).masks)
        assert prev <= cur
        prev = cur


def test_lex_precedes():
    f = mask_of([1, 3, 5], 6)
    g = mask_of([1, 4, 5], 6)
    assert lex_precedes(f, g)
    assert not lex_precedes(g, f)
    assert not lex_precedes(f, f)
    # total order consistent with the lex_family enumeration
    by_lex = sorted(lex_family(5, 3, binom(5, 3)).masks, key=elements_of)
    for a, b in zip(by_lex, by_lex[1:]):
        assert lex_precedes(a, b)
