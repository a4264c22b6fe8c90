"""Family core: masks, predicates, traces, layers, degrees."""

import random
from fractions import Fraction

import pytest
from conftest import (_reference_meets_all_mask, pairwise_is_intersecting, reference_point_index,
                      reference_trace)

from ekrforge.binomial import binom
from ekrforge.constructions import build_G, full_star, lex_family
from ekrforge.families import (UniformFamily, are_cross_intersecting,
                               elements_of, is_intersecting, ksets_colex, layer,
                               mask_of, max_degree, meeting, point_index, trace)


def test_mask_roundtrip():
    m = mask_of([2, 5, 7], 8)
    assert elements_of(m) == (2, 5, 7)
    with pytest.raises(ValueError):
        mask_of([0, 1], 5)
    with pytest.raises(ValueError):
        mask_of([1, 1, 2], 5)


def test_family_colex_order_and_dedup():
    fam = UniformFamily.from_sets(6, 3, [(4, 5, 6), (1, 2, 3), (1, 2, 3)])
    assert len(fam) == 2
    assert fam.sets() == [(1, 2, 3), (4, 5, 6)]
    # colex order == integer order on masks
    masks = list(ksets_colex(6, 3))
    assert masks == sorted(masks)
    assert len(masks) == binom(6, 3)


def test_family_validation():
    with pytest.raises(ValueError):
        UniformFamily.from_sets(6, 3, [(1, 2)])
    with pytest.raises(ValueError):
        UniformFamily.from_sets(6, 3, [(1, 2, 7)])
    with pytest.raises(ValueError):
        UniformFamily(65, 3)
    # the direct constructor checks every member: range, size, then order
    for masks, message in (((0b111, 0b1000011), "outside the ground set"),
                           ((0b111, 0b11000), "has size 2, expected 3"),
                           ((0b1011, 0b111), "strictly colex-increasing"),
                           ((0b111, 0b111), "strictly colex-increasing")):
        with pytest.raises(ValueError, match=message):
            UniformFamily(6, 3, masks)
    with pytest.raises(ValueError, match="outside the ground set"):
        UniformFamily.from_masks(6, 3, [0b1000011])
    with pytest.raises(ValueError, match="has size 2"):
        UniformFamily.from_masks(6, 3, [0b11000])


def test_trace_residuals_pass_the_checked_constructor():
    """``trace`` builds its residual families unchecked; each passes the
    per-member checks, has the uniformity k - |S| and the count f_S."""
    rng = random.Random(7)
    for fam in (build_G(9, 4), build_G(20, 6), full_star(8, 3)):
        windows = [list(range(1, 6))] + [rng.sample(range(1, fam.n + 1), 4)
                                          for _ in range(3)]
        for window in windows:
            stats = trace(fam, window)
            for s, fs in stats.counts.items():
                residual = stats.residual(s)
                assert UniformFamily(fam.n, fam.k - s.bit_count(),
                                     residual.masks) == residual
                assert len(residual) == fs


def _random_family(rng: random.Random) -> UniformFamily:
    n = rng.randint(1, 12)
    k = rng.randint(0, n)
    sets = list(ksets_colex(n, k))
    return UniformFamily.from_masks(n, k, rng.sample(sets, rng.randint(0, min(len(sets), 40))))


def test_trace_against_eager_grouping():
    """The counts, f, the total and every residual family of ``trace`` match
    the member-by-member grouping, through an int window and an iterable
    one; an S that no member traces has f = 0 and no residual family."""
    rng = random.Random(31)
    for _ in range(200):
        fam = _random_family(rng)
        window = rng.sample(range(1, fam.n + 1), rng.randint(0, fam.n))
        u = mask_of(window, fam.n)
        expected = reference_trace(fam, window)
        for stats in (trace(fam, u), trace(fam, window)):
            assert stats.window == u
            assert list(stats.counts.items()) == [(s, fs) for s, (fs, _) in expected.items()]
            assert stats.total() == len(fam)
            s = u
            while True:  # every subset S of U, u down to 0
                fs, residual = expected.get(s, (0, None))
                assert stats.f(s) == stats.f(elements_of(s)) == fs
                assert stats.residual(s) == residual
                assert stats.residual(elements_of(s)) == residual
                if not s:
                    break
                s = (s - 1) & u


def test_family_index_is_the_point_index():
    """``UniformFamily.index`` is the point index of the members, built
    once: every read returns the same tuple."""
    rng = random.Random(37)
    fams = [_random_family(rng) for _ in range(100)]
    fams += [build_G(9, 4), build_G(20, 6), UniformFamily(7, 3), UniformFamily(5, 0, (0,))]
    for fam in fams:
        index = fam.index
        assert index == tuple(point_index(fam.masks, fam.n)) \
            == tuple(reference_point_index(fam.masks, fam.n))
        assert fam.index is index


def test_is_intersecting():
    star = full_star(6, 3)
    assert is_intersecting(star)
    assert not is_intersecting(UniformFamily.from_sets(6, 3, [(1, 2, 3), (4, 5, 6)]))
    assert is_intersecting(build_G(9, 4))


def test_is_intersecting_against_pairwise_scan():
    rng = random.Random(17)
    outcomes = []
    for _ in range(2000):
        n = rng.randint(1, 9)
        k = rng.randint(1, (n + 1) // 2)
        pool = list(ksets_colex(n, k))
        fam = UniformFamily.from_masks(n, k, rng.sample(pool, rng.randint(0, min(len(pool), 12))))
        if rng.random() < 0.5:
            # greedily intersecting, then perhaps one member that misses some
            kept = []
            for m in fam.masks:
                if all(m & other for other in kept):
                    kept.append(m)
            if rng.random() < 0.5:
                kept.append(rng.choice(pool))
            fam = UniformFamily.from_masks(n, k, kept)
        expected = pairwise_is_intersecting(fam)
        assert is_intersecting(fam) == expected, fam
        outcomes.append(expected)
    assert min(outcomes.count(True), outcomes.count(False)) > 500


def _index_cases():
    """(masks, queries, n): no masks, no queries, the 0-set, a point at
    bit 63 with n = 64, random bitsets, and every k-set against every one."""
    top = 1 << 63
    yield [], [0b101, 0], 3
    yield [0b011, 0b110], [], 3
    yield [0], [0, 0b1], 1
    yield [0, 0b10, 0b11], [0, 0b1, 0b10], 2
    yield [top, top | 1, 0b10, 0], [top, 1, top | 0b10, 0, (1 << 64) - 1], 64
    rng = random.Random(17)
    for n in (5, 9, 13, 64):
        yield ([rng.getrandbits(n) for _ in range(40)],
               [rng.getrandbits(n) for _ in range(25)], n)
    for n, k in ((7, 3), (9, 4)):
        sets = list(ksets_colex(n, k))
        yield sets, sets, n


@pytest.mark.parametrize("masks,queries,n", list(_index_cases()))
def test_point_index_and_meeting_against_pairwise_scan(masks, queries, n):
    """inc[x] holds exactly the positions of the masks through the point
    x + 1, and each query's bitset exactly the positions of the masks it
    meets."""
    assert point_index(masks, n) == [_reference_meets_all_mask(masks, 1 << x)
                                     for x in range(n)]
    assert list(meeting(queries, masks, n)) == [_reference_meets_all_mask(masks, q)
                                                for q in queries]


@pytest.mark.parametrize("size", [0, 4095, 4096, 4097, 8193])
def test_point_index_against_one_bit_at_a_time(size):
    """The transposing kernel gives the same rows as adding one bit per
    member and point, on both sides of its 4,096-mask chunks."""
    rng = random.Random(size)
    masks = [rng.getrandbits(13) for _ in range(size)]
    assert point_index(masks, 13) == reference_point_index(masks, 13)


def test_point_index_at_64_points():
    """At n = 64 the top point sits in the sign position of a 64-bit word."""
    rng = random.Random(64)
    top = 1 << 63
    masks = [rng.getrandbits(64) | top * (i % 3 == 0) for i in range(4100)]
    inc = point_index(masks, 64)
    assert inc == reference_point_index(masks, 64)
    assert inc[63].bit_count() > 1366


def _pivot_cases():
    """(label, family) for the max-degree pivot of ``is_intersecting``."""
    yield "star", full_star(7, 3)  # every member holds the pivot 1
    # every point has degree 2, so the pivot is 1 by the tie rule
    yield "tied degrees", UniformFamily.from_sets(
        6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)])
    # 1, 2 and 4 have degree 2, so the pivot is 1 again; {4,5,6} avoids it
    yield "tied degrees, disjoint", UniformFamily.from_sets(
        6, 3, [(1, 2, 3), (1, 2, 4), (4, 5, 6)])
    # 1 has degree 4; {2,3,4} and {5,6,7} both avoid it and miss each other
    yield "disjoint avoiders", UniformFamily.from_sets(
        7, 3, [(1, 2, 5), (1, 2, 6), (1, 3, 6), (1, 4, 7), (2, 3, 4), (5, 6, 7)])


@pytest.mark.parametrize("family", [pytest.param(fam, id=label)
                                    for label, fam in _pivot_cases()])
def test_is_intersecting_pivot_against_pairwise_scan(family):
    assert is_intersecting(family) == pairwise_is_intersecting(family)


def test_is_intersecting_edge_cases():
    for n, k in ((1, 0), (1, 1), (6, 0), (6, 3)):
        assert is_intersecting(UniformFamily(n, k))
    assert is_intersecting(UniformFamily.from_sets(6, 3, [(4, 5, 6)]))
    assert is_intersecting(UniformFamily.from_sets(6, 0, [()]))
    disjoint = UniformFamily.from_sets(6, 3, [(1, 2, 3), (4, 5, 6)])
    assert not is_intersecting(disjoint)
    for fam in (UniformFamily.from_sets(6, 0, [()]), disjoint):
        assert is_intersecting(fam) == pairwise_is_intersecting(fam)


def test_is_intersecting_large():
    g = build_G(20, 6)
    assert is_intersecting(g) and pairwise_is_intersecting(g)
    members = set(g.masks)
    outside = [m for m in ksets_colex(20, 6) if m not in members]
    # G(20,6) is maximal intersecting, so any added 6-set misses a member
    for extra in (outside[0], outside[-1]):
        assert not is_intersecting(UniformFamily.from_masks(20, 6, g.masks + (extra,)))


def test_cross_intersecting():
    a = UniformFamily.from_sets(5, 2, [(1, 2)])
    assert are_cross_intersecting(a, UniformFamily.from_sets(5, 3, [(1, 3, 4)]))
    assert not are_cross_intersecting(a, UniformFamily.from_sets(5, 3, [(3, 4, 5)]))
    with pytest.raises(ValueError):
        are_cross_intersecting(a, UniformFamily.from_sets(6, 3, [(1, 3, 4)]))
    # symmetry on random pairs
    rng = random.Random(3)
    for _ in range(25):
        fa = UniformFamily.from_sets(
            6, 2, {tuple(sorted(rng.sample(range(1, 7), 2))) for _ in range(4)})
        fb = UniformFamily.from_sets(
            6, 3, {tuple(sorted(rng.sample(range(1, 7), 3))) for _ in range(4)})
        assert are_cross_intersecting(fa, fb) == are_cross_intersecting(fb, fa)


def test_cross_intersecting_ft92_optimum_pair():
    from ekrforge.oracles import ft92_oracle
    _, cert = ft92_oracle(6, 2, 3)
    opt = cert.params["optimum"]
    a = lex_family(6, 2, opt["a_count"])
    b = lex_family(6, 3, opt["b_count"])
    assert are_cross_intersecting(a, b)


def test_trace_full_star():
    star = full_star(7, 3)
    stats = trace(star, [1])
    assert stats.f([1]) == binom(6, 2) == 15
    assert stats.f(0) == 0
    assert stats.total() == len(star)


def test_trace_g94_window5():
    g = build_G(9, 4)
    stats = trace(g, [1, 2, 3, 4, 5])
    assert stats.total() == len(g) == 48
    # the member {2,6,7,8} shows up under S={2} with residual {6,7,8}
    assert stats.f([2]) == 1
    assert stats.residual([2]).sets() == [(6, 7, 8)]


def test_trace_alpha_exact_and_flags():
    g = build_G(9, 4)
    stats = trace(g, [1, 2, 3, 4, 5])
    a = stats.alpha_of([1, 2])
    assert isinstance(a, Fraction)
    assert a == Fraction(stats.f([1, 2]), binom(4, 2))
    # α undefined for the empty trace by design
    assert stats.alpha_of(0) is None
    # denominator-zero flag: k - |S| > n - |U| forces binom = 0
    fam = UniformFamily.from_sets(6, 3, [(1, 2, 3), (1, 4, 5)])
    st = trace(fam, [1, 2, 3, 4, 5])
    assert st.alpha_of([1]) is None  # binom(1, 2) = 0


def test_layer_partition_law():
    g = build_G(9, 4)
    u = [1, 2, 3, 4, 5]
    sizes = [len(layer(g, u, i)) for i in range(0, 5)]
    assert sum(sizes) == len(g)
    assert sizes[0] == 0  # every member of G(9,4) meets [5]
    assert layer(g, range(1, 10), 4) == g
    fam = UniformFamily.from_sets(5, 3, [(1, 2, 3), (3, 4, 5)])
    assert layer(fam, [1, 2], 2).sets() == [(1, 2, 3)]


def test_trace_layer_consistency():
    g = build_G(9, 4)
    u = [1, 2, 3, 4, 5]
    stats = trace(g, u)
    for i in range(0, 5):
        expect = sum(f for s, f in stats.counts.items() if s.bit_count() == i)
        assert len(layer(g, u, i)) == expect


def test_max_degree():
    assert max_degree(full_star(7, 3)) == (1, 15)
    fam = UniformFamily.from_sets(6, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    assert max_degree(fam) == (1, 3)  # four-way tie broken by smallest element
    assert max_degree(build_G(9, 4)) == (1, 45)
    with pytest.raises(ValueError):
        max_degree(UniformFamily(6, 3))


def test_sperner_alpha_property_random():
    """α(A)+α(B) ≤ 1 for disjoint A,B in a window of a random intersecting family."""
    from ekrforge.properties import suite_sperner_random
    cert = suite_sperner_random(samples=18, seed=11)
    assert cert.passed, cert.witnesses[:3]
    assert cert.params["samples"] == 18
    # 7 samples draw 2 families at each of the three grid points
    assert suite_sperner_random(samples=7, seed=11).params["samples"] == 6
    assert cert.params["pairs_checked"] > 100


def test_hilton_lemma_lex_compression():
    from ekrforge.properties import suite_hilton_lex
    cert = suite_hilton_lex(samples=2000, seed=5)
    assert cert.passed, cert.witnesses[:3]

