"""Search oracle: exact m(n,k,r), degree caps, canonical forms, optima."""

import dataclasses
import hashlib
import random
import time
from itertools import permutations
from types import SimpleNamespace

import pytest

import ekrforge.search
from conftest import (_apply_perm, _reference_cover_bound, brute_canonical_form,
                      brute_max_by_cliques, intersect_compat, maximal_cliques,
                      prop34_equality_family, reference_degcap, unforced_branch_a)
from ekrforge.binomial import binom
from ekrforge.cli import run
from ekrforge.constructions import (build_G, build_HM, build_K34, build_R, build_S,
                                    full_star, g_size_formula)
from ekrforge.covers import is_intersecting, tau
from ekrforge.families import UniformFamily, ksets_colex, mask_of
from ekrforge.search import (_avoidance, _candidate_graph, _colour_classes,
                             _dedup_to_forms, _default_incumbent,
                             _greedy_cover_bound, _plain_branch, _refine_cells,
                             _search,
                             _split_search, _structural_branches, are_isomorphic,
                             canonical_form, enumerate_optima, max_intersecting,
                             max_intersecting_degcap, max_intersecting_seeded)


def _digest(masks) -> str:
    return hashlib.sha256(repr(tuple(masks)).encode()).hexdigest()[:16]


# (search, value, nodes, digest of the witness masks; for "optima", of the
# class forms' masks).  A change that only speeds up a node keeps every
# row; one that changes a tree must record the new rows and say why.
PINNED_TREES = [
    (("plain", 7, 3, 1), 15, 84, "ce6c1f8df3fae08a"),
    (("plain", 8, 3, 1), 21, 92, "a2016b0e742b5387"),
    (("plain", 9, 3, 1), 28, 89, "12acd51aad0b6811"),
    (("plain", 10, 3, 1), 36, 109, "18d051dc002255ef"),
    (("plain", 11, 3, 1), 45, 141, "3886e29f9ec26726"),
    # plain r = 2, 3 and cold node counts fell (309, 467, 1105, 1744, 3117;
    # 795, 2648, 6644, 14180, 26928; cold 795 and 2648 before) when the
    # plain branch got the cells ({1..k}, [k+1..n]) and its first-avoider
    # splits began to skip an avoider in the orbit of an earlier sibling;
    # r = 1 has no split, and the values and witnesses did not move
    (("plain", 7, 3, 2), 13, 84, "74c45d4c2748e6dc"),
    (("plain", 8, 3, 2), 16, 72, "a3f84757c42a60b9"),
    (("plain", 9, 3, 2), 19, 105, "29435be259ceab3b"),
    (("plain", 10, 3, 2), 22, 90, "6c5f6b023b85c35f"),
    (("plain", 11, 3, 2), 25, 129, "0395b43489ffdac6"),
    (("plain", 7, 3, 3), 10, 103, "f64d28a646e075aa"),
    (("plain", 8, 3, 3), 10, 131, "f64d28a646e075aa"),
    (("plain", 9, 3, 3), 10, 150, "f64d28a646e075aa"),
    (("plain", 10, 3, 3), 10, 156, "f64d28a646e075aa"),
    (("plain", 11, 3, 3), 10, 160, "f64d28a646e075aa"),
    (("cold", 7, 3, 3), 10, 103, "f64d28a646e075aa"),
    (("cold", 8, 3, 3), 10, 131, "f64d28a646e075aa"),
    # degcap node counts fell (173, 272, 9087 and 34962 before) when the
    # search began to skip a candidate in the orbit of a sibling already
    # tried, under the symmetric groups on the cells of the node; the
    # values and witnesses did not move
    (("degcap", 7, 3, 2), 13, 41, "33a0a136144eef5b"),
    (("degcap", 7, 3, 3), 13, 68, "74c45d4c2748e6dc"),
    (("degcap", 8, 3, 2), 16, 983, "70331c4cca1fab12"),
    (("degcap", 8, 3, 3), 16, 4853, "a3f84757c42a60b9"),
    (("degcap", 9, 3, 3), 19, 762697, "29435be259ceab3b"),
    # seeded and r = 3 optima node counts fell (192, 318, 470, 648, 721
    # and 985 before) when every first-avoider split of the structural
    # branches began to skip an avoider in the orbit of an earlier sibling,
    # under the symmetric groups on the cells of the node; the values,
    # witnesses and class lists did not move
    (("seeded", 7, 3), 10, 131, "f64d28a646e075aa"),
    (("seeded", 8, 3), 10, 156, "f64d28a646e075aa"),
    (("seeded", 9, 3), 10, 188, "f64d28a646e075aa"),
    (("seeded", 10, 3), 10, 204, "f64d28a646e075aa"),
    (("optima", 7, 3, 3), 10, 484, "92b94b2f9e14842c"),
    (("optima", 8, 3, 3), 10, 485, "a4faba33be548ef5"),
]


@pytest.mark.parametrize("point,value,nodes,digest", PINNED_TREES,
                         ids=[" ".join(map(str, p)) for p, *_ in PINNED_TREES])
def test_pinned_trees(point, value, nodes, digest):
    """Values, node counts and witnesses stay exactly as pinned: "plain" is
    max_intersecting(n,k,r), "cold" the same without the warm start."""
    kind, *params = point
    if kind == "optima":
        forms, res = enumerate_optima(*params)
        masks = tuple(f.masks for f in forms)
    else:
        res = {"plain": max_intersecting, "degcap": max_intersecting_degcap,
               "seeded": max_intersecting_seeded,
               "cold": lambda *p: max_intersecting(*p, seed_incumbent=False)}[kind](*params)
        masks = res.witness.masks
    assert res.status == "proved-optimal"
    assert (res.value, res.nodes, _digest(masks)) == (value, nodes, digest)


def test_pinned_oracle_output(tmp_path):
    out = tmp_path / "out"
    assert run(["oracle", "--n", "9", "--k", "3", "--r", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == b"value 10 status proved-optimal nodes 150\n"


def test_values_against_closed_forms():
    assert max_intersecting(7, 3, 1, budget=60).value == binom(6, 2)
    assert max_intersecting(8, 3, 1, budget=60).value == binom(7, 2)
    assert max_intersecting(7, 3, 2, budget=60).value == binom(6, 2) - binom(3, 2) + 1
    assert max_intersecting(7, 3, 3, budget=60).value == 10 == g_size_formula(7, 3)


def test_values_without_warm_start():
    for n, k, r, expected in ((7, 3, 1, 15), (7, 3, 2, 13), (7, 3, 3, 10),
                              (8, 3, 3, 10)):
        res = max_intersecting(n, k, r, budget=120, seed_incumbent=False)
        assert res.status == "proved-optimal"
        assert res.value == expected


def test_witness_soundness():
    res = max_intersecting(8, 3, 3, budget=120)
    assert is_intersecting(res.witness)
    assert tau(res.witness) >= 3
    assert len(res.witness) == res.value


def test_monotone_in_r():
    values = [max_intersecting(7, 3, r, budget=60).value for r in (1, 2, 3)]
    assert values[0] >= values[1] >= values[2]


def test_determinism():
    a = max_intersecting(7, 3, 3, budget=60)
    b = max_intersecting(7, 3, 3, budget=60)
    assert (a.value, a.status, a.nodes, a.witness) == (b.value, b.status, b.nodes,
                                                       b.witness)


def test_matches_maximal_clique_enumeration():
    """Independent oracle: Bron-Kerbosch over all maximal intersecting families."""
    for n, k, r in ((6, 3, 1), (7, 3, 1), (7, 3, 2), (7, 3, 3), (8, 3, 2),
                    (8, 3, 3), (9, 3, 3)):
        assert max_intersecting(n, k, r, budget=120).value == \
            brute_max_by_cliques(n, k, r)


def test_preconditions():
    with pytest.raises(ValueError):
        max_intersecting(5, 3, 1)
    with pytest.raises(ValueError):
        max_intersecting(7, 3, 4)


def test_empty_optimum_is_proved():
    """No intersecting 2-uniform family has covering number 3, so the
    optimum is the empty family, with nothing to verify."""
    for res in (max_intersecting(4, 2, 3), max_intersecting_seeded(5, 2)):
        assert res.value == 0 and len(res.witness) == 0
        assert res.status == "proved-optimal"


def test_degcap_values():
    res2 = max_intersecting_degcap(7, 3, 2, budget=300)
    bound2 = binom(6, 2) - binom(4, 2) + binom(4, 1)
    assert res2.status == "proved-optimal"
    assert res2.value == 13 == bound2
    res3 = max_intersecting_degcap(7, 3, 3, budget=300)
    bound3 = binom(6, 2) - binom(3, 2) + binom(3, 0)
    assert res3.status == "proved-optimal"
    assert res3.value == 13 == bound3


def test_degcap_witness_respects_cap():
    res = max_intersecting_degcap(7, 3, 2, budget=300)
    cap = binom(6, 2) - binom(4, 2)
    degs = [sum(1 for s in res.witness.sets() if x in s) for x in range(1, 8)]
    assert max(degs) <= cap


def test_degcap_lower_bound_construction():
    """The 13-member witness for the cap-9 case: 1-star through [2,3] plus
    every triple containing {2,3}."""
    members = [(1, 2, x) for x in range(3, 8)] + [(1, 3, x) for x in range(4, 8)]
    members += [(2, 3, x) for x in range(4, 8)]
    fam = UniformFamily.from_sets(7, 3, members)
    assert len(fam) == 13
    assert is_intersecting(fam)
    degs = [sum(1 for s in fam.sets() if x in s) for x in range(1, 8)]
    assert max(degs) <= 9


def test_degcap_preconditions():
    with pytest.raises(ValueError):
        max_intersecting_degcap(7, 3, 1)
    with pytest.raises(ValueError):
        max_intersecting_degcap(6, 3, 2)


def test_degcap_against_reference():
    """Colour-ordered branching finds the same optimum and witness as the
    include/exclude reference, in fewer nodes."""
    for point in ((7, 3, 2), (7, 3, 3), (8, 3, 2), (8, 3, 3)):
        res = max_intersecting_degcap(*point, budget=300)
        value, masks, nodes = reference_degcap(*point)
        assert res.status == "proved-optimal"
        assert (res.value, res.witness.masks) == (value, masks)
        assert res.nodes < nodes


def test_refine_cells_orbits():
    """Refined cells partition [n] and cut every refining mask into whole
    cells; two k-sets meet the cells in equal numbers exactly when a
    permutation keeping every cell maps one onto the other (checked over
    all of S_6); a discrete partition is ``None``."""
    n, k = 6, 3
    ksets = list(ksets_colex(n, k))
    rng = random.Random(5)
    for _ in range(6):
        cells, masks = ((1 << n) - 1,), []
        while cells is not None:
            mask = rng.choice(ksets)
            masks.append(mask)
            refined = _refine_cells(cells, mask)
            if refined is None:
                parts = [part for c in cells for part in (c & mask, c & ~mask) if part]
                assert all(part & (part - 1) == 0 for part in parts)
                break
            cells = refined
            assert sum(cells) == (1 << n) - 1 and all(cells)
            assert all(a & b == 0 for i, a in enumerate(cells) for b in cells[i + 1:])
            for m in masks:
                assert all(c & m in (0, c) for c in cells)
            keep = [p for p in permutations(range(n))
                    if all(_apply_perm(c, p) == c for c in cells)]
            for a in ksets:
                orbit = {_apply_perm(a, p) for p in keep}
                key = [(a & c).bit_count() for c in cells]
                assert orbit == {b for b in ksets
                                 if [(b & c).bit_count() for c in cells] == key}


def test_degcap_cold_start_against_reference(monkeypatch):
    """Without the warm start (both searches read ``_degcap_seed`` at call
    time) the orbit-pruned search still proves the reference's value, with
    a witness of that size which is intersecting and within the cap."""
    monkeypatch.setattr(ekrforge.search, "_degcap_seed", lambda *args: None)
    for n, k, ell in ((7, 3, 2), (7, 3, 3), (8, 3, 2), (8, 3, 3)):
        res = max_intersecting_degcap(n, k, ell, budget=300)
        value, _, _ = reference_degcap(n, k, ell)
        assert res.status == "proved-optimal"
        assert res.value == value == len(res.witness)
        assert is_intersecting(res.witness)
        cap = binom(n - 1, k - 1) - binom(n - ell - 1, k - 1)
        degs = [sum(1 for s in res.witness.sets() if x in s) for x in range(1, n + 1)]
        assert max(degs) <= cap


def test_degcap_timeboxed():
    """An exhausted budget stops the search with a lower bound that still
    respects the cap."""
    res = max_intersecting_degcap(10, 3, 2, budget=0.01)
    assert res.status == "timeboxed-lower-bound"
    cap = binom(9, 2) - binom(7, 2)
    assert is_intersecting(res.witness) and len(res.witness) == res.value > 0
    degs = [sum(1 for s in res.witness.sets() if x in s) for x in range(1, 11)]
    assert max(degs) <= cap


@pytest.mark.parametrize("search,params,budget", [
    (max_intersecting, (9, 4, 3), 0.01),
    (max_intersecting_seeded, (9, 4), 0.5),
], ids=["plain 9 4 3", "seeded 9 4"])
def test_tau_search_timeboxed(search, params, budget):
    """The budget stops the τ-searches too, though forced inclusions move
    the node counter by more than one, with a verified witness at least as
    large as the warm start."""
    res = search(*params, budget=budget)
    assert res.status == "timeboxed-lower-bound"
    assert is_intersecting(res.witness) and tau(res.witness) >= 3
    assert len(res.witness) == res.value >= len(_default_incumbent(*params[:2], 3))


def test_split_budget_never_exceeds_overall(monkeypatch):
    """Each branch of the split gets what is left of the overall budget,
    never more: the first gets all of it, a later one no more than the
    rest, and 0 once it is spent."""
    seen = []

    def record(n, k, branch, budget, incumbent=None, collect_floor=None):
        seen.append(budget)
        return ekrforge.search.SearchResult(
            0, UniformFamily(n, k, ()), "timeboxed-lower-bound", 0, 0.0, budget), []

    monkeypatch.setattr(ekrforge.search, "_search", record)
    for budget in (0.5, 0.0):
        seen.clear()
        res = max_intersecting_seeded(9, 4, budget=budget)
        assert len(seen) == 4 and seen[0] == budget
        assert all(0 <= b <= budget for b in seen)
        assert res.status == "timeboxed-lower-bound"


def test_budget_read_at_every_multiple_of_4096(monkeypatch):
    """The search reads the clock at its start and end, and once each time
    the node counter passes a multiple of 4096, also when a forced
    inclusion moves it past one without landing on it.  The unpruned plain
    tree at (15,3,3) crosses many of them."""
    reads = []

    def perf_counter():
        reads.append(None)
        return time.perf_counter()

    monkeypatch.setattr(ekrforge.search, "time", SimpleNamespace(perf_counter=perf_counter))
    branch = dataclasses.replace(_plain_branch(15, 3, 3), cells=None)
    res, _ = _search(15, 3, branch, 600, _default_incumbent(15, 3, 3))
    assert res.nodes > 10 * 4096
    assert len(reads) == 2 + res.nodes // 4096


def test_colour_classes_partition():
    """The listed groups partition the candidates into pairwise-disjoint
    sets, each opening at the lowest candidate left, as many as the greedy
    bound counts (and as the masked form of that bound in the reference
    search); the bound's singleton openers are the one-member groups."""
    rng = random.Random(3)
    for n, k in ((9, 3), (9, 4)):
        first = mask_of(range(1, k + 1), n)
        cand_masks, _, disj = _candidate_graph(ksets_colex(n, k), (first,))
        for _ in range(40):
            cand = rng.getrandbits(len(cand_masks))
            classes = _colour_classes(cand, disj)
            groups, singles = _greedy_cover_bound(cand, disj)
            assert len(classes) == groups == _reference_cover_bound(cand, disj)
            left = cand
            for group in classes:
                assert group and group & ~left == 0
                assert group & -group == left & -left
                left ^= group
            assert left == 0
            assert singles == sum(g for g in classes if g.bit_count() == 1)
            for group in classes:
                members = [v for v in range(len(cand_masks)) if group >> v & 1]
                for i, u in enumerate(members):
                    for v in members[i + 1:]:
                        assert not cand_masks[u] & cand_masks[v]


def test_forced_candidates_open_singleton_groups():
    """Every candidate disjoint from no other candidate opens a group on its
    own, so the forced scan over the singleton openers misses none; and
    the group count never exceeds the candidate count, which makes the
    popcount leaf test a weaker form of the bound."""
    rng = random.Random(11)
    seen_forced = 0
    for n, k in ((9, 3), (9, 4)):
        first = mask_of(range(1, k + 1), n)
        cand_masks, _, disj = _candidate_graph(ksets_colex(n, k), (first,))
        for density in range(1, 7):
            for _ in range(40):
                cand = -1
                for _ in range(density):
                    cand &= rng.getrandbits(len(cand_masks))
                groups, singles = _greedy_cover_bound(cand, disj)
                assert groups <= cand.bit_count()
                assert singles & ~cand == 0
                for v in range(len(cand_masks)):
                    if cand >> v & 1 and not cand & disj[v]:
                        seen_forced += 1
                        assert singles >> v & 1
    assert seen_forced > 100


def test_canonical_form_invariance():
    rng = random.Random(0)
    fam = build_S(6)
    base = canonical_form(fam)
    for _ in range(100):
        perm = list(range(1, 7))
        rng.shuffle(perm)
        relabeled = UniformFamily.from_sets(
            6, 3, [tuple(perm[x - 1] for x in s) for s in fam.sets()])
        assert canonical_form(relabeled) == base


def test_canonical_form_distinguishes():
    assert canonical_form(build_S(6)) != canonical_form(build_R(6))


def test_canonical_k34_placement_independent():
    base = canonical_form(build_K34(6))
    moved = UniformFamily.from_sets(
        6, 3, [(3, 4, 5), (3, 4, 6), (3, 5, 6), (4, 5, 6)])
    assert canonical_form(moved) == base


def _relabeled(fam: UniformFamily, seed: int) -> UniformFamily:
    perm = list(range(1, fam.n + 1))
    random.Random(seed).shuffle(perm)
    return UniformFamily.from_sets(
        fam.n, fam.k, [tuple(perm[x - 1] for x in s) for s in fam.sets()])


def test_are_isomorphic():
    fam = build_S(6)
    assert are_isomorphic(fam, _relabeled(fam, 8))
    assert not are_isomorphic(build_S(6), build_R(6))
    # an 8-cycle and two 4-cycles share the degree and intersection
    # signature: only the bijection search tells them apart
    cycle = UniformFamily.from_sets(8, 2, [(i, i % 8 + 1) for i in range(1, 9)])
    squares = UniformFamily.from_sets(8, 2, [(1, 2), (2, 3), (3, 4), (1, 4),
                                             (5, 6), (6, 7), (7, 8), (5, 8)])
    assert not are_isomorphic(cycle, squares)
    assert are_isomorphic(cycle, _relabeled(cycle, 1))
    empty_set = UniformFamily.from_masks(3, 0, [0])
    assert are_isomorphic(empty_set, empty_set)


def test_canonical_form_against_brute_force():
    """Refinement forms induce the same classes as the permutation sweep,
    and each form is a relabeling of its family."""
    named = [build_S(6), build_R(6), build_K34(6), full_star(6, 3), build_HM(7, 3),
             build_G(7, 3), build_G(8, 4), prop34_equality_family()]
    optima = [UniformFamily(f.n, f.k, f.masks)
              for point in ((6, 3, 1), (7, 3, 3))
              for f in enumerate_optima(*point, budget=300)[0]]
    assert len(optima) == 13 + 7
    # families whose form depends on the search past the first leaf and
    # past the first automorphism found, so they get more relabelings
    hard = [UniformFamily.from_sets(8, 3, [(3, 5, 6), (3, 5, 7), (3, 6, 7),
                                           (1, 5, 8), (1, 6, 8), (1, 7, 8)]),
            UniformFamily.from_sets(8, 2, [(1, 3), (2, 4), (2, 5), (4, 5), (1, 6),
                                           (5, 6), (2, 7), (3, 7), (6, 7), (1, 8),
                                           (3, 8), (4, 8)]),
            UniformFamily.from_sets(8, 3, [(1, 2, 5), (1, 2, 8), (1, 3, 5), (1, 3, 8),
                                           (1, 4, 6), (1, 6, 7), (2, 3, 6), (2, 4, 6),
                                           (2, 5, 7), (2, 7, 8), (3, 4, 5), (3, 4, 8),
                                           (3, 6, 7), (4, 5, 7), (4, 7, 8)])]
    cases = [(fam, 2) for fam in named + optima] + [(fam, 8) for fam in hard]
    forms, brutes = [], []
    for i, (fam, copies) in enumerate(cases):
        for copy in [fam] + [_relabeled(fam, 10 * i + j) for j in range(copies)]:
            forms.append(canonical_form(copy))
            brutes.append((copy.n, copy.k, brute_canonical_form(copy)))
    assert len(set(forms)) == len(set(brutes)) == len(set(zip(forms, brutes)))
    for form, (_, _, brute) in set(zip(forms, brutes)):
        assert brute_canonical_form(UniformFamily(form.n, form.k, form.masks)) == brute


def test_canonical_form_G_11_5():
    """Beyond the reach of the permutation sweep: |G(11,5)| = 199."""
    g = build_G(11, 5)
    form = canonical_form(g)
    assert len(form.masks) == g_size_formula(11, 5) == 199
    assert all(canonical_form(_relabeled(g, seed)) == form for seed in range(3))
    assert are_isomorphic(UniformFamily(11, 5, form.masks), g)


def test_enumerate_optima_6_3_1():
    """13 isomorphism classes; cross-checked exhaustively over all 1024
    one-per-complement-pair selections (every maximal intersecting family
    at n = 2k arises that way)."""
    forms, result = enumerate_optima(6, 3, 1, budget=300)
    assert result.status == "proved-optimal"
    assert result.value == binom(5, 2) == 10
    assert len(forms) == 13
    assert all(f.masks for f in forms)


def test_enumerate_optima_r3_split_matches_plain():
    """At (7,3,3) and (8,3,3) the structural split (the forced branches A_j,
    collecting from the warm-start floor) reaches exactly the 7 classes of
    the unpruned plain search (no cells, so no orbit skips) collecting
    from 0."""
    for n in (7, 8):
        branch = dataclasses.replace(_plain_branch(n, 3, 3), cells=None)
        plain, raw = _search(n, 3, branch, 300, collect_floor=0)
        routes = [(_dedup_to_forms(n, 3, raw), plain),
                  enumerate_optima(n, 3, 3, budget=300)]
        for forms, result in routes:
            assert result.status == "proved-optimal"
            assert result.value == 10
            assert len(forms) == 7
            # every recorded class really has value-many members
            assert all(len(f.masks) == 10 for f in forms)
        assert [f.masks for f in routes[0][0]] == [f.masks for f in routes[1][0]]


def test_forced_split_against_unforced_branch_a():
    """At k = 3 the split is the branches A_j alone.  With or without the
    warm start they prove the value of branch A with nothing forced, and of
    the clique oracle, and release the same witness, in fewer nodes."""
    for n in (7, 8, 9):
        value = brute_max_by_cliques(n, 3, 3)
        for incumbent in (_default_incumbent(n, 3, 3), None):
            forced, _ = _split_search(n, 3, 300, incumbent)
            unforced, _ = _search(n, 3, unforced_branch_a(n, 3), 300, incumbent)
            assert forced.status == unforced.status == "proved-optimal"
            assert forced.witness.masks == unforced.witness.masks
            assert forced.value == unforced.value == value
            assert forced.nodes < unforced.nodes


def test_branches_a_reach_every_maximal_tau3_class():
    """The normalisation behind the forced members: each of the 8 classes
    of maximal intersecting families on ([7],3) with covering number 3
    (found by Bron-Kerbosch, of sizes 7 and 10) has a relabelling inside
    some branch A_j: one that holds both forced members and whose members
    all meet {1,2,3}."""
    n, k = 7, 3
    masks = list(ksets_colex(n, k))
    raw = []
    for clique in maximal_cliques(intersect_compat(masks), len(masks)):
        fam = UniformFamily.from_masks(
            n, k, [m for i, m in enumerate(masks) if clique >> i & 1])
        if tau(fam) == 3:
            raw.append(fam.masks)
    forms = _dedup_to_forms(n, k, raw)
    assert sorted(len(f.masks) for f in forms) == [7] + [10] * 7
    branches = [(set(b.forced), set(b.universe)) for b in _structural_branches(n, k)
                if b.constraints == _avoidance(n, 3)]
    for form in forms:
        assert any(forced <= image <= universe
                   for perm in permutations(range(n))
                   for image in [{_apply_perm(m, perm) for m in form.masks}]
                   for forced, universe in branches)


def test_structural_enumeration_without_optima():
    """No intersecting 2-uniform family has covering number 3."""
    forms, result = enumerate_optima(5, 2, 3)
    assert forms == [] and result.value == 0


def test_seeded_split_8_4():
    """At (8,4) the split runs branch A and one covering-number-4 branch."""
    res = max_intersecting_seeded(8, 4, budget=300)
    assert res.status == "proved-optimal"
    assert res.value == 35 == g_size_formula(8, 4)


def test_seeded_33_3():
    """The computed step of m(n,3,3) = 10 for every n: an intersecting
    3-family with covering number 3 holds a τ-critical subfamily of at most
    C(5,3) = 10 members (Bollobás, On generalized graphs, 1965), and with
    members added back to 11 it still has covering number 3 and spans at
    most 33 points; so m(33,3,3) = 10 rules out 11 members at every n."""
    res = max_intersecting_seeded(33, 3)
    assert res.status == "proved-optimal"
    assert (res.value, res.nodes) == (10, 212)
    assert is_intersecting(res.witness) and tau(res.witness) == 3


def _orbit_branches(n, k):
    """Every branch whose splits skip orbits, with the r_min of its search:
    the structural branches, and the plain ones at r = 2 and 3."""
    yield from ((branch, 3) for branch in _structural_branches(n, k))
    for r in (2, 3):
        yield _plain_branch(n, k, r), r


@pytest.mark.parametrize("n,k", [(7, 3), (8, 3), (9, 3), (8, 4), (9, 4)])
def test_branch_cells_invariant(n, k):
    """Seeded permutations that keep every cell of a branch, structural or
    plain, fix each of its forced members and map its universe and its
    constraint set onto themselves (a branch without cells has the trivial
    group)."""
    rng = random.Random(f"cells {n} {k}")
    full = (1 << n) - 1
    moved = False
    for branch, _ in _orbit_branches(n, k):
        cells = branch.cells or tuple(1 << x for x in range(n))
        assert sum(cells) == full and all(cells)
        assert all(a & b == 0 for i, a in enumerate(cells) for b in cells[i + 1:])
        universe, constraints = set(branch.universe), set(branch.constraints)
        for _ in range(20):
            perm = list(range(n))
            for cell in cells:
                pts = [x for x in range(n) if cell >> x & 1]
                for x, y in zip(pts, rng.sample(pts, len(pts))):
                    perm[x] = y
            moved = moved or perm != list(range(n))
            assert all(_apply_perm(f, perm) == f for f in branch.forced)
            assert {_apply_perm(m, perm) for m in universe} == universe
            assert {_apply_perm(c, perm) for c in constraints} == constraints
    assert moved


@pytest.mark.parametrize("n,k", [(7, 3), (8, 3), (9, 3), (10, 3), (8, 4)])
def test_orbit_skips_against_cells_none(n, k):
    """Every structural branch, and the plain branch at r = 2 and 3, proves
    the same value with its cells as without them (no orbit skips), cold
    and warm; at k = 3 the optima it collects from floor 0 fall into the
    same classes.  (8,4) is never collected from floor 0: at n = 2k every
    maximal family is an optimum, too many to hold."""
    nodes = [0, 0]
    for branch, r in _orbit_branches(n, k):
        routes = (branch, dataclasses.replace(branch, cells=None))
        for start in (_default_incumbent(n, k, r), None):
            runs = [_search(n, k, b, 300, start)[0] for b in routes]
            assert all(res.status == "proved-optimal" for res in runs)
            assert runs[0].value == runs[1].value
            for i, res in enumerate(runs):
                nodes[i] += res.nodes
        if k == 3:
            forms = [_dedup_to_forms(n, k, _search(n, k, b, 300, collect_floor=0)[1])
                     for b in routes]
            assert forms[0] and forms[0] == forms[1]
    # the skips took effect
    assert nodes[0] < nodes[1]


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_orbit_skips_on_orbit_closed_subuniverses(n):
    """The same cross-check on smaller spaces whose optima are less
    symmetric: each branch's universe cut down to a seeded random union of
    orbits of its cells' group (which keeps the universe invariant), with
    the optima collected from floor 0 with and without cells.  The plain
    branches at r = 2 and 3 have only four orbits at k = 3, so their cells
    are first refined by a seeded random set of points: the finer group
    still fixes {1,2,3} and maps the k-sets and the constraint set onto
    themselves."""
    rng = random.Random(f"subuniverse {n}")
    points = random.Random(f"plain cells {n}")
    branches = list(_structural_branches(n, 3))
    for r in (2, 3):
        plain = _plain_branch(n, 3, r)
        branches.append(dataclasses.replace(
            plain, cells=_refine_cells(plain.cells, points.getrandbits(n))))
    for branch in branches:
        if branch.cells is None:
            continue
        orbits = {}
        for m in branch.universe:
            orbits.setdefault(tuple([(m & c).bit_count() for c in branch.cells]),
                              []).append(m)
        keys = sorted(orbits)
        for _ in range(15):
            kept = rng.sample(keys, int(len(keys) * rng.choice((0.5, 0.7, 0.85))))
            universe = tuple(sorted({m for key in kept for m in orbits[key]}
                                    | set(branch.forced)))
            cut = dataclasses.replace(branch, universe=universe)
            runs = [_search(n, 3, b, 300, collect_floor=0)
                    for b in (cut, dataclasses.replace(cut, cells=None))]
            (with_cells, raw), (without, plain_raw) = runs
            assert with_cells.status == without.status == "proved-optimal"
            assert with_cells.value == without.value
            assert _dedup_to_forms(n, 3, raw) == _dedup_to_forms(n, 3, plain_raw)


@pytest.mark.parametrize("members,problem", [
    ([(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6), (1, 6, 7), (2, 5, 7), (3, 4, 7),
      (1, 2, 4), (1, 3, 5), (5, 6, 7)], "intersecting"),
    ([(1, 2, x) for x in range(3, 8)] + [(1, 3, x) for x in range(4, 8)] + [(1, 4, 5)],
     "covering number"),
    ([(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6), (1, 6, 7), (2, 5, 7), (3, 4, 7)],
     "members"),
], ids=["not intersecting", "covering number 1", "7 members"])
def test_enumerate_optima_reverifies_classes(monkeypatch, members, problem):
    """A class of optima that is not intersecting, has covering number
    below r_min or is not of the optimum size raises ``AssertionError``."""
    witness = build_G(7, 3)
    bad = UniformFamily.from_sets(7, 3, members)
    result = ekrforge.search.SearchResult(10, witness, "proved-optimal", 1, 0.0, 1.0)
    monkeypatch.setattr(ekrforge.search, "_split_search",
                        lambda *args, **kwargs: (result, [witness.masks, bad.masks]))
    with pytest.raises(AssertionError, match=problem):
        enumerate_optima(7, 3, 3)


@pytest.mark.slow
def test_optima_7_3_3_against_clique_enumeration():
    """Dual route for the 7-class count: Bron-Kerbosch over all maximal
    intersecting families, filtered to size-10 τ≥3, deduplicated."""
    from conftest import intersect_compat, maximal_cliques
    from ekrforge.families import ksets_colex

    masks = list(ksets_colex(7, 3))
    compat = intersect_compat(masks)
    raw = []
    for clique in maximal_cliques(compat, len(masks)):
        if clique.bit_count() != 10:
            continue
        fam_masks = tuple(masks[i] for i in range(len(masks)) if clique >> i & 1)
        fam = UniformFamily.from_masks(7, 3, fam_masks)
        if tau(fam) >= 3:
            raw.append(fam.masks)
    forms = _dedup_to_forms(7, 3, raw)
    assert len(raw) == 3185
    assert len(forms) == 7
    direct, _ = enumerate_optima(7, 3, 3, budget=300)
    assert [f.masks for f in forms] == [f.masks for f in direct]


@pytest.mark.slow
def test_seeded_search_structure():
    """Branch A of the structural split, the covering-number-3 case, proves
    48 at (9,4): every forced branch A_j is proved, and their maximum is 48.
    The node counts pin the orbit-pruned trees: a split that drops its
    preference for a constraint that is a union of cells stays sound but
    walks 239,994 / 378,275 / 277,790 nodes."""
    incumbent = _default_incumbent(9, 4, 3)
    branches = [b for b in _structural_branches(9, 4)
                if b.constraints == _avoidance(9, 3)]
    assert len(branches) == 3
    results = [_search(9, 4, b, 600, incumbent)[0] for b in branches]
    assert all(res.status == "proved-optimal" for res in results)
    assert max(res.value for res in results) == 48
    assert [res.nodes for res in results] == [239994, 364946, 261243]
