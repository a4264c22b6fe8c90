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
                      prop34_equality_family, reference_candidate_graph,
                      reference_degcap, reference_point_index, unforced_branch_a)
from ekrforge.binomial import binom
from ekrforge.cli import run
from ekrforge.constructions import (build_G, build_HM, build_K34, build_R, build_S,
                                    full_star, g_size_formula)
from ekrforge.covers import brute_force_tau, is_intersecting, tau
from ekrforge.families import UniformFamily, ksets_colex, mask_of
from ekrforge.search import (_avoidance, _candidate_graph, _colour_classes,
                             _dedup_to_forms, _default_incumbent,
                             _plain_branch, _refine_cells, _search,
                             _structural_branches, are_isomorphic,
                             canonical_form, enumerate_optima, max_intersecting,
                             max_intersecting_degcap, max_intersecting_seeded)


def _digest(masks) -> str:
    return hashlib.sha256(repr(tuple(masks)).encode()).hexdigest()[:16]


# (search, value, nodes, digest of the witness masks; for "optima", of the
# class forms' masks).  A change that only speeds up a node keeps every
# row; one that changes a tree must record the new rows and say why.
PINNED_TREES = [
    # every count below moved when _candidate_graph began to list the
    # candidates fewest-met first (by the number of other candidates each
    # one meets, ties in colex order) instead of in colex order; the values,
    # the witnesses and the class lists did not move, except the seeded
    # k = 3 witness, which is now (7,11,13,14,22,25,37,42,67,76) instead of
    # C([5],3), another τ = 3 optimum of 10 members, the colex-least of
    # those the reordered tree notes.  The counts before, row by row: plain
    # r = 1 84, 92, 89, 109, 141; r = 2 84, 72, 105, 90, 129; r = 3 103,
    # 131, 150, 156, 160; cold 103, 131; degcap 41, 68, 983, 4853, 33375,
    # 688290, 60467; seeded 131, 156, 188, 204, 212, 4; optima 484, 485,
    # 1534, 400.  In colex order degcap (11,3,2) and (10,3,3) ran out of
    # 120 s and 60 s budgets, and seeded (10,4) took 493595 nodes and 15 s
    # plain r = 1 and 2, seeded (10,4) and optima (6,3,1) and (7,3,2) fell
    # (r = 1 80, 80, 61, 49, 41; r = 2 44, 70, 94, 114, 155; seeded
    # 213303; optima 1534 and 225 before) when the clique phase began to
    # carry the node's cells and to exclude the lowest candidate's whole
    # orbit under them.  The r = 3 trees at k = 3 and those of the (9,4)
    # split did not move, nor did the values, the witnesses or the class
    # lists.
    # 28 counts below fell when every branching site of both search
    # cores took the clique phase's orbit rule: once a child has been
    # searched, its member's whole orbit under the node's cells leaves
    # the later siblings, and a child's cells are the node's refined by
    # its own member only (a split and the degcap loop used to skip a
    # candidate whose vector of cell counts matched an earlier sibling's,
    # and to refine each child's cells by every sibling passed before it).
    # The counts before, row by row: plain r = 2 42, 57, 82 at n = 7, 9,
    # 11; r = 3 138, 163, 166, 169, 172; cold 142, 167; degcap 49, 66,
    # 351, 851, 1651, 7902, 7360, 46111, 72827; seeded 101, 122, 145, 172,
    # 203 and (10,4) 211445; optima (7,3,3) 426, (8,3,3) 447, (7,3,2)
    # 166.  No count rose.  The values, the class lists and every other
    # witness did not move; the seeded k = 3 witness is C([5],3) again
    # (digest f64d28a646e075aa, as in the plain r = 3 rows; it was
    # d77fb70ed5fd4699), the colex-least of the optima the new tree notes
    (("plain", 7, 3, 1), 15, 15, "ce6c1f8df3fae08a"),
    (("plain", 8, 3, 1), 21, 7, "a2016b0e742b5387"),
    (("plain", 9, 3, 1), 28, 7, "12acd51aad0b6811"),
    (("plain", 10, 3, 1), 36, 5, "18d051dc002255ef"),
    (("plain", 11, 3, 1), 45, 3, "3886e29f9ec26726"),
    # m(9,4,1) took 54407 nodes (1.0-1.5 s) before, and ran out of its
    # 60 s budget in colex order; m(10,4,1) took 112144
    (("plain", 9, 4, 1), 56, 3172, "662721ede13ce92e"),
    (("plain", 10, 4, 1), 84, 817, "24a1754f09f298e2"),
    # plain r = 2, 3 and cold node counts fell (309, 467, 1105, 1744, 3117;
    # 795, 2648, 6644, 14180, 26928; cold 795 and 2648 before) when the
    # plain branch got the cells ({1..k}, [k+1..n]) and its first-avoider
    # splits began to skip an avoider in the orbit of an earlier sibling;
    # r = 1 has no split, and the values and witnesses did not move
    (("plain", 7, 3, 2), 13, 32, "74c45d4c2748e6dc"),
    (("plain", 8, 3, 2), 16, 39, "a3f84757c42a60b9"),
    (("plain", 9, 3, 2), 19, 43, "29435be259ceab3b"),
    (("plain", 10, 3, 2), 22, 52, "6c5f6b023b85c35f"),
    (("plain", 11, 3, 2), 25, 64, "0395b43489ffdac6"),
    (("plain", 7, 3, 3), 10, 99, "f64d28a646e075aa"),
    (("plain", 8, 3, 3), 10, 118, "f64d28a646e075aa"),
    (("plain", 9, 3, 3), 10, 118, "f64d28a646e075aa"),
    (("plain", 10, 3, 3), 10, 118, "f64d28a646e075aa"),
    (("plain", 11, 3, 3), 10, 118, "f64d28a646e075aa"),
    (("cold", 7, 3, 3), 10, 103, "f64d28a646e075aa"),
    (("cold", 8, 3, 3), 10, 122, "f64d28a646e075aa"),
    # degcap node counts fell (173, 272, 9087 and 34962 before) when the
    # search began to skip a candidate in the orbit of a sibling already
    # tried, under the symmetric groups on the cells of the node; the
    # values and witnesses did not move
    (("degcap", 7, 3, 2), 13, 37, "33a0a136144eef5b"),
    (("degcap", 7, 3, 3), 13, 47, "74c45d4c2748e6dc"),
    (("degcap", 8, 3, 2), 16, 147, "70331c4cca1fab12"),
    (("degcap", 8, 3, 3), 16, 334, "a3f84757c42a60b9"),
    # degcap (9,3,3) fell from 762697 nodes, and (9,3,2) from 60403 and
    # (10,3,2) from 2628483, when a node began to stop once the room left
    # under the cap at the points of {1..k}, which every candidate meets,
    # could not lift it past the incumbent; the values and witnesses did
    # not move.  (10,3,2), (11,3,2) and (10,3,3) prove the theorem bound
    # C(n-1,2) - C(n-ℓ-1,2) + C(n-ℓ-1,3-ℓ): 22, 25 and 22
    (("degcap", 9, 3, 2), 19, 528, "de0cc02610fb0428"),
    (("degcap", 9, 3, 3), 19, 2786, "29435be259ceab3b"),
    (("degcap", 10, 3, 2), 22, 1730, "073847309d419e64"),
    (("degcap", 11, 3, 2), 25, 7569, "693e2d88195f4c32"),
    (("degcap", 10, 3, 3), 22, 24949, "6c5f6b023b85c35f"),
    # seeded and r = 3 optima node counts fell (192, 318, 470, 648, 721
    # and 985 before) when every first-avoider split of the structural
    # branches began to skip an avoider in the orbit of an earlier sibling,
    # under the symmetric groups on the cells of the node; the values,
    # witnesses and class lists did not move
    (("seeded", 7, 3), 10, 93, "f64d28a646e075aa"),
    (("seeded", 8, 3), 10, 96, "f64d28a646e075aa"),
    (("seeded", 9, 3), 10, 96, "f64d28a646e075aa"),
    (("seeded", 10, 3), 10, 96, "f64d28a646e075aa"),
    (("seeded", 11, 3), 10, 96, "f64d28a646e075aa"),
    # the only cheap point with a covering-number-4 branch B_i
    (("seeded", 8, 4), 35, 4, "07a2d32be7225d5a"),
    # m(10,4,3) = 61 = |G(10,4)|: the split's four branches A_1..A_3, B_1
    (("seeded", 10, 4), 61, 90570, "8b59b67279d49446"),
    (("optima", 7, 3, 3), 10, 414, "92b94b2f9e14842c"),
    (("optima", 8, 3, 3), 10, 414, "a4faba33be548ef5"),
    # r != 3 collects over the plain branch from floor 0
    (("optima", 6, 3, 1), 10, 373, "2494be960751ea29"),
    (("optima", 7, 3, 2), 13, 157, "c76226c510f8b6b6"),
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
    # 166 nodes before one orbit rule at every branching site
    assert out.read_bytes() == b"value 10 status proved-optimal nodes 118\n"


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


@pytest.mark.parametrize("search", [
    lambda r: max_intersecting(4, 0, r), lambda r: enumerate_optima(4, 0, r),
    lambda r: max_intersecting(1, 0, r), lambda r: max_intersecting_seeded(4, 0)],
    ids=["plain", "optima", "plain n = 1", "seeded"])
def test_k0_refuses_covering_number(search):
    """At k = 0 the only member is ∅, which no set meets, so no family of
    it has a covering number: r_min >= 2 is refused at entry, naming it,
    before a search notes {∅} and its check asks for τ.  r_min = 1 still
    proves 1."""
    for r in (2, 3):
        with pytest.raises(ValueError, match="covering number >= . is undefined at k = 0"):
            search(r)
    assert max_intersecting(4, 0, 1).value == enumerate_optima(4, 0, 1)[1].value == 1


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
    time) the search still proves the optimum, with a witness of that size
    which is intersecting and within the cap.  The warm start already meets
    the optimum at every point, so a capacity stop that cut one family too
    many would still pass every warm value test; cold, at (9,3,2) and
    (10,3,2), where the stop prunes, the expected value is the theorem
    bound, since the reference takes seconds there."""
    monkeypatch.setattr(ekrforge.search, "_degcap_seed", lambda *args: None)
    for n, k, ell, value in ((7, 3, 2, None), (7, 3, 3, None), (8, 3, 2, None),
                             (8, 3, 3, None), (9, 3, 2, 19), (10, 3, 2, 22)):
        cap = binom(n - 1, k - 1) - binom(n - ell - 1, k - 1)
        if value is None:
            value, _, _ = reference_degcap(n, k, ell)
        else:
            assert value == cap + binom(n - ell - 1, k - ell)
        res = max_intersecting_degcap(n, k, ell, budget=300)
        assert res.status == "proved-optimal"
        assert res.value == value == len(res.witness)
        assert is_intersecting(res.witness)
        degs = [sum(1 for s in res.witness.sets() if x in s) for x in range(1, n + 1)]
        assert max(degs) <= cap


def test_degcap_timeboxed():
    """An exhausted budget stops the search with a lower bound that still
    respects the cap.  (9,4,4) takes 710,246 nodes and about 13 s to
    prove."""
    res = max_intersecting_degcap(9, 4, 4, budget=0.01)
    assert res.status == "timeboxed-lower-bound"
    cap = binom(8, 3) - binom(4, 3)
    assert is_intersecting(res.witness) and len(res.witness) == res.value > 0
    degs = [sum(1 for s in res.witness.sets() if x in s) for x in range(1, 10)]
    assert max(degs) <= cap


@pytest.mark.parametrize("search,params,budget", [
    (max_intersecting, (9, 4, 3), 0.01),
    (max_intersecting_seeded, (9, 4), 0.1),
], ids=["plain 9 4 3", "seeded 9 4"])
def test_tau_search_timeboxed(search, params, budget):
    """The budget stops the τ-searches too, though forced inclusions move
    the node counter by more than one, with a verified witness at least as
    large as the warm start."""
    res = search(*params, budget=budget)
    assert res.status == "timeboxed-lower-bound"
    assert is_intersecting(res.witness) and tau(res.witness) >= 3
    assert len(res.witness) == res.value >= len(_default_incumbent(*params[:2], 3))


@pytest.mark.parametrize("budget", [0.0, 0.1])
def test_split_stops_within_overall_budget(budget):
    """The four branches of the (9,4) split run under one deadline: the
    search returns a lower bound within the budget plus a little slack.
    At budget 0 it stops at the first clock read, node 64, and starts no
    further branch."""
    start = time.perf_counter()
    res = max_intersecting_seeded(9, 4, budget=budget)
    assert time.perf_counter() - start < budget + 0.25
    assert res.status == "timeboxed-lower-bound"
    assert len(res.witness) == res.value >= len(_default_incumbent(9, 4, 3))
    if budget == 0.0:
        assert res.nodes < 2 * 64


@pytest.mark.parametrize("n,k", [(8, 4), (9, 3)])
def test_split_run_walks_each_branch_tree(n, k):
    """Warm-started from G(n,k), which no branch beats, the split run walks
    each branch's own tree: its node count is the sum of the branches run
    one at a time, and its witness the colex-least of theirs."""
    incumbent = _default_incumbent(n, k, 3)
    split, _ = _search(n, k, _structural_branches(n, k), 300, incumbent)
    alone = [_search(n, k, [b], 300, incumbent)[0] for b in _structural_branches(n, k)]
    assert len(alone) == {(8, 4): 4, (9, 3): 2}[n, k]
    assert split.status == "proved-optimal"
    assert split.nodes == sum(res.nodes for res in alone)
    assert split.value == max(res.value for res in alone)
    assert split.witness.masks == min(res.witness.masks for res in alone
                                      if res.value == split.value)


def test_budget_read_at_every_multiple_of_64(monkeypatch):
    """The search reads the clock at its start and end, and once each time
    the node counter passes a multiple of 64, also when a forced
    inclusion moves it past one without landing on it.  The unpruned plain
    tree at (15,3,3) crosses many of them."""
    reads = []

    def perf_counter():
        reads.append(None)
        return time.perf_counter()

    monkeypatch.setattr(ekrforge.search, "time", SimpleNamespace(perf_counter=perf_counter))
    branch = dataclasses.replace(_plain_branch(15, 3, 3), cells=None)
    res, _ = _search(15, 3, [branch], 600, _default_incumbent(15, 3, 3))
    assert res.nodes > 10 * 64
    assert len(reads) == 2 + res.nodes // 64


def test_timebox_overruns_little_at_large_n():
    """At (24,4,3) a node takes a fraction of a millisecond, so a search
    that read the clock every 4,096 nodes ran for 1.7 s on a 0.5 s budget;
    read every 64 nodes, it stops within 1 s."""
    start = time.perf_counter()
    res = max_intersecting(24, 4, 3, budget=0.5)
    assert time.perf_counter() - start < 1.0
    assert res.status == "timeboxed-lower-bound"
    assert is_intersecting(res.witness) and tau(res.witness) >= 3


def _graph_inputs():
    """(label, n, universe, forced) of every candidate graph the tests
    compare: a plain branch, every structural branch at (9,4) and (10,4),
    the degcap universe at (9,3), and the lone 0-set with nothing forced."""
    branch = _plain_branch(9, 4, 3)
    yield "plain 9 4 3", 9, branch.universe, branch.forced
    for n in (9, 10):
        for i, branch in enumerate(_structural_branches(n, 4)):
            yield f"split {n} 4 #{i}", n, branch.universe, branch.forced
    yield "degcap 9 3", 9, tuple(ksets_colex(9, 3)), (mask_of((1, 2, 3), 9),)
    yield "k = 0", 3, (0,), ()


@pytest.mark.parametrize("n,universe,forced", [pytest.param(*args, id=label)
                                               for label, *args in _graph_inputs()])
def test_candidate_graph_against_pairwise_builder(n, universe, forced):
    """The candidates are those of the pairwise builder, listed by the
    number of other candidates each one meets, ties in colex order; on that
    order ``compat`` and ``disj`` read off the point index equal those of
    the pairwise builder, and the returned index is the candidates' point
    index."""
    cand_masks, compat, disj, through = _candidate_graph(n, universe, forced)
    colex, _, _ = reference_candidate_graph(universe, forced)
    reference = reference_candidate_graph(cand_masks, ())
    assert sorted(cand_masks) == sorted(colex)
    keys = [(row.bit_count(), colex.index(m)) for row, m in zip(reference[1], cand_masks)]
    assert keys == sorted(keys)
    assert (cand_masks, compat, disj) == reference
    assert through == reference_point_index(cand_masks, n)


def test_colour_classes_partition():
    """The listed groups partition the candidates into pairwise-disjoint
    sets, each opening at the lowest candidate left, as many as the masked
    form of the greedy bound in the reference search counts."""
    rng = random.Random(3)
    for n, k in ((9, 3), (9, 4)):
        first = mask_of(range(1, k + 1), n)
        cand_masks, _, disj, _ = _candidate_graph(n, ksets_colex(n, k), (first,))
        for _ in range(40):
            cand = rng.getrandbits(len(cand_masks))
            classes = _colour_classes(cand, disj)
            assert len(classes) == _reference_cover_bound(cand, disj)
            left = cand
            for group in classes:
                assert group and group & ~left == 0
                assert group & -group == left & -left
                left ^= group
            assert left == 0
            for group in classes:
                members = [v for v in range(len(cand_masks)) if group >> v & 1]
                for i, u in enumerate(members):
                    for v in members[i + 1:]:
                        assert not cand_masks[u] & cand_masks[v]


def test_forced_candidates_open_singleton_groups():
    """Every candidate disjoint from no other candidate is a one-member
    group, so the forced scan over the one-member groups misses none; and
    the group count never exceeds the candidate count, which makes the
    popcount leaf test a weaker form of the bound."""
    rng = random.Random(11)
    seen_forced = 0
    for n, k in ((9, 3), (9, 4)):
        first = mask_of(range(1, k + 1), n)
        cand_masks, _, disj, _ = _candidate_graph(n, ksets_colex(n, k), (first,))
        for density in range(1, 7):
            for _ in range(40):
                cand = -1
                for _ in range(density):
                    cand &= rng.getrandbits(len(cand_masks))
                classes = _colour_classes(cand, disj)
                assert len(classes) <= cand.bit_count()
                for v in range(len(cand_masks)):
                    if cand >> v & 1 and not cand & disj[v]:
                        seen_forced += 1
                        assert 1 << v in classes
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


# families whose canonical forms must come back as checked families
FORM_CASES = {
    "empty": lambda: UniformFamily(6, 3),
    "empty-set-k0": lambda: UniformFamily.from_masks(3, 0, [0]),
    "S": build_S,
    "R": build_R,
    "K34": lambda: build_K34(6),
    "G(8,4)-relabelled": lambda: _relabeled(build_G(8, 4), 5),
}


@pytest.mark.parametrize("case", FORM_CASES)
def test_canonical_form_is_a_checked_family(case):
    """A form is a plain family, equal to the one its masks build through
    the checked constructor, and isomorphic to its input."""
    fam = FORM_CASES[case]()
    form = canonical_form(fam)
    assert type(form) is UniformFamily
    assert form == UniformFamily(fam.n, fam.k, form.masks)
    assert are_isomorphic(form, fam)


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


# the points of the optima-iso benchmark, with their numbers of classes
OPTIMA_POINTS = {(6, 3, 1): 13, (7, 3, 2): 2, (7, 3, 3): 7, (8, 3, 3): 7, (9, 3, 3): 7}


def _raw_optima(n, k, r):
    """The labelled optima that ``enumerate_optima`` collects, in its order."""
    if r == 3:
        return _search(n, k, _structural_branches(n, k), 300,
                       _default_incumbent(n, k, 3), collect=True)[1]
    return _search(n, k, [_plain_branch(n, k, r)], 300, collect=True)[1]


def _forms_alone(n, k, raw):
    """The deduplication by canonical form alone."""
    forms = {canonical_form(UniformFamily.from_masks(n, k, masks)) for masks in raw}
    return sorted(forms, key=lambda f: f.masks)


@pytest.fixture(scope="module")
def optima_raw():
    """The raw optima of each benchmark point, collected once for the module."""
    return {point: _raw_optima(*point) for point in OPTIMA_POINTS}


def test_dedup_against_canonical_forms_alone(optima_raw):
    """The signature buckets and the bijection test give the classes that
    canonical forms alone give: on the raw optima of the benchmark points,
    with a relabelled copy of each behind them, and on a bucket of two
    classes (an 8-cycle and two 4-cycles share the signature), where a
    copy first fails against the other class's representative."""
    cases = []
    for (n, k, r), classes in OPTIMA_POINTS.items():
        raw = optima_raw[n, k, r]
        copies = [_relabeled(UniformFamily.from_masks(n, k, masks), i).masks
                  for i, masks in enumerate(raw)]
        cases.append((n, k, raw + copies, classes))
    cycle = UniformFamily.from_sets(8, 2, [(i, i % 8 + 1) for i in range(1, 9)])
    squares = UniformFamily.from_sets(8, 2, [(1, 2), (2, 3), (3, 4), (1, 4),
                                             (5, 6), (6, 7), (7, 8), (5, 8)])
    cases.append((8, 2, [_relabeled(fam, seed).masks for seed in range(6)
                         for fam in (cycle, squares)], 2))
    cases.append((3, 0, [(0,), (0,)], 1))
    for n, k, raw, classes in cases:
        forms = _dedup_to_forms(n, k, raw)
        assert len(forms) == classes
        assert forms == _forms_alone(n, k, raw)


def test_are_isomorphic_on_the_optimum_classes(optima_raw):
    """Over the class forms of every benchmark point and a relabelled copy
    of each, isomorphic exactly within a class."""
    reps = list(enumerate(f for (n, k, _), raw in optima_raw.items()
                          for f in _dedup_to_forms(n, k, raw)))
    assert len(reps) == sum(OPTIMA_POINTS.values()) == 36
    fams = reps + [(i, _relabeled(fam, 100 + i)) for i, fam in reps]
    for i, fam_a in fams:
        for j, fam_b in fams:
            assert are_isomorphic(fam_a, fam_b) == (i == j)


def test_canonical_form_against_brute_force():
    """Refinement forms induce the same classes as the permutation sweep,
    and each form is a relabeling of its family."""
    named = [build_S(6), build_R(6), build_K34(6), full_star(6, 3), build_HM(7, 3),
             build_G(7, 3), build_G(8, 4), prop34_equality_family()]
    optima = [f for point in ((6, 3, 1), (7, 3, 3))
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
        assert brute_canonical_form(form) == brute


def test_canonical_form_G_11_5():
    """Beyond the reach of the permutation sweep: |G(11,5)| = 199."""
    g = build_G(11, 5)
    form = canonical_form(g)
    assert len(form.masks) == g_size_formula(11, 5) == 199
    assert all(canonical_form(_relabeled(g, seed)) == form for seed in range(3))
    assert are_isomorphic(form, g)


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
        plain, raw = _search(n, 3, [branch], 300, collect=True)
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
    the clique oracle, in fewer nodes.  Each releases the colex-least
    optimum that its own tree notes, so the witnesses may differ; each is
    intersecting, has covering number 3 by brute force and the proved
    size, and is isomorphic to a class of ``enumerate_optima``."""
    for n in (7, 8, 9):
        value = brute_max_by_cliques(n, 3, 3)
        forms, _ = enumerate_optima(n, 3, 3)
        for incumbent in (_default_incumbent(n, 3, 3), None):
            forced, _ = _search(n, 3, _structural_branches(n, 3), 300, incumbent)
            unforced, _ = _search(n, 3, [unforced_branch_a(n, 3)], 300, incumbent)
            assert forced.status == unforced.status == "proved-optimal"
            assert forced.value == unforced.value == value
            assert forced.nodes < unforced.nodes
            for witness in (forced.witness, unforced.witness):
                assert is_intersecting(witness) and brute_force_tau(witness) == 3
                assert len(witness) == value
                assert any(are_isomorphic(witness, form) for form in forms)


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
    # 1897 nodes before one orbit rule at every branching site
    assert (res.value, res.nodes) == (10, 96)
    assert is_intersecting(res.witness) and tau(res.witness) == 3


def _orbit_branches(n, k):
    """Every branch that skips orbits, with the r_min of its search: the
    structural branches, and the plain ones at r = 1, 2 and 3."""
    yield from ((branch, 3) for branch in _structural_branches(n, k))
    for r in (1, 2, 3):
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


@pytest.mark.parametrize("n,k", [(6, 3), (7, 3), (8, 3), (9, 3), (10, 3), (8, 4)])
def test_orbit_skips_against_cells_none(n, k):
    """Every structural branch, and the plain branch at r = 1, 2 and 3,
    proves the same value with its cells as without them (no orbit skips),
    cold and warm; at k = 3 the optima it collects from floor 0 fall into
    the same classes.  (8,4) is never collected from floor 0: at n = 2k
    every maximal family is an optimum, too many to hold.  The plain
    branches at r = 1 and 2 reach the clique phase, whose include child
    must refine the cells by its member: one that kept the node's cells
    collects 8 classes at (6,3,1), not 13, and proves 13 cold at (7,3,1),
    not 15, while the warm start hides the loss in the value."""
    nodes = [0, 0]
    for branch, r in _orbit_branches(n, k):
        routes = (branch, dataclasses.replace(branch, cells=None))
        for start in (_default_incumbent(n, k, r), None):
            runs = [_search(n, k, [b], 300, start)[0] for b in routes]
            assert all(res.status == "proved-optimal" for res in runs)
            assert runs[0].value == runs[1].value
            for i, res in enumerate(runs):
                nodes[i] += res.nodes
        if k == 3:
            forms = [_dedup_to_forms(n, k, _search(n, k, [b], 300, collect=True)[1])
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
            runs = [_search(n, 3, [b], 300, collect=True)
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
    result = ekrforge.search.SearchResult(witness, "proved-optimal", 1, 0.0)
    monkeypatch.setattr(ekrforge.search, "_search",
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
    The node counts pin the orbit-pruned trees (27,815 / 36,842 / 52,086
    before one orbit rule at every branching site).  A split that drops
    its preference for a constraint that is a union of cells stays sound
    and walks 22,768 / 25,660 / 28,965 nodes here, about as many, but
    31,946 instead of 19,454 in B_1, the covering-number-4 branch."""
    incumbent = _default_incumbent(9, 4, 3)
    branches = [b for b in _structural_branches(9, 4)
                if b.constraints == _avoidance(9, 3)]
    assert len(branches) == 3
    results = [_search(9, 4, [b], 600, incumbent)[0] for b in branches]
    assert all(res.status == "proved-optimal" for res in results)
    assert max(res.value for res in results) == 48
    assert [res.nodes for res in results] == [22845, 25627, 28996]
