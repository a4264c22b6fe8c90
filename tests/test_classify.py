"""T^(3) classification, pattern copies, the auxiliary graph, Claims 5 and 6."""

import pytest

from conftest import k34_window_family
from ekrforge.classify import (ClassificationTag, claim5_excluded_pairs,
                               claim5_maxT, claim6_partition, classify_T3,
                               classify_triples, contains_copy,
                               disjointness_graph, p_of_r, p_of_s)
from ekrforge.constructions import build_G, build_K34, build_R, build_S
from ekrforge.covers import covers, is_saturated, tau
from ekrforge.families import UniformFamily, elements_of, is_intersecting


def test_contains_copy_patterns():
    s = build_S(6)
    assert contains_copy(s, "S") == ((1, 2, 3), (1, 4, 5), (2, 4, 6))
    assert contains_copy(s, "R") is None
    r_host = UniformFamily.from_sets(6, 3, [(1, 2, 3), (2, 3, 4), (1, 4, 5)])
    assert contains_copy(r_host, "R") is not None
    assert contains_copy(build_R(5), "R") is not None
    with pytest.raises(ValueError):
        contains_copy(UniformFamily.from_sets(6, 2, [(1, 2)]), "S")
    with pytest.raises(ValueError):
        contains_copy(s, "Q")


def test_classify_g94_is_star_at_1():
    result = classify_T3(build_G(9, 4))
    assert result.tag == ClassificationTag.STAR
    assert result.witness == 1
    # witness validates: the apex covers all of T^(3)
    t3 = covers(build_G(9, 4), 3)
    assert all(1 in s for s in t3.sets())


def test_classify_k34_on_real_family():
    """Saturated τ=3 family at (9,4) whose 3-cover family is exactly K3(4)."""
    fam = k34_window_family()
    assert is_intersecting(fam)
    assert tau(fam) == 3
    assert is_saturated(fam)
    t3 = covers(fam, 3)
    assert {s for s in t3.sets()} == {(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)}
    result = classify_T3(fam)
    assert result.tag == ClassificationTag.K34
    assert result.witness == (1, 2, 3, 4)


def test_classify_triples_synthetic_inputs():
    assert classify_triples(UniformFamily(6, 3)).tag == ClassificationTag.EMPTY
    star_t = UniformFamily.from_sets(6, 3, [(1, 2, 3), (1, 4, 5)])
    assert classify_triples(star_t).tag == ClassificationTag.STAR
    assert classify_triples(build_K34(6)).tag == ClassificationTag.K34
    got_r = classify_triples(UniformFamily.from_sets(
        6, 3, [(1, 2, 3), (2, 3, 4), (1, 4, 5)]))
    assert got_r.tag == ClassificationTag.CONTAINS_R
    got_s = classify_triples(build_S(6))
    assert got_s.tag == ClassificationTag.CONTAINS_S
    # R preferred when both patterns occur
    both = UniformFamily.from_sets(
        7, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (2, 3, 4)])
    assert classify_triples(both).tag == ClassificationTag.CONTAINS_R


def test_classify_t3_below_three_points():
    """Over [2] there is no 3-set, so T^(3)(F) is empty, with the τ ≠ 3
    warning; ``covers(F, 3)`` would refuse a cover size past n."""
    with pytest.warns(UserWarning, match="covering number is 1, not 3"):
        result = classify_T3(UniformFamily.from_sets(2, 1, [(1,)]))
    assert result.tag == ClassificationTag.EMPTY and result.witness is None


def test_classify_rejects_unclassifiable():
    disjoint_t = UniformFamily.from_sets(6, 3, [(1, 2, 3), (4, 5, 6)])
    with pytest.raises(ValueError):
        classify_triples(disjoint_t)


def test_classification_property_run():
    from ekrforge.properties import suite_prop22_classify
    cert = suite_prop22_classify(samples=45, seed=3)
    assert cert.passed, cert.witnesses[:3]
    tags = cert.details["tags"]
    assert tags["contains-R"] + tags["contains-S"] + tags["star"] > 0


def test_p_of_r_disjointness_graph():
    pr = p_of_r()
    assert [elements_of(v) for v in pr] == [
        (1, 2), (1, 3), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5)]
    g = disjointness_graph(pr)
    assert len(g.edges) == 8
    edge_sets = {frozenset(e) for e in g.edge_sets()}
    assert edge_sets == {
        frozenset({(1, 2), (3, 4)}), frozenset({(1, 2), (3, 5)}),
        frozenset({(1, 3), (2, 4)}), frozenset({(1, 3), (2, 5)}),
        frozenset({(1, 5), (2, 4)}), frozenset({(1, 5), (3, 4)}),
        frozenset({(2, 4), (3, 5)}), frozenset({(2, 5), (3, 4)})}


def test_p_of_r_minus_15_is_c6():
    g = disjointness_graph(p_of_r()).without((1, 5))
    assert g.n_vertices() == 6
    assert g.degrees() == [2] * 6
    # connected 2-regular on 6 vertices == C6
    adj = {i: set() for i in range(6)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert len(seen) == 6


def test_p_of_s_partitions_into_three_disjoint_pairs():
    ps = p_of_s()
    assert {elements_of(v) for v in ps} == {(1, 2), (3, 4), (2, 4), (1, 6),
                                            (1, 4), (2, 5)}
    g = disjointness_graph(ps)
    edge_sets = {frozenset(e) for e in g.edge_sets()}
    # the three displayed pairs are edges and form a perfect matching
    matching = [frozenset({(1, 2), (3, 4)}), frozenset({(2, 4), (1, 6)}),
                frozenset({(1, 4), (2, 5)})]
    assert all(e in edge_sets for e in matching)
    touched = sorted(v for e in matching for v in e)
    assert touched == sorted(elements_of(v) for v in ps)


def _check_partition(edges, leftover):
    used = [leftover]
    for a, b in edges:
        assert not set(a) & set(b)
        used.extend((a, b))
    assert sorted(used) == sorted(
        [(1, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)])


def test_claim6_partition_cases():
    g = disjointness_graph(p_of_r())
    edges, leftover = claim6_partition(g, [])
    assert leftover == (1, 5)
    _check_partition(edges, leftover)
    edges2, leftover2 = claim6_partition(g, [(1, 5)])
    assert leftover2 == (3, 4)
    assert edges2 == (((1, 3), (2, 5)), ((3, 5), (1, 2)), ((1, 5), (2, 4)))
    _check_partition(edges2, leftover2)
    # an independent set not containing (1,5) also goes through case (i)
    edges3, leftover3 = claim6_partition(g, [(1, 2), (2, 4)])
    assert leftover3 == (1, 5)
    _check_partition(edges3, leftover3)


def test_claim6_rejects_dependent_sets():
    g = disjointness_graph(p_of_r())
    with pytest.raises(ValueError):
        claim6_partition(g, [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        claim6_partition(g, [(4, 5)])  # not a vertex


def test_claim5_value_and_exclusions():
    assert claim5_maxT() == 4
    entries = claim5_excluded_pairs()
    assert len(entries) == 6
    for entry in entries:
        assert entry["reasons"] == ["creates-R-copy", "creates-R-copy"]
    listed = {tuple(sorted(e["pair"])) for e in entries}
    assert ((1, 5, 6), (2, 3, 4)) in listed


def test_claim5_witness_family():
    """S + {1,2,4} realises the maximum: intersecting, R-free, size 4."""
    fam = UniformFamily.from_sets(6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (1, 2, 4)])
    assert is_intersecting(fam)
    assert contains_copy(fam, "R") is None


def test_heavy_trace_vertices_independent_in_pr_graph():
    """For families with all of R among the 3-covers, the 2-cover traces of
    disjoint P(R) vertices are cross-intersecting, so the heavy vertices
    (f_P above the threshold) form an independent set of the graph."""
    from ekrforge.binomial import binom
    from ekrforge.families import are_cross_intersecting, mask_of, trace
    from ekrforge.generators import sample_saturated_tau3

    n, k = 9, 4
    graph = disjointness_graph(p_of_r())
    r_edges = [mask_of(e, n) for e in [(1, 2, 3), (1, 4, 5), (2, 3, 5)]]
    threshold = binom(n - 6, k - 3)
    checked = 0
    for fam in sample_saturated_tau3(n, k, 40, seed=21,
                                     modes=("r_lift_blocked", "r_lift")):
        t3 = covers(fam, 3)
        if not all(e in set(t3.masks) for e in r_edges):
            continue
        checked += 1
        stats = trace(fam, [1, 2, 3, 4, 5])
        verts = list(graph.vertices)
        for i, j in graph.edges:
            p, q = verts[i], verts[j]
            res_p, res_q = stats.residual(p), stats.residual(q)
            if res_p is not None and res_q is not None:
                assert are_cross_intersecting(res_p, res_q)
            assert not (stats.f(p) > threshold and stats.f(q) > threshold)
        heavy = [v for v in verts if stats.f(v) > threshold]
        heavy_set = set(heavy)
        for i, j in graph.edges:
            assert not (verts[i] in heavy_set and verts[j] in heavy_set)
        claim6_partition(graph, heavy)
    assert checked >= 10
