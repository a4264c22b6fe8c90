"""Structural analysis of the 3-cover family T^(3)(F).

For a saturated intersecting family with covering number 3 the 3-cover
family is a star, the complete 3-graph on four vertices, or contains a
copy of one of the two 3-edge patterns

    S = {{1,2,3},{1,4,5},{2,4,6}}   pairwise intersections (1,1,1), 6 vertices,
    R = {{1,2,3},{1,4,5},{2,3,5}}   pairwise intersections (1,1,2), 5 vertices.

Those two profiles characterise the patterns exactly: three distinct
triples with profile (1,1,1) and empty common intersection span 6
vertices and form a copy of S, and profile (1,1,2) with union of size 5
forces the R shape.  Copy detection therefore filters by profile and
union size, which doubles as the brute-force vertex-injection test for
these tiny patterns.

Also here: the auxiliary disjointness graph on the 2-cover family P(R),
built by one constructor from masks or element tuples, its partition
into three disjoint edges plus a leftover vertex, and the exhaustive
maximum for intersecting R-free supersets of S inside [6].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

from .constructions import build_R, build_S
from .covers import covers, is_intersecting, tau
from .families import MAX_GROUND, UniformFamily, elements_of, mask_of


class ClassificationTag(Enum):
    EMPTY = "empty"
    STAR = "star"
    K34 = "k34"
    CONTAINS_S = "contains-S"
    CONTAINS_R = "contains-R"


@dataclass(frozen=True)
class Classification:
    """Tag plus the witness realising it.

    witness: apex element for STAR, 4-tuple of vertices for K34, triple
    of member element-tuples for CONTAINS_S / CONTAINS_R, None for EMPTY.
    """

    tag: ClassificationTag
    witness: object = None


@dataclass(frozen=True)
class DisjointnessGraph:
    """Graph on 2-set vertices, edges exactly the disjoint pairs."""

    vertices: tuple[int, ...]          # 2-set masks

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The index pairs i < j of disjoint vertices."""
        vs = self.vertices
        return tuple((i, j) for i, j in combinations(range(len(vs)), 2) if not vs[i] & vs[j])

    def n_vertices(self) -> int:
        return len(self.vertices)

    def edge_sets(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        return [(elements_of(self.vertices[i]), elements_of(self.vertices[j]))
                for i, j in self.edges]

    def without(self, vertex) -> "DisjointnessGraph":
        vm = vertex if isinstance(vertex, int) else mask_of(vertex, MAX_GROUND)
        return disjointness_graph([v for v in self.vertices if v != vm])

    def degrees(self) -> list[int]:
        deg = [0] * len(self.vertices)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


def disjointness_graph(vertices: Sequence) -> DisjointnessGraph:
    """Auxiliary graph on a list of 2-sets, given as masks or element
    tuples; edges join disjoint pairs."""
    vs = tuple(v if isinstance(v, int) else mask_of(v, MAX_GROUND) for v in vertices)
    if len(set(vs)) != len(vs):
        raise ValueError("duplicate vertices")
    return DisjointnessGraph(vs)


# ── pattern detection ────────────────────────────────────────────────────────

def _pattern_check(a: int, b: int, c: int, pattern: str) -> bool:
    inter = sorted(((a & b).bit_count(), (a & c).bit_count(), (b & c).bit_count()))
    union = (a | b | c).bit_count()
    if pattern == "S":
        return inter == [1, 1, 1] and union == 6
    if pattern == "R":
        return inter == [1, 1, 2] and union == 5
    raise ValueError(f"unknown pattern {pattern!r}")


def contains_copy(triples: UniformFamily, pattern: str
                  ) -> Optional[tuple[tuple[int, ...], ...]]:
    """First (colex) triple of members isomorphic to the S or R pattern, or None."""
    if triples.k != 3:
        raise ValueError("contains_copy expects a 3-uniform family")
    if pattern not in ("S", "R"):
        raise ValueError(f"unknown pattern {pattern!r}")
    masks = triples.masks
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            b = masks[j]
            for t in range(j + 1, len(masks)):
                c = masks[t]
                if _pattern_check(a, b, c, pattern):
                    return (elements_of(a), elements_of(b), elements_of(c))
    return None


def classify_triples(triples: UniformFamily) -> Classification:
    """Classify a 3-uniform cover family per the star/K34/S/R case split."""
    if triples.k != 3:
        raise ValueError("classify_triples expects a 3-uniform family")
    masks = triples.masks
    if not masks:
        return Classification(ClassificationTag.EMPTY)
    common = masks[0]
    for m in masks[1:]:
        common &= m
    if common:
        apex = (common & -common).bit_length()
        return Classification(ClassificationTag.STAR, apex)
    if all((a & b).bit_count() == 2 for a, b in combinations(masks, 2)):
        union = 0
        for m in masks:
            union |= m
        verts = elements_of(union)
        expected = sorted(mask_of(t, triples.n) for t in combinations(verts, 3))
        if len(verts) == 4 and list(masks) == expected:
            return Classification(ClassificationTag.K34, verts)
        raise ValueError("2-intersecting non-star cover family that is not K3(4); "
                         "input is outside the saturated-τ=3 classification")
    witness_r = contains_copy(triples, "R")
    if witness_r is not None:
        return Classification(ClassificationTag.CONTAINS_R, witness_r)
    witness_s = contains_copy(triples, "S")
    if witness_s is not None:
        return Classification(ClassificationTag.CONTAINS_S, witness_s)
    raise ValueError("cover family fits no case of the classification; "
                     "input is outside the saturated-τ=3 domain")


def classify_T3(family: UniformFamily) -> Classification:
    """Compute T^(3)(F) and classify it.

    Preconditions: F intersecting (error otherwise); τ(F) = 3 is
    recommended and only warned about, so near-miss inputs can still be
    inspected.  Below n = 3 there is no 3-set at all, so T^(3)(F) is empty.
    """
    if not is_intersecting(family):
        raise ValueError("classify_T3 requires an intersecting family")
    t = tau(family)
    if t != 3:
        warnings.warn(f"classify_T3: covering number is {t}, not 3", stacklevel=2)
    if family.n < 3:
        return Classification(ClassificationTag.EMPTY)
    return classify_triples(covers(family, 3))


# ── the P(R) partition of the case analysis ─────────────────────────────────

def p_of_r() -> list[int]:
    """P(R): the seven 2-covers of R, colex order.  They lie in [5]: no
    point outside meets all three edges."""
    return list(covers(build_R(), 2).masks)


def p_of_s() -> list[int]:
    """P(S): the six 2-covers of S, colex order.  They lie in [6]: no
    point outside meets all three edges."""
    return list(covers(build_S(), 2).masks)


def _pm(elems) -> int:
    return mask_of(elems, 6)


# the two partitions used by the proof's case split
_CASE1_EDGES = (((1, 2), (3, 4)), ((2, 5), (1, 3)), ((2, 4), (3, 5)))
_CASE1_LEFTOVER = (1, 5)
_CASE2_EDGES = (((1, 3), (2, 5)), ((3, 5), (1, 2)), ((1, 5), (2, 4)))
_CASE2_LEFTOVER = (3, 4)


def claim6_partition(graph: DisjointnessGraph, independent: Sequence
                     ) -> tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
                                tuple[int, ...]]:
    """Partition the P(R) disjointness graph into 3 disjoint edges plus P0 ∉ I.

    Case (i): {1,5} ∉ I — match the 6-cycle left after removing {1,5}.
    Case (ii): {1,5} ∈ I — use the fixed edges ((1,3),(2,5)), ((3,5),(1,2)),
    ((1,5),(2,4)) and P0 = {3,4}, which cannot lie in an independent set
    containing {1,5}.
    """
    expected = set(p_of_r())
    if set(graph.vertices) != expected:
        raise ValueError("claim6_partition expects the disjointness graph of P(R)")
    ind_masks = {p if isinstance(p, int) else mask_of(p, 6) for p in independent}
    if not ind_masks <= set(graph.vertices):
        raise ValueError("independent set contains non-vertices")
    if any(not v & w for v, w in combinations(ind_masks, 2)):
        raise ValueError("claim6_partition: the given vertex set is not independent")
    if _pm(_CASE1_LEFTOVER) not in ind_masks:
        edges, leftover = _CASE1_EDGES, _CASE1_LEFTOVER
    else:
        edges, leftover = _CASE2_EDGES, _CASE2_LEFTOVER
        assert _pm(leftover) not in ind_masks  # disjoint from {1,5}, I independent
    used = {_pm(leftover)}
    for a, b in edges:
        am, bm = _pm(a), _pm(b)
        assert not am & bm
        used.update((am, bm))
    assert used == expected
    return edges, leftover


# ── maximal intersecting R-free supersets of S inside [6] ───────────────────

def _r_copy_with(masks: list[int], new: int) -> bool:
    for a, b in combinations(masks, 2):
        if _pattern_check(a, b, new, "R"):
            return True
    return False


def claim5_excluded_pairs() -> list[dict]:
    """The six complementary pairs barred from any intersecting R-free T ⊇ S.

    For each pair, report how each member is excluded: either adding it
    to S creates a copy of R, or it is disjoint from a member of S.
    """
    s = build_S(6)
    pairs = [((2, 3, 4), (1, 5, 6)), ((2, 3, 5), (1, 4, 6)), ((2, 4, 5), (1, 3, 6)),
             ((3, 4, 5), (1, 2, 6)), ((3, 4, 6), (1, 2, 5)), ((1, 3, 4), (2, 5, 6))]
    out = []
    for pair in pairs:
        entry = {"pair": pair, "reasons": []}
        for t in pair:
            tm = mask_of(t, 6)
            if any(not tm & m for m in s.masks):
                entry["reasons"].append("disjoint-from-S-member")
            elif _r_copy_with(list(s.masks), tm):
                entry["reasons"].append("creates-R-copy")
            else:
                entry["reasons"].append("not-excluded")
        out.append(entry)
    return out


def claim5_maxT() -> int:
    """Exhaustive max |T| over intersecting T ⊆ C([6],3) with S ⊆ T and no R-copy.

    Also asserts the proof's exclusion mechanism: every member of the six
    listed complementary pairs creates an R-copy when added to S.
    """
    s = build_S(6)
    for entry in claim5_excluded_pairs():
        assert all(r == "creates-R-copy" for r in entry["reasons"]), entry
    base = list(s.masks)
    candidates = [m for m in (mask_of(t, 6) for t in combinations(range(1, 7), 3))
                  if m not in set(base)]
    best = len(base)

    def extend(chosen: list[int], idx: int) -> None:
        nonlocal best
        best = max(best, len(chosen))
        for i in range(idx, len(candidates)):
            c = candidates[i]
            if any(not c & m for m in chosen):
                continue
            if _r_copy_with(chosen, c):
                continue
            chosen.append(c)
            extend(chosen, i + 1)
            chosen.pop()

    extend(base, 0)
    return best
