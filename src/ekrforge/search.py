"""Exact computation of m(n,k,r) at desk scale.

m(n,k,r) is the maximum size of an intersecting k-uniform family on [n]
with covering number at least r.  The solver is a branch-and-bound over
k-sets in colex order:

  * the first selected k-set is forced to {1..k} - every nonempty family
    is isomorphic to one containing the colex-least k-set, so this
    normalisation is lossless;
  * for r >= 2 the covering constraints propagate as "this element/pair
    must still be avoidable": a branch dies when some small set can no
    longer be avoided by any chosen or remaining candidate, and the
    tightest open constraint is branched on directly (first-avoider
    split), a union of the node's cells first when there is one, skipping
    an avoider in the orbit of an earlier sibling under the symmetric
    groups on the cells of the node, ({1..k}, [k+1..n]) at the root;
  * the upper bound is a greedy clique cover of the remaining candidates
    by groups of pairwise-disjoint sets;
  * a candidate compatible with every other remaining candidate and all
    chosen members is forced in: adding it never hurts intersecting-ness
    and never lowers τ, so some optimum (indeed every optimum) contains it.
    A node takes its whole forced set F at once, and counts |F| nodes,
    one per link of the chain that forcing one at a time would walk, for
    none of those links can prune or branch.  A forced v meets every
    candidate left, so it is a group of the bound on its own and the
    bound stays the same; v avoids no constraint left open after it; an
    excluded candidate still there meets v, so domination is unchanged;
    and a candidate disjoint from another stays unforced.  Every forced
    candidate opens a bound group alone, so only those openers are tested.

The τ ≥ 3 searches ``max_intersecting_seeded`` and ``enumerate_optima``
(r = 3) follow the proof's case split instead (``_structural_branches``):
branches A_j, where {1,2,3} is a cover and two members are forced, one per
size j of their intersection, and branches B_i, covering number at least 4,
each with a forced second member.  Each branch carries the cells of the
symmetry its forced members leave, and its first-avoider splits skip
orbits in the same way.

The degree-capped search (``max_intersecting_degcap``) cannot force or
dominate, since a cap can make a compatible candidate unusable.  It
branches in colour order instead (MCQ, Tomita et al. 2010): each node
lists its candidates by the same greedy disjoint groups the bound counts
and tries them from the last group down, stopping once the groups left
cannot lift the family past the incumbent; candidates through a point at
the cap leave the candidate set.  It prunes by symmetry instead of by
domination: a node carries a partition of [n] into cells that its
members and its removed candidates are unions of, and skips a candidate
in the orbit of a sibling already tried under the symmetric groups on the
cells (``_refine_cells``).  The τ-searches keep the count-only
bound: at k = 3, r = 3 they never reach a plain clique phase, where
colour order could cut nodes, and listing the groups costs time.

Every returned witness is re-verified post hoc through the covers module
before the result is released.  Searches are single-threaded and fully
deterministic; an exhausted budget downgrades the status to a lower
bound but never invalidates the value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .binomial import binom
from .constructions import build_G, build_HM, full_star
from .covers import is_intersecting, tau
from .families import UniformFamily, elements_of, ksets_colex, mask_of, max_degree

PROVED = "proved-optimal"
TIMEBOXED = "timeboxed-lower-bound"


@dataclass(frozen=True)
class SearchResult:
    value: int
    witness: UniformFamily
    status: str
    nodes: int
    elapsed: float
    budget: float


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant encoding: the colex-sorted mask tuple of one
    relabeling of the family, chosen by ``canonical_form`` so that two
    families get the same form exactly when they are isomorphic."""

    n: int
    k: int
    masks: tuple[int, ...]


class _Budget(Exception):
    pass


def canonical_form(family: UniformFamily) -> CanonicalForm:
    """Canonical labelling by individualisation-refinement on the points
    of [n] (McKay & Piperno, Practical graph isomorphism II, 2014).

    Search tree.  A node is an ordered partition of the points, refined
    by ``_refine`` until it is equitable.  A discrete partition is a leaf:
    its cell order is a bijection λ onto [n], and its image is the sorted
    mask tuple of λ(F).  At any other node the first non-singleton cell
    is the target, and the children individualise its points one at a
    time (the point becomes a singleton cell in front of the rest).

    Invariance.  Refinement, the choice of the target cell and
    individualisation read only the family and the cell order, never a
    point's label, so a relabeling σ maps the tree of F onto the tree of
    σF and both trees have the same set of leaf images.  The form is the
    minimum of that set: equal for isomorphic families, and, being λ(F)
    for a bijection λ, equal only for isomorphic families.

    Pruning skips only subtrees whose leaf images repeat those of an
    explored sibling.  If an automorphism γ of F maps a node's partition
    onto itself and one child point x to another y, γ maps the subtree of
    x onto the subtree of y.  Such γ come from twins (points lying in
    exactly the same members, swapped by a transposition: only one point
    per twin class is individualised, and a target cell that is one twin
    class is ordered without branching) and from leaves with equal images
    (λ₂⁻¹λ₁ is an automorphism fixing every singleton on the two leaves'
    common path, so the search also returns at once to the node where
    the paths part, whose other children it prunes by the orbits of the
    automorphisms found so far).
    """
    n, k, masks = family.n, family.k, family.masks
    if not masks:
        return CanonicalForm(n, k, ())
    members = [[x - 1 for x in elements_of(m)] for m in masks]
    incidence: list[list[int]] = [[] for _ in range(n)]
    for j, pts in enumerate(members):
        for x in pts:
            incidence[x].append(j)
    classes: dict[tuple[int, ...], int] = {}
    twin = [classes.setdefault(tuple(inc), x) for x, inc in enumerate(incidence)]
    autos: list[list[int]] = []
    # (image, labelling, path) of the first leaf, then of the best if other
    refs: list[tuple[tuple[int, ...], list[int], list[int]]] = []

    def leaf(cells: list[list[int]], path: list[int]) -> int:
        lab = [0] * n
        for pos, (x,) in enumerate(cells):
            lab[x] = pos
        image = tuple(sorted(_apply_perm(m, lab) for m in masks))
        resume = len(path)
        for ref_image, ref_lab, ref_path in refs:
            if image == ref_image:
                at = [0] * n
                for x in range(n):
                    at[lab[x]] = x
                autos.append([at[ref_lab[x]] for x in range(n)])
                common = 0
                while path[common] == ref_path[common]:
                    common += 1
                resume = min(resume, common)
        if not refs or image < refs[-1][0]:
            refs[1:] = [(image, lab, path)]
        return resume

    def node(cells: list[list[int]], path: list[int]) -> int:
        """Explore a refined node; return the depth the search resumes at."""
        if len(cells) == n:
            return leaf(cells, path)
        t = next(i for i, cell in enumerate(cells) if len(cell) > 1)
        target = sorted(cells[t])
        if all(twin[x] == twin[target[0]] for x in target):
            ordered = cells[:t] + [[x] for x in target] + cells[t + 1:]
            return node(_refine(ordered, members, incidence), path)
        depth = len(path)
        cell_of = [0] * n
        for i, cell in enumerate(cells):
            for x in cell:
                cell_of[x] = i
        # orbits on the target cell, seeded with its twin classes
        head: dict[int, int] = {}
        parent = {x: head.setdefault(twin[x], x) for x in target}

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        seen, explored = 0, []
        for x in target:
            for gamma in autos[seen:]:
                if all(cell_of[gamma[y]] == cell_of[y] for y in range(n)):
                    for y in target:
                        ry, rz = find(y), find(gamma[y])
                        if ry != rz:
                            parent[max(ry, rz)] = min(ry, rz)
            seen = len(autos)
            rx = find(x)
            if any(find(y) == rx for y in explored):
                continue
            explored.append(x)
            child = cells[:t] + [[x], [y for y in cells[t] if y != x]] + cells[t + 1:]
            resume = node(_refine(child, members, incidence), path + [x])
            if resume < depth:
                return resume
        return depth

    node(_refine([list(range(n))], members, incidence), [])
    return CanonicalForm(n, k, refs[-1][0])


def _refine(cells: list[list[int]], members: list[list[int]],
            incidence: list[list[int]]) -> list[list[int]]:
    """Split the cells of an ordered partition of the points until it is
    equitable.  A member's type is the sorted tuple of the cells of its
    points; a point's signature is the sorted multiset of the types of
    the members through it.  Each cell splits by signature, the new cells
    ordered by signature, so the result never depends on point labels.
    """
    n = len(incidence)
    while True:
        cell_of = [0] * n
        for i, cell in enumerate(cells):
            for x in cell:
                cell_of[x] = i
        types = [tuple(sorted([cell_of[x] for x in pts])) for pts in members]
        rank = {t: r for r, t in enumerate(sorted(set(types)))}
        kinds = [rank[t] for t in types]
        refined = []
        for cell in cells:
            if len(cell) == 1:
                refined.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for x in cell:
                sig = tuple(sorted([kinds[j] for j in incidence[x]]))
                groups.setdefault(sig, []).append(x)
            refined.extend(groups[sig] for sig in sorted(groups))
        if len(refined) == len(cells):
            return cells
        cells = refined


def _iso_signature(family: UniformFamily) -> tuple:
    """Cheap relabeling invariant: degree sequence plus per-member
    intersection profiles, both sorted."""
    masks = family.masks
    degs = sorted([sum([m >> x & 1 for m in masks]) for x in range(family.n)])
    profiles = sorted([tuple(sorted([(m & other).bit_count()
                                     for other in masks if other != m]))
                       for m in masks])
    return tuple(degs), tuple(profiles)


def are_isomorphic(fam_a: UniformFamily, fam_b: UniformFamily) -> bool:
    """Size and signature checks, then the bijection test ``_bijection``."""
    if (fam_a.n, fam_a.k, len(fam_a)) != (fam_b.n, fam_b.k, len(fam_b)):
        return False
    if _iso_signature(fam_a) != _iso_signature(fam_b):
        return False
    return _bijection(fam_a, fam_b)


def _bijection(fam_a: UniformFamily, fam_b: UniformFamily) -> bool:
    """Backtracking ground-set bijection test with degree refinement, for
    two families of equal n, k and size.

    The points of A are mapped in order of decreasing degree, each onto
    an unused point of B of the same degree.  A member of A is checked
    once, at the depth that maps its last point in that order: its image
    must be a member of B.
    """
    n = fam_a.n
    set_b = set(fam_b.masks)
    members = [[x - 1 for x in elements_of(m)] for m in fam_a.masks]
    deg_a = [0] * n
    for pts in members:
        for x in pts:
            deg_a[x] += 1
    deg_b = [sum([m >> y & 1 for m in fam_b.masks]) for y in range(n)]
    order = sorted(range(n), key=lambda x: (-deg_a[x], x))
    rank = [0] * n
    for depth, x in enumerate(order):
        rank[x] = depth
    closing: list[list[list[int]]] = [[] for _ in range(n)]
    for pts in members:
        closing[max((rank[x] for x in pts), default=0)].append(pts)
    candidates = [[y for y in range(n) if deg_b[y] == deg_a[x]] for x in order]
    mapping = [-1] * n
    used = [False] * n

    def feasible(depth: int) -> bool:
        for pts in closing[depth]:
            img = 0
            for x in pts:
                img |= 1 << mapping[x]
            if img not in set_b:
                return False
        return True

    def assign(depth: int) -> bool:
        if depth == n:
            return True
        x = order[depth]
        for y in candidates[depth]:
            if used[y]:
                continue
            mapping[x] = y
            used[y] = True
            if feasible(depth) and assign(depth + 1):
                return True
            used[y] = False
        return False

    return assign(0)


def _apply_perm(mask: int, table) -> int:
    out = 0
    while mask:
        b = mask & -mask
        out |= 1 << table[b.bit_length() - 1]
        mask ^= b
    return out


@dataclass(frozen=True)
class _Branch:
    """One search space: the k-sets a family may use, the members forced
    in from the start, and the sets that some member must avoid.

    ``cells``, when set, is a partition of [n] into bitsets whose product
    of symmetric groups maps the universe and the constraint set onto
    themselves and fixes each forced member; ``_search`` skips symmetric
    siblings under it.  Every branch built here has cells unless they are
    discrete; ``None`` searches without symmetry, and a copy made with
    ``dataclasses.replace(branch, cells=None)`` walks the unpruned tree."""

    universe: tuple[int, ...]
    forced: tuple[int, ...]
    constraints: tuple[int, ...]
    cells: tuple[int, ...] | None = None


def _avoidance(n: int, r_min: int) -> tuple[int, ...]:
    """Covering number >= r_min holds iff every (r_min-1)-subset of [n] is
    avoided by some member (avoiding a set avoids its subsets too)."""
    if r_min <= 1:
        return ()
    return tuple(mask_of(c, n) for c in combinations(range(1, n + 1), r_min - 1))


def _plain_branch(n: int, k: int, r_min: int) -> _Branch:
    """Every k-set, with the first member forced to {1..k}.

    Its cells are ({1..k}, [k+1..n]): S_n maps the k-sets and the
    (r_min-1)-sets onto themselves, and S_k × S_{n-k} also fixes {1..k}.
    """
    if r_min not in (1, 2, 3):
        raise ValueError("r_min must be 1, 2, or 3")
    first = mask_of(range(1, k + 1), n)
    return _Branch(tuple(ksets_colex(n, k)), (first,), _avoidance(n, r_min),
                   _refine_cells(((1 << n) - 1,), first))


def _structural_branches(n: int, k: int):
    """The structural case split of a τ ≥ 3 search, mirroring the proof.

    Branches A_j (covering number exactly 3): such a family is isomorphic
    to one in which {1,2,3} is a cover, so the universe shrinks to the
    k-sets meeting {1,2,3}, and every pair must be avoided.  Universe and
    constraints are invariant under S₃ × S_{n-3}, and the proof spends
    that freedom on two members.  Some member avoids {2,3}; it meets
    {1,2,3}, so it holds 1, and S_{n-3} maps it onto F₁ = {1} ∪ [4..k+2].
    Some member avoids {1,3}, so it holds 2 and not 1; it meets F₁ in a
    set J ⊆ [4..k+2] of size j ≥ 1, and its other t = k-1-j points lie in
    [k+3..n].  The stabiliser of F₁ (permuting [4..k+2] and [k+3..n])
    maps it onto F₂ = {2} ∪ [4..3+j] ∪ [k+3..k+2+t], which A_j forces
    with F₁; no such member exists when k+2+t > n, so that A_j is skipped.

    Branches B_i (covering number at least 4, enforced by avoiding every
    triple): with the first member normalised to [1..k], some member
    avoids {1,2,3}; it meets [1..k] in a nonempty subset of [4..k], say
    of size i, and the stabiliser of [1..k] maps it onto the
    representative [k-i+1..k] ∪ [k+1..2k-i], which B_i forces as the
    second member.

    Solutions of every branch are feasible for τ ≥ 3, and every τ ≥ 3
    family is isomorphic to a family of some branch, so the forcing keeps
    a representative of every isomorphism class: the combined maximum,
    and the union of the branches' optima, is exact.

    Each branch carries the cells of what is left of its symmetry once
    both members are forced: ({1,2,3}, the rest) for A_j and [n] for B_i,
    refined by both forced members.  The first member alone never leaves
    them discrete: {2,3} stays one cell in A_j, and [1..k] in B_i.
    """
    full = (1 << n) - 1
    universe = tuple(ksets_colex(n, k))
    cover3 = mask_of((1, 2, 3), n)
    meets = tuple(m for m in universe if m & cover3)
    pairs = _avoidance(n, 3)
    first = mask_of([1, *range(4, k + 3)], n)
    for j in range(1, k):
        t = k - 1 - j
        if k + 2 + t <= n:
            second = mask_of([2, *range(4, 4 + j), *range(k + 3, k + 3 + t)], n)
            cells = _refine_cells(_refine_cells((cover3, full ^ cover3), first), second)
            yield _Branch(meets, (first, second), pairs, cells)
    first = mask_of(range(1, k + 1), n)
    triples = _avoidance(n, 4)
    for i in range(1, k - 2):
        second = mask_of(list(range(k - i + 1, k + 1))
                         + list(range(k + 1, 2 * k - i + 1)), n)
        cells = _refine_cells(_refine_cells((full,), first), second)
        yield _Branch(universe, (first, second), triples, cells)


def _refine_cells(cells: tuple[int, ...], mask: int) -> tuple[int, ...] | None:
    """Split every cell (a bitset of points) of a partition of [n] into its
    points inside ``mask`` and those outside; ``None`` once every cell is a
    single point.

    The product of the symmetric groups on the cells fixes a k-set exactly
    when the k-set is a union of cells, and its orbits on k-sets are the
    vectors of intersection sizes with the cells.  Refining by each set of
    a collection gives the cells of the subgroup that also fixes every one
    of those sets: the Venn atoms of the sets within the old cells.
    """
    out = []
    for cell in cells:
        inside = cell & mask
        if inside and inside != cell:
            out += (inside, cell ^ inside)
        else:
            out.append(cell)
    if all(cell & (cell - 1) == 0 for cell in out):
        return None
    return tuple(out)


def _greedy_cover_bound(cand: int, disj: list[int]) -> tuple[int, int]:
    """Greedy partition of the candidate bitset into pairwise-disjoint groups;
    an intersecting family picks at most one per group.  Returns the number
    of groups and the bitset of the candidates that open a group on their
    own: a candidate disjoint from no other candidate is one of them.

    A group opens at the lowest candidate left and takes, lowest first,
    every candidate left that is disjoint from all of the group so far.
    ``cur`` only ever holds bits above the last one taken, and ``disj[u]``
    has no bit ``u``, so no mask is needed to keep the scan moving up.
    """
    groups = 0
    singles = 0
    rest = cand
    while rest:
        vb = rest & -rest
        rest ^= vb
        groups += 1
        cur = rest & disj[vb.bit_length() - 1]
        if not cur:
            singles |= vb
        while cur:
            ub = cur & -cur
            rest ^= ub
            cur &= disj[ub.bit_length() - 1]
    return groups, singles


def _colour_classes(cand: int, disj: list[int]) -> list[int]:
    """The groups that ``_greedy_cover_bound`` counts, listed as bitsets in
    the order they open.  The candidates of the first c groups hold an
    intersecting family of at most c members."""
    classes: list[int] = []
    rest = cand
    while rest:
        group = rest & -rest
        cur = rest & disj[group.bit_length() - 1]
        while cur:
            ub = cur & -cur
            group |= ub
            cur &= disj[ub.bit_length() - 1]
        rest ^= group
        classes.append(group)
    return classes


def _candidate_graph(universe, forced) -> tuple[list[int], list[int], list[int]]:
    """The candidates (universe members other than the forced ones that
    meet each of them) with their intersecting and disjoint bitsets."""
    forced_set = set(forced)
    cand_masks = [m for m in universe
                  if m not in forced_set and all(m & f for f in forced)]
    nc = len(cand_masks)
    compat = [0] * nc
    disj = [0] * nc
    for i in range(nc):
        mi = cand_masks[i]
        for j in range(i + 1, nc):
            if mi & cand_masks[j]:
                compat[i] |= 1 << j
                compat[j] |= 1 << i
            else:
                disj[i] |= 1 << j
                disj[j] |= 1 << i
    return cand_masks, compat, disj


def _beats(size: int, key: tuple[int, ...], best: int,
           best_masks: tuple[int, ...]) -> bool:
    """Witness tie-break, for a family of ``size`` >= ``best`` with sorted
    masks ``key``: the larger family wins, then the colex-smaller tuple."""
    return size > best or not best_masks or key < best_masks


def _timebox(recurse, *start) -> str:
    """Run a recursion to the end or until it raises ``_Budget``; an
    exhausted budget leaves a lower bound, not a proof."""
    try:
        recurse(*start)
    except _Budget:
        return TIMEBOXED
    return PROVED


def _default_incumbent(n: int, k: int, r_min: int) -> UniformFamily | None:
    """A verified feasible family to warm-start the incumbent."""
    try:
        if r_min <= 1:
            fam = full_star(n, k)
        elif r_min == 2:
            fam = build_HM(n, k) if n > 2 * k else full_star(n, k)
        else:
            fam = build_G(n, k)
    except ValueError:
        return None
    if not is_intersecting(fam):
        return None
    if r_min >= 2 and tau(fam) < r_min:
        return None
    return fam


def _verify(witness: UniformFamily, r_min: int) -> None:
    """Post-hoc check of a released witness, through the covers module.

    An empty witness (value 0: no family meets the covering constraint)
    has nothing to check, and its covering number is undefined.
    """
    if not is_intersecting(witness):
        raise AssertionError("search produced a non-intersecting witness")
    if r_min >= 2 and witness.masks and tau(witness) < r_min:
        raise AssertionError(f"search witness has covering number < {r_min}")


def _search(n: int, k: int, branch: _Branch, budget: float,
            incumbent: UniformFamily | None = None,
            collect_floor: int | None = None
            ) -> tuple[SearchResult, list[tuple[int, ...]]]:
    """Largest intersecting family of universe members that contains the
    forced members and leaves every constraint set avoided by some member.

    Returns ``(result, optima)``.  Without a ``collect_floor`` a feasible
    ``incumbent`` warm-starts the bound and ``optima`` is empty.  With one,
    every maximum-size family of at least that size is collected (the
    incumbent prune becomes non-strict); an empty collection reports that
    the floor was never reached, and the value and witness carry no claim.
    The caller verifies the witness it releases.

    Leaf test: a node whose ``size`` chosen members are fewer than ``best``
    and whose candidates number at most ``best - size`` (fewer, when
    collecting) returns at once.  Each bound group holds a candidate, so
    the bound would prune it, the strict prune ``size + groups <= best``
    and the collect prune ``size + groups < best`` alike; and a family
    below ``best`` is never noted, so the node leaves no trace but its
    count.

    Orbit skips, when the branch has ``cells``: ({1..k}, [k+1..n]) for the
    plain branch, and the cells of ``_structural_branches`` for the split.
    A node's group is the product of the symmetric groups on its cells.  It
    maps the universe and the constraint set onto themselves and fixes every
    forced member of the branch, every member chosen at a split above the
    node and every avoider passed at a split above it, tried or skipped; it
    maps the forced inclusions onto themselves as a set, since they are
    defined from the candidate set alone.  So it maps the node's chosen
    members, candidates, open constraints and excluded candidates onto
    themselves, and with them the node's space of families.  A split node
    branches on C, the tightest open constraint, preferring the tightest
    one that is a union of cells when there is one.  Two avoiders lie in
    one orbit exactly when they meet every cell in the same number of
    points; an avoider whose vector of those numbers matches that of an
    earlier sibling is skipped, and still joins ``prefix``.  A child's cells
    are the node's refined by its own avoider and by every avoider passed
    before it (``_refine_cells``), so its group is a subgroup that also
    fixes those; a discrete partition has the trivial group, so its node
    gets ``None`` and skips nothing.  Forced inclusions do not refine, and a
    clique-phase child gets ``None``: unsat is 0 there and in every node
    below it, so no split below reads the cells.

    Why the skips are sound, by induction on the position in the loop:
    take a family of the node's space whose first avoider of C in loop
    order is a skipped ``v``.  An element g of the node's group maps ``v``
    onto an earlier sibling ``w`` with the same vector and maps the family
    onto g(family), of the same size, in the node's space (g keeps
    intersections).  g(family) holds ``w``, which avoids C by construction,
    so its first avoider of C comes earlier.  That avoider was tried, and
    its subtree covers g(family), or was skipped, and the induction applies
    again.  So every subtree that is dropped holds only families of which
    a searched subtree holds an isomorphic copy: the value is unchanged.
    Collection stays exact up to isomorphism for the same reason: every
    optimum of the branch has an image under the root's group, a
    relabelling that keeps the branch, among the collected optima (the
    composite of the group elements met along the way), so every class of
    optima is still collected, only fewer labelled copies of it.  The
    argument never needs g to map C onto itself, so the cells are not
    refined by C; nor would that change an avoider's orbit, as its vector
    would only gain zeros for the parts of cells inside C.  Preferring a C
    that is a union of cells is only a branching choice, kept because it
    prunes: without it the (9,4) split walks about a fifth more nodes.
    """
    if n < 2 * k:
        raise ValueError("max_intersecting requires n >= 2k")
    t_start = time.perf_counter()
    deadline = t_start + budget
    forced, constraints = branch.forced, branch.constraints
    cand_masks, compat, disj = _candidate_graph(branch.universe, forced)
    avoiders = []
    for cm in constraints:
        bits = 0
        for i, m in enumerate(cand_masks):
            if not m & cm:
                bits |= 1 << i
        avoiders.append(bits)
    # constraints already satisfied by the forced members
    sat0 = 0
    for ci, cm in enumerate(constraints):
        if any(not pm & cm for pm in forced):
            sat0 |= 1 << ci
    all_sat = (1 << len(constraints)) - 1

    collect = collect_floor is not None
    best = 0
    best_masks: tuple[int, ...] = ()
    optima: set[tuple[int, ...]] = set()
    if collect:
        best = collect_floor
    elif incumbent is not None:
        best, best_masks = len(incumbent), incumbent.masks
    nodes = 0

    def note_solution(chosen: list[int]) -> None:
        nonlocal best, best_masks
        size = len(chosen)
        if size < best:
            return
        key = tuple(sorted(chosen))
        if collect:
            if size > best:
                optima.clear()
            optima.add(key)
        if _beats(size, key, best, best_masks):
            best, best_masks = size, key

    def drop_satisfied(mask_new: int, unsat: int) -> int:
        uu = unsat
        out = unsat
        while uu:
            ub2 = uu & -uu
            uu ^= ub2
            if not mask_new & constraints[ub2.bit_length() - 1]:
                out &= ~ub2
        return out

    def recurse(chosen: list[int], cand: int, unsat: int, excluded: int,
                cells: tuple[int, ...] | None) -> None:
        nonlocal nodes
        nodes += 1
        if nodes % 4096 == 0 and time.perf_counter() > deadline:
            raise _Budget
        # leaf: even one member per candidate cannot lift the family past
        # the incumbent, and a family below it is not noted
        size = len(chosen)
        if size < best and size + cand.bit_count() + collect <= best:
            return
        # constraint feasibility
        u = unsat
        while u:
            cb = u & -u
            u ^= cb
            if not avoiders[cb.bit_length() - 1] & cand:
                return
        # maximality domination: an excluded candidate compatible with every
        # chosen member and every remaining candidate extends any completion
        # in this subtree, so none of them is optimal
        x = excluded
        while x:
            xb = x & -x
            x ^= xb
            if cand & ~compat[xb.bit_length() - 1] == 0:
                return
        if unsat == 0:
            note_solution(chosen)
        # bound
        groups, singles = _greedy_cover_bound(cand, disj)
        if collect:
            if size + groups < best:
                return
        elif size + groups <= best:
            return
        if not cand:
            return
        # forced inclusions, all at once: candidates disjoint from no
        # candidate left, each of which opens a group on its own
        forced_bits = 0
        while singles:
            vb = singles & -singles
            singles ^= vb
            if not cand & disj[vb.bit_length() - 1]:
                forced_bits |= vb
        if forced_bits:
            nf = forced_bits.bit_count()
            nodes += nf
            if nodes % 4096 < nf and time.perf_counter() > deadline:
                raise _Budget
            cand ^= forced_bits
            f = forced_bits
            while f:
                vb = f & -f
                f ^= vb
                v = vb.bit_length() - 1
                chosen.append(cand_masks[v])
                unsat = drop_satisfied(cand_masks[v], unsat)
                excluded &= compat[v]
            if unsat == 0:
                note_solution(chosen)
        if unsat:
            # first-avoider split on the tightest open constraint, unions of cells first
            pick_av, pick_key = 0, 1 << 63
            u = unsat
            while u:
                cb = u & -u
                u ^= cb
                ci = cb.bit_length() - 1
                av = avoiders[ci] & cand
                key = av.bit_count()
                if key < pick_key and cells is not None:
                    cm = constraints[ci]
                    for cell in cells:
                        if cell & cm and cell & ~cm:
                            key |= 1 << 62
                            break
                if key < pick_key:
                    pick_av, pick_key = av, key
            # orbits of the children tried so far, and the cells refined by
            # every avoider passed so far (the next child's)
            tried = set()
            rest = cells
            prefix = 0
            av = pick_av
            while av:
                vb = av & -av
                v = vb.bit_length() - 1
                av ^= vb
                m = cand_masks[v]
                if cells is not None:
                    if rest is not None:
                        rest = _refine_cells(rest, m)
                    orbit = tuple([(m & cell).bit_count() for cell in cells])
                    if orbit in tried:
                        prefix |= vb
                        continue
                    tried.add(orbit)
                chosen.append(m)
                recurse(chosen, cand & compat[v] & ~prefix, drop_satisfied(m, unsat),
                        (excluded | prefix) & compat[v], rest)
                chosen.pop()
                prefix |= vb
        elif cand:
            # plain clique phase: include/exclude the lowest candidate; no
            # split lies below, so the cells would never be read again
            vb = cand & -cand
            v = vb.bit_length() - 1
            chosen.append(cand_masks[v])
            recurse(chosen, cand & compat[v], 0, excluded & compat[v], None)
            chosen.pop()
            recurse(chosen, cand & ~vb, 0, excluded | vb, None)
        if forced_bits:
            del chosen[size:]

    status = _timebox(recurse, list(forced), (1 << len(cand_masks)) - 1,
                      all_sat & ~sat0, 0, branch.cells)
    witness = UniformFamily.from_masks(n, k, best_masks)
    if (optima or not collect) and len(witness) != best:
        raise AssertionError("witness size disagrees with the proven value")
    result = SearchResult(best, witness, status, nodes,
                          time.perf_counter() - t_start, budget)
    return result, sorted(optima)


def _split_search(n: int, k: int, budget: float,
                  incumbent: UniformFamily | None = None, collect: bool = False
                  ) -> tuple[SearchResult, list[tuple[int, ...]]]:
    """Run every branch of ``_structural_branches`` and combine them as if
    they were one search, with the same return shape as ``_search``.

    The branches run in order, A_1 .. A_{k-1} then B_i; the first gets the
    whole budget, each later one what is left of it, or 0 once it is spent
    (a branch given 0 stops at its first clock check, after 4096 nodes,
    with a lower bound).  When collecting, the floor starts at the size of
    the verified ``incumbent`` (0 without one), a lower bound on the
    optimum, so with the non-strict prune no optimum is lost; after each
    branch it rises to the largest size found so far, since smaller
    families cannot be optimal overall.  The optima are the branches' lists
    joined, not merged: a family that two branches both reach is listed
    twice, and ``_dedup_to_forms`` folds the copy into its class like any
    relabelling.
    """
    t0 = time.perf_counter()
    runs = []
    left, floor = budget, None
    if collect:
        floor = len(incumbent) if incumbent is not None else 0
    for branch in _structural_branches(n, k):
        runs.append(_search(n, k, branch, left, incumbent, floor))
        left = max(0.0, budget - (time.perf_counter() - t0))
        if collect:
            floor = runs[-1][0].value
    found = [res for res, raw in runs if raw or not collect]
    best = min(found, key=lambda res: (-res.value, res.witness.masks), default=None)
    # nothing found, or no branch at all (k = 1)
    value, witness = ((best.value, best.witness) if best
                      else (0, UniformFamily(n, k, ())))
    optima = [masks for res, raw in runs if res.value == value for masks in raw]
    status = PROVED if all(res.status == PROVED for res, _ in runs) else TIMEBOXED
    result = SearchResult(value, witness, status, sum(res.nodes for res, _ in runs),
                          time.perf_counter() - t0, budget)
    return result, optima


def max_intersecting(n: int, k: int, r_min: int = 1, budget: float = 600.0,
                     seed_incumbent: bool = True) -> SearchResult:
    """Exact m(n,k,r) with optimality proof, or a timeboxed lower bound.

    ``seed_incumbent`` warm-starts the bound with a known feasible family
    (the star, Hilton-Milner, or G(n,k)).
    """
    branch = _plain_branch(n, k, r_min)
    incumbent = _default_incumbent(n, k, r_min) if seed_incumbent else None
    result, _ = _search(n, k, branch, budget, incumbent)
    _verify(result.witness, r_min)
    return result


def max_intersecting_degcap(n: int, k: int, ell: int, budget: float = 600.0
                            ) -> SearchResult:
    """Maximum intersecting family with every degree capped per the
    degree-bounded theorem: Δ(F) ≤ C(n-1,k-1) - C(n-ℓ-1,k-1); the result
    must stay within C(n-1,k-1) - C(n-ℓ-1,k-1) + C(n-ℓ-1,k-ℓ).

    Colour-ordered branching (MCQ: Tomita et al., An efficient
    branch-and-bound algorithm for finding a maximum clique with
    computational experiments, 2010) over the candidates that meet the
    forced first member {1..k}.  Every candidate a node holds still fits
    under the cap.  The node splits them once into the greedy disjoint
    groups of ``_colour_classes`` and adds them one at a time, from the
    last group down; after its subtree a candidate leaves the node's set,
    so each family is reached once.  The child of ``u`` keeps the
    candidates that meet ``u``, minus every candidate through a point that
    ``u`` has just brought up to the cap.  Domination pruning and forced
    inclusion are unsound under a degree cap, so this search does not
    share ``_search``'s recursion.

    Soundness of the stop ``size + colour <= best``: the candidates still
    to be tried at that point lie in the first ``colour`` groups, each of
    pairwise-disjoint sets, so an intersecting family takes at most
    ``colour`` of them and nothing below can beat the incumbent.  The cap
    only removes candidates, never adds one back, and a point that has
    reached the cap stays there in every descendant, since members are
    only added below a node; so a removed candidate could never have been
    added anywhere in that subtree.

    Leaf test: after the node's own family is noted, a node with at most
    ``best - size`` candidates returns before it lists the groups, since
    there are no more groups than candidates and the first stop check
    would end the loop.

    Orbit skips.  A node carries a partition of [n] into cells, {1..k} and
    the rest at the root; its group is the product of the symmetric groups
    on the cells.  Every chosen member and every candidate removed above
    the node (a sibling tried or skipped at an ancestor) is a union of
    cells, so the group fixes each of them, and with them the degrees, the
    removals at the cap and the candidate set.  Two candidates lie in one
    orbit exactly when they meet every cell in the same number of points.
    In the loop, a candidate whose vector of those numbers, taken over the
    node's own cells, matches that of a sibling already tried or skipped is
    skipped, and leaves the candidate set as a tried one does.  A child's
    cells are the node's refined by its own member and by every sibling
    removed before it (``_refine_cells``); a discrete partition has the
    trivial group, so its node gets ``None`` and skips nothing.

    Why the skips are sound, by induction on the position in the loop: take
    a family of the node whose earliest member in loop order is a skipped
    ``u``.  An element of the node's group maps ``u`` onto an earlier
    sibling with the same vector and maps the family onto one of the same
    size in the node's space (it keeps intersections, degrees and the
    candidate set), holding that earlier sibling, so with an earlier
    earliest member.  That family's own earliest member was tried, and its
    subtree covers it, or was skipped, and the induction applies again.
    Families made only of candidates still untried at the stop lie in the
    first ``colour`` groups and are ruled out by the colour bound as
    before.

    Why the witness stays the seed: skipping only drops children, and every
    node that is kept has the same family and candidates as without skips.
    At every point proved so far the value is |``_degcap_seed``|, the
    theorem bound, and the search without skips never replaced the seed,
    so neither does the search with them.
    """
    if not 2 <= ell <= k:
        raise ValueError("degree-cap parameter must satisfy 2 <= ell <= k")
    if n <= 2 * k:
        raise ValueError("degree-capped search requires n > 2k")
    cap = binom(n - 1, k - 1) - binom(n - ell - 1, k - 1)
    bound = cap + binom(n - ell - 1, k - ell)
    t_start = time.perf_counter()
    deadline = t_start + budget

    first = mask_of(range(1, k + 1), n)
    cand_masks, compat, disj = _candidate_graph(ksets_colex(n, k), (first,))
    points = [[x - 1 for x in elements_of(m)] for m in cand_masks]
    through = [0] * n
    for i, pts in enumerate(points):
        for x in pts:
            through[x] |= 1 << i
    degs = [1 if x < k else 0 for x in range(n)]

    best = 0
    best_masks: tuple[int, ...] = ()
    # warm start: the degree-capped extremal candidate - the 1-star through
    # [2,ell+1] together with every k-set containing [2,ell+1]
    seed = _degcap_seed(n, k, ell, cap)
    if seed is not None:
        best, best_masks = len(seed), seed.masks
    nodes = 0

    def expand(chosen: list[int], cand: int, cells: tuple[int, ...] | None) -> None:
        nonlocal nodes, best, best_masks
        nodes += 1
        if nodes % 4096 == 0 and time.perf_counter() > deadline:
            raise _Budget
        size = len(chosen)
        if size >= best:
            key = tuple(sorted(chosen))
            if _beats(size, key, best, best_masks):
                best, best_masks = size, key
        if size + cand.bit_count() <= best:
            return
        classes = _colour_classes(cand, disj)
        # orbits of the siblings tried so far, and the cells refined by
        # every sibling removed so far, tried or skipped (the next child's)
        tried: set[tuple[int, ...]] = set()
        rest = cells
        for colour in range(len(classes), 0, -1):
            group = classes[colour - 1]
            while group:
                if size + colour <= best:
                    return
                u = group.bit_length() - 1
                group ^= 1 << u
                cand ^= 1 << u
                m = cand_masks[u]
                if cells is not None:
                    if rest is not None:
                        rest = _refine_cells(rest, m)
                    orbit = tuple([(m & cell).bit_count() for cell in cells])
                    if orbit in tried:
                        continue
                    tried.add(orbit)
                child = cand & compat[u]
                for x in points[u]:
                    degs[x] += 1
                    if degs[x] == cap:
                        child &= ~through[x]
                chosen.append(m)
                expand(chosen, child, rest)
                chosen.pop()
                for x in points[u]:
                    degs[x] -= 1

    # cap >= C(n-2,k-2) + C(n-3,k-2) >= 2, so after the forced member
    # (degrees at most 1) every candidate still fits
    status = _timebox(expand, [first], (1 << len(cand_masks)) - 1,
                      _refine_cells(((1 << n) - 1,), first))
    witness = UniformFamily.from_masks(n, k, best_masks)
    _verify(witness, 1)
    if max_degree(witness)[1] > cap:
        raise AssertionError("degree cap violated by the witness")
    if status == PROVED and best > bound:
        raise AssertionError(
            f"degree-capped optimum {best} exceeds the theorem bound {bound}")
    return SearchResult(best, witness, status, nodes,
                        time.perf_counter() - t_start, budget)


def _degcap_seed(n: int, k: int, ell: int, cap: int) -> UniformFamily | None:
    base = mask_of(range(2, ell + 2), n)
    members = []
    for tail in ksets_colex(n - 1, k - 1):
        m = (tail << 1) | 1
        if m & base:
            members.append(m)
    for m in ksets_colex(n, k):
        if m & base == base and not m & 1:
            members.append(m)
    fam = UniformFamily.from_masks(n, k, members)
    if not is_intersecting(fam):
        return None
    if max_degree(fam)[1] > cap:
        return None
    return fam


def max_intersecting_seeded(n: int, k: int, budget: float = 3600.0) -> SearchResult:
    """m(n,k,3) via the structural case split of ``_structural_branches``,
    mirroring the proof architecture: the branches A_1 .. A_{k-1} (τ = 3,
    {1,2,3} a cover, two members forced) and B_i (τ ≥ 4), each
    warm-started with G(n,k).  At k = 3 there is no B_i.  The node count
    is the sum over the branches."""
    result, _ = _split_search(n, k, budget, _default_incumbent(n, k, 3))
    _verify(result.witness, 3)
    return result


def _dedup_to_forms(n: int, k: int, raw: list[tuple[int, ...]]
                    ) -> list[CanonicalForm]:
    """Collapse labeled optima to isomorphism classes.

    Classes are split by the cheap invariant signature first; inside a
    bucket, membership is decided by the explicit bijection test against
    the class representatives found so far, the only families kept, and
    the canonical form is computed once per class.  A bucket's families
    share n, k, size and signature, so the bijection test is called
    directly, without the checks of ``are_isomorphic``.
    """
    buckets: dict[tuple, list[UniformFamily]] = {}
    for masks in raw:
        fam = UniformFamily.from_masks(n, k, masks)
        reps = buckets.setdefault(_iso_signature(fam), [])
        if not any(_bijection(fam, rep) for rep in reps):
            reps.append(fam)
    forms = [canonical_form(rep) for reps in buckets.values() for rep in reps]
    return sorted(forms, key=lambda f: f.masks)


def enumerate_optima(n: int, k: int, r_min: int, budget: float = 600.0
                     ) -> tuple[list[CanonicalForm], SearchResult]:
    """All optimum-size witnesses up to isomorphism.

    Every family is isomorphic to one containing {1..k}, and the orbit
    skips of the search drop only subtrees whose families have isomorphic
    copies in a searched one (``_search``), so collecting the optima
    through the forced-first-member search and deduplicating by canonical
    form covers every isomorphism class.  At r_min = 3 the
    collection runs over the structural case split of
    ``_structural_branches`` instead, whose branches likewise reach every
    isomorphism class, from the floor |G(n,k)| of the warm start.  Every
    class representative is re-verified before it is returned: it must be
    intersecting, have covering number at least r_min and as many members
    as the value; a failure raises ``AssertionError``.

    Memory holds every collected optimum before deduplication.  At n = 2k
    that is every maximal intersecting family with τ ≥ r_min: each takes
    one set of every complementary pair, so all have C(2k-1,k-1) members
    and all are optima, and no floor prunes them.  (8,4,3) is already out
    of reach: its first branch alone outgrew a 1.5 GB memory cap.  Keep
    n = 2k to k ≤ 3.
    """
    if r_min == 3:
        result, raw = _split_search(n, k, budget, _default_incumbent(n, k, 3),
                                    collect=True)
    else:
        result, raw = _search(n, k, _plain_branch(n, k, r_min), budget,
                              collect_floor=0)
    if raw:
        _verify(result.witness, r_min)
    forms = _dedup_to_forms(n, k, raw)
    for form in forms:
        rep = UniformFamily(n, k, form.masks)
        if len(rep) != result.value:
            raise AssertionError(f"a class of optima has {len(rep)} members, "
                                 f"the value is {result.value}")
        _verify(rep, r_min)
    return forms, result
