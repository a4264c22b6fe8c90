"""Exact computation of m(n,k,r) at desk scale.

m(n,k,r) is the maximum size of an intersecting k-uniform family on [n]
with covering number at least r.  The solver is a branch-and-bound over
k-sets, its candidates listed fewest-met first by ``_candidate_graph``, the
one set-up of both search cores:

  * the first selected k-set is forced to {1..k} - every nonempty family
    is isomorphic to one containing the colex-least k-set, so this
    normalisation is lossless;
  * for r >= 2 the covering constraints propagate as "this element/pair
    must still be avoidable": a branch dies when some small set can no
    longer be avoided by any chosen or remaining candidate, and the
    tightest open constraint is branched on directly (first-avoider
    split), a union of the node's cells first when there is one;
  * once no constraint is open (the clique phase) a node includes its
    lowest candidate, or excludes it with its whole orbit;
  * one orbit rule prunes by symmetry at both kinds of node, and in the
    loop of the degree-capped search below (orbital branching, Ostrowski
    et al. 2011): a node carries a partition of [n] into cells,
    ({1..k}, [k+1..n]) at the root, and once the child of a candidate w
    has been searched, the candidates in w's orbit under the symmetric
    groups on the node's cells (``_orbit``) leave every later sibling;
    a child's cells are the node's refined by its own member;
  * the upper bound is a greedy clique cover of the remaining candidates
    by groups of pairwise-disjoint sets, listed by ``_colour_classes``;
  * a candidate compatible with every other remaining candidate and all
    chosen members is forced in: adding it never hurts intersecting-ness
    and never lowers τ, so some optimum (indeed every optimum) contains it.
    A node takes its whole forced set F at once, and counts |F| nodes,
    one per link of the chain that forcing one at a time would walk, for
    none of those links can prune or branch.  A forced v meets every
    candidate left, so it is a group of the bound on its own and the
    bound stays the same; v avoids no constraint left open after it; an
    excluded candidate still there meets v, so domination is unchanged;
    and a candidate disjoint from another stays unforced.  So only the
    one-member groups are tested.
  * a branch keeps only the constraints that no forced member avoids, and
    a chosen candidate satisfies those it avoids, a row of one table read
    off ``meeting`` at set-up.

The τ ≥ 3 searches ``max_intersecting_seeded`` and ``enumerate_optima``
(r = 3) follow the proof's case split instead (``_structural_branches``):
branches A_j, where {1,2,3} is a cover and two members are forced, one per
size j of their intersection, and branches B_i, covering number at least 4,
each with a forced second member.  Each branch carries the cells of the
symmetry its forced members leave, and the same orbit rule prunes its
tree.  ``_search`` runs a list of branches, one for the plain search, as
one search.

The degree-capped search (``max_intersecting_degcap``) cannot force or
dominate, since a cap can make a compatible candidate unusable.  It
branches in colour order instead (MCQ, Tomita et al. 2010): each node
lists its candidates by the same greedy disjoint groups the bound counts
and tries them from the last group down, stopping once the groups left
cannot lift the family past the incumbent; candidates through a point at
the cap leave the candidate set, and a node stops at once when the room
left under the cap at the points of {1..k}, which every candidate meets,
cannot lift it past the incumbent.  It prunes by symmetry, through the
same orbit rule, instead of by domination.  The τ-searches list the same
groups but read only their number and their one-member groups; listing
them takes the same time as counting them.  They do not branch in colour
order.  It was measured at k = 3, r = 3, where a warm-started search
never reaches a plain clique phase, in which colour order could cut
nodes; there it cut no node and made each node 10-30% slower.  That
holds only at r = 3: at r = 1 the clique phase is the whole tree, and at
r = 2 most of it, and there the searches branch on orbits instead.

Both search cores keep their bookkeeping in one run record, ``_Run``:
the clock, read once every ``_CLOCK_STRIDE`` nodes, the node count, the
incumbent with its witness tie-break, the optima when collecting, the
timebox status and the ``SearchResult``.  Only the recursions differ.

Every returned witness is re-verified post hoc through the covers module
before the result is released.  Searches are single-threaded and fully
deterministic; an exhausted budget downgrades the status to a lower
bound but never invalidates the value.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

from .binomial import binom
from .constructions import _star_with_base, build_G, build_HM, full_star
from .covers import is_intersecting, tau
from .families import (UniformFamily, _met, elements_of, ksets_colex, mask_of, max_degree,
                       meeting, point_index)

PROVED = "proved-optimal"
TIMEBOXED = "timeboxed-lower-bound"


@dataclass(frozen=True)
class SearchResult:
    witness: UniformFamily
    status: str
    nodes: int
    elapsed: float

    @property
    def value(self) -> int:
        return len(self.witness)


class _Budget(Exception):
    pass


# the search cores read the clock once every _CLOCK_STRIDE nodes: at large
# n a node can take a quarter of a millisecond, so a longer stride lets a
# timeboxed search overrun its budget by a second
_CLOCK_STRIDE = 64


class _Run:
    """The bookkeeping of one search run, shared by both search cores: one
    clock, one node count and one incumbent, and, when collecting, one set
    of optima.

    ``best`` is the size a family must beat, or reach when collecting, and
    ``best_masks`` the sorted masks of the witness so far.  A run started
    from an ``incumbent`` starts ``best`` at its size; a collecting run
    keeps no incumbent masks, so its witness is the colex-least optimum it
    notes.
    """

    __slots__ = ("t_start", "deadline", "nodes", "best", "best_masks", "optima", "status")

    def __init__(self, budget: float, incumbent: UniformFamily | None = None,
                 collect: bool = False):
        self.t_start = time.perf_counter()
        self.deadline = self.t_start + budget
        self.nodes = 0
        self.best = len(incumbent) if incumbent is not None else 0
        self.best_masks = incumbent.masks if incumbent is not None and not collect else ()
        self.optima: set[tuple[int, ...]] | None = set() if collect else None
        self.status = PROVED

    def tick(self, count: int = 1) -> None:
        """Count one node, or a forced batch of ``count``, and read the
        clock whenever the count reaches or passes a multiple of
        ``_CLOCK_STRIDE``."""
        nodes = self.nodes = self.nodes + count
        if nodes % _CLOCK_STRIDE < count and time.perf_counter() > self.deadline:
            raise _Budget

    def note(self, chosen: list[int]) -> None:
        """Note a feasible family: below ``best`` it leaves no trace; when
        collecting, one of at least ``best`` members is collected (a larger
        one first clears the collection).  Witness tie-break: the larger
        family wins, then the colex-smaller tuple of sorted masks."""
        size = len(chosen)
        if size < self.best:
            return
        key = tuple(sorted(chosen))
        if self.optima is not None:
            if size > self.best:
                self.optima.clear()
            self.optima.add(key)
        if size > self.best or not self.best_masks or key < self.best_masks:
            self.best, self.best_masks = size, key

    def timebox(self, recurse, *start) -> bool:
        """Run a recursion to its end, or until the budget is spent; an
        exhausted budget leaves a lower bound, not a proof, and ends the
        run: False tells the caller to start nothing more."""
        try:
            recurse(*start)
        except _Budget:
            self.status = TIMEBOXED
            return False
        return True

    def result(self, n: int, k: int) -> SearchResult:
        """The run's result.  A collecting run that collected nothing never
        reached its floor, and claims the value 0 with the empty witness."""
        value = self.best if self.optima is None or self.optima else 0
        witness = UniformFamily.from_masks(n, k, self.best_masks)
        if len(witness) != value:
            raise AssertionError("witness size disagrees with the proven value")
        return SearchResult(witness, self.status, self.nodes, time.perf_counter() - self.t_start)


def canonical_form(family: UniformFamily) -> UniformFamily:
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
    for a bijection λ, equal only for isomorphic families.  It is returned
    as the family λ(F), built through the checked constructor, so every
    caller gets members already checked as k-sets of [n] in order.

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
        return UniformFamily(n, k)
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
    return UniformFamily(n, k, refs[-1][0])


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


def _class_reps(n: int, raw: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The first family of each isomorphism class among families on [n]
    given as mask tuples, in raw order.

    A family's signature, a cheap relabeling invariant (the sorted degrees
    and the sorted intersection profiles of the members, self included),
    its member points, cached per mask, and its degrees are computed once.
    Classes are split by signature first, so a bucket's families share k
    and size, and the bijection test decides membership against the
    representatives in the bucket, whose member set and points by degree
    are built once, when the class opens.
    """
    points: dict[int, tuple[int, ...]] = {}
    buckets: dict[tuple, list] = {}
    reps = []
    for masks in raw:
        members = [points.get(m) or points.setdefault(m, tuple(x - 1 for x in elements_of(m)))
                   for m in masks]
        deg = [0] * n
        for pts in members:
            for x in pts:
                deg[x] += 1
        profiles = sorted([tuple(sorted([(m & other).bit_count() for other in masks]))
                           for m in masks])
        bucket = buckets.setdefault((tuple(sorted(deg)), tuple(profiles)), [])
        if not any(_bijection(members, deg, *target) for target in bucket):
            by_deg: dict[int, list[int]] = {}
            for y, d in enumerate(deg):
                by_deg.setdefault(d, []).append(1 << y)
            bucket.append((set(masks), by_deg))
            reps.append(masks)
    return reps


def are_isomorphic(fam_a: UniformFamily, fam_b: UniformFamily) -> bool:
    """Size checks, then whether ``_class_reps`` puts both in one class:
    equal signatures, and a bijection test from B onto A."""
    return ((fam_a.n, fam_a.k, len(fam_a)) == (fam_b.n, fam_b.k, len(fam_b))
            and len(_class_reps(fam_a.n, (fam_a.masks, fam_b.masks))) == 1)


def _bijection(members: list[tuple[int, ...]], deg: list[int], set_b: set[int],
               by_deg: dict[int, list[int]]) -> bool:
    """Backtracking ground-set bijection test with degree refinement, from
    a family A, given by its member points and degrees, onto a family B of
    the same n, k, size and degree multiset, given by its member set and
    the bits of its points grouped by degree.  The points of A are mapped
    in order of decreasing degree, each onto an unused point of B of the
    same degree.  A member of A is checked once, at the depth that maps
    its last point in that order: its image must be a member of B."""
    n = len(deg)
    order = sorted(range(n), key=deg.__getitem__, reverse=True)
    rank = sorted(range(n), key=order.__getitem__)
    closing: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for pts in members:
        closing[max(map(rank.__getitem__, pts), default=0)].append(pts)
    candidates = [by_deg.get(deg[x], ()) for x in order]
    image = [0] * n

    def assign(depth: int, used: int) -> bool:
        if depth == n:
            return True
        x = order[depth]
        for y in candidates[depth]:
            if not used & y:
                image[x] = y
                for pts in closing[depth]:
                    if sum(map(image.__getitem__, pts)) not in set_b:
                        break
                else:
                    if assign(depth + 1, used | y):
                        return True
        return False

    return assign(0, 0)


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


def _check_r_min(k: int, r_min: int) -> None:
    """Refuse an r_min that no search here takes: one outside 1..3, or one
    of 2 or more at k = 0, where the only k-set is ∅, which no set meets,
    so a nonempty family has no covering number."""
    if r_min not in (1, 2, 3):
        raise ValueError("r_min must be 1, 2, or 3")
    if k == 0 and r_min >= 2:
        raise ValueError(f"covering number >= {r_min} is undefined at k = 0: "
                         "no set meets the empty set")


def _plain_branch(n: int, k: int, r_min: int) -> _Branch:
    """Every k-set, with the first member forced to {1..k}.

    Its cells are ({1..k}, [k+1..n]): S_n maps the k-sets and the
    (r_min-1)-sets onto themselves, and S_k × S_{n-k} also fixes {1..k}.
    """
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


def _orbit(bit: int, mask: int, cells: tuple[int, ...] | None, through: list[int]) -> int:
    """The candidates in the orbit of the candidate ``mask``, whose bit is
    ``bit``, under the product of the symmetric groups on ``cells``: those
    that meet every cell in as many points as ``mask`` does, as a bitset
    over the candidates whose point index is ``through``.  The group fixes
    a union of cells, so the orbit of one is ``bit`` alone, as is every
    orbit when ``cells`` is ``None``.

    For each cell that ``mask`` meets in a ≥ 1 points, an "at least a"
    counter runs over the cell's rows of ``through``: ``at_least[j]`` holds
    the candidates with at least j points of the cell among the rows seen.
    The sizes sum to k on both sides, so meeting each such cell in at
    least as many points forces equality everywhere.
    """
    if cells is None or all(cell & mask in (0, cell) for cell in cells):
        return bit
    orbit = -1
    for cell in cells:
        a = (mask & cell).bit_count()
        if not a:
            continue
        at_least = [-1] + [0] * a
        rows = cell
        while rows:
            b = rows & -rows
            rows ^= b
            row = through[b.bit_length() - 1]
            for j in range(a, 0, -1):
                at_least[j] |= at_least[j - 1] & row
        orbit &= at_least[a]
    return orbit


def _colour_classes(cand: int, disj: list[int]) -> list[int]:
    """Greedy partition of the candidate bitset into pairwise-disjoint
    groups (the colour classes of MCQ), listed as bitsets in the order they
    open.  An intersecting family picks at most one candidate per group, so
    the candidates of the first c groups hold an intersecting family of at
    most c members, and the number of groups bounds the whole; a candidate
    disjoint from no other candidate is a group on its own.

    A group opens at the lowest candidate left and takes, lowest first,
    every candidate left that is disjoint from all of the group so far.
    ``cur`` only ever holds bits above the last one taken, and ``disj[u]``
    has no bit ``u``, so no mask is needed to keep the scan moving up.
    """
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


def _candidate_graph(n: int, universe, forced
                     ) -> tuple[list[int], list[int], list[int], list[int]]:
    """The candidates (universe members other than the forced ones that
    meet each of them) with their intersecting and disjoint bitsets, read
    off their ``point_index``, which is returned last.  Neither bitset
    holds a candidate's own bit, not even at k = 0, where the one
    candidate, ∅, does not meet itself.

    The candidates are listed fewest-met first: by the number of other
    candidates each one meets, ties in universe (colex) order, the vertex
    order that clique branch-and-bound starts from (Carraghan & Pardalos,
    1990).  Every later step reads candidate positions only, so this order
    decides which candidate is lowest, how the greedy groups open and in
    which order avoiders are tried; the orbit rule holds in any fixed
    order."""
    forced_set = set(forced)
    cand_masks = [m for m in universe
                  if m not in forced_set and all(m & f for f in forced)]
    through = point_index(cand_masks, n)
    # a stable sort: ties keep universe order
    cand_masks.sort(key=lambda m: _met(through, m).bit_count())
    full = (1 << len(cand_masks)) - 1
    through = point_index(cand_masks, n)
    compat, disj = [], []
    for i, m in enumerate(cand_masks):
        met, bit = _met(through, m), 1 << i
        compat.append(met & ~bit)
        disj.append(full & ~(met | bit))
    return cand_masks, compat, disj, through


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


def _search(n: int, k: int, branches: Iterable[_Branch], budget: float,
            incumbent: UniformFamily | None = None, collect: bool = False
            ) -> tuple[SearchResult, list[tuple[int, ...]]]:
    """Largest intersecting family that, in some branch of ``branches``,
    holds only universe members, contains the forced members and leaves
    every constraint set avoided by some member.

    The branches run in order as one search (``_walk_branch`` for each):
    one deadline, one node count and one incumbent carried from branch to
    branch in a ``_Run``, and, when collecting, one set of optima.  Once
    the budget is spent no further branch starts, and the result is a
    lower bound.

    Returns ``(result, optima)``.  Without ``collect`` a feasible
    ``incumbent`` warm-starts the bound and ``optima`` is empty.  With it,
    every family of maximum size, and of at least the incumbent's size (0
    without one), is collected (the incumbent prune becomes non-strict); an
    empty collection reports that this floor was never reached, and the
    result claims the value 0.  The caller verifies the witness it
    releases.

    Why carrying the incumbent from branch to branch is exact.  Pruning
    reads only the incumbent's size, never its members, and a later branch
    starts from the best size of the earlier ones, a lower bound on the
    optimum, so it drops only families that cannot be optimal overall.
    The released witness is the colex-least among the families of maximum
    size noted in any branch (and the incumbent), as if each branch had
    run alone and the best of them had been taken.  When collecting, the
    floor of a later branch is likewise the best size found so far, and a
    larger family clears what smaller ones left.  Every public route at
    k >= 3 starts from |G(n,k)|, which no branch beats (the paper's theorem,
    which these searches prove), so each branch walks exactly the tree it
    walks when it runs alone.  A cold run over several branches can prune
    more than its branches run one by one, and may then release another
    witness of the same size.
    """
    if n < 2 * k:
        raise ValueError("max_intersecting requires n >= 2k")
    run = _Run(budget, incumbent, collect)
    for branch in branches:
        if not _walk_branch(n, branch, run):
            break
    return run.result(n, k), sorted(run.optima or ())


def _walk_branch(n: int, branch: _Branch, run: _Run) -> bool:
    """Walk one branch of ``_search`` within ``run``; False once the run's
    budget is spent.

    Leaf test: a node whose ``size`` chosen members are fewer than ``best``
    and whose candidates number at most ``best - size`` (fewer, when
    collecting) returns at once.  Each bound group holds a candidate, so
    the bound prune ``size + groups + collect <= best`` (strict, or
    non-strict when collecting) would prune it too; and a family below
    ``best`` is never noted, so the node leaves no trace but its count.

    The orbit rule, when the branch has ``cells``: ({1..k}, [k+1..n]) for
    the plain branch, and the cells of ``_structural_branches`` for the
    split.  A node's group G is the product of the symmetric groups on its
    cells.  It maps the universe and the constraint set onto themselves and
    fixes every forced member of the branch and every member chosen at a
    split or taken by an include child above the node.  The forced
    inclusions, defined from the candidate set alone, and ``excluded``,
    made of orbits dropped above the node under the larger groups there,
    are unions of its orbits.  So G maps the node's chosen members,
    candidates, open constraints and excluded candidates onto themselves,
    and with them the node's space of families.  A child's cells are the
    node's refined by its own member (``_refine_cells``), so its group is
    the subgroup of G that also fixes that member; a discrete partition has
    the trivial group, so its node gets ``None``, and forced inclusions do
    not refine.

    A split node branches on C, the tightest open constraint, preferring
    the tightest one that is a union of cells when there is one: a child
    per avoider of C, in order.  A node with no open constraint (the clique
    phase) branches on its lowest candidate v instead: the include child
    takes v, the exclude child takes nothing.  At both, once the child of
    a candidate w has been searched, D, the candidates in w's orbit under
    G (``_orbit``), leaves every later sibling: D moves from the later
    children's candidates into their ``excluded``, and no later child takes
    a member of D.  Two candidates lie in one orbit exactly when they meet
    every cell in the same number of points.

    Why the rule is sound, one argument for both kinds of node and for the
    loop of ``max_intersecting_degcap``.  Let D₁, D₂, … be the dropped
    sets, in the order the children w₁, w₂, … are tried.  Each Dᵢ is
    G-invariant: an orbit of G met with the G-invariant candidate set.
    Take a family F in the node's space, and let i be the least index with
    F ∩ Dᵢ ≠ ∅.  Some g ∈ G maps a member of F ∩ Dᵢ onto wᵢ, and g(F), of
    the same size (g keeps intersections), lies in the node's space and
    misses D₁..Dᵢ₋₁, so it lies in child i's space.  A family that meets
    no Dᵢ is left to the last child: at a split there is none, for it holds
    an avoider of C, and every avoider is tried or lies in the orbit of one
    tried before it; in the clique phase it lies in the exclude child's
    space.  The domination prune stays sound: an excluded candidate that
    meets a completion and every candidate left extends it to a larger
    family in the space of the node that dropped it, so the completion is
    not optimal.  So every subtree that is dropped holds only families of
    which a searched subtree holds an isomorphic copy: the value is
    unchanged.
    Collection stays exact up to isomorphism for the same reason: every
    optimum of the branch has an image under the root's group, a
    relabelling that keeps the branch, among the collected optima (the
    composite of the group elements met along the way), so every class of
    optima is still collected, only fewer labelled copies of it.  The
    argument never needs g to map C onto itself, so the cells are not
    refined by C, and an orbit dropped at a split may hold candidates that
    do not avoid C.  Preferring a C that is a union of cells is only a
    branching choice, kept because it prunes: without it the (9,4) split
    walks 109,339 nodes, not 96,922.
    """
    forced = branch.forced
    # the open constraints: those that no forced member avoids
    constraints = [c for c in branch.constraints if all(c & f for f in forced)]
    cand_masks, compat, disj, through = _candidate_graph(n, branch.universe, forced)
    full = (1 << len(cand_masks)) - 1
    avoiders = [full & ~_met(through, c) for c in constraints]
    # avoids[v]: the open constraints that candidate v avoids, so satisfies
    # once chosen
    all_open = (1 << len(constraints)) - 1
    avoids = [all_open & ~met for met in meeting(cand_masks, constraints, n)]
    collect = run.optima is not None
    tick, note = run.tick, run.note

    def recurse(chosen: list[int], cand: int, unsat: int, excluded: int,
                cells: tuple[int, ...] | None) -> None:
        tick()
        # leaf: even one member per candidate cannot lift the family past
        # the incumbent, and a family below it is not noted
        size = len(chosen)
        if size < run.best and size + cand.bit_count() + collect <= run.best:
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
            note(chosen)
        # bound: strict, or non-strict when collecting
        classes = _colour_classes(cand, disj)
        if size + len(classes) + collect <= run.best:
            return
        # forced inclusions, all at once: candidates disjoint from no
        # candidate left, each of which is a group on its own
        forced_now = [g for g in classes
                      if not g & (g - 1) and not cand & disj[g.bit_length() - 1]]
        if forced_now:
            tick(len(forced_now))
            for vb in forced_now:
                v = vb.bit_length() - 1
                cand ^= vb
                chosen.append(cand_masks[v])
                unsat &= ~avoids[v]
                excluded &= compat[v]
            if unsat == 0:
                note(chosen)
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
            # the orbits of the avoiders tried so far, which later children drop
            dropped = 0
            av = pick_av
            while av:
                vb = av & -av
                v = vb.bit_length() - 1
                m = cand_masks[v]
                chosen.append(m)
                recurse(chosen, cand & compat[v] & ~dropped, unsat & ~avoids[v],
                        (excluded | dropped) & compat[v], cells and _refine_cells(cells, m))
                chosen.pop()
                dropped |= _orbit(vb, m, cells, through) & cand
                av &= ~dropped
        elif cand:
            # plain clique phase: include the lowest candidate, or exclude
            # its whole orbit under the node's group
            vb = cand & -cand
            v = vb.bit_length() - 1
            m = cand_masks[v]
            chosen.append(m)
            recurse(chosen, cand & compat[v], 0, excluded & compat[v],
                    cells and _refine_cells(cells, m))
            chosen.pop()
            orbit = _orbit(vb, m, cells, through) & cand
            recurse(chosen, cand & ~orbit, 0, excluded | orbit, cells)
        if forced_now:
            del chosen[size:]

    return run.timebox(recurse, list(forced), full, all_open, 0, branch.cells)


def max_intersecting(n: int, k: int, r_min: int = 1, budget: float = 600.0,
                     seed_incumbent: bool = True) -> SearchResult:
    """Exact m(n,k,r) with optimality proof, or a timeboxed lower bound.

    ``seed_incumbent`` warm-starts the bound with a known feasible family
    (the star, Hilton-Milner, or G(n,k)).
    """
    _check_r_min(k, r_min)
    branch = _plain_branch(n, k, r_min)
    incumbent = _default_incumbent(n, k, r_min) if seed_incumbent else None
    result, _ = _search(n, k, [branch], budget, incumbent)
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
    last group down; after its subtree a candidate leaves the node's set
    with its whole orbit (the orbit rule below), so each family is reached
    at most once.  The child of ``u`` keeps the
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

    Capacity stop: every candidate meets the forced member {1..k}, so its
    least point x lies in {1..k}, and the sets L_x of candidates with least
    point x partition the candidates.  Every member of L_x holds x, so at
    most ``cap - deg(x)`` of them can still be added.  A node whose
    ``size + room <= best``, where room sums min(cap - deg(x), |cand ∩
    L_x|) over x in {1..k}, returns right after the leaf test: a member
    added below the node is one of its candidates and lies in exactly one
    L_x, so no family in its subtree beats the incumbent.  Like the colour
    stop, it cuts only subtrees that hold no family beating ``best``, and
    it changes the family and candidates of no node it keeps, so the orbit
    rule (below) holds with it unchanged.

    The orbit rule of ``_walk_branch``.  A node carries a partition of [n]
    into cells, {1..k} and the rest at the root; its group G is the product
    of the symmetric groups on the cells.  Every chosen member is a union
    of cells, so G fixes each of them, and with them the degrees and the
    removals at the cap; the candidates dropped above the node are orbits
    of the larger groups there, so G maps the candidate set onto itself.
    Once the child of a candidate u has been searched, the candidates in
    u's orbit under G (``_orbit``) leave the node's candidate set, and a
    member of a group that has left it is passed over, after the same stop
    test.  A child's cells are the node's refined by its own member
    (``_refine_cells``); a discrete partition has the trivial group, so its
    node gets ``None`` and drops only u itself.  The soundness argument of
    ``_walk_branch`` holds here as written (g also keeps degrees), with
    the families that meet no dropped set left to the colour stop: they
    are made of candidates still untried there, which lie in the first
    ``colour`` groups.

    The witness: ``_Run.note`` keeps the seed unless the tree notes a
    colex-smaller family of the same size.  At every point proved so far
    the value is |``_degcap_seed``|, the theorem bound, and the released
    witness is the seed, which the pinned digests check; but the orbit
    rule and the capacity stop change which families the tree notes, so
    nothing here proves that the seed must stay: a tree that noted a
    colex-smaller optimum would release it.
    """
    if not 2 <= ell <= k:
        raise ValueError("degree-cap parameter must satisfy 2 <= ell <= k")
    if n <= 2 * k:
        raise ValueError("degree-capped search requires n > 2k")
    cap = binom(n - 1, k - 1) - binom(n - ell - 1, k - 1)
    bound = cap + binom(n - ell - 1, k - ell)
    # warm start: the degree-capped extremal candidate - the 1-star through
    # [2,ell+1] together with every k-set containing [2,ell+1]
    run = _Run(budget, _degcap_seed(n, k, ell, cap))
    tick, note = run.tick, run.note

    first = mask_of(range(1, k + 1), n)
    cand_masks, compat, disj, through = _candidate_graph(n, ksets_colex(n, k), (first,))
    points = [[x - 1 for x in elements_of(m)] for m in cand_masks]
    degs = [1 if x < k else 0 for x in range(n)]
    # the candidates by least point, which lies in {1..k}: every candidate
    # meets the forced member
    least = [0] * k
    for i, pts in enumerate(points):
        least[pts[0]] |= 1 << i

    def expand(chosen: list[int], cand: int, cells: tuple[int, ...] | None) -> None:
        tick()
        size = len(chosen)
        # note's own first test, made here to spare the call at the many
        # nodes below the incumbent
        if size >= run.best:
            note(chosen)
        best = run.best
        if size + cand.bit_count() <= best:
            return
        room = 0
        for x in range(k):
            free, left = (cand & least[x]).bit_count(), cap - degs[x]
            room += free if free < left else left
        if size + room <= best:
            return
        classes = _colour_classes(cand, disj)
        for colour in range(len(classes), 0, -1):
            group = classes[colour - 1]
            while group:
                if size + colour <= run.best:
                    return
                u = group.bit_length() - 1
                group ^= 1 << u
                # a member of the orbit of a sibling already tried
                if not cand >> u & 1:
                    continue
                m = cand_masks[u]
                child = cand & compat[u]
                for x in points[u]:
                    degs[x] += 1
                    if degs[x] == cap:
                        child &= ~through[x]
                chosen.append(m)
                expand(chosen, child, cells and _refine_cells(cells, m))
                chosen.pop()
                for x in points[u]:
                    degs[x] -= 1
                cand &= ~_orbit(1 << u, m, cells, through)

    # cap >= C(n-2,k-2) + C(n-3,k-2) >= 2, so after the forced member
    # (degrees at most 1) every candidate still fits
    run.timebox(expand, [first], (1 << len(cand_masks)) - 1,
                _refine_cells(((1 << n) - 1,), first))
    result = run.result(n, k)
    _verify(result.witness, 1)
    if max_degree(result.witness)[1] > cap:
        raise AssertionError("degree cap violated by the witness")
    if result.status == PROVED and result.value > bound:
        raise AssertionError(
            f"degree-capped optimum {result.value} exceeds the theorem bound {bound}")
    return result


def _degcap_seed(n: int, k: int, ell: int, cap: int) -> UniformFamily | None:
    fam = _star_with_base(n, k, ell)
    if not is_intersecting(fam):
        return None
    if max_degree(fam)[1] > cap:
        return None
    return fam


def max_intersecting_seeded(n: int, k: int, budget: float = 3600.0) -> SearchResult:
    """m(n,k,3) via the structural case split of ``_structural_branches``,
    mirroring the proof architecture: the branches A_1 .. A_{k-1} (τ = 3,
    {1,2,3} a cover, two members forced) and B_i (τ ≥ 4), run in that
    order as one search warm-started with G(n,k).  At k = 3 there is no
    B_i.  No branch beats |G(n,k)|, so each walks the tree it walks alone
    and the node count is the sum over the branches; the budget covers
    them all, and once it is spent no further branch starts."""
    _check_r_min(k, 3)
    result, _ = _search(n, k, _structural_branches(n, k), budget,
                        _default_incumbent(n, k, 3))
    _verify(result.witness, 3)
    return result


def _dedup_to_forms(n: int, k: int, raw: list[tuple[int, ...]]
                    ) -> list[UniformFamily]:
    """Collapse labeled optima, given as mask tuples, to isomorphism
    classes (``_class_reps``): only the class representatives become
    families, and each gets one canonical form."""
    return sorted((canonical_form(UniformFamily.from_masks(n, k, masks))
                   for masks in _class_reps(n, raw)), key=lambda f: f.masks)


def enumerate_optima(n: int, k: int, r_min: int, budget: float = 600.0
                     ) -> tuple[list[UniformFamily], SearchResult]:
    """All optimum-size witnesses up to isomorphism.

    Every family is isomorphic to one containing {1..k}, and the orbit
    rule of the search drops only subtrees whose families have isomorphic
    copies in a searched one (``_walk_branch``), so collecting the optima
    through the forced-first-member search and deduplicating by canonical
    form covers every isomorphism class.  At r_min = 3 the
    collection runs over the structural case split of
    ``_structural_branches`` instead, as one search whose branches
    likewise reach every isomorphism class, from the floor |G(n,k)| of the
    warm start; a family that two branches both reach is collected once.
    At r_min = 1 and 2 the floor is 0.  Every
    form is re-verified as it is returned: it must be
    intersecting, have covering number at least r_min and as many members
    as the value; a failure raises ``AssertionError``.

    Memory holds every collected optimum before deduplication: each class
    as often as the orbit rule leaves labelled copies of it, 118 optima for
    the 13 classes of (6,3,1).  The rule drops only copies under the
    groups of the nodes' cells, which shrink as members are chosen, so at
    n = 2k memory still grows with the number of maximal intersecting
    families with τ ≥ r_min: each takes one set of every complementary
    pair, so all have C(2k-1,k-1) members and all are optima, and no floor
    prunes them.  (8,4,3) is already out of reach: its first branch alone
    outgrew a 1.5 GB memory cap.  Keep n = 2k to k ≤ 3.
    """
    _check_r_min(k, r_min)
    if r_min == 3:
        result, raw = _search(n, k, _structural_branches(n, k), budget,
                              _default_incumbent(n, k, 3), collect=True)
    else:
        result, raw = _search(n, k, [_plain_branch(n, k, r_min)], budget, collect=True)
    if raw:
        _verify(result.witness, r_min)
    forms = _dedup_to_forms(n, k, raw)
    for form in forms:
        if len(form) != result.value:
            raise AssertionError(f"a class of optima has {len(form)} members, "
                                 f"the value is {result.value}")
        _verify(form, r_min)
    return forms, result
