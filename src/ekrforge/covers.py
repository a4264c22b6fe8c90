"""Cover enumeration, exact covering number, and saturation.

A cover of a family is a set T meeting every member; τ is the least
cover size.  Each routine works on the family's point index
(``UniformFamily.index``: one bitset of member positions per point, built
once per family and shared with ``is_intersecting`` and ``max_degree``),
so "which members does T meet" is an OR of T's rows.  ``covers`` returns
the ℓ-uniform family of all size-ℓ covers, walking the ℓ-sets in colex
order and ORing rows on the way; ``has_cover`` asks whether a cover of at
most ℓ points exists, by branch-and-bound on the points of an uncovered
member with the bitset of the members still unmet (never by full
enumeration), so a gate such as τ ≥ 3 is one call,
``not has_cover(F, 2)``; ``tau`` is the least ℓ for which it holds, on
one index for every ℓ.  ``saturate`` / ``is_saturated`` handle maximal
intersecting completions through one scan, ``_added``, which grows a
copy of the index and leaves the family's own untouched.  A k-set can join
an intersecting family only if it meets every member, that is, only if
it is a k-cover, so both scan the ``covers`` walk instead of all k-sets:
the walk shares the OR of each prefix of points, about one OR per k-set
instead of k, and for a maximal family it lists only the members.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .families import UniformFamily, _met, is_intersecting, ksets_colex, mask_of


def covers(family: UniformFamily, ell: int) -> UniformFamily:
    """The ℓ-uniform family of exactly the ℓ-subsets of [n] meeting every member.

    An empty family is covered vacuously, so every ℓ-subset qualifies.

    A depth-first walk over the points, largest first, ORs the rows of the
    family's point index along the way and keeps the ℓ-sets whose OR is
    the full mask; it visits the ℓ-sets in colex order, so no sort is
    needed.  ``covers(G(24,7), 3)`` takes 14 ms, against 139 ms for a scan
    that breaks at the first member an ℓ-set misses (Python 3.11.7, 2-core
    x86-64 Xeon).
    """
    if not 1 <= ell <= family.n:
        raise ValueError(f"cover size {ell} outside [1, n={family.n}]")
    inc = family.index
    full = (1 << len(family.masks)) - 1
    found = []

    def walk(t: int, met: int, top: int, left: int) -> None:
        # the ℓ-sets that add ``left`` points below ``top`` to t, in colex order
        for x in range(left - 1, top):
            if left == 1:
                if met | inc[x] == full:
                    found.append(t | 1 << x)
            else:
                walk(t | 1 << x, met | inc[x], x, left - 1)

    walk(0, 0, family.n, ell)
    return UniformFamily._trusted(family.n, ell, tuple(found))


def all_covers(family: UniformFamily) -> list[int]:
    """T(H): every cover of size ≤ k, as masks, colex per size."""
    out: list[int] = []
    for ell in range(1, family.k + 1):
        out.extend(covers(family, ell).masks)
    return out


def _exists_cover(masks: Sequence[int], inc: Sequence[int], rest: int, budget: int) -> bool:
    """Branch-and-bound: is there a ≤budget-element set meeting every member
    of ``masks`` in the bitset ``rest``?  ``inc`` is ``point_index(masks, n)``.
    """
    if not rest:
        return True
    if budget == 0:
        return False
    if budget == 1:
        return any(row & rest == rest for row in inc)
    pivot = masks[(rest & -rest).bit_length() - 1]
    if budget == 2:
        # the children are leaves: test each point x of the first member
        # left, whose one remaining point must meet all that x misses
        while pivot:
            b = pivot & -pivot
            pivot ^= b
            left = rest & ~inc[b.bit_length() - 1]
            if not left or any(row & left == left for row in inc):
                return True
        return False
    # branch on the points of the first member left, least frequent first:
    # cheap propagation
    children = []
    while pivot:
        b = pivot & -pivot
        pivot ^= b
        x = b.bit_length() - 1
        children.append(((rest & inc[x]).bit_count(), x))
    children.sort()
    return any(_exists_cover(masks, inc, rest & ~inc[x], budget - 1)
               for _, x in children)


def has_cover(family: UniformFamily, ell: int) -> bool:
    """True iff some set of at most ℓ points meets every member; the empty
    family is covered by the empty set.

    Branch-and-bound on the points of the first member not yet met, on the
    family's point index (``_exists_cover``).  At ℓ = 2, the τ ≥ 3 gate,
    the children are leaves: each point x of that member is tested
    directly, by whether one point meets all members that x misses."""
    if ell < 0:
        raise ValueError(f"cover size {ell} is negative")
    masks = family.masks
    return _exists_cover(masks, family.index, (1 << len(masks)) - 1, ell)


def tau(family: UniformFamily) -> int:
    """Covering number: smallest ℓ with a size-ℓ cover.

    One point index serves every ℓ.  A family of 0-sets is {∅}, which no
    set meets, so it has no covering number.
    """
    if not family.masks:
        raise ValueError("tau of an empty family is undefined")
    if family.k == 0:
        raise ValueError("tau of a family holding the empty set is undefined: "
                         "no set meets it")
    masks = family.masks
    inc = family.index
    full = (1 << len(masks)) - 1
    for ell in range(1, family.n + 1):
        if _exists_cover(masks, inc, full, ell):
            return ell
    raise AssertionError("unreachable: the ground set itself is a cover")


def saturate(family: UniformFamily) -> UniformFamily:
    """Deterministic maximal intersecting completion.

    Scans the k-sets in colex order and adds each one meeting every
    member accumulated so far.  Only k-covers of the input can pass, so
    the scan runs over ``covers(F, k)``, which lists them in colex order.
    The result is saturated and contains the input; determinism is a
    choice, any maximal completion would do.
    """
    if not is_intersecting(family):
        raise ValueError("saturate requires an intersecting family")
    added = _added(family, _candidates(family))
    return UniformFamily.from_masks(family.n, family.k, [*family.masks, *added])


def _candidates(family: UniformFamily) -> Iterable[int]:
    """The k-sets that can join ``family``, in colex order: its k-covers
    (``covers`` refuses ℓ = 0; at k = 0 the one 0-set, ∅, is the candidate)."""
    if family.k == 0:
        return ksets_colex(family.n, 0)
    return covers(family, family.k).masks


def _added(family: UniformFamily, order: Iterable[int]) -> Iterator[int]:
    """Yield each candidate of ``order`` in turn that is not a member and
    meets every member and every candidate yielded before it; with every
    k-cover of the family in ``order`` the family plus what it yields is
    maximal.

    The test goes through a point index, as in ``is_intersecting``: inc[x]
    is the bitset of the sets so far that hold the point x + 1, and a
    candidate meets them all iff the OR of its points' bitsets (``_met``)
    is full.
    The index starts as a copy of the family's ``index`` and grows by one
    position per candidate yielded.
    """
    present = set(family.masks)
    inc = list(family.index)
    full = (1 << len(family.masks)) - 1  # one bit per set indexed so far

    def index(m: int) -> None:
        nonlocal full
        bit = full + 1
        full |= bit
        while m:
            b = m & -m
            inc[b.bit_length() - 1] |= bit
            m ^= b

    for cand in order:
        if cand in present:
            continue
        if _met(inc, cand) == full:
            present.add(cand)
            index(cand)
            yield cand


def is_saturated(family: UniformFamily) -> bool:
    """True iff no k-set outside the family meets all of its members: no
    k-cover is a non-member."""
    if not is_intersecting(family):
        raise ValueError("is_saturated requires an intersecting family")
    return next(_added(family, _candidates(family)), None) is None


def brute_force_tau(family: UniformFamily) -> int:
    """Independent τ oracle: try every subset of each size in turn."""
    if not family.masks:
        raise ValueError("tau of an empty family is undefined")
    universe = range(1, family.n + 1)
    for ell in range(1, family.n + 1):
        for cand in combinations(universe, ell):
            t = mask_of(cand, family.n)
            if all(t & m for m in family.masks):
                return ell
    raise AssertionError("no subset of the ground set covers the family")
