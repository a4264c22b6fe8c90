"""Cover enumeration, exact covering number, and saturation.

A cover of a family is a set T meeting every member; τ is the least
cover size.  ``covers`` returns the ℓ-uniform family of all size-ℓ
covers; ``has_cover`` asks whether a cover of at most ℓ points exists,
by branch-and-bound on the elements of an uncovered member (never by
full enumeration), so a gate such as τ ≥ 3 is one call,
``not has_cover(F, 2)``; ``tau`` is the least ℓ for which it holds.
``saturate`` / ``is_saturated`` handle maximal intersecting completions
through one scan, ``_added``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .families import (UniformFamily, elements_of, is_intersecting, ksets_colex,
                       mask_of, point_index)


def covers(family: UniformFamily, ell: int) -> UniformFamily:
    """The ℓ-uniform family of exactly the ℓ-subsets of [n] meeting every member.

    An empty family is covered vacuously, so every ℓ-subset qualifies.

    This stays a scan that breaks at the first member a candidate misses,
    not ``families.meeting``: most ℓ-sets miss a member early, and there
    the scan wins, as a pairwise scan beat ``_added``'s point index on
    G(20,6), where nearly every candidate is rejected.
    """
    if not 1 <= ell <= family.n:
        raise ValueError(f"cover size {ell} outside [1, n={family.n}]")
    masks = family.masks
    found = []
    for t in ksets_colex(family.n, ell):
        for m in masks:
            if not t & m:
                break
        else:
            found.append(t)
    return UniformFamily(family.n, ell, tuple(found))


def all_covers(family: UniformFamily) -> list[int]:
    """T(H): every cover of size ≤ k, as masks, colex per size."""
    out: list[int] = []
    for ell in range(1, family.k + 1):
        out.extend(covers(family, ell).masks)
    return out


def _exists_cover(masks: list[int], budget: int) -> bool:
    """Branch-and-bound: is there a ≤budget-element set meeting every mask?"""
    if not masks:
        return True
    if budget == 0:
        return False
    if budget == 1:
        acc = -1
        for m in masks:
            acc &= m
            if not acc:
                return False
        return True
    pivot = masks[0]
    # branch on the pivot's elements, least frequent first: cheap propagation
    elems = elements_of(pivot)
    degs = []
    for x in elems:
        b = 1 << (x - 1)
        degs.append((sum(1 for m in masks if m & b), x))
    degs.sort()
    for _, x in degs:
        b = 1 << (x - 1)
        rest = [m for m in masks if not m & b]
        if _exists_cover(rest, budget - 1):
            return True
    return False


def has_cover(family: UniformFamily, ell: int) -> bool:
    """True iff some set of at most ℓ points meets every member; the empty
    family is covered by the empty set."""
    if ell < 0:
        raise ValueError(f"cover size {ell} is negative")
    return _exists_cover(list(family.masks), ell)


def tau(family: UniformFamily) -> int:
    """Covering number: smallest ℓ with a size-ℓ cover."""
    if not family.masks:
        raise ValueError("tau of an empty family is undefined")
    for ell in range(1, family.n + 1):
        if has_cover(family, ell):
            return ell
    raise AssertionError("unreachable: the ground set itself is a cover")


def saturate(family: UniformFamily) -> UniformFamily:
    """Deterministic maximal intersecting completion.

    Scans all k-sets in colex order and adds each one meeting every
    member accumulated so far.  The result is saturated and contains the
    input; determinism is a choice, any maximal completion would do.
    """
    if not is_intersecting(family):
        raise ValueError("saturate requires an intersecting family")
    added = _added(family, ksets_colex(family.n, family.k))
    return UniformFamily.from_masks(family.n, family.k, [*family.masks, *added])


def _added(family: UniformFamily, order: Iterable[int]) -> Iterator[int]:
    """Yield each candidate of ``order`` in turn that is not a member and
    meets every member and every candidate yielded before it; with every
    k-set in ``order`` the family plus what it yields is maximal.

    The test goes through a point index, as in ``is_intersecting``: inc[x]
    is the bitset of the sets so far that hold the point x + 1, and a
    candidate meets them all iff the OR of its points' bitsets is full.
    The index starts as ``point_index`` of the members and grows by one
    position per candidate yielded.
    """
    present = set(family.masks)
    inc = point_index(family.masks, family.n)
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
        met = 0
        m = cand
        while m:
            b = m & -m
            met |= inc[b.bit_length() - 1]
            m ^= b
        if met == full:
            present.add(cand)
            index(cand)
            yield cand


def is_saturated(family: UniformFamily) -> bool:
    """True iff no k-set outside the family meets all of its members: the
    saturation scan stops at the first k-set it would add."""
    if not is_intersecting(family):
        raise ValueError("is_saturated requires an intersecting family")
    return next(_added(family, ksets_colex(family.n, family.k)), None) is None


def brute_force_tau(family: UniformFamily, max_size: int | None = None) -> int:
    """Independent τ oracle: try every subset of each size in turn."""
    if not family.masks:
        raise ValueError("tau of an empty family is undefined")
    limit = family.n if max_size is None else max_size
    universe = range(1, family.n + 1)
    for ell in range(1, limit + 1):
        for cand in combinations(universe, ell):
            t = mask_of(cand, family.n)
            if all(t & m for m in family.masks):
                return ell
    raise AssertionError("no cover found within the requested size limit")
