"""Cover enumeration, exact covering number, and saturation.

A cover of a family is a set T meeting every member; τ is the least
cover size.  ``covers`` returns the ℓ-uniform family of all size-ℓ
covers, ``tau`` computes the covering number by iterative deepening
(branching on the elements of an uncovered member, never by full
enumeration), and ``saturate`` / ``is_saturated`` handle maximal
intersecting completions through one scan, ``_added``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .families import (UniformFamily, elements_of, is_intersecting, ksets_colex,
                       mask_of)


def covers(family: UniformFamily, ell: int) -> UniformFamily:
    """The ℓ-uniform family of exactly the ℓ-subsets of [n] meeting every member.

    An empty family is covered vacuously, so every ℓ-subset qualifies.
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


def tau(family: UniformFamily) -> int:
    """Covering number: smallest ℓ with a size-ℓ cover."""
    if not family.masks:
        raise ValueError("tau of an empty family is undefined")
    for ell in range(1, family.n + 1):
        if _exists_cover(list(family.masks), ell):
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
    k-set in ``order`` the family plus what it yields is maximal."""
    present = set(family.masks)
    current = list(family.masks)
    for cand in order:
        if cand in present:
            continue
        for m in current:
            if not cand & m:
                break
        else:
            current.append(cand)
            present.add(cand)
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
