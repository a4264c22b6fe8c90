"""Seeded random generation of intersecting and saturated families.

The property suites need reproducible streams of saturated intersecting
families, many of them with covering number at least 3 and with every
member meeting a fixed window in at least two points.  Random maximal
families rarely have those properties by accident, so the generators
grow them from structured seeds:

  * ``free``    - a few random pairwise-intersecting k-sets with empty
                  common intersection,
  * ``r_lift``  - every k-set whose window trace is an edge of R placed
                  on [5] (``lift_seed``; any addition then meets [5] twice),
  * ``r_lift_partial`` - a random nonempty slice of the lift, for variety,
  * ``r_lift_blocked`` - the full lift plus blockers (``blocked_lift_seed``).

Seeds are completed to maximal families by a saturation scan in a
seeded-random candidate order, and rejection sampling enforces τ ≥ 3.
The scan builds its result from k-sets it listed itself and members of
the checked seed, so the result skips the per-member checks
(``UniformFamily._trusted``); its point index, built once by the τ ≥ 3
test, is the one that the trace-bound checker's gates read again.
Everything is driven by an explicit ``random.Random`` so runs are
deterministic given the seed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional

from .constructions import build_R
from .covers import _added, has_cover, is_intersecting
from .families import UniformFamily, ksets_colex, mask_of, meeting


# saturate_random looks candidates up in a disjointness table up to this
# many k-sets; the table holds up to C(n,k)^2 / 8 bytes of bitsets (288 KB
# at (13,6), 1,716 k-sets)
TABLE_LIMIT = 2048


def saturate_random(family: UniformFamily, rng: random.Random) -> UniformFamily:
    """Maximal intersecting completion scanning candidates in random order.

    The order is a shuffle of the colex positions of all k-sets; a shuffle
    draws by length alone, so the result and the state of ``rng`` do not
    depend on how a candidate is tested.  Up to ``TABLE_LIMIT`` k-sets a
    candidate is one bit test: ``blocked`` holds the positions of the
    members so far and of every k-set disjoint from one of them, and a
    candidate is kept iff its bit is clear; the same test on the input's
    members checks that it is intersecting.  Above that size the table
    would not fit, and the point-indexed scan ``covers._added`` decides.
    The table scan stops as soon as every position is blocked.  Both
    branches shuffle through ``_shuffle``, which makes the draws of
    ``rng.shuffle`` with one Python call less per draw, so ``rng`` must be
    a ``random.Random``.  The result's members are the seed's and colex
    k-sets, distinct since a member's position is blocked (or, above the
    table, present), so it is built without the per-member checks.
    """
    n, k = family.n, family.k
    sets = _colex_order(n, k)
    order = list(range(len(sets)))
    if len(sets) > TABLE_LIMIT:
        if not is_intersecting(family):
            raise ValueError("saturate_random requires an intersecting family")
        _shuffle(order, rng)
        added = _added(family, [sets[i] for i in order])
        return UniformFamily._trusted(n, k, tuple(sorted([*family.masks, *added])))
    disjoint = _disjoint_table(n, k)
    blocked = 0
    for m in family.masks:
        i = bisect_left(sets, m)
        if blocked >> i & 1:  # m is disjoint from an earlier member
            raise ValueError("saturate_random requires an intersecting family")
        blocked |= disjoint[i] | 1 << i
    _shuffle(order, rng)
    full = (1 << len(sets)) - 1
    added = []
    for i in order:
        if not blocked >> i & 1:
            added.append(sets[i])
            blocked |= disjoint[i] | 1 << i
            if blocked == full:
                break
    return UniformFamily._trusted(n, k, tuple(sorted([*family.masks, *added])))


def _shuffle(order: list, rng: random.Random) -> None:
    """Shuffle ``order`` in place with exactly the draws of
    ``rng.shuffle(order)`` on CPython 3.11, so the permutation and
    ``rng.getstate()`` afterwards are the same.

    It exists to save a Python call per draw: ``Random.shuffle`` calls
    ``Random._randbelow`` once for each position, and this loop makes the
    same Fisher-Yates draws (Durstenfeld, CACM 1964, Algorithm 235) inline.
    For i from len - 1 down to 1 it draws j = ``rng.getrandbits`` of
    (i + 1).bit_length() bits again while j > i, then swaps positions i
    and j.  That is ``_randbelow(i + 1)`` of a ``random.Random``, whose
    ``getrandbits`` is not overridden; ``tests/test_generators.py``
    compares the two, so a CPython that draws otherwise fails there.  The
    (i, bit width) pairs come from ``_draw_widths``.
    """
    getrandbits = rng.getrandbits
    for i, bits in _draw_widths(len(order)):
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        order[i], order[j] = order[j], order[i]


@lru_cache(maxsize=16)
def _draw_widths(length: int) -> tuple[tuple[int, int], ...]:
    """(i, (i + 1).bit_length()) for i from length - 1 down to 1: the
    positions and draw widths of a shuffle of ``length`` items, listed
    once per length."""
    return tuple((i, (i + 1).bit_length()) for i in range(length - 1, 0, -1))


def random_kset_mask(n: int, k: int, rng: random.Random) -> int:
    return mask_of(rng.sample(range(1, n + 1), k), n)


def random_intersecting_seed(n: int, k: int, rng: random.Random,
                             size: int = 4) -> UniformFamily:
    """A few pairwise-intersecting random k-sets with no common element."""
    if size < 3:
        raise ValueError("a common-free intersecting seed needs at least 3 members")
    for _ in range(200):
        masks = [random_kset_mask(n, k, rng)]
        for _ in range(size - 1):
            for _ in range(200):
                cand = random_kset_mask(n, k, rng)
                if all(cand & m for m in masks):
                    masks.append(cand)
                    break
        common = masks[0]
        for m in masks[1:]:
            common &= m
        if len(masks) == size and not common:
            return UniformFamily.from_masks(n, k, masks)
    raise RuntimeError(f"could not build a common-free intersecting seed at ({n},{k})")


@lru_cache(maxsize=16)
def _colex_order(n: int, k: int) -> tuple[int, ...]:
    """All k-sets of [n] in colex order, listed once per (n, k)."""
    return tuple(ksets_colex(n, k))


@lru_cache(maxsize=16)
def _disjoint_table(n: int, k: int) -> tuple[int, ...]:
    """For each colex position i of a k-set of [n], the bitset of the
    positions of the k-sets disjoint from it.

    The complement of ``meeting``: the k-sets disjoint from the i-th are
    those whose position is missing from its bitset.
    """
    sets = _colex_order(n, k)
    full = (1 << len(sets)) - 1
    return tuple(full & ~met for met in meeting(sets, sets, n))


@lru_cache(maxsize=16)
def _lift_masks(n: int, k: int) -> tuple[int, ...]:
    """All k-sets over [n] whose trace in the window [5] is an edge of R."""
    window = mask_of(range(1, 6), n)
    edges = set(build_R(5).masks)
    return tuple(m for m in _colex_order(n, k) if m & window in edges)


def lift_seed(n: int, k: int, rng: random.Random, partial: bool = False) -> UniformFamily:
    """Seed whose traces in the window [5] are edges of R.

    The full lift forces every later addition to meet the window in at
    least two points; a partial lift keeps a random nonempty slice of
    each edge's tails instead, for sample variety.
    """
    lift = _lift_masks(n, k)
    if not partial:
        return UniformFamily.from_masks(n, k, lift)
    window = mask_of(range(1, 6), n)
    chosen: list[int] = []
    for edge in build_R(5).masks:
        tails = [m for m in lift if m & window == edge]
        take = rng.randint(1, len(tails))
        chosen.extend(rng.sample(tails, take))
    return UniformFamily.from_masks(n, k, chosen)


def blocked_lift_seed(n: int, k: int) -> UniformFamily:
    """Full R-lift on [5] plus the blockers {[4] ∪ T : T ⊆ [n]\\[5], |T| = k-4}.

    For n ≥ 2k+1 and k ≥ 4 the blockers exclude every k-set meeting [5]
    in fewer than two points from any intersecting completion: a set with
    a single window point misses some lifted edge outright, and a
    window-avoiding set is disjoint from one of the blockers.  Saturating
    this seed therefore yields families satisfying the |F ∩ [5]| ≥ 2
    window hypothesis outright.
    """
    if k < 4 or n < 2 * k + 1:
        raise ValueError("blocked lift needs k >= 4 and n >= 2k+1")
    masks = list(_lift_masks(n, k))
    base = mask_of([1, 2, 3, 4], n)
    for tail in combinations(range(6, n + 1), k - 4):
        masks.append(base | mask_of(tail, n))
    return UniformFamily.from_masks(n, k, masks)


def random_saturated_family(n: int, k: int, rng: random.Random,
                            mode: str) -> UniformFamily:
    if mode == "free":
        seed = random_intersecting_seed(n, k, rng)
    elif mode in ("r_lift", "r_lift_partial"):
        seed = lift_seed(n, k, rng, partial=mode == "r_lift_partial")
    elif mode == "r_lift_blocked":
        seed = blocked_lift_seed(n, k)
    else:
        raise ValueError(f"unknown generation mode {mode!r}")
    return saturate_random(seed, rng)


def random_saturated_tau3(n: int, k: int, rng: random.Random,
                          mode: str) -> Optional[UniformFamily]:
    """Saturated intersecting family with τ ≥ 3, by rejection over four
    tries; None if unlucky."""
    for _ in range(4):
        fam = random_saturated_family(n, k, rng, mode)
        if not has_cover(fam, 2):
            return fam
    return None


def sample_saturated_tau3(n: int, k: int, count: int, seed: int,
                          modes: Iterable[str] = ("r_lift_blocked", "r_lift",
                                                  "r_lift_partial", "free"),
                          ) -> list[UniformFamily]:
    """Deterministic stream of `count` saturated τ≥3 families, cycling modes."""
    rng = random.Random(seed)
    mode_list = [m for m in modes
                 if m != "r_lift_blocked" or (k >= 4 and n >= 2 * k + 1)]
    if not mode_list:
        mode_list = ["r_lift"]
    out: list[UniformFamily] = []
    attempts = 0
    while len(out) < count:
        mode = mode_list[attempts % len(mode_list)]
        attempts += 1
        if attempts > 40 * count:
            raise RuntimeError(
                f"τ>=3 sampling stalled at ({n},{k}): {len(out)}/{count}")
        fam = random_saturated_tau3(n, k, rng, mode)
        if fam is not None:
            out.append(fam)
    return out
