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
The full lift and the blocked lift are one cached family per (n, k).
The scan keeps one byte flag per colex position, set from per-(n, k)
lists of the positions of the k-sets disjoint from each k-set, while those
lists hold at most ``TABLE_LIMIT`` positions in all: a candidate then
costs one byte test and a kept one C(n-k, k) flag writes.  Past the limit
the point-indexed scan of ``covers`` decides.  The scan builds its result
from k-sets it listed itself and members of the checked seed, so the
result skips the per-member checks (``UniformFamily._trusted``); its point
index, built once by the τ ≥ 3 test, is the one that the trace-bound
checker's gates read again.
Everything is driven by an explicit ``random.Random`` so runs are
deterministic given the seed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional

from .binomial import binom
from .constructions import build_R
from .covers import _added, has_cover, is_intersecting
from .families import UniformFamily, ksets_colex, mask_of


# saturate_random tests candidates against per-(n, k) lists of disjoint
# positions while the lists hold at most this many positions, C(n,k) *
# C(n-k,k) (12,012 at (13,6), the largest point a suite draws; about 8
# bytes each); past it, where C(n-k,k) is large against C(n,k) (2,691,920
# at (24,3)), the lists would cost megabytes and a kept candidate many
# flag writes
TABLE_LIMIT = 1 << 16


def saturate_random(family: UniformFamily, rng: random.Random) -> UniformFamily:
    """Maximal intersecting completion scanning candidates in random order.

    The order is a shuffle of the colex positions of all k-sets; a shuffle
    draws by length alone, so the result and the state of ``rng`` do not
    depend on how a candidate is tested.  While the lists hold at most
    ``TABLE_LIMIT`` positions, C(n,k) * C(n-k,k), a candidate is one byte
    test: ``blocked`` flags the positions of the members so far and of
    every k-set disjoint from one of them, set from the per-(n, k) lists of
    disjoint positions (``_disjoint_positions``), and a candidate is kept
    iff its flag is clear; the same test on the input's members checks that
    it is intersecting.  Past that limit the lists are not built, and the
    point-indexed scan ``covers._added`` decides.  The flag scan stops as
    soon as every position is blocked.
    Both branches shuffle through ``_shuffle``, which makes the draws of
    ``rng.shuffle`` with one Python call less per draw, so ``rng`` must be
    a ``random.Random``.  The result's members are the seed's and colex
    k-sets, distinct since a member's position is blocked (or, above the
    cut-off, present), so it is built without the per-member checks.
    """
    n, k = family.n, family.k
    sets = _colex_order(n, k)
    order = list(range(len(sets)))
    if len(sets) * binom(n - k, k) > TABLE_LIMIT:
        if not is_intersecting(family):
            raise ValueError("saturate_random requires an intersecting family")
        _shuffle(order, rng)
        added = _added(family, [sets[i] for i in order])
        return UniformFamily._trusted(n, k, tuple(sorted([*family.masks, *added])))
    disjoint = _disjoint_positions(n, k)
    blocked = bytearray(len(sets))
    for m in family.masks:
        i = bisect_left(sets, m)
        if blocked[i]:  # m is disjoint from an earlier member
            raise ValueError("saturate_random requires an intersecting family")
        blocked[i] = 1
        for j in disjoint[i]:
            blocked[j] = 1
    _shuffle(order, rng)
    added = []
    for i in order:
        if not blocked[i]:
            added.append(sets[i])
            blocked[i] = 1
            for j in disjoint[i]:
                blocked[j] = 1
            if 0 not in blocked:
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
def _disjoint_positions(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """For each colex position i of a k-set of [n], the colex positions of
    the C(n-k, k) k-sets disjoint from it, in increasing order: the
    k-subsets of its complement, listed once per (n, k)."""
    sets = _colex_order(n, k)
    position = dict(zip(sets, range(len(sets))))
    points = [1 << x for x in range(n)]
    return tuple(tuple(sorted(position[sum(c)]
                              for c in combinations([b for b in points if not b & m], k)))
                 for m in sets)


@lru_cache(maxsize=16)
def _full_lift(n: int, k: int) -> UniformFamily:
    """All k-sets over [n] whose trace in the window [5] is an edge of R,
    as one checked family per (n, k)."""
    window = mask_of(range(1, 6), n)
    edges = set(build_R(5).masks)
    return UniformFamily(n, k, tuple(m for m in _colex_order(n, k) if m & window in edges))


def lift_seed(n: int, k: int, rng: random.Random, partial: bool = False) -> UniformFamily:
    """Seed whose traces in the window [5] are edges of R.

    The full lift forces every later addition to meet the window in at
    least two points; it is one cached family per (n, k) and draws
    nothing from ``rng``.  A partial lift keeps a random nonempty slice of
    each edge's tails instead, for sample variety.
    """
    lift = _full_lift(n, k)
    if not partial:
        return lift
    window = mask_of(range(1, 6), n)
    chosen: list[int] = []
    for edge in build_R(5).masks:
        tails = [m for m in lift.masks if m & window == edge]
        take = rng.randint(1, len(tails))
        chosen.extend(rng.sample(tails, take))
    return UniformFamily.from_masks(n, k, chosen)


@lru_cache(maxsize=16)
def blocked_lift_seed(n: int, k: int) -> UniformFamily:
    """Full R-lift on [5] plus the blockers {[4] ∪ T : T ⊆ [n]\\[5], |T| = k-4},
    one cached family per (n, k).

    For n ≥ 2k+1 and k ≥ 4 the blockers exclude every k-set meeting [5]
    in fewer than two points from any intersecting completion: a set with
    a single window point misses some lifted edge outright, and a
    window-avoiding set is disjoint from one of the blockers.  Saturating
    this seed therefore yields families satisfying the |F ∩ [5]| ≥ 2
    window hypothesis outright.
    """
    if k < 4 or n < 2 * k + 1:
        raise ValueError("blocked lift needs k >= 4 and n >= 2k+1")
    masks = list(_full_lift(n, k).masks)
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
