"""Bitmask-backed k-uniform set families over the ground set [n] = {1..n}.

A k-set is an n-bit membership mask, with no type of its own: element
i occupies bit i-1, so the usual integer order on masks coincides with
the colexicographic order on sets.  A family is an immutable,
duplicate-free, colex-sorted tuple of such masks together with its
(n, k) signature.  All predicates used by the covering-number machinery
live here:

  * the one answer to "which of these sets meet that one": the point
    index ``point_index`` (one bitset of positions per point, built by a
    bit-matrix transposition in C) and ``meeting``, the OR of that index
    over a query's points; the search, covers, saturation, generators and
    oracles build their bitsets through them.  A family builds its own
    index once, on first use, as ``UniformFamily.index``; the family
    predicates here and in ``covers`` all read that one index,
  * is_intersecting, which queries the index only for the members that
    avoid a point of maximum degree, and the pairwise
    are_cross_intersecting,
  * the trace F(S, U) = {F \\ U : F in F, F ∩ U = S}: ``trace`` counts
    f_S for every S in one pass and builds a residual family only when
    ``TraceStats.residual`` asks for it; the exact-rational density
    α(S) = f_S / C(n-|U|, k-|S|) is computed in one place,
    ``TraceStats.alpha_of``,
  * layers F_i = {F : |F ∩ U| = i} and the maximum degree Δ(F).

The ground set is capped at 64 elements so every mask fits one machine
word; all desk-scale parameters of interest fit comfortably.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .binomial import binom

MAX_GROUND = 64
_INDEX_CHUNK = 2048  # masks transposed at once by ``point_index``


# ── mask helpers ─────────────────────────────────────────────────────────────

def mask_of(elements: Iterable[int], n: int) -> int:
    """Membership mask of a set of 1-based elements from [n]."""
    m = 0
    for x in elements:
        if not 1 <= x <= n:
            raise ValueError(f"element {x} outside ground set [1..{n}]")
        b = 1 << (x - 1)
        if m & b:
            raise ValueError(f"duplicate element {x}")
        m |= b
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based elements of a mask."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length())
        mask ^= b
    return tuple(out)


def ksets_colex(n: int, k: int) -> Iterator[int]:
    """All k-subset masks of [n] in increasing (= colex) order.

    Gosper's hack; the loop is the hot path of saturation and of the
    construction filters, so it stays free of per-step allocation.
    """
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    limit = 1 << n
    v = (1 << k) - 1
    while v < limit:
        yield v
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


# ── domain types ─────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class UniformFamily:
    """A duplicate-free k-uniform family over [n], colex-sorted.

    Iteration order, tie-breaking and file output all follow the mask
    order, so every run is deterministic.  A family never changes, so its
    point index is built once, on first use (``index``).
    """

    n: int
    k: int
    masks: tuple[int, ...] = ()

    def __post_init__(self):
        self._check_signature()
        prev = -1
        for m in self.masks:
            if m >> self.n:
                raise ValueError("member has elements outside the ground set")
            if m.bit_count() != self.k:
                raise ValueError(
                    f"member {elements_of(m)} has size {m.bit_count()}, expected {self.k}")
            if m <= prev:
                raise ValueError("members must be strictly colex-increasing (no duplicates)")
            prev = m

    def _check_signature(self) -> None:
        if not 1 <= self.n <= MAX_GROUND:
            raise ValueError(f"ground size {self.n} outside [1, {MAX_GROUND}]")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"uniformity k={self.k} outside [0, n={self.n}]")

    @classmethod
    def _trusted(cls, n: int, k: int, masks: tuple[int, ...]) -> "UniformFamily":
        """A family whose members the caller has already shown to be
        k-subsets of [n] in strictly increasing order, as when it joins
        checked parts or takes an ordered image of a family.  Only the
        per-member loop of ``__post_init__`` is skipped; (n, k) is checked.
        """
        fam = object.__new__(cls)
        object.__setattr__(fam, "n", n)
        object.__setattr__(fam, "k", k)
        object.__setattr__(fam, "masks", masks)
        fam._check_signature()
        return fam

    @classmethod
    def from_masks(cls, n: int, k: int, masks: Iterable[int]) -> "UniformFamily":
        return cls(n, k, tuple(sorted(set(masks))))

    @classmethod
    def from_sets(cls, n: int, k: int, sets_: Iterable[Iterable[int]]) -> "UniformFamily":
        return cls.from_masks(n, k, (mask_of(s, n) for s in sets_))

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (elements_of(m) for m in self.masks)

    def sets(self) -> list[tuple[int, ...]]:
        return [elements_of(m) for m in self.masks]

    @cached_property
    def index(self) -> tuple[int, ...]:
        """``point_index(masks, n)`` of the members, built once per family:
        ``index[x]`` is the bitset of the positions of the members that
        hold the point x + 1."""
        return tuple(point_index(self.masks, self.n))


@dataclass(frozen=True)
class TraceStats:
    """Trace of a family through a window U: S ↦ f_S, the number of members
    F with F ∩ U = S.

    `counts` is keyed by the masks S that actually occur as F ∩ U, in
    increasing order; `f` returns 0 for the rest.  `residual` builds the
    residual family of one S on demand; it keeps the original labels (its
    members are supported on [n] \\ U).
    """

    family: UniformFamily = field(repr=False)
    window: int
    counts: dict[int, int] = field(repr=False)

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def k(self) -> int:
        return self.family.k

    def _as_mask(self, s) -> int:
        return s if isinstance(s, int) else mask_of(s, self.n)

    def f(self, s) -> int:
        return self.counts.get(self._as_mask(s), 0)

    def residual(self, s) -> Optional[UniformFamily]:
        """{F \\ U : F ∩ U = S}, or None when no member traces S."""
        m = self._as_mask(s)
        if m not in self.counts:
            return None
        u = self.window
        # x & u = S for every member x of the group, so the residuals x & ~u
        # are (k - |S|)-sets of [n] that keep the members' increasing order
        return UniformFamily._trusted(self.n, self.k - m.bit_count(),
                                      tuple(x & ~u for x in self.family.masks if x & u == m))

    def alpha_of(self, s) -> Optional[Fraction]:
        """α(S) = f_S / C(n-|U|, k-|S|) as an exact Fraction, or None for
        S = ∅, which the source material leaves undefined, and when the
        denominator vanishes."""
        m = self._as_mask(s)
        d = self.denominator(m.bit_count())
        return Fraction(self.counts.get(m, 0), d) if m and d else None

    def denominator(self, size: int) -> int:
        """C(n-|U|, k-size), the denominator of α(S) for every |S| = size."""
        return binom(self.n - self.window.bit_count(), self.k - size)

    def total(self) -> int:
        return sum(self.counts.values())


# ── predicates and statistics ────────────────────────────────────────────────

def point_index(masks: Sequence[int], n: int) -> list[int]:
    """``inc[x]`` is the bitset of the positions i with the point x + 1 in
    ``masks[i]``, for the masks of sets of [n].

    The index is the transpose of the bit matrix whose row i is
    ``masks[i]`` (Warren, *Hacker's Delight*, §7-3), taken in C: a chunk
    of masks is packed as 64-bit little-endian words into one integer,
    with a sentinel bit above the last word so that its binary string
    keeps its leading zeros.  That string holds bit x of mask i at
    position 64 (len - i) - x, so the stride-64 slice from 64 - x reads
    point x's column from the last mask down to the first, the order that
    ``int(..., 2)`` wants.  Chunks of ``_INDEX_CHUNK`` masks keep the
    string, and so the peak memory, small.  G(24,7) (82,141 masks) takes
    20 ms and G(28,8) (769,485) 0.18 s, against 0.49 s and 23 s for adding
    one bit at a time to a growing bitset (Python 3.11.7, 2-core x86-64
    Xeon; ``BENCH_point_kernel.json``).
    """
    inc = [0] * n
    for start in range(0, len(masks), _INDEX_CHUNK):
        part = masks[start:start + _INDEX_CHUNK]
        width = 64 * len(part)
        bits = format(int.from_bytes(struct.pack(f"<{len(part)}Q", *part), "little")
                      | 1 << width, "b")
        for x in range(n):
            inc[x] |= int(bits[64 - x::64], 2) << start
    return inc


def meeting(queries: Iterable[int], masks: Sequence[int], n: int) -> Iterator[int]:
    """For each query in turn, the bitset of the positions of the masks
    that meet it: the OR of ``point_index(masks, n)`` over its points.

    A query takes one OR of |masks|-bit integers per point, O(|masks| / 30)
    operations on Python's 30-bit digits, where a pairwise scan takes
    |masks| tests in Python.
    """
    inc = point_index(masks, n)
    for q in queries:
        yield _met(inc, q)


def _met(inc: Sequence[int], q: int) -> int:
    """The OR of the rows of ``inc`` over the points of the mask q."""
    met = 0
    while q:
        b = q & -q
        met |= inc[b.bit_length() - 1]
        q ^= b
    return met


def is_intersecting(family: UniformFamily) -> bool:
    """True iff every pair of members meets.

    The members through a point p of maximum degree meet each other at p,
    so only the members that avoid p are queried: each must meet every
    member, itself included, so the OR of its points' rows of the point
    index must be the full mask.  G(24,7) takes 17 ms and G(28,8) 0.19 s,
    against 1.4 s and 86 s when every member was queried on an index built
    one bit at a time (same host as ``point_index``).  At k = 0 the only
    member is ∅, which meets nothing, yet a family of at most one member
    has no pair.
    """
    if family.k == 0:
        return True  # the only 0-set is ∅, so the family has at most one member
    masks = family.masks
    inc = family.index
    pivot = 1 << (_top_point(inc)[0] - 1)
    full = (1 << len(masks)) - 1
    return all(_met(inc, q) == full for q in masks if not q & pivot)


def are_cross_intersecting(fam_a: UniformFamily, fam_b: UniformFamily) -> bool:
    """True iff every member of one family meets every member of the other.

    This stays a pairwise scan, not ``meeting``.  Its callers pass
    families of at most 14 members (11,023 calls in ``verify --suite all
    --seed 1``); replayed, those calls took 0.009 s pairwise and 0.028 s
    with a point index, whose set-up costs more than these scans (same
    host as above).
    """
    if fam_a.n != fam_b.n:
        raise ValueError(f"ground sets differ: {fam_a.n} vs {fam_b.n}")
    for a in fam_a.masks:
        for b in fam_b.masks:
            if not a & b:
                return False
    return True


def trace(family: UniformFamily, window: Iterable[int] | int) -> TraceStats:
    """Count the members by their intersection with the window U."""
    u = window if isinstance(window, int) else mask_of(window, family.n)
    if u >> family.n:
        raise ValueError("window has elements outside the ground set")
    counts = Counter(map(u.__and__, family.masks))
    return TraceStats(family, u, dict(sorted(counts.items())))


def layer(family: UniformFamily, window: Iterable[int] | int, i: int) -> UniformFamily:
    """Subfamily {F : |F ∩ U| = i}; the layers over i partition the family."""
    u = window if isinstance(window, int) else mask_of(window, family.n)
    return UniformFamily(family.n, family.k,
                         tuple(m for m in family.masks if (m & u).bit_count() == i))


def max_degree(family: UniformFamily) -> tuple[int, int]:
    """(element, degree) with the maximum degree; ties go to the smallest element.

    The degrees are the popcounts of the family's ``index``: 1.8 ms on G(20,6),
    against 7.4 ms for a scan of the members per point (same host as
    ``point_index``).
    """
    if not family.masks:
        raise ValueError("max_degree of an empty family is undefined")
    return _top_point(family.index)


def _top_point(inc: Sequence[int]) -> tuple[int, int]:
    """(element, degree) of a point with the most positions in ``inc``,
    the smallest such element on ties."""
    degrees = [row.bit_count() for row in inc]
    best = max(degrees)
    return degrees.index(best) + 1, best
