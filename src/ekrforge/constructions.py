"""Named families and the lexicographic machinery.

Houses the two 3-edge 3-graphs S and R, the complete 3-graph on four
vertices, the conjectured-extremal covering-number-3 family G(n, k) with
its closed-form size, the cover-completion F_H, full stars, the
Hilton-Milner family, and lexicographic initial segments L(n, k, m) with
their order on masks.  The Hilton-Milner family is the ℓ = k case of one
star-with-base construction, which also seeds the degree-capped search.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import chain, combinations, islice, repeat
from operator import ge

from .binomial import binom
from .covers import is_intersecting
from .families import UniformFamily, ksets_colex, mask_of


def build_S(n: int = 6) -> UniformFamily:
    """S = {{1,2,3},{1,4,5},{2,4,6}} inside an ambient ground set of size n ≥ 6."""
    if n < 6:
        raise ValueError("S needs an ambient ground set of size at least 6")
    return UniformFamily.from_sets(n, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6)])


def build_R(n: int = 5) -> UniformFamily:
    """R = {{1,2,3},{1,4,5},{2,3,5}} inside an ambient ground set of size n ≥ 5."""
    if n < 5:
        raise ValueError("R needs an ambient ground set of size at least 5")
    return UniformFamily.from_sets(n, 3, [(1, 2, 3), (1, 4, 5), (2, 3, 5)])


def build_K34(n: int = 4) -> UniformFamily:
    """The complete 3-graph on {1,2,3,4} inside an ambient ground set of size n ≥ 4."""
    if n < 4:
        raise ValueError("K3(4) needs an ambient ground set of size at least 4")
    return UniformFamily.from_sets(n, 3, combinations(range(1, 5), 3))


_ONE_LANE = (1).to_bytes(8, "little")  # a 64-bit little-endian lane holding 1


def _g_blockers(k: int) -> tuple[int, int, int]:
    """The three blockers of G(n,k), which lie inside [2..2k] for every n."""
    ends = list(range(k + 2, 2 * k + 1))
    return mask_of(range(2, k + 2), 2 * k), mask_of([2] + ends, 2 * k), mask_of([3] + ends, 2 * k)


@lru_cache(maxsize=8)
def _g_heads(k: int) -> tuple[tuple[int, ...], ...]:
    """The heads of G(n,k), for every n: ``heads[j]`` lists in increasing
    order the masks of 1 plus a j-subset of the core [2..2k] that meet all
    three blockers, for 0 <= j < k.

    Each ``heads[j]`` is checked as a (j+1)-uniform family on [2k] once
    per k.  They are tuples, so no caller can change the cached heads.
    """
    b1, b2, b3 = _g_blockers(k)
    core = [1 << (x - 1) for x in range(2, 2 * k + 1)]
    heads = tuple(tuple(sorted(m for m in map(sum, combinations(core, j), repeat(1))
                               if m & b1 and m & b2 and m & b3)) for j in range(k))
    for j, head in enumerate(heads):
        UniformFamily(2 * k, j + 1, head)  # raises unless each head is in order
    return heads


def build_G(n: int, k: int) -> UniformFamily:
    """G(n,k) = A ∪ B with B the three blocking sets and A the 1-star filtered by B.

    B = {[2,k+1], {2} ∪ [k+2,2k], {3} ∪ [k+2,2k]}; A is every k-set
    containing 1 that meets all three.  A is materialised by enumeration,
    so the count stays an independent cross-check of the closed form.

    Every blocker lies inside the core [2..2k], so a member of A is a
    head, 1 plus a j-subset of the core that meets all three blockers,
    joined to a tail, any (k-1-j)-subset of [2k+1..n].  The tails need no
    filter: they are disjoint from the core and so from every blocker, and
    whether a set meets the blockers is decided by its head alone.  Only
    the heads, at most 2^(2k-1) of them, are tested one by one, once per k
    (``_g_heads``); the members are then built in C, a tail joined to all
    its heads at once.  Each ``heads[j]`` is packed into one integer of
    64-bit little-endian lanes, so the joins of a tail t are
    ``packed + t * ones``, with ones the integer holding 1 in each lane: no
    lane carries, as a member lies below 2^n <= 2^64.  One unpack of its
    bytes, by a ``struct.Struct`` made once per call and head list, then
    feeds the members, tail by tail, with no list in between, into a tuple
    allocated once at its final size (``_Counted``);
    unpacking all of A at once from one buffer would hold its bytes as
    well as its members.  Every tail
    bit lies above every head bit, so taking the tails in increasing mask
    order lists A in increasing (colex) order already.  The blockers lie
    below 2^(2k) and merge into the tail-free prefix only; the whole list
    is never sorted.

    The members are checked through their parts, in O(#heads + #tails)
    rather than per member: the tail-free prefix as a family, each
    ``heads[j]`` as a (j+1)-uniform family on [2k] (once per k), and the
    tails as strictly increasing nonempty sets of fewer than k points
    inside [2k+1..n].  A head of j+1 points joined to a tail of k-1-j
    points is then a k-set of [n], and the join is strictly increasing, so
    the result is built through ``UniformFamily._trusted``.
    """
    if not (n >= 2 * k >= 6):
        raise ValueError(f"build_G requires n >= 2k >= 6, got n={n}, k={k}")
    heads = _g_heads(k)
    free = [1 << (x - 1) for x in range(2 * k + 1, n + 1)]
    tails = sorted(chain.from_iterable(map(sum, combinations(free, t))
                                       for t in range(1, k - 1)))
    prefix = UniformFamily(n, k, tuple(sorted(heads[k - 1] + _g_blockers(k))))  # empty tail
    core_bits = (1 << (2 * k)) - 1
    if any(map(ge, tails, tails[1:])) or not all(
            0 < t.bit_count() < k and not t & core_bits and not t >> n for t in tails):
        raise ValueError(f"G({n},{k}): tails must be strictly increasing sets of "
                         f"1..{k - 1} points inside [{2 * k + 1}..{n}]")
    # heads[j] as one integer of 64-bit little-endian lanes, the integer
    # with a 1 in each lane, and the unpacker of its bytes; heads[k-1]
    # takes only the empty tail, in the prefix
    lanes = [(int.from_bytes(struct.pack(f"<{len(head)}Q", *head), "little"),
              int.from_bytes(_ONE_LANE * len(head), "little"),
              8 * len(head), struct.Struct(f"<{len(head)}Q").unpack) for head in heads[:-1]]

    def joins():
        for tail in tails:
            packed, ones, size, unpack = lanes[k - 1 - tail.bit_count()]
            yield unpack((packed + tail * ones).to_bytes(size, "little"))

    count = len(prefix.masks) + sum(len(heads[k - 1 - t.bit_count()]) for t in tails)
    members = chain(prefix.masks, chain.from_iterable(joins()))
    return UniformFamily._trusted(n, k, tuple(_Counted(members, count)))


class _Counted:
    """An iterator's items with their number, which ``tuple()`` reads
    through ``__length_hint__`` to allocate its result once.

    Over a bare iterator ``tuple()`` grows its buffer step by step.  Once
    a first large tuple has been freed, the allocator serves the next ones
    from its heap rather than by a fresh mapping, and there a grown buffer
    may be copied, so the peak memory of repeated builds would depend on
    the heap layout."""

    __slots__ = ("items", "count")

    def __init__(self, items, count: int):
        self.items, self.count = items, count

    def __iter__(self):
        return self.items

    def __length_hint__(self) -> int:
        return self.count


def g_size_formula(n: int, k: int) -> int:
    """Closed-form |G(n,k)| via the vanishing-binomial convention."""
    if not (n >= 2 * k >= 6):
        raise ValueError(f"g_size_formula requires n >= 2k >= 6, got n={n}, k={k}")
    return (binom(n - 1, k - 1) - binom(n - k, k - 1) - binom(n - k - 1, k - 1)
            + binom(n - 2 * k, k - 1) + binom(n - k - 2, k - 3) + 3)


def build_F_H(h: UniformFamily, n: int, k: int) -> UniformFamily:
    """H ∪ {F : 1 ∈ F, F contains a cover of H}.

    A k-set containing 1 includes a (≤k)-cover of H iff it meets every
    member of H (the set itself is then such a cover), so the filter is a
    plain meets-all test.  It stays a scan that breaks at the first member
    missed, not ``families.meeting``: most candidates miss a member early.
    """
    if h.k != k:
        raise ValueError(f"H has uniformity {h.k}, expected {k}")
    if h.n > n:
        raise ValueError("H lives on a larger ground set than requested")
    if any(m & 1 for m in h.masks):
        raise ValueError("H must avoid element 1")
    if not is_intersecting(h):
        raise ValueError("build_F_H requires an intersecting H")
    members = list(h.masks)
    hmasks = h.masks
    for tail in ksets_colex(n - 1, k - 1):
        m = (tail << 1) | 1
        for b in hmasks:
            if not m & b:
                break
        else:
            members.append(m)
    return UniformFamily.from_masks(n, k, members)


def full_star(n: int, k: int, apex: int = 1) -> UniformFamily:
    """All k-sets containing the apex element."""
    if not 1 <= apex <= n:
        raise ValueError(f"apex {apex} outside [1..{n}]")
    bit = 1 << (apex - 1)
    members = [m | bit for m in ksets_colex(n, k - 1) if not m & bit]
    return UniformFamily.from_masks(n, k, members)


def build_HM(n: int, k: int) -> UniformFamily:
    """The Hilton-Milner family: {F : 1 ∈ F, F ∩ [2,k+1] ≠ ∅} ∪ {[2,k+1]},
    the ℓ = k case of ``_star_with_base``."""
    if not (n > 2 * k >= 4):
        raise ValueError(f"build_HM requires n > 2k >= 4, got n={n}, k={k}")
    return _star_with_base(n, k, k)


def _star_with_base(n: int, k: int, ell: int) -> UniformFamily:
    """{F : 1 ∈ F, F ∩ [2,ℓ+1] ≠ ∅} ∪ {[2,ℓ+1] ∪ T : T ⊆ [ℓ+2..n], |T| = k-ℓ}.

    The members through 1 are the 1-star filtered by the base [2,ℓ+1];
    the others hold the whole base, so they are built directly, one per
    (k-ℓ)-subset T of [ℓ+2..n].  The caller checks the domain.
    """
    base = mask_of(range(2, ell + 2), n)
    members = [m for m in ((tail << 1) | 1 for tail in ksets_colex(n - 1, k - 1)) if m & base]
    members += [base | t << (ell + 1) for t in ksets_colex(n - ell - 1, k - ell)]
    return UniformFamily.from_masks(n, k, members)


def lex_precedes(f: int, g: int) -> bool:
    """F precedes G iff min(F \\ G) < min(G \\ F), for masks F and G.
    Strict total order on distinct sets."""
    only_f = f & ~g
    only_g = g & ~f
    if not only_f and not only_g:
        return False
    if not only_f or not only_g:
        # one strictly contains the other; not comparable as k-sets of equal size,
        # but the min-rule still answers: the missing side has min = +infinity
        return bool(only_f)
    return (only_f & -only_f) < (only_g & -only_g)


def lex_family(n: int, k: int, m: int) -> UniformFamily:
    """L(n,k,m): the first m k-sets of [n] in lexicographic order."""
    if not 0 <= k <= n:
        raise ValueError(f"uniformity k={k} outside [0, n={n}]")
    if not 0 <= m <= binom(n, k):
        raise ValueError(f"m={m} outside [0, C({n},{k})={binom(n, k)}]")
    first = islice(combinations(range(1, n + 1), k), m)
    return UniformFamily.from_sets(n, k, first)
