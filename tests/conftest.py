"""Shared fixtures and independent oracles for the test suite."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import random
from fractions import Fraction
from itertools import combinations, permutations

from ekrforge import families, oracles
from ekrforge.binomial import binom
from ekrforge.certify import make_certificate
from ekrforge.constructions import lex_family
from ekrforge.families import (UniformFamily, are_cross_intersecting, elements_of, ksets_colex,
                               mask_of)
from ekrforge.familyio import FamilyFormatError
from ekrforge.oracles import ENUM_BIT_LIMIT
from ekrforge.properties import _bmax_of


def pairwise_is_intersecting(family: UniformFamily) -> bool:
    """True iff every pair of distinct members meets: the O(|F|^2) scan.

    Independent oracle for the point-indexed ``families.is_intersecting``.
    """
    masks = family.masks
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if not a & b:
                return False
    return True


def reference_point_index(masks, n: int) -> list[int]:
    """``inc[x]`` is the bitset of the positions i with the point x + 1 in
    ``masks[i]``, one bit added at a time.

    Independent oracle for the transposing ``families.point_index``.
    """
    inc = [0] * n
    for i, m in enumerate(masks):
        bit = 1 << i
        while m:
            b = m & -m
            inc[b.bit_length() - 1] |= bit
            m ^= b
    return inc


def reference_trace(family: UniformFamily, window) -> dict[int, tuple[int, UniformFamily]]:
    """S ↦ (f_S, residual family {F \\ U : F ∩ U = S}) for every S that
    occurs as F ∩ U, in increasing order of S: the members grouped one at
    a time, each residual family built through the checked constructor.

    Independent oracle for the counting ``families.trace``.
    """
    u = window if isinstance(window, int) else mask_of(window, family.n)
    groups: dict[int, list[int]] = {}
    for m in family.masks:
        groups.setdefault(m & u, []).append(m & ~u)
    return {s: (len(residuals), UniformFamily(family.n, family.k - s.bit_count(),
                                              tuple(residuals)))
            for s, residuals in sorted(groups.items())}


def reference_covers(family: UniformFamily, ell: int) -> UniformFamily:
    """The ℓ-subsets of [n] meeting every member, by a scan that breaks at
    the first member a candidate misses.

    Independent oracle for the point-indexed ``covers.covers``.
    """
    masks = family.masks
    found = []
    for t in ksets_colex(family.n, ell):
        for m in masks:
            if not t & m:
                break
        else:
            found.append(t)
    return UniformFamily(family.n, ell, tuple(found))


def _reference_exists_cover(masks: list[int], budget: int) -> bool:
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
        if _reference_exists_cover(rest, budget - 1):
            return True
    return False


def reference_has_cover(family: UniformFamily, ell: int) -> bool:
    """True iff some set of at most ℓ points meets every member, by
    branch-and-bound on lists of the members left.

    Independent oracle for the point-indexed ``covers.has_cover``.
    """
    return _reference_exists_cover(list(family.masks), ell)


def reference_tau(family: UniformFamily) -> int:
    """Covering number: the smallest ℓ with ``reference_has_cover``."""
    for ell in range(1, family.n + 1):
        if reference_has_cover(family, ell):
            return ell
    raise AssertionError("no cover of at most n points")


def pairwise_added(family: UniformFamily, order):
    """The saturation scan tested pairwise: each candidate of ``order`` that
    is not a member is kept iff it meets every member and every candidate
    kept before it.

    Independent oracle for the point-indexed ``covers._added``.
    """
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


def reference_saturate(family: UniformFamily) -> UniformFamily:
    """The pairwise colex greedy: every k-set in colex order that meets each
    member so far, the ones it added included, joins the family.

    Independent oracle for ``covers.saturate``.
    """
    added = pairwise_added(family, ksets_colex(family.n, family.k))
    return UniformFamily.from_masks(family.n, family.k, [*family.masks, *added])


def reference_build_G(n: int, k: int) -> UniformFamily:
    """G(n,k) by a Gosper scan of the (k-1)-subsets of [2..n], each shifted
    up one bit and kept when it meets the three blockers.

    Independent oracle for ``constructions.build_G``.
    """
    b1 = mask_of(range(2, k + 2), n)
    b2 = mask_of([2] + list(range(k + 2, 2 * k + 1)), n)
    b3 = mask_of([3] + list(range(k + 2, 2 * k + 1)), n)
    members = [b1, b2, b3]
    for tail in ksets_colex(n - 1, k - 1):
        m = (tail << 1) | 1
        if m & b1 and m & b2 and m & b3:
            members.append(m)
    return UniformFamily.from_masks(n, k, members)


def reference_parse_family(text: str) -> UniformFamily:
    """The family file reader as one per-line pass, the first problem in
    file order raised as ``FamilyFormatError``.

    Independent oracle for the bulk path of ``familyio.parse_family``:
    every text must give the same family or the same diagnostic.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FamilyFormatError(1, "missing 'n k m' header")
    head = lines[0].split()
    if len(head) != 3:
        raise FamilyFormatError(1, f"header must be 'n k m', got {lines[0]!r}")
    try:
        n, k, m = (int(x) for x in head)
    except ValueError:
        raise FamilyFormatError(1, f"non-integer header field in {lines[0]!r}") from None
    if n < 1 or n > 64:
        raise FamilyFormatError(1, f"ground size {n} outside [1, 64]")
    if not 0 <= k <= n:
        raise FamilyFormatError(1, f"uniformity {k} outside [0, {n}]")
    if m < 0:
        raise FamilyFormatError(1, f"negative member count {m}")
    # at k = 0 a blank line is the member ∅; otherwise blank lines are skipped
    body = [(idx + 2, ln) for idx, ln in enumerate(lines[1:]) if k == 0 or ln.strip()]
    if len(body) != m:
        raise FamilyFormatError(
            len(lines) + 1 if len(body) < m else body[m][0],
            f"header promises {m} members, file has {len(body)}")
    # a malformed line is reported unless a duplicate before it comes first
    bits = [0] + [1 << i for i in range(n)]
    masks = []
    for line_no, ln in body:
        try:
            elems = list(map(int, ln.split()))
        except ValueError:
            raise _reference_first_duplicate(body, masks) or FamilyFormatError(
                line_no, f"non-integer element in {ln!r}") from None
        if len(elems) != k:
            raise _reference_first_duplicate(body, masks) or FamilyFormatError(
                line_no, f"member has {len(elems)} elements, expected k={k}")
        mask = 0
        for x in elems:
            if not 0 < x <= n:
                raise _reference_first_duplicate(body, masks) or FamilyFormatError(
                    line_no, f"element {x} outside [1, {n}]")
            mask |= bits[x]
        if mask.bit_count() != k or elems != sorted(elems):
            raise _reference_first_duplicate(body, masks) or FamilyFormatError(
                line_no, "elements must be strictly increasing")
        masks.append(mask)
    duplicate = _reference_first_duplicate(body, masks)
    if duplicate:
        raise duplicate
    return UniformFamily(n, k, tuple(sorted(masks)))


def _reference_first_duplicate(body: list[tuple[int, str]],
                               masks: list[int]) -> FamilyFormatError | None:
    """The error for the first of the member lines read so far (``masks``
    holds their members in file order) that repeats an earlier one."""
    if len(set(masks)) == len(masks):
        return None
    seen: dict[int, int] = {}
    for (line_no, _), mask in zip(body, masks):
        if mask in seen:
            return FamilyFormatError(
                line_no, f"duplicate member (first seen on line {seen[mask]})")
        seen[mask] = line_no
    raise AssertionError("a repeated member was not found again")


def reference_render_family(family: UniformFamily) -> str:
    """The family file text, one member line at a time.

    Independent oracle for the table-driven ``familyio.render_family``.
    """
    lines = [f"{family.n} {family.k} {len(family)}"]
    lines += [" ".join(map(str, elements_of(m))) for m in family.masks]
    return "\n".join(lines) + "\n"


def reference_trace_bound_check(family: UniformFamily, window):
    """The window trace inequalities, one block and one scan of the window
    pairs per statement, with the trace counts f_S and α(S) computed here.

    Independent oracle for ``oracles.trace_bound_check``.  It looks up
    ``is_intersecting``, ``has_cover``, ``tau`` and the bounds' ``binom`` in
    ``oracles``, and the α denominators' ``binom`` in ``families``, at call
    time, so a test that patches them there patches both implementations.
    """
    n, k = family.n, family.k
    u_mask = window if isinstance(window, int) else mask_of(window, n)
    u_size = u_mask.bit_count()
    if not oracles.is_intersecting(family):
        raise ValueError("trace_bound_check requires an intersecting family")
    if oracles.has_cover(family, 2):
        raise ValueError(
            f"trace_bound_check requires covering number >= 3, got {oracles.tau(family)}")
    if k == 0:
        raise ValueError("tau of a family holding the empty set is undefined: "
                         "no set meets it")
    counts: dict[int, int] = {}
    for m in family.masks:
        counts[m & u_mask] = counts.get(m & u_mask, 0) + 1

    def f(s: int) -> int:
        return counts.get(s, 0)

    def alpha_of(s: int):
        d = families.binom(n - u_size, k - s.bit_count())
        return None if s == 0 or d == 0 else Fraction(f(s), d)

    binom = oracles.binom
    window_ok = all((m & u_mask).bit_count() >= 2 for m in family.masks)
    u_elems = elements_of(u_mask)
    pair_masks = [mask_of(p, n) for p in combinations(u_elems, 2)]
    disjoint = [(p, q) for p, q in combinations(pair_masks, 2) if not p & q]

    witnesses: list[dict] = []
    skipped: list[dict] = []
    evaluated: dict[str, int] = {}

    def record(name: str, ok: bool, **info):
        evaluated[name] = evaluated.get(name, 0) + 1
        if not ok:
            witnesses.append({"statement": name, **info})

    def skip(name: str, reason: str):
        skipped.append({"statement": name, "reason": reason})

    if window_ok and n >= k + u_size - 2:
        single_bound = binom(n - u_size, k - 2) - binom(n - k - u_size + 2, k - 2)
        for p in pair_masks:
            record("single-pair", f(p) <= single_bound,
                   P=elements_of(p), f=f(p), bound=single_bound)
    elif window_ok:
        skip("single-pair", f"needs n >= k+|U|-2 = {k + u_size - 2}")
    else:
        skip("single-pair", "some member meets the window in fewer than 2 points")

    if window_ok and n >= 2 * k + u_size - 4:
        for p, q in disjoint:
            record("disjoint-pair", f(p) + f(q) <= single_bound + 1,
                   P=elements_of(p), Q=elements_of(q),
                   sum=f(p) + f(q), bound=single_bound + 1)
    elif window_ok:
        skip("disjoint-pair", f"needs n >= 2k+|U|-4 = {2 * k + u_size - 4}")

    if window_ok and u_size in (5, 6) and n >= 2 * k + u_size - 4:
        four_bound = (single_bound + binom(n - u_size, k - u_size + 2)
                      + binom(n - u_size - 1, k - u_size + 1))
        for p, q in disjoint:
            total = f(p) + f(q) + f(u_mask & ~p) + f(u_mask & ~q)
            record("four-trace", total <= four_bound,
                   P=elements_of(p), Q=elements_of(q), sum=total, bound=four_bound)
    elif window_ok and u_size in (5, 6):
        skip("four-trace", f"needs n >= 2k+|U|-4 = {2 * k + u_size - 4}")

    if window_ok and k == 4 and u_size == 5 and n >= 9:
        cap = 3 * (n - 6)
        for p, q in disjoint:
            fp, fq = f(p), f(q)
            total = fp + fq + f(u_mask & ~p) + f(u_mask & ~q)
            record("four-trace-k4", total <= cap,
                   P=elements_of(p), Q=elements_of(q), sum=total, bound=cap)
            if total == cap:
                characterised = ((fp == 0 and fq == 2 * n - 13)
                                 or (fq == 0 and fp == 2 * n - 13))
                record("four-trace-k4-equality", characterised,
                       P=elements_of(p), Q=elements_of(q), fP=fp, fQ=fq,
                       expected=2 * n - 13)
    elif k == 4 and u_size == 5 and window_ok:
        skip("four-trace-k4", "needs n >= 9")

    if window_ok and u_size == 5 and n > 2 * k:
        variant_bound = binom(n - 5, k - 2) + binom(n - 5, k - 3)
        for p, q in disjoint:
            total = f(p) + f(q) + f(u_mask & ~p) + f(u_mask & ~q)
            record("four-trace-sperner", total <= variant_bound,
                   P=elements_of(p), Q=elements_of(q), sum=total, bound=variant_bound)
    elif window_ok and u_size == 5:
        skip("four-trace-sperner", "needs n > 2k")

    subsets = [mask_of(c, n) for size in range(1, u_size + 1)
               for c in combinations(u_elems, size)]
    for s_a, s_b in combinations(subsets, 2):
        if s_a & s_b or n < 2 * k - s_a.bit_count() - s_b.bit_count() + u_size:
            continue
        alpha_a, alpha_b = alpha_of(s_a), alpha_of(s_b)
        if alpha_a is None or alpha_b is None:
            continue
        record("sperner-alpha", alpha_a + alpha_b <= Fraction(1),
               A=elements_of(s_a), B=elements_of(s_b), sum=str(alpha_a + alpha_b))

    return make_certificate(
        "TRACE-BOUNDS",
        f"window trace inequalities on U={elements_of(u_mask)}",
        {"n": n, "k": k, "window": list(elements_of(u_mask)),
         "family_size": len(family), "window_hypothesis": window_ok},
        witnesses,
        details={"skipped": skipped, "evaluated": evaluated})


def _reference_meets_all_mask(items_b, a_mask: int) -> int:
    """Bitset over items_b of the b-sets meeting a given a-set."""
    out = 0
    for idx, b in enumerate(items_b):
        if b & a_mask:
            out |= 1 << idx
    return out


def reference_candidate_graph(universe, forced) -> tuple[list[int], list[int], list[int]]:
    """The candidates (universe members other than the forced ones that
    meet each of them) with their intersecting and disjoint bitsets.

    Independent oracle for ``search._candidate_graph``: every pair of
    candidates is tested directly.
    """
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


def _reference_enumerate_fix_a(n: int, a: int, b: int):
    """Yield (count_a, bmax_bitset) over all subsets of C([n],a), meet-in-middle.

    The b-side compatibility bitset of a subset is the AND of its members'
    bitsets; halving the item list gives 2^(N/2) precomputed partial ANDs.
    """
    items_a = list(ksets_colex(n, a))
    items_b = list(ksets_colex(n, b))
    na = len(items_a)
    if na > ENUM_BIT_LIMIT:
        raise ValueError(
            f"fix-A enumeration needs 2^{na} subsets of C({n},{a}); "
            f"2^{ENUM_BIT_LIMIT} is the desk-scale cap")
    full_b = (1 << len(items_b)) - 1
    compat = [_reference_meets_all_mask(items_b, am) for am in items_a]
    half = na // 2
    lo_items, hi_items = compat[:half], compat[half:]

    def half_table(items):
        table = [(0, full_b)]
        for idx, cm in enumerate(items):
            table += [(cnt + 1, acc & cm) for cnt, acc in table]
        return table

    lo = half_table(lo_items)
    hi = half_table(hi_items)
    for cnt_h, acc_h in hi:
        for cnt_l, acc_l in lo:
            yield cnt_h + cnt_l, acc_h & acc_l


def reference_hilton_corollary(m: int, a: int, b: int):
    """Hilton's corollary checked by sweeping the a-side: every A ⊆ C([m],a)
    with B = B_max(A), capped at |A| <= C(m-1,a-1) where the hypothesis
    fails.

    Independent oracle for ``oracles.hilton_corollary_oracle``, which
    sweeps the smaller b-side; the cap is ``ENUM_BIT_LIMIT`` on C(m,a).
    """
    if not (m > a + b and a > b):
        raise ValueError(f"hilton_corollary_oracle needs m > a+b and a > b, got {(m, a, b)}")
    bound = binom(m - 1, a - 1) + binom(m - 1, b - 1)
    a_cap = binom(m - 1, a - 1)
    b_floor = binom(m - 1, b - 1)
    best = 0
    for cnt_a, bmax in _reference_enumerate_fix_a(m, a, b):
        cnt_b = bmax.bit_count()
        if cnt_a <= a_cap or cnt_b >= b_floor:
            total = cnt_a + cnt_b
        elif cnt_b > 0:
            # hypothesis fails for (A, B_max); capped sub-A still admissible
            total = a_cap + cnt_b
        else:
            total = min(cnt_a, a_cap)
        if total > best:
            best = total
    witnesses = []
    if best > bound:
        witnesses.append({"kind": "bound-violated", "max": best, "bound": bound})
    if best != bound:
        witnesses.append({"kind": "attainment", "max": best, "bound": bound})
    return make_certificate(
        "HILTON-COROLLARY",
        f"hypothesis-restricted max |A|+|B| equals C({m - 1},{a - 1})+C({m - 1},{b - 1})"
        f" = {bound}",
        {"m": m, "a": a, "b": b, "bound": bound, "max": best},
        witnesses)


def reference_suite_hilton_lex(samples: int = 10000, seed: int = 0):
    """HILTON-LEX with a fresh pair of ``lex_family`` and a cross-check for
    every sample.

    Independent oracle for ``properties.suite_hilton_lex``, which decides
    each (n, a, b, |A|, |B|) once.  It looks up ``are_cross_intersecting``
    in this module, so a test can patch it here.
    """
    witnesses = []
    # exhaustive at (5,2,2)
    count_a, _, bmax = _bmax_of(5, 2, 2)
    for mask in range(1, 1 << count_a):
        ca, cb = mask.bit_count(), bmax(mask).bit_count()
        la, lb = lex_family(5, 2, ca), lex_family(5, 2, cb)
        if not are_cross_intersecting(la, lb):
            witnesses.append({"case": "exhaustive-522", "A_count": ca, "B_count": cb})
    # randomized at (6,2,3)
    rng = random.Random(seed)
    count_a, count_b, bmax = _bmax_of(6, 2, 3)
    for _ in range(samples):
        mask = rng.getrandbits(count_a)
        if not mask:
            continue
        # random admissible B inside B_max
        bsel = bmax(mask) & rng.getrandbits(count_b)
        ca, cb = mask.bit_count(), bsel.bit_count()
        la, lb = lex_family(6, 2, ca), lex_family(6, 3, cb)
        if not are_cross_intersecting(la, lb):
            witnesses.append({"case": "random-623", "A_count": ca, "B_count": cb})
    return make_certificate(
        "HILTON-LEX", "L(n,a,|A|), L(n,b,|B|) stay cross-intersecting",
        {"samples": samples, "seed": seed}, witnesses)


def k34_window_family(n: int = 9) -> UniformFamily:
    """A saturated intersecting 4-graph on [9] whose 3-cover family is K3(4).

    Members: every 4-set meeting [4] in at least 3 points, plus the pair
    types {P ∪ t} for each 2-subset P of [4] and t in the triangle
    {{5,6},{5,7},{6,7}}.  The triangle tails pairwise intersect, which
    keeps opposite pair types compatible, and their empty intersection
    kills every would-be 3-cover besides the four triples of [4].
    """
    assert n == 9
    members = []
    for quad in combinations(range(1, 5), 3):
        for z in range(5, 10):
            members.append(tuple(sorted(quad + (z,))))
    members.append((1, 2, 3, 4))
    triangle = [(5, 6), (5, 7), (6, 7)]
    for pair in combinations(range(1, 5), 2):
        for t in triangle:
            members.append(tuple(sorted(pair + t)))
    return UniformFamily.from_sets(n, 4, members)


def prop34_equality_family() -> UniformFamily:
    """Intersecting τ=3 family on ([9],4) hitting the 3(n-6) bound with equality.

    For the disjoint window pair P={3,4}, P'={1,2}: f_P = 0,
    f_P' = 5 = 2n-13, f_{[5]\\P} = 4 = n-5, f_{[5]\\P'} = 0.
    """
    members = [(1, 2, 6, 7), (1, 2, 6, 8), (1, 2, 6, 9), (1, 2, 7, 8), (1, 2, 7, 9),
               (1, 2, 5, 6), (1, 2, 5, 7), (1, 2, 5, 8), (1, 2, 5, 9),
               (1, 4, 5, 8), (3, 5, 6, 7), (2, 4, 6, 8), (2, 3, 4, 8), (1, 3, 4, 6)]
    return UniformFamily.from_sets(9, 4, members)


def fano_plane() -> UniformFamily:
    """The lines of the Fano plane on [7]: intersecting, saturated, τ = 3."""
    return UniformFamily.from_sets(
        7, 3, [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
               (3, 4, 7), (3, 5, 6)])


def maximal_cliques(compat: list[int], n_vertices: int) -> list[int]:
    """Bron-Kerbosch with pivoting over vertex bitsets.

    Independent of the branch-and-bound search: used to cross-check
    optimum values by enumerating every maximal intersecting family.
    """
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pux = p | x
        # pivot with the most neighbours inside p
        best_u, best_cnt = -1, -1
        scan = pux
        while scan:
            ub = scan & -scan
            u = ub.bit_length() - 1
            scan ^= ub
            cnt = (p & compat[u]).bit_count()
            if cnt > best_cnt:
                best_u, best_cnt = u, cnt
        ext = p & ~compat[best_u]
        while ext:
            vb = ext & -ext
            v = vb.bit_length() - 1
            ext ^= vb
            expand(r | vb, p & compat[v], x & compat[v])
            p &= ~vb
            x |= vb
    expand(0, (1 << n_vertices) - 1, 0)
    return out


def intersect_compat(masks: list[int]) -> list[int]:
    nm = len(masks)
    compat = [0] * nm
    for i in range(nm):
        for j in range(i + 1, nm):
            if masks[i] & masks[j]:
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    return compat


def brute_max_by_cliques(n: int, k: int, r_min: int) -> int:
    """Independent oracle for m(n,k,r): enumerate every maximal intersecting
    family via Bron-Kerbosch, filter by covering number, take the max size."""
    from ekrforge.covers import tau

    masks = list(ksets_colex(n, k))
    compat = intersect_compat(masks)
    best = 0
    for clique in maximal_cliques(compat, len(masks)):
        fam_masks = []
        scan = clique
        while scan:
            vb = scan & -scan
            fam_masks.append(masks[vb.bit_length() - 1])
            scan ^= vb
        if len(fam_masks) <= best:
            continue
        fam = UniformFamily.from_masks(n, k, fam_masks)
        if r_min <= 1 or tau(fam) >= r_min:
            best = max(best, len(fam))
    return best


def unforced_branch_a(n: int, k: int):
    """Branch A of the τ ≥ 3 split before its members were forced: every
    k-set meeting {1,2,3}, every pair to be avoided, nothing forced.

    Independent reference for the forced branches A_j of
    ``search._structural_branches``, which must reach the same maximum.
    """
    from ekrforge.families import ksets_colex, mask_of
    from ekrforge.search import _Branch

    cover3 = mask_of((1, 2, 3), n)
    pairs = tuple(mask_of(p, n) for p in combinations(range(1, n + 1), 2))
    return _Branch(tuple(m for m in ksets_colex(n, k) if m & cover3), (), pairs)


def brute_canonical_form(family: UniformFamily) -> tuple[int, ...]:
    """Minimum relabeled mask tuple over all permutations of [n].

    Independent oracle for ``search.canonical_form``.  Pruned sweep: the
    minimum image tuple necessarily starts with the mask of {1..k}, so only
    permutations sending some member onto {1..k} can win.  The outer loop
    ranges over (member, bijection-onto-[1..k]) pairs, the inner one over
    the placements of the remaining elements.
    """
    n, k = family.n, family.k
    masks = family.masks
    if not masks:
        return ()
    elems = list(range(n))
    best: tuple[int, ...] | None = None
    for member in masks:
        member_elems = [b - 1 for b in elements_of(member)]
        rest = [x for x in elems if x not in member_elems]
        for head in permutations(range(k)):
            table = [0] * n
            for idx, x in enumerate(member_elems):
                table[x] = head[idx]
            for tail in permutations(range(k, n)):
                for idx, x in enumerate(rest):
                    table[x] = tail[idx]
                relabeled = tuple(sorted(_apply_perm(m, table) for m in masks))
                if best is None or relabeled < best:
                    best = relabeled
    return best


def _apply_perm(mask: int, table) -> int:
    out = 0
    while mask:
        b = mask & -mask
        out |= 1 << table[b.bit_length() - 1]
        mask ^= b
    return out


def reference_degcap(n: int, k: int, ell: int) -> tuple[int, tuple[int, ...], int]:
    """The include/exclude degree-capped search that colour-ordered
    branching replaced in ``search.max_intersecting_degcap``.

    Independent reference for it: same cap, same warm start and same
    witness tie-break (larger family, then colex-smaller sorted masks), so
    it must give the same value and witness masks.  Each node branches on
    the lowest candidate (include it if it fits under the cap, then
    exclude it) and prunes by the greedy disjoint-group count.  Returns
    ``(value, witness masks, nodes)``.
    """
    from ekrforge.binomial import binom
    from ekrforge.families import ksets_colex, mask_of
    from ekrforge.search import _degcap_seed

    cap = binom(n - 1, k - 1) - binom(n - ell - 1, k - 1)
    first = mask_of(range(1, k + 1), n)
    cand_masks, compat, disj = reference_candidate_graph(ksets_colex(n, k), (first,))
    nc = len(cand_masks)

    best = 0
    best_masks: tuple[int, ...] = ()
    seed = _degcap_seed(n, k, ell, cap)
    if seed is not None:
        best, best_masks = len(seed), seed.masks
    nodes = 0

    def recurse(chosen: list[int], cand: int, degs: list[int]) -> None:
        nonlocal nodes, best, best_masks
        nodes += 1
        size = len(chosen)
        if size >= best:
            key = tuple(sorted(chosen))
            if size > best or not best_masks or key < best_masks:
                best, best_masks = size, key
        if size + _reference_cover_bound(cand, disj) <= best:
            return
        if not cand:
            return
        vb = cand & -cand
        v = vb.bit_length() - 1
        m = cand_masks[v]
        fits = True
        mm = m
        while mm:
            b = mm & -mm
            if degs[b.bit_length() - 1] + 1 > cap:
                fits = False
                break
            mm ^= b
        if fits:
            mm = m
            while mm:
                b = mm & -mm
                degs[b.bit_length() - 1] += 1
                mm ^= b
            chosen.append(m)
            recurse(chosen, cand & compat[v], degs)
            chosen.pop()
            mm = m
            while mm:
                b = mm & -mm
                degs[b.bit_length() - 1] -= 1
                mm ^= b
        recurse(chosen, cand & ~vb, degs)

    degs0 = [0] * n
    for x in range(k):
        degs0[x] = 1
    recurse([first], (1 << nc) - 1, degs0)
    return best, best_masks, nodes


def _reference_cover_bound(cand: int, disj: list[int]) -> int:
    """Greedy partition into pairwise-disjoint groups, counted."""
    groups = 0
    rest = cand
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        groups += 1
        cur = rest & disj[v]
        while cur:
            u = (cur & -cur).bit_length() - 1
            rest &= ~(1 << u)
            cur &= disj[u] & ~((1 << (u + 1)) - 1)
    return groups
