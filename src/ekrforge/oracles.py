"""Brute-force extremal oracles and the trace-bound checker.

The cross-intersecting oracles exploit the fix-one-side reduction: for
a fixed family A of a-sets the optimal partner is B_max(A), the set of
all b-sets meeting every member of A, so the search space collapses to
the subsets of one side.  Each oracle sweeps its smaller side:
``ft92_oracle`` the a-sets (a <= b and n >= a+b), and
``hilton_corollary_oracle`` the b-sets (b < a and m > a+b).
Enumeration is exact; meet-in-the-middle over bit halves keeps the
2^C(n,s) sweep over the s-sets of the fixed side at desk speed.  The
bitset of the other side's sets meeting one fixed-side set comes from
``families.meeting``, as every such bitset in the package does.

The trace-bound checker evaluates every applicable window inequality of
the four-trace machinery on a concrete family, with per-statement
hypothesis gating: a statement whose hypotheses fail is never reported
as failed, and the misses it names are recorded as skipped.  The
statements over disjoint pairs of the window are one table, checked in
one scan over those pairs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .binomial import binom
from .certify import Certificate, make_certificate
from .covers import has_cover, tau
from .families import (TraceStats, UniformFamily, elements_of, is_intersecting,
                       ksets_colex, mask_of, meeting, trace)

ENUM_BIT_LIMIT = 22  # refuse sweeps of the fixed side beyond 2^22 subsets


def _enumerate_fix_a(n: int, a: int, b: int):
    """Yield (count_a, bmax_bitset) over all subsets of C([n],a), meet-in-middle.

    The fixed side is the one named first: a caller that sweeps the
    b-sets calls ``_enumerate_fix_a(n, b, a)`` and gets, for each family
    B, |B| and the bitset of A_max(B).  ``ENUM_BIT_LIMIT`` caps C(n,a),
    the size of the swept side.  The other side's compatibility bitset of
    a subset is the AND of its members' ``meeting`` bitsets; halving the
    item list gives 2^(N/2) precomputed partial ANDs.
    """
    items_a = list(ksets_colex(n, a))
    items_b = list(ksets_colex(n, b))
    na = len(items_a)
    if na > ENUM_BIT_LIMIT:
        raise ValueError(
            f"the fixed-side sweep needs 2^{na} subsets of C({n},{a}); "
            f"2^{ENUM_BIT_LIMIT} is the desk-scale cap")
    full_b = (1 << len(items_b)) - 1
    compat = list(meeting(items_a, items_b, n))
    half = na // 2
    lo_items, hi_items = compat[:half], compat[half:]

    def half_table(items):
        table = [(0, full_b)]
        for cm in items:
            table += [(cnt + 1, acc & cm) for cnt, acc in table]
        return table

    lo = half_table(lo_items)
    hi = half_table(hi_items)
    for cnt_h, acc_h in hi:
        for cnt_l, acc_l in lo:
            yield cnt_h + cnt_l, acc_h & acc_l


def ft92_oracle(n: int, a: int, b: int) -> tuple[int, Certificate]:
    """Exact max of |A|+|B| over nonempty cross-intersecting pairs, vs the bound.

    Bound: C(n,b) - C(n-a,b) + 1, strict for |A|,|B| > 1 unless n = a+b
    or a = b = 2.  The certificate checks both the attained maximum and
    the strictness clause.
    """
    if not (n >= a + b and a <= b):
        raise ValueError(f"ft92_oracle needs n >= a+b and a <= b, got {(n, a, b)}")
    bound = binom(n, b) - binom(n - a, b) + 1
    best = 0
    best_nontrivial = 0  # max over |A| >= 2 and |B| >= 2
    for cnt_a, bmax in _enumerate_fix_a(n, a, b):
        if cnt_a == 0:
            continue
        cnt_b = bmax.bit_count()
        if cnt_b == 0:
            continue
        total = cnt_a + cnt_b
        if total > best:
            best = total
        if cnt_a >= 2 and cnt_b >= 2 and total > best_nontrivial:
            best_nontrivial = total
    witnesses = []
    if best != bound:
        witnesses.append({"kind": "max-vs-bound", "max": best, "bound": bound})
    exception = (n == a + b) or (a == 2 and b == 2)
    if not exception and best_nontrivial >= bound:
        witnesses.append({"kind": "strictness", "nontrivial_max": best_nontrivial,
                          "bound": bound})
    # the singleton-A optimum is canonical: A = {first a-set}, B = everything meeting it
    optimum = {"a_count": 1, "b_count": bound - 1}
    cert = make_certificate(
        "FT92-ORACLE",
        f"max |A|+|B| over nonempty cross-intersecting pairs equals "
        f"C({n},{b})-C({n - a},{b})+1 = {bound}",
        {"n": n, "a": a, "b": b, "bound": bound, "max": best,
         "nontrivial_max": best_nontrivial, "exception_case": exception,
         "optimum": optimum},
        witnesses)
    return best, cert


def hilton_corollary_oracle(m: int, a: int, b: int) -> Certificate:
    """Check |A|+|B| <= C(m-1,a-1)+C(m-1,b-1) under the corollary's hypothesis.

    Hypothesis: |B| >= C(m-1,b-1) or |A| <= C(m-1,a-1); requires
    m > a+b and a > b.  The sweep fixes the smaller side, B ⊆ C([m],b),
    and pairs it with A_max(B), the a-sets meeting every member of B.
    A pair scores

        total(|A|, |B|) = (|A| if |B| >= C(m-1,b-1) else min(|A|, C(m-1,a-1))) + |B|,

    the largest admissible sum inside it: when the hypothesis fails, any
    C(m-1,a-1) members of A with the same B satisfy it.  total never falls
    as |A| or |B| grows, so the maximum over B equals the maximum over A
    with B_max(A): the pair (A, B_max(A)) is dominated by (A_max(B), B)
    with B = B_max(A), since A ⊆ A_max(B); and (A_max(B), B) is dominated
    by (A', B_max(A')) with A' = A_max(B), since B ⊆ B_max(A').
    """
    if not (m > a + b and a > b):
        raise ValueError(f"hilton_corollary_oracle needs m > a+b and a > b, got {(m, a, b)}")
    bound = binom(m - 1, a - 1) + binom(m - 1, b - 1)
    a_cap = binom(m - 1, a - 1)
    b_floor = binom(m - 1, b - 1)
    best = 0
    for cnt_b, amax in _enumerate_fix_a(m, b, a):
        cnt_a = amax.bit_count()
        total = (cnt_a if cnt_b >= b_floor else min(cnt_a, a_cap)) + cnt_b
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


# ── trace bounds ─────────────────────────────────────────────────────────────

# the order of the statements in a certificate's evaluated counts
_STATEMENTS = ("single-pair", "disjoint-pair", "four-trace", "four-trace-k4",
               "four-trace-k4-equality", "four-trace-sperner", "sperner-alpha")


@lru_cache(maxsize=8)
def _sperner_plan(window: int, n: int, k: int, denominators: tuple[int, ...],
                  ) -> tuple[tuple[int, int, int, int], ...]:
    """The (A, d_A, B, d_B) to which the Sperner α-inequality applies on
    the window U, where ``denominators[s]`` is d_S, the denominator of
    α(S), for every |S| = s.

    A and B run over the disjoint pairs of nonempty subsets of U, by size
    and then colex, with d_A, d_B > 0 and the n-threshold
    n >= 2k - |A| - |B| + |U|; the inequality has no window hypothesis.
    """
    u_elems = elements_of(window)
    u_size = len(u_elems)
    subsets = [(mask_of(c, n), denominators[size]) for size in range(1, u_size + 1)
               if denominators[size] for c in combinations(u_elems, size)]
    return tuple((s_a, d_a, s_b, d_b) for (s_a, d_a), (s_b, d_b) in combinations(subsets, 2)
                 if not s_a & s_b
                 and n >= 2 * k - s_a.bit_count() - s_b.bit_count() + u_size)


def _sperner_violations(stats: TraceStats) -> tuple[int, list[tuple[int, int, Fraction]]]:
    """Check α(A) + α(B) <= 1 over the window's Sperner plan, in integers:
    f_A/d_A + f_B/d_B > 1 iff f_A d_B + f_B d_A > d_A d_B.  Returns the
    number of pairs checked and each violating (A, B, α(A) + α(B)), the
    sum as a Fraction for its witness."""
    denominators = tuple(map(stats.denominator, range(stats.window.bit_count() + 1)))
    plan = _sperner_plan(stats.window, stats.n, stats.k, denominators)
    f = stats.counts.get
    found = []
    for s_a, d_a, s_b, d_b in plan:
        f_a, f_b = f(s_a, 0), f(s_b, 0)
        if f_a * d_b + f_b * d_a > d_a * d_b:
            found.append((s_a, s_b, Fraction(f_a, d_a) + Fraction(f_b, d_b)))
    return len(plan), found


@lru_cache(maxsize=32)
def _window_pairs(n: int, window: int) -> tuple[tuple[int, ...], tuple[int, ...],
                                                 tuple[tuple[int, int, int, int], ...]]:
    """The points of the window U, its 2-subsets P as masks in
    lexicographic order, and its disjoint pairs (P, Q) in that order,
    each with U \\ P and U \\ Q; listed once per (n, U)."""
    u_elems = elements_of(window)
    pair_masks = tuple(mask_of(p, n) for p in combinations(u_elems, 2))
    return u_elems, pair_masks, tuple((p, q, window & ~p, window & ~q)
                                      for p, q in combinations(pair_masks, 2) if not p & q)


def trace_bound_check(family: UniformFamily, window) -> Certificate:
    """Evaluate every applicable trace inequality of the window machinery.

    Statements covered, each under its own hypotheses: the single-pair
    bound and its disjoint-pair refinement, the four-trace bound for
    |U| in {5,6}, the sharpened k=4 four-trace bound 3(n-6) with its
    equality characterisation, the Sperner α-inequality, and the
    C(n-5,k-2)+C(n-5,k-3) four-trace variant.  Every statement but the
    α-inequality needs the window hypothesis (each member meets U in at
    least 2 points); when it fails, only the single-pair bound is
    recorded as skipped.  When it holds, a statement whose shape (k and
    |U|) fits but whose n-threshold fails is recorded as skipped, with the
    threshold it needs: for the single-pair bound n >= k+|U|-2, below
    which its binomial C(n-k-|U|+2, k-2) has a negative top.

    The intersecting and τ >= 3 gates read the family's one cached point
    index, so on a family that a τ >= 3 sampler has tested they build
    nothing.  {∅}, the one nonempty family at k = 0, is refused: no set covers it,
    so the τ >= 3 gate would let it through.  So is a window of fewer than
    two points: every statement reads a 2-subset of U, or two disjoint
    nonempty subsets of U, so such a window would pass with nothing
    evaluated.
    """
    n, k = family.n, family.k
    u_mask = window if isinstance(window, int) else mask_of(window, n)
    u_size = u_mask.bit_count()
    if not is_intersecting(family):
        raise ValueError("trace_bound_check requires an intersecting family")
    if has_cover(family, 2):
        raise ValueError(
            f"trace_bound_check requires covering number >= 3, got {tau(family)}")
    if k == 0:
        raise ValueError("tau of a family holding the empty set is undefined: "
                         "no set meets it")
    if u_size < 2:
        raise ValueError(f"trace_bound_check needs a window of at least 2 points, "
                         f"got {u_size}: every statement reads a pair of its points")
    stats = trace(family, u_mask)
    f = stats.counts.get
    window_ok = all(s.bit_count() >= 2 for s in stats.counts)
    u_elems, pair_masks, disjoint = _window_pairs(n, u_mask)

    witnesses: list[dict] = []
    skipped: list[dict] = []
    evaluated = dict.fromkeys(_STATEMENTS, 0)

    single_floor = k + u_size - 2
    if not window_ok:
        skipped.append({"statement": "single-pair",
                        "reason": "some member meets the window in fewer than 2 points"})
    elif n < single_floor:
        skipped.append({"statement": "single-pair",
                        "reason": f"needs n >= k+|U|-2 = {single_floor}"})
    else:
        single_bound = binom(n - u_size, k - 2) - binom(n - single_floor, k - 2)
        evaluated["single-pair"] = len(pair_masks)
        witnesses += [{"statement": "single-pair", "P": elements_of(p), "f": f(p, 0),
                       "bound": single_bound}
                      for p in pair_masks if f(p, 0) > single_bound]

    # the statements over disjoint pairs P, Q of U: name, whether k and |U|
    # fit its shape, its n-threshold, the reason recorded when only the
    # threshold fails, its bound (computed only where it applies), and
    # whether it sums f_P + f_Q alone or adds f over U \ P and U \ Q; τ >= 3
    # makes k >= 3, so n >= 2k+|U|-4 implies the single-pair threshold and
    # ``single_bound`` is set wherever a bound that reads it runs
    gap = 2 * k + u_size - 4
    pair_statements = (
        ("disjoint-pair", True, n >= gap, f"needs n >= 2k+|U|-4 = {gap}",
         lambda: single_bound + 1, False),
        ("four-trace", u_size in (5, 6), n >= gap, f"needs n >= 2k+|U|-4 = {gap}",
         lambda: (single_bound + binom(n - u_size, k - u_size + 2)
                  + binom(n - u_size - 1, k - u_size + 1)), True),
        ("four-trace-k4", k == 4 and u_size == 5, n >= 9, "needs n >= 9",
         lambda: 3 * (n - 6), True),
        ("four-trace-sperner", u_size == 5, n > 2 * k, "needs n > 2k",
         lambda: binom(n - 5, k - 2) + binom(n - 5, k - 3), True),
    )
    # (name, bound, four traces?, its witnesses in pair order); the k = 4
    # equality witnesses go with those of four-trace-k4, as the pair that
    # meets the bound with equality comes up
    active = []
    for name, fits, threshold, reason, bound, four in pair_statements:
        if window_ok and fits and threshold:
            active.append((name, bound(), four, []))
            evaluated[name] = len(disjoint)
        elif window_ok and fits:
            skipped.append({"statement": name, "reason": reason})

    for p, q, rest_p, rest_q in disjoint:
        fp, fq = f(p, 0), f(q, 0)
        two = fp + fq
        four_sum = two + f(rest_p, 0) + f(rest_q, 0)
        for name, bound, four, found in active:
            total = four_sum if four else two
            if total > bound:
                found.append({"statement": name, "P": elements_of(p), "Q": elements_of(q),
                              "sum": total, "bound": bound})
            elif name == "four-trace-k4" and total == bound:
                # equality forces the profile (f_P, f_Q) = (0, 2n-13) up to order
                evaluated["four-trace-k4-equality"] += 1
                if not (fp == 0 and fq == 2 * n - 13 or fq == 0 and fp == 2 * n - 13):
                    found.append({"statement": "four-trace-k4-equality",
                                  "P": elements_of(p), "Q": elements_of(q),
                                  "fP": fp, "fQ": fq, "expected": 2 * n - 13})
    witnesses += [w for *_, found in active for w in found]

    evaluated["sperner-alpha"], violations = _sperner_violations(stats)
    witnesses += [{"statement": "sperner-alpha", "A": elements_of(s_a),
                   "B": elements_of(s_b), "sum": str(total)}
                  for s_a, s_b, total in violations]

    return make_certificate(
        "TRACE-BOUNDS",
        f"window trace inequalities on U={u_elems}",
        {"n": n, "k": k, "window": list(u_elems),
         "family_size": len(family), "window_hypothesis": window_ok},
        witnesses,
        details={"skipped": skipped,
                 "evaluated": {name: c for name, c in evaluated.items() if c}})
