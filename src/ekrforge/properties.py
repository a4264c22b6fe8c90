"""Randomized and exhaustive property suites, and the one registry of all suites.

These complement the closed-form sweeps in ``certify``: instead of
parameter grids they quantify over families - seeded random saturated
families, or exhaustive cross-intersecting configurations - and check
the structural statements on each.  Every suite that samples takes an
explicit seed so its "zero violations" verdict is reproducible bit for
bit.

``SUITES`` registers the closed-form and the property suites together,
and ``verify_identity_suite`` is the one runner for both, used by the
library and by ``ekrforge verify`` alike.  Each suite's signature names
exactly the settings it reads.
"""

from __future__ import annotations

import inspect
import random
import time
import warnings
from dataclasses import replace
from functools import cache
from itertools import combinations
from typing import Callable, Optional

from .binomial import binom
from . import certify
from .certify import Certificate, make_certificate
from .classify import ClassificationTag, classify_T3
from .covers import all_covers, covers, is_saturated, saturate, tau
from .families import are_cross_intersecting, ksets_colex, meeting, trace
from .constructions import lex_family
from .generators import (random_intersecting_seed, random_saturated_family,
                         sample_saturated_tau3)
from .oracles import (_sperner_violations, ft92_oracle, hilton_corollary_oracle,
                      trace_bound_check)


def suite_prop14(samples: int = 200, seed: int = 0) -> Certificate:
    """T(H) is intersecting for saturated H: property run over random saturations."""
    grid = ((7, 3), (8, 3), (9, 4))
    rng = random.Random(seed)
    witnesses = []
    per_point = max(1, samples // len(grid))
    checked = 0
    for n, k in grid:
        for _ in range(per_point):
            fam = random_saturated_family(n, k, rng,
                                          rng.choice(["free", "r_lift_partial"]))
            cover_masks = all_covers(fam)
            checked += 1
            bad = next(((a, b) for a, b in combinations(cover_masks, 2) if not a & b),
                       None)
            if bad is not None:
                witnesses.append({"n": n, "k": k, "family_size": len(fam),
                                  "disjoint_covers": [list(bad)]})
    return make_certificate(
        "PROP-14", "for saturated intersecting H, the cover family T(H) is intersecting",
        {"samples": checked, "seed": seed, "grid": [list(g) for g in grid]},
        witnesses)


def suite_prop22_classify(samples: int = 100, seed: int = 0) -> Certificate:
    """Saturated τ=3 families classify into star/K34/S/R when T^(3) is nonempty."""
    grid = ((7, 3), (8, 3), (9, 4))
    witnesses = []
    tags = {t.value: 0 for t in ClassificationTag}
    per_point = max(1, samples // len(grid))
    total = 0
    for n, k in grid:
        fams = sample_saturated_tau3(n, k, per_point, seed + n * 100 + k)
        for fam in fams:
            total += 1
            try:
                with warnings.catch_warnings():
                    # τ≥3 samples occasionally have τ=4; EMPTY is then correct
                    warnings.simplefilter("ignore")
                    result = classify_T3(fam)
            except ValueError as exc:
                witnesses.append({"n": n, "k": k, "error": str(exc)})
                continue
            tags[result.tag.value] += 1
            if result.tag == ClassificationTag.EMPTY and tau(fam) == 3:
                witnesses.append({"n": n, "k": k, "error": "empty T3 despite tau=3"})
    return make_certificate(
        "PROP-22", "classification of T^(3) over saturated τ=3 samples",
        {"samples": total, "seed": seed, "grid": [list(g) for g in grid]},
        witnesses, details={"tags": tags})


# the (n, k) points of TRACE-BOUNDS-RANDOM; ``range_refusal`` reads how many
TRACE_GRID = ((9, 4), (11, 5))


def suite_trace_bounds_random(samples: int = 1000, seed: int = 0,
                              min_applicable: int = 100) -> Certificate:
    """All applicable window trace bounds over saturated τ≥3 samples."""
    grid, window = TRACE_GRID, (1, 2, 3, 4, 5)
    witnesses = []
    per_point = max(1, samples // len(grid))
    applicable = 0
    evaluated_total: dict[str, int] = {}
    total = 0
    for n, k in grid:
        fams = sample_saturated_tau3(n, k, per_point, seed + 17 * n + k)
        for fam in fams:
            total += 1
            cert = trace_bound_check(fam, window)
            if cert.params["window_hypothesis"]:
                applicable += 1
            for name, cnt in cert.details["evaluated"].items():
                evaluated_total[name] = evaluated_total.get(name, 0) + cnt
            if not cert.passed:
                witnesses.append({"n": n, "k": k, "family_size": len(fam),
                                  "violations": cert.witnesses[:3]})
    if applicable < min_applicable:
        witnesses.append({"error": "window hypothesis too rarely satisfied",
                          "applicable": applicable, "required": min_applicable})
    return make_certificate(
        "TRACE-BOUNDS-RANDOM",
        "window trace inequalities over seeded saturated τ≥3 families",
        {"samples": total, "seed": seed, "grid": [list(g) for g in grid],
         "window": list(window)},
        witnesses,
        details={"window_applicable": applicable, "evaluated": evaluated_total})


def suite_sperner_random(samples: int = 60, seed: int = 0) -> Certificate:
    """The α-inequality on random intersecting families (no τ hypothesis)."""
    grid = ((9, 4), (11, 5), (13, 6))
    rng = random.Random(seed)
    witnesses = []
    per_point = max(1, samples // len(grid))
    checked_pairs = 0
    families = 0
    for n, k in grid:
        for _ in range(per_point):
            fam = random_saturated_family(n, k, rng, "free")
            families += 1
            u_elems = tuple(rng.sample(range(1, n + 1), rng.choice((4, 5, 6))))
            checked, violations = _sperner_violations(trace(fam, u_elems))
            checked_pairs += checked
            witnesses += [{"n": n, "k": k, "U": list(u_elems), "A": s_a, "B": s_b,
                           "sum": str(total)} for s_a, s_b, total in violations]
    return make_certificate(
        "SPERNER-RANDOM", "α(A) + α(B) <= 1 on random intersecting families",
        {"samples": families, "seed": seed, "pairs_checked": checked_pairs},
        witnesses)


def _bmax_of(n: int, a: int, b: int):
    """Sizes of C([n],a) and C([n],b), and the map from a bitset of a-sets
    to the bitset of B_max, the b-sets meeting every one of them."""
    items_a, items_b = list(ksets_colex(n, a)), list(ksets_colex(n, b))
    compat = list(meeting(items_a, items_b, n))
    full_b = (1 << len(items_b)) - 1

    def bmax(mask: int) -> int:
        acc = full_b
        while mask:
            vb = mask & -mask
            acc &= compat[vb.bit_length() - 1]
            mask ^= vb
        return acc

    return len(items_a), len(items_b), bmax


def suite_hilton_lex(samples: int = 10000, seed: int = 0) -> Certificate:
    """Lexicographic compression preserves cross-intersection.

    Exhaustive at (n,a,b) = (5,2,2) through the derive-B_max reduction
    (checking each A against its maximal partner covers every pair by
    monotonicity of initial segments), plus seeded random pairs at
    (6,2,3).  A verdict depends only on (n, a, b, |A|, |B|), so each is
    decided once; every sample that fails still records its own witness.
    """
    witnesses = []

    @cache  # local to this call
    def lex_cross(n: int, a: int, b: int, ca: int, cb: int) -> bool:
        return are_cross_intersecting(lex_family(n, a, ca), lex_family(n, b, cb))

    # exhaustive at (5,2,2)
    count_a, _, bmax = _bmax_of(5, 2, 2)
    for mask in range(1, 1 << count_a):
        ca, cb = mask.bit_count(), bmax(mask).bit_count()
        if not lex_cross(5, 2, 2, ca, cb):
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
        if not lex_cross(6, 2, 3, ca, cb):
            witnesses.append({"case": "random-623", "A_count": ca, "B_count": cb})
    return make_certificate(
        "HILTON-LEX", "L(n,a,|A|), L(n,b,|B|) stay cross-intersecting",
        {"samples": samples, "seed": seed}, witnesses)


def suite_ft92_small() -> Certificate:
    """The three desk-scale cross-intersecting oracle instances."""
    witnesses = []
    expected = {(6, 2, 3): binom(6, 3) - binom(4, 3) + 1,
                (5, 2, 3): binom(5, 3) - binom(3, 3) + 1,
                (4, 2, 2): binom(4, 2) - binom(2, 2) + 1}
    attained = {}
    for (n, a, b), bound in expected.items():
        value, cert = ft92_oracle(n, a, b)
        attained[f"{n},{a},{b}"] = value
        if value != bound or not cert.passed:
            witnesses.append({"n": n, "a": a, "b": b, "value": value,
                              "bound": bound, "verdict": cert.verdict})
    return make_certificate(
        "FT92-SMALL", "cross-intersecting sum oracle attains the bound",
        {"instances": sorted(attained)}, witnesses, details=attained)


def suite_hilton_cor_small() -> Certificate:
    cert = hilton_corollary_oracle(6, 3, 2)
    witnesses = [] if cert.passed and cert.params["max"] == 15 else [cert.params]
    return make_certificate(
        "HILTON-COR-SMALL", "hypothesis-restricted sum bound attains 15 at (6,3,2)",
        {"m": 6, "a": 3, "b": 2}, witnesses)


def suite_saturation_props(samples: int = 60, seed: int = 0) -> Certificate:
    """Saturation and covering-number structure on random families.

    Checks idempotence of saturation, monotonicity of τ under supersets,
    cover padding, and τ ≤ k.
    """
    rng = random.Random(seed)
    witnesses = []
    for _ in range(samples):
        n, k = rng.choice(((6, 3), (7, 3), (8, 3), (9, 4)))
        seed_fam = random_intersecting_seed(n, k, rng, size=rng.randint(3, 5))
        sat = saturate(seed_fam)
        if not is_saturated(sat) or saturate(sat) != sat:
            witnesses.append({"n": n, "k": k, "problem": "saturation not maximal/idempotent"})
            continue
        if tau(seed_fam) > tau(sat):
            witnesses.append({"n": n, "k": k, "problem": "tau dropped under superset"})
        if tau(sat) > k:
            witnesses.append({"n": n, "k": k, "problem": "tau exceeds k"})
        for ell in range(1, k):
            if len(covers(sat, ell)) and not len(covers(sat, ell + 1)):
                witnesses.append({"n": n, "k": k, "problem": f"cover padding broke at {ell}"})
    return make_certificate(
        "SATURATION-PROPS", "saturation and covering-number structural laws",
        {"samples": samples, "seed": seed}, witnesses)


SUITES: dict[str, Callable[..., Certificate]] = {
    "ID-G-SIZE": certify.suite_id_g_size,
    "ID-G-POLY": certify.suite_id_g_poly,
    "ID-G-2K": certify.suite_id_g_2k,
    "ID-EKR": certify.suite_id_ekr,
    "ID-HM": certify.suite_id_hm,
    "ID-F-REC": certify.suite_id_f_rec,
    "INEQ-PROP23": certify.suite_ineq_prop23,
    "INEQ-KEY-STEPS": certify.suite_ineq_key_steps,
    "INEQ-GAPFILL": certify.suite_ineq_gapfill,
    "INEQ-CASE1": certify.suite_ineq_case1,
    "INEQ-CASE2": certify.suite_ineq_case2,
    "ID-ENDGAME-94": certify.suite_id_endgame_94,
    "PROP-14": suite_prop14,
    "PROP-22": suite_prop22_classify,
    "TRACE-BOUNDS-RANDOM": suite_trace_bounds_random,
    "SPERNER-RANDOM": suite_sperner_random,
    "HILTON-LEX": suite_hilton_lex,
    "FT92-SMALL": suite_ft92_small,
    "HILTON-COR-SMALL": suite_hilton_cor_small,
    "SATURATION-PROPS": suite_saturation_props,
}


def range_refusal(suite_id: str, **settings) -> Optional[str]:
    """Why a registered suite refuses the range that the settings, with
    its defaults for the rest, give it, or None.  An empty range is
    refused, since the suite would pass having checked nothing: k_min above
    k_max, or an n_span, n_max or k_max that leaves one of the suite's
    ``windows`` (the n- or k-ranges it loops over) empty; the refusal
    names that setting.  So is an ID-G-SIZE range that
    ``certify.id_g_size_refusal`` refuses, a samples count below 1, and a
    TRACE-BOUNDS-RANDOM samples count that draws fewer families in all
    than its min_applicable, so the suite could never pass.  A setting the
    suite's signature does not name raises TypeError."""
    bound = inspect.signature(SUITES[suite_id]).bind(**settings)
    bound.apply_defaults()
    ranges = bound.arguments
    if "k_min" in ranges and "k_max" in ranges and ranges["k_min"] > ranges["k_max"]:
        return (f"{suite_id}: k_min {ranges['k_min']} is above k_max {ranges['k_max']}, "
                f"so the range is empty")
    windows = getattr(SUITES[suite_id], "windows", None)
    if windows and any(next(iter(w), None) is None for w in windows(**ranges)):
        setting = list(inspect.signature(windows).parameters)[-1]
        # n_span and n_max bound n-ranges, k_max the k-range of ID-F-REC
        return (f"{suite_id}: {setting} {ranges[setting]} leaves one of its "
                f"{setting[0]}-ranges empty, so it would check nothing there")
    if suite_id == "ID-G-SIZE":
        return certify.id_g_size_refusal(**ranges)
    samples = ranges.get("samples", 1)
    if samples < 1:
        return f"{suite_id}: samples must be at least 1, got {samples}"
    if suite_id == "TRACE-BOUNDS-RANDOM":
        drawn = len(TRACE_GRID) * max(1, samples // len(TRACE_GRID))
        if drawn < ranges["min_applicable"]:
            return (f"{suite_id}: samples {samples} draw {drawn} families, fewer than "
                    f"the {ranges['min_applicable']} that must meet the window "
                    f"hypothesis, so it would always fail")
    return None


def verify_identity_suite(suite_id: str, **settings) -> Certificate:
    """Run one registered suite with the given settings and record its wall
    time.  A setting the suite's signature does not name raises TypeError,
    and a range that ``range_refusal`` refuses raises ValueError."""
    suite = SUITES.get(suite_id)
    if suite is None:
        raise ValueError(f"unknown suite {suite_id!r}; known: {', '.join(list_suites())}")
    refusal = range_refusal(suite_id, **settings)
    if refusal:
        raise ValueError(refusal)
    start = time.perf_counter()
    cert = suite(**settings)
    return replace(cert, wall_time_ms=int((time.perf_counter() - start) * 1000))


def list_suites() -> list[str]:
    return sorted(SUITES)
