"""Certificate suites, cross-intersecting oracles, trace bounds."""

import inspect
import json
import random
from dataclasses import asdict
from itertools import combinations

import pytest

import conftest
from conftest import (fano_plane, prop34_equality_family, reference_hilton_corollary,
                      reference_suite_hilton_lex, reference_trace_bound_check)
from ekrforge import certify, families, oracles, properties
from ekrforge.binomial import binom
from ekrforge.properties import SUITES, list_suites, suite_hilton_lex, verify_identity_suite
from ekrforge.constructions import build_G, build_HM
from ekrforge.covers import tau
from ekrforge.families import UniformFamily, is_intersecting, ksets_colex, mask_of, trace
from ekrforge.generators import sample_saturated_tau3
from ekrforge.oracles import ft92_oracle, hilton_corollary_oracle, trace_bound_check


def test_id_g_size_reports_a_wrong_closed_form(monkeypatch):
    """A closed form off by one at (13,5) alone gives exactly that witness."""
    real = certify.g_size_formula
    monkeypatch.setattr(certify, "g_size_formula",
                        lambda n, k: real(n, k) + ((n, k) == (13, 5)))
    cert = certify.suite_id_g_size()
    assert cert.witnesses == [{"n": 13, "k": 5, "built": real(13, 5),
                               "formula": real(13, 5) + 1}]


def test_id_g_size_reports_a_short_build_at_each_largest_n(monkeypatch):
    """One G(N,k), N = 2k + 12, is built per k.  If it loses its colex-last
    member, each k reports a witness at its largest n.  For k >= 4 that
    member holds the point N, so n = N alone counts short; G(n,3) = G(6,3)
    has no member past 6, so at k = 3 every n does."""
    real, built = certify.build_G, []

    def short(n, k):
        built.append((n, k))
        return UniformFamily._trusted(n, k, real(n, k).masks[:-1])

    monkeypatch.setattr(certify, "build_G", short)
    cert = certify.suite_id_g_size()
    assert built == [(2 * k + 12, k) for k in range(3, 9)]
    assert [(w["n"], w["k"]) for w in cert.witnesses] == (
        [(n, 3) for n in range(6, 19)] + built[1:])
    assert all(w["built"] == w["formula"] - 1 for w in cert.witnesses)


def test_all_identity_suites_pass_small_ranges():
    overrides = {
        "ID-G-SIZE": {"k_max": 5, "n_span": 6},
        "ID-G-2K": {"k_max": 40},
        "ID-EKR": {"n_span": 20},
        "ID-HM": {"n_span": 20},
        "ID-F-REC": {"k_max": 60},
        "INEQ-PROP23": {"n_span": 25},
        "INEQ-KEY-STEPS": {"n_span": 25},
        "INEQ-GAPFILL": {"k_max": 60},
        "INEQ-CASE1": {"n_span": 25},
        "INEQ-CASE2": {"n_span": 25},
    }
    for suite_id in SUITES:
        cert = verify_identity_suite(suite_id, **overrides.get(suite_id, {}))
        assert cert.passed, (suite_id, cert.witnesses[:3])
        assert cert.verdict == "pass" and not cert.witnesses


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify_identity_suite("NO-SUCH-SUITE")
    assert "ID-G-SIZE" in list_suites()


def test_property_suites_reach_the_runner():
    cert = verify_identity_suite("PROP-14", samples=3, seed=1)
    assert cert.passed and cert.id == "PROP-14"
    assert cert.params["seed"] == 1
    assert len(list_suites()) == 20


def test_suites_name_exactly_what_they_read():
    for suite_id, suite in SUITES.items():
        kinds = {p.kind for p in inspect.signature(suite).parameters.values()}
        assert not kinds & {inspect.Parameter.VAR_KEYWORD,
                            inspect.Parameter.VAR_POSITIONAL}, suite_id
    with pytest.raises(TypeError):
        verify_identity_suite("ID-ENDGAME-94", k_max=5)


def test_certificate_json_schema():
    cert = verify_identity_suite("ID-F-REC", k_max=20)
    payload = cert.to_json_dict(True)
    assert list(payload) == ["id", "statement", "params", "verdict",
                             "witnesses", "wall_time_ms"]
    json.dumps(payload)  # serialisable
    stable = cert.to_json_dict(include_timing=False)
    assert stable["wall_time_ms"] == 0


def test_certificate_fails_with_witnesses():
    """A deliberately broken range: the K3(4)-case comparison is an equality
    at k=3, so running that suite at k=3 must fail with witnesses."""
    cert = verify_identity_suite("INEQ-PROP23", k_min=3, k_max=3, n_span=5)
    assert not cert.passed
    assert cert.witnesses
    assert cert.witnesses[0]["lhs"] == cert.witnesses[0]["g"] == 10


def test_f_rec_value():
    cert = verify_identity_suite("ID-F-REC", k_max=10)
    assert cert.details["f5"] == 3


def test_ft92_oracle_values():
    value, cert = ft92_oracle(6, 2, 3)
    assert value == 17 == binom(6, 3) - binom(4, 3) + 1
    assert cert.passed and not cert.params["exception_case"]
    value, cert = ft92_oracle(5, 2, 3)
    assert value == binom(5, 3) - binom(3, 3) + 1
    assert cert.passed and cert.params["exception_case"]
    assert cert.params["nontrivial_max"] == value  # bound met at |A|,|B| > 1
    value, cert = ft92_oracle(4, 2, 2)
    assert value == 6 and cert.passed and cert.params["exception_case"]


def test_ft92_oracle_strictness_tracked():
    _, cert = ft92_oracle(6, 2, 3)
    assert cert.params["nontrivial_max"] < cert.params["bound"]


def test_ft92_preconditions():
    with pytest.raises(ValueError):
        ft92_oracle(4, 2, 3)
    with pytest.raises(ValueError):
        ft92_oracle(6, 3, 2)


def test_ft92_bmax_domination():
    """For sampled cross-intersecting pairs, B is inside B_max(A)."""
    import random
    from ekrforge.families import ksets_colex

    rng = random.Random(4)
    items_a = list(ksets_colex(6, 2))
    items_b = list(ksets_colex(6, 3))
    for _ in range(50):
        fam_a = [m for m in items_a if rng.random() < 0.3]
        if not fam_a:
            continue
        bmax = [b for b in items_b if all(b & a for a in fam_a)]
        fam_b = [b for b in bmax if rng.random() < 0.7]
        assert set(fam_b) <= set(bmax)
        assert len(fam_a) + len(fam_b) <= len(fam_a) + len(bmax)


def test_hilton_corollary_oracle():
    cert = hilton_corollary_oracle(6, 3, 2)
    assert cert.passed
    assert cert.params["max"] == 15 == binom(5, 2) + binom(5, 1)
    with pytest.raises(ValueError):
        hilton_corollary_oracle(5, 3, 2)
    with pytest.raises(ValueError):
        hilton_corollary_oracle(6, 2, 3)


# every (m,a,b) with m > a+b and a > b whose a-side, C([m],a), an a-side
# sweep can enumerate (a >= 6 would need m >= a+2 and C(a+2,2) >= 28 a-sets)
HILTON_POINTS = [(m, a, b) for a in range(2, 6) for b in range(1, a)
                 for m in range(a + b + 1, 12) if binom(m, a) <= oracles.ENUM_BIT_LIMIT]


def test_hilton_points():
    assert HILTON_POINTS == [(4, 2, 1), (5, 2, 1), (6, 2, 1), (7, 2, 1), (5, 3, 1),
                             (6, 3, 1), (6, 3, 2), (6, 4, 1), (7, 5, 1)]


@pytest.mark.parametrize("m,a,b", HILTON_POINTS)
def test_hilton_corollary_matches_a_side_sweep(m, a, b):
    """Sweeping the b-side with A = A_max(B) gives the a-side sweep's
    maximum, verdict and witnesses."""
    cert, ref = hilton_corollary_oracle(m, a, b), reference_hilton_corollary(m, a, b)
    assert (cert.params, cert.verdict, cert.witnesses) == (ref.params, ref.verdict, ref.witnesses)


def test_hilton_corollary_past_the_a_side_cap():
    """C(7,3) = C(7,4) = 35 a-sets are past the cap, but the b-side has
    C(7,2) = 21 sets; the cap now applies to the swept b-side."""
    for (m, a, b), value in {(7, 3, 2): 21, (7, 4, 2): 26}.items():
        cert = hilton_corollary_oracle(m, a, b)
        assert cert.passed and cert.params["max"] == value == cert.params["bound"]
        with pytest.raises(ValueError, match="desk-scale cap"):
            reference_hilton_corollary(m, a, b)
    with pytest.raises(ValueError, match=r"2\^28 subsets of C\(8,2\)"):
        hilton_corollary_oracle(8, 3, 2)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_hilton_lex_matches_unmemoized_suite(seed):
    assert suite_hilton_lex(seed=seed) == reference_suite_hilton_lex(seed=seed)


def test_hilton_lex_one_witness_per_sample(monkeypatch):
    """With every cross-check failing, each sample still records its own
    witness, while each (n, a, b, |A|, |B|) is checked once."""
    calls = []

    def never(la, lb):
        calls.append((la.n, la.k, lb.k, len(la), len(lb)))
        return False

    monkeypatch.setattr(properties, "are_cross_intersecting", never)
    monkeypatch.setattr(conftest, "are_cross_intersecting", lambda la, lb: False)
    cert = suite_hilton_lex(samples=500, seed=3)
    assert cert.witnesses == reference_suite_hilton_lex(samples=500, seed=3).witnesses
    cases = [w["case"] for w in cert.witnesses]
    assert cases.count("exhaustive-522") == 2 ** 10 - 1
    assert len(calls) == len(set(calls)) == len(
        {(w["case"], w["A_count"], w["B_count"]) for w in cert.witnesses})


def test_hilton_corollary_star_pair():
    from ekrforge.constructions import full_star
    from ekrforge.families import are_cross_intersecting
    a = full_star(6, 3)
    b = full_star(6, 2)
    assert are_cross_intersecting(a, b)
    assert len(a) + len(b) == 15
    assert len(b) >= binom(5, 1)


def test_trace_bounds_on_g94():
    cert = trace_bound_check(build_G(9, 4), [1, 2, 3, 4, 5])
    assert cert.passed
    # window hypothesis fails for G(9,4) on [5], so only the α-inequality runs
    assert not cert.params["window_hypothesis"]
    assert cert.details["evaluated"].get("sperner-alpha", 0) > 0
    skipped = {s["statement"] for s in cert.details["skipped"]}
    assert "single-pair" in skipped


def test_trace_bounds_window6_on_g94():
    cert = trace_bound_check(build_G(9, 4), [1, 2, 3, 4, 5, 6])
    assert cert.passed
    assert cert.params["window_hypothesis"]
    assert cert.details["evaluated"].get("single-pair", 0) > 0


def test_trace_bounds_equality_family():
    """Handcrafted family attaining the 3(n-6) bound with the characterised
    trace profile (f_P, f_P') = (0, 2n-13)."""
    fam = prop34_equality_family()
    assert is_intersecting(fam)
    assert tau(fam) == 3
    cert = trace_bound_check(fam, [1, 2, 3, 4, 5])
    assert cert.passed, cert.witnesses[:4]
    assert cert.params["window_hypothesis"]
    assert cert.details["evaluated"].get("four-trace-k4-equality", 0) >= 1
    from ekrforge.families import trace
    stats = trace(fam, [1, 2, 3, 4, 5])
    assert stats.f([3, 4]) == 0
    assert stats.f([1, 2]) == 2 * 9 - 13
    assert stats.f([1, 2, 5]) == 9 - 5


def test_trace_bounds_preconditions():
    star = UniformFamily.from_sets(7, 3, [(1, 2, 3), (1, 4, 5)])
    with pytest.raises(ValueError, match=r"covering number >= 3, got 1$"):
        trace_bound_check(star, [1, 2, 3, 4, 5])
    with pytest.raises(ValueError, match=r"covering number >= 3, got 2$"):
        trace_bound_check(build_HM(9, 4), [1, 2, 3, 4, 5])
    with pytest.raises(ValueError, match="tau of an empty family is undefined"):
        trace_bound_check(UniformFamily(9, 4), [1, 2, 3, 4, 5])
    disjoint = UniformFamily.from_sets(7, 3, [(1, 2, 3), (4, 5, 6)])
    with pytest.raises(ValueError):
        trace_bound_check(disjoint, [1, 2, 3, 4, 5])
    # {∅} is intersecting and no set covers it, so both gates pass it
    with pytest.raises(ValueError, match="^tau of a family holding the empty set "
                                         "is undefined: no set meets it$"):
        trace_bound_check(UniformFamily(3, 0, (0,)), [1])
    # every statement reads a 2-subset of U or two disjoint nonempty subsets,
    # so a window of fewer than two points would pass with nothing evaluated
    for window in ([], [9], 1 << 8):
        with pytest.raises(ValueError, match="needs a window of at least 2 points"):
            trace_bound_check(build_G(9, 4), window)


def test_trace_bounds_skip_the_single_pair_bound_below_its_threshold():
    """The Fano plane on the window [7]: the single-pair bound's
    C(n-k-|U|+2, k-2) has a negative top below n = k+|U|-2 = 8, so the
    bound is skipped with that threshold, and the certificate passes."""
    cert = trace_bound_check(fano_plane(), list(range(1, 8)))
    assert cert.passed
    assert cert.params["window_hypothesis"]
    assert cert.details["skipped"] == [
        {"statement": "single-pair", "reason": "needs n >= k+|U|-2 = 8"},
        {"statement": "disjoint-pair", "reason": "needs n >= 2k+|U|-4 = 9"}]
    assert list(cert.details["evaluated"]) == ["sperner-alpha"]


def test_trace_bounds_random_small():
    from ekrforge.properties import suite_trace_bounds_random
    cert = suite_trace_bounds_random(samples=80, seed=9, min_applicable=10)
    assert cert.passed, cert.witnesses[:3]
    assert cert.details["window_applicable"] >= 10


def _trace_bound_cases():
    """Seeded τ ≥ 3 samples at (9,4) and (11,5), each with the windows [s]
    and a random s-set for s = 3..6; then, with the windows [s], the 3(n-6)
    equality family and the 4-sets of [8] meeting [5] in 3 points or more
    (τ = 3, and n = 2k fails the n-thresholds of the k = 4 bound and of
    the C(n-5,k-2)+C(n-5,k-3) variant); then the Fano plane with the
    windows [s] for s = 3..7, where [7] fails the single-pair threshold."""
    rng = random.Random(3)
    cases = []
    for n, k in ((9, 4), (11, 5)):
        for fam in sample_saturated_tau3(n, k, 6, seed=n + k):
            for size in range(3, 7):
                cases.append((fam, list(range(1, size + 1))))
                cases.append((fam, sorted(rng.sample(range(1, n + 1), size))))
    heavy = UniformFamily.from_masks(
        8, 4, [m for m in ksets_colex(8, 4) if (m & 0b11111).bit_count() >= 3])
    for fam in (prop34_equality_family(), heavy):
        cases += [(fam, list(range(1, size + 1))) for size in range(3, 7)]
    cases += [(fano_plane(), list(range(1, size + 1))) for size in range(3, 8)]
    return cases


def _star_cases():
    """Subfamilies of the star at 1 on ([9],4) whose members meet [5] twice.
    Their τ is 1: with the τ ≥ 3 gate patched open they break the k = 4 four-trace bound
    and its equality characterisation, which no τ ≥ 3 family does; at this
    seed some break both, an equality witness coming before a bound one."""
    window = 0b11111
    pool = [m for m in ksets_colex(9, 4) if m & 1 and (m & window).bit_count() >= 2]
    rng = random.Random(2)
    return [(UniformFamily.from_masks(9, 4, rng.sample(pool, rng.randint(3, 40))), window)
            for _ in range(80)]


# for each patch: the statements that must fail somewhere among its cases
FORCED_FAILURES = {
    "none": set(),
    "bounds": {"single-pair", "disjoint-pair", "four-trace", "four-trace-sperner"},
    "alpha": {"sperner-alpha"},
    "tau": {"four-trace-k4", "four-trace-k4-equality"},
}


@pytest.mark.parametrize("patch", sorted(FORCED_FAILURES))
def test_trace_bound_check_matches_reference(patch, monkeypatch):
    """Whole certificates, in order, against the statement-by-statement
    reference.  Real families never fail these theorems, so the patched
    runs make every witness branch fire: bounds of 0 (``binom`` in
    ``oracles``), α(S) = f_S (``binom`` in ``families``), and τ read as at
    least 3 (no cover of 2 points, ``has_cover`` in ``oracles``)."""
    cases = _star_cases() if patch == "tau" else _trace_bound_cases()
    if patch == "bounds":
        monkeypatch.setattr(oracles, "binom", lambda a, b: 0)
    elif patch == "alpha":
        monkeypatch.setattr(families, "binom", lambda a, b: 1)
    elif patch == "tau":
        monkeypatch.setattr(oracles, "has_cover", lambda fam, ell: False)
    failed, skipped = set(), set()
    for fam, window in cases:
        cert = trace_bound_check(fam, window)
        expected = reference_trace_bound_check(fam, window)
        assert cert == expected
        assert json.dumps(asdict(cert)) == json.dumps(asdict(expected))
        failed |= {w["statement"] for w in cert.witnesses}
        skipped |= {s["statement"] for s in cert.details["skipped"]}
    assert FORCED_FAILURES[patch] <= failed
    if patch == "none":
        assert not failed
        assert skipped == {"single-pair", "disjoint-pair", "four-trace",
                           "four-trace-k4", "four-trace-sperner"}


def _sperner_family(f_a: int, f_b: int, b: tuple[int, ...]) -> UniformFamily:
    """A 4-uniform family on [9] whose trace on the window [5] is f_a members
    through {1,2} and f_b members through ``b``, each completed by points
    of [6..9]; every other window subset has f = 0."""
    def through(s, count):
        return [(*s, *tail) for tail in combinations(range(6, 10), 4 - len(s))][:count]
    return UniformFamily.from_sets(9, 4, through((1, 2), f_a) + through(b, f_b))


# (f_{1,2}, f_B, B, the sperner-alpha sums that fail): with window [5] at
# (9,4), α({1,2}) = f/6, α({3,4}) = f/6 and α({3,4,5}) = f/4
SPERNER_BOUNDARY = [
    (3, 3, (3, 4), []),
    (4, 3, (3, 4), ["7/6"]),
    (3, 2, (3, 4, 5), []),
    (3, 3, (3, 4, 5), ["5/4"]),
]


@pytest.mark.parametrize("f_a,f_b,b,sums", SPERNER_BOUNDARY)
def test_sperner_check_at_the_boundary(f_a, f_b, b, sums, monkeypatch):
    """α(A) + α(B) = 1 exactly gives no witness, one step above gives one,
    with the sum printed as the Fraction route prints it: whole
    certificates against the reference, and the integer test itself
    against α from ``TraceStats.alpha_of``.  The families are not
    intersecting, so the gates of both checkers are patched open."""
    monkeypatch.setattr(oracles, "is_intersecting", lambda fam: True)
    monkeypatch.setattr(oracles, "has_cover", lambda fam, ell: False)
    fam = _sperner_family(f_a, f_b, b)
    window = [1, 2, 3, 4, 5]
    cert = trace_bound_check(fam, window)
    assert cert == reference_trace_bound_check(fam, window)
    found = [w for w in cert.witnesses if w["statement"] == "sperner-alpha"]
    assert [w["sum"] for w in found] == sums
    assert [(w["A"], w["B"]) for w in found] == [((1, 2), b)] * len(sums)

    stats = trace(fam, window)
    checked, violations = oracles._sperner_violations(stats)
    assert checked == cert.details["evaluated"]["sperner-alpha"]
    assert [(a, b_, str(total)) for a, b_, total in violations] == [
        (mask_of((1, 2), 9), mask_of(b, 9),
         str(stats.alpha_of((1, 2)) + stats.alpha_of(b)))] * len(sums)
