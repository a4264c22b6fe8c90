"""Exact-arithmetic certificates for the closed-form identity and inequality chains.

Each named suite sweeps a finite parameter grid and checks its statements
in exact integer (or rational) arithmetic, recording every failing
parameter point as a witness.  A certificate passes iff its witness list
is empty.  Strict claims are tested strictly.

Sweep ranges default to the desk-scale grids (k up to 12, n up to 2k+60,
k-specific thresholds for the endgame chains).  Each suite's parameters
are exactly the ranges it reads.  The K3(4)-case comparison is swept for
k ≥ 4: at k = 3 both sides equal 10, so the strict form starts at k = 4.

``make_certificate`` is the one constructor of a ``Certificate``.  The
suites do not time themselves: the one registry of all suites and its
runner, which records each suite's wall time, are in ``properties``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .binomial import binom
from .constructions import build_G, build_HM, full_star, g_size_formula
from .families import MAX_GROUND


@dataclass(frozen=True)
class Certificate:
    """Machine-readable verdict for one named statement over a parameter range."""

    id: str
    statement: str
    params: dict
    verdict: str                      # "pass" | "fail"
    witnesses: list = field(default_factory=list)
    wall_time_ms: int = 0
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self, include_timing: bool = True) -> dict:
        return {
            "id": self.id,
            "statement": self.statement,
            "params": self.params,
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
            "wall_time_ms": self.wall_time_ms if include_timing else 0,
        }


def make_certificate(cert_id: str, statement: str, params: dict,
                     witnesses: list, details: Optional[dict] = None) -> Certificate:
    """The certificate for a witness list: it passes iff the list is empty.
    Its wall time is 0 until a caller that measured one sets it."""
    return Certificate(
        id=cert_id,
        statement=statement,
        params=params,
        verdict="pass" if not witnesses else "fail",
        witnesses=witnesses,
        details=details or {},
    )


# ── suite helpers ────────────────────────────────────────────────────────────

def _grid(k_min: int, k_max: int, offset: int, n_span: int) -> Iterator[tuple[int, int]]:
    """The points 2k + offset <= n <= 2k + n_span for k_min <= k <= k_max."""
    for k in range(k_min, k_max + 1):
        for n in range(2 * k + offset, 2 * k + n_span + 1):
            yield k, n


def _sweeps(windows: Callable[..., list]) -> Callable:
    """Attach to a suite, as ``suite.windows``, the function of its settings
    that gives the n-windows (iterables of points) it loops over;
    ``properties.range_refusal`` refuses settings that leave one empty."""
    def attach(suite):
        suite.windows = windows
        return suite
    return attach


def _poly_g(n: int, k: int) -> Fraction:
    """The k-specific polynomial forms of |G(n,k)| from the endgame chains."""
    if k == 4:
        return Fraction(13 * n - 69)
    if k == 5:
        return Fraction(21 * n * n - 295 * n + 1102, 2)
    if k == 6:
        return Fraction(31 * n**3 - 792 * n**2 + 7157 * n - 22632, 6)
    raise ValueError(f"no polynomial form for k={k}")


def _f_gap(k: int) -> int:
    return binom(2 * k - 3, k - 1) - binom(2 * k - 3, k - 3) - 3 * k + 4


# ── the named suites ─────────────────────────────────────────────────────────

# the most members of one G(n,k) that ID-G-SIZE builds; G(28,8), the
# largest family of its default range, has 769,485
G_SIZE_MEMBER_LIMIT = 1 << 20


def id_g_size_refusal(k_min: int, k_max: int, n_span: int) -> Optional[str]:
    """Why ID-G-SIZE refuses to build G(n,k) for k_min <= k <= k_max and
    2k <= n <= 2k + n_span, or None.  Decided from the closed form alone,
    before anything is built: |G(n,k)| grows with n, so the largest
    family of each k is at n = 2k + n_span."""
    if 2 * k_max + n_span > MAX_GROUND:
        return (f"ID-G-SIZE: n = 2k + n_span reaches {2 * k_max + n_span} at k = {k_max}, "
                f"past the {MAX_GROUND}-point ground set")
    for k in range(max(k_min, 3), k_max + 1):
        size = g_size_formula(2 * k + n_span, k)
        if size > G_SIZE_MEMBER_LIMIT:
            return (f"ID-G-SIZE: G({2 * k + n_span},{k}) has {size} members, "
                    f"past the limit of {G_SIZE_MEMBER_LIMIT} per family")
    return None


@_sweeps(lambda k_min, k_max, n_span: [_grid(k_min, k_max, 0, n_span)])
def suite_id_g_size(k_min=3, k_max=8, n_span=12) -> Certificate:
    refusal = id_g_size_refusal(k_min, k_max, n_span)
    if refusal:
        raise ValueError(refusal)
    witnesses = []
    for k, n in suite_id_g_size.windows(k_min, k_max, n_span)[0]:
        built = len(build_G(n, k))
        formula = g_size_formula(n, k)
        if built != formula:
            witnesses.append({"n": n, "k": k, "built": built, "formula": formula})
    return make_certificate(
        "ID-G-SIZE", "|G(n,k)| equals its closed-form size",
        {"k_min": k_min, "k_max": k_max, "n_span": n_span}, witnesses)


def suite_id_g_poly(n_max=200) -> Certificate:
    witnesses = []
    ranges = {4: range(9, n_max + 1), 5: range(11, n_max + 1), 6: range(13, n_max + 1)}
    for k, ns in ranges.items():
        for n in ns:
            poly = _poly_g(n, k)
            if poly.denominator != 1 or poly != g_size_formula(n, k):
                witnesses.append({"n": n, "k": k, "poly": str(poly),
                                  "formula": g_size_formula(n, k)})
    return make_certificate(
        "ID-G-POLY", "closed-form |G(n,k)| equals the k=4,5,6 polynomial forms",
        {"n_max": n_max}, witnesses)


def suite_id_g_2k(k_min=3, k_max=200) -> Certificate:
    witnesses = []
    for k in range(k_min, k_max + 1):
        if g_size_formula(2 * k, k) != binom(2 * k - 1, k - 1):
            witnesses.append({"k": k})
    return make_certificate(
        "ID-G-2K", "at n=2k the closed form collapses to C(2k-1,k-1)",
        {"k_min": k_min, "k_max": k_max}, witnesses)


@_sweeps(lambda k_min, k_max, n_span: [_grid(k_min, k_max, 0, n_span)])
def suite_id_ekr(k_min=3, k_max=12, n_span=60) -> Certificate:
    witnesses = []
    for k, n in suite_id_ekr.windows(k_min, k_max, n_span)[0]:
        m1 = binom(n - 1, k - 1)
        m2 = binom(n - 1, k - 1) - binom(n - k - 1, k - 1) + 1
        m3 = g_size_formula(n, k)
        if not m3 <= m2 <= m1:
            witnesses.append({"n": n, "k": k, "m1": m1, "m2": m2, "m3": m3})
    for k in range(3, 6):
        for n in range(2 * k, 2 * k + 4):
            if len(full_star(n, k)) != binom(n - 1, k - 1):
                witnesses.append({"n": n, "k": k, "star": len(full_star(n, k))})
    return make_certificate(
        "ID-EKR", "star count matches C(n-1,k-1); formula chain m3 <= m2 <= m1",
        {"k_min": k_min, "k_max": k_max, "n_span": n_span}, witnesses)


@_sweeps(lambda k_min, k_max, n_span: [_grid(k_min, k_max, 1, n_span)])
def suite_id_hm(k_min=3, k_max=12, n_span=60) -> Certificate:
    witnesses = []
    for k, n in suite_id_hm.windows(k_min, k_max, n_span)[0]:
        m2 = binom(n - 1, k - 1) - binom(n - k - 1, k - 1) + 1
        if not m2 < binom(n - 1, k - 1):
            witnesses.append({"n": n, "k": k, "m2": m2})
    for k in range(3, 6):
        for n in range(2 * k + 1, 2 * k + 4):
            expected = binom(n - 1, k - 1) - binom(n - k - 1, k - 1) + 1
            if len(build_HM(n, k)) != expected:
                witnesses.append({"n": n, "k": k, "built": len(build_HM(n, k)),
                                  "formula": expected})
    return make_certificate(
        "ID-HM", "Hilton-Milner family count matches its formula and sits below EKR",
        {"k_min": k_min, "k_max": k_max, "n_span": n_span}, witnesses)


def suite_id_f_rec(k_max=200) -> Certificate:
    witnesses = []
    if _f_gap(5) != 3:
        witnesses.append({"k": 5, "f": _f_gap(5), "expected": 3})
    for k in range(5, k_max):
        lhs = _f_gap(k + 1) - _f_gap(k)
        rhs = binom(2 * k - 3, k - 1) - binom(2 * k - 3, k - 4) - 3
        if lhs != rhs:
            witnesses.append({"k": k, "difference": lhs, "recurrence": rhs})
        # the proof's closed form of the same difference, exact rational
        ratio_form = Fraction(6 * (k - 1), k * (k + 1)) * binom(2 * k - 3, k - 1) - 3
        if ratio_form != rhs or not ratio_form > 0:
            witnesses.append({"k": k, "ratio_form": str(ratio_form), "recurrence": rhs})
    for k in range(5, k_max + 1):
        if _f_gap(k) < 0:
            witnesses.append({"k": k, "f": _f_gap(k)})
    return make_certificate(
        "ID-F-REC", "f(5)=3, the f(k) recurrence holds, and f(k) >= 0",
        {"k_max": k_max}, witnesses, details={"f5": _f_gap(5)})


@_sweeps(lambda k_min, k_max, n_span: [_grid(k_min, k_max, 1, n_span)])
def suite_ineq_prop23(k_min=4, k_max=12, n_span=60) -> Certificate:
    witnesses = []
    for k, n in suite_ineq_prop23.windows(k_min, k_max, n_span)[0]:
        lhs = (3 * (binom(n - 4, k - 2) - binom(n - k - 2, k - 2) + 1)
               + 4 * binom(n - 4, k - 3) + binom(n - 4, k - 4))
        if not lhs < g_size_formula(n, k):
            witnesses.append({"n": n, "k": k, "lhs": lhs, "g": g_size_formula(n, k)})
    return make_certificate(
        "INEQ-PROP23", "K3(4)-case bound is strictly below |G(n,k)| for k >= 4",
        {"k_min": k_min, "k_max": k_max, "n_span": n_span}, witnesses)


@_sweeps(lambda k_min, k_max, n_span: [_grid(k_min, k_max, u - 4, n_span)
                                       for u in (5, 6)])
def suite_ineq_key_steps(k_min=4, k_max=12, n_span=60) -> Certificate:
    witnesses = []
    for u, grid in zip((5, 6), suite_ineq_key_steps.windows(k_min, k_max, n_span)):
        for k, n in grid:
            a_lhs = binom(n - u, k - 2) - binom(n - k - u + 2, k - 2)
            a_rhs = binom(n - u - 1, k - 3) + binom(n - u - 2, k - 3)
            if not a_lhs >= a_rhs:
                witnesses.append({"n": n, "k": k, "u": u, "step": "telescoping",
                                  "lhs": a_lhs, "rhs": a_rhs})
            b_lhs = binom(n - u - 1, k - u + 2)
            b_rhs = binom(n - u - 2, k - 4)
            if not b_lhs >= b_rhs:
                witnesses.append({"n": n, "k": k, "u": u, "step": "final",
                                  "lhs": b_lhs, "rhs": b_rhs})
            # Pascal equivalence between the "suffices" form and the final form
            suff = (binom(n - u, k - u + 2) + binom(n - u - 2, k - 3)
                    - binom(n - u - 1, k - 3) - binom(n - u - 1, k - u + 1))
            if suff != b_lhs - b_rhs:
                witnesses.append({"n": n, "k": k, "u": u, "step": "equivalence",
                                  "suffices": suff, "final": b_lhs - b_rhs})
    return make_certificate(
        "INEQ-KEY-STEPS", "binomial steps of the four-trace bound, |U| in {5,6}",
        {"k_min": k_min, "k_max": k_max, "n_span": n_span}, witnesses)


def suite_ineq_gapfill(k_min=5, k_max=200) -> Certificate:
    witnesses = []
    for k in range(k_min, k_max + 1):
        n = 2 * k + 1
        g = g_size_formula(n, k)
        collapsed = binom(n - 1, k - 1) - 3 * k + 4
        if g != collapsed:
            witnesses.append({"k": k, "g": g, "collapsed": collapsed})
        degree_bound = binom(n - 1, k - 1) - binom(n - 4, k - 1) + binom(n - 4, k - 3)
        if not degree_bound <= g:
            witnesses.append({"k": k, "degree_bound": degree_bound, "g": g})
        if g - degree_bound != _f_gap(k):
            witnesses.append({"k": k, "gap": g - degree_bound, "f": _f_gap(k)})
    return make_certificate(
        "INEQ-GAPFILL", "at n=2k+1 the degree-capped bound stays within |G|; slack is f(k)",
        {"k_min": k_min, "k_max": k_max}, witnesses)


def _case1_sum(n: int, k: int) -> int:
    return (3 * (binom(n - 4, k - 2) - binom(n - k - 3, k - 2))
            + 4 * binom(n - 4, k - 3) + binom(n - 5, k - 4)
            + 3 * binom(n - 6, k - 4) + binom(n - 5, k - 5))


def _case1_alt_sum(n: int, k: int) -> int:
    return (3 * binom(n - 5, k - 2) + 7 * binom(n - 5, k - 3)
            + 5 * binom(n - 5, k - 4) + binom(n - 5, k - 5))


@_sweeps(lambda n_span: [range(start, start + n_span) for start in (9, 13, 14)])
def suite_ineq_case1(n_span=60) -> Certificate:
    witnesses = []
    k4, k5, k6 = suite_ineq_case1.windows(n_span)

    def check(cond, **info):
        if not cond:
            witnesses.append(info)

    # k=4 strand: exact identities of the 13n-74 / 13n-69 chain
    for n in k4:
        check(9 * (n - 6) + (n - 5) + (binom(5, 3) - 6 - 1) * (n - 5) == 13 * n - 74,
              k=4, n=n, step="13n-74")
        check(13 * n - 74 + binom(5, 4) == 13 * n - 69 == g_size_formula(n, 4),
              k=4, n=n, step="13n-69")
        # Pascal steps inside the chain
        check(binom(n - 6, 4 - 3) + binom(n - 6, 4 - 4) == binom(n - 5, 4 - 3),
              k=4, n=n, step="pascal-new1")
    # k=5 main range
    for n in k5:
        poly = Fraction(16 * n * n - 196 * n + 636, 2)
        check(poly == _case1_sum(n, 5), k=5, n=n, step="sum=poly",
              sum=_case1_sum(n, 5), poly=str(poly))
        check(poly < _poly_g(n, 5), k=5, n=n, step="poly<G")
    # k=6 main range
    for n in k6:
        poly = Fraction(19 * n**3 - 408 * n**2 + 3107 * n - 8322, 6)
        check(poly == _case1_sum(n, 6), k=6, n=n, step="sum=poly",
              sum=_case1_sum(n, 6), poly=str(poly))
        check(poly < _poly_g(n, 6), k=6, n=n, step="poly<G")
    # small-range alternates via the Sperner route
    for n in (11, 12):
        poly = Fraction(n**3 - 11 * n * n + 40 * n - 48, 2)
        check(poly == _case1_alt_sum(n, 5), k=5, n=n, step="alt-sum=poly")
        check(poly < _poly_g(n, 5), k=5, n=n, step="alt<G")
    n = 13
    poly = Fraction(3 * n**4 - 50 * n**3 + 309 * n**2 - 838 * n + 840, 24)
    check(poly == _case1_alt_sum(n, 6), k=6, n=n, step="alt-sum=poly",
          sum=_case1_alt_sum(n, 6), poly=str(poly))
    check(poly < _poly_g(n, 6), k=6, n=n, step="alt<G")
    # Pascal rearrangement used to fold the layer counts
    for k in range(4, 13):
        for n in range(2 * k + 1, 2 * k + 21):
            check(4 * binom(n - 5, k - 3) + 5 * binom(n - 5, k - 4)
                  == 4 * binom(n - 4, k - 3) + binom(n - 5, k - 4),
                  k=k, n=n, step="pascal-fold")
    return make_certificate(
        "INEQ-CASE1", "the R-case chains: layer identities and strict comparisons",
        {"n_span": n_span}, witnesses)


def _case2_sum(n: int, k: int) -> int:
    return (3 * (binom(n - 6, k - 2) - binom(n - k - 4, k - 2))
            + binom(n - 3, k - 3) + 3 * binom(n - 4, k - 3)
            + 6 * binom(n - 5, k - 3) - 3 * binom(n - 7, k - 4))


@_sweeps(lambda n_span: [range(start, start + n_span) for start in (10, 12, 14)])
def suite_ineq_case2(n_span=60) -> Certificate:
    witnesses = []
    k4, k5, k6 = suite_ineq_case2.windows(n_span)

    def check(cond, **info):
        if not cond:
            witnesses.append(info)

    # folding identity behind the |F| bound, swept broadly
    for k in range(4, 13):
        for n in range(2 * k + 2, 2 * k + 22):
            lhs = (10 * binom(n - 6, k - 3) + 12 * binom(n - 6, k - 4)
                   + 3 * binom(n - 7, k - 5) + 6 * binom(n - 6, k - 5)
                   + binom(n - 6, k - 6))
            rhs = (binom(n - 3, k - 3) + 3 * binom(n - 4, k - 3)
                   + 6 * binom(n - 5, k - 3) - 3 * binom(n - 7, k - 4))
            check(lhs == rhs, k=k, n=n, step="fold")
    # k=4 strand: 6n-33 and 10n-45 < 13n-69 for n >= 10
    for n in k4:
        check(3 * (binom(n - 6, 2) - binom(n - 8, 2)) + 12 * binom(n - 6, 0)
              + 3 * binom(n - 7, -1) == 6 * n - 33, k=4, n=n, step="6n-33")
        check(4 * (n - 8) + 20 == 4 * n - 12, k=4, n=n, step="4n-12")
        check(10 * n - 45 < 13 * n - 69, k=4, n=n, step="10n-45<13n-69")
    # k=5 for n >= 12
    for n in k5:
        poly = Fraction(19 * n * n - 259 * n + 948, 2)
        check(poly == _case2_sum(n, 5), k=5, n=n, step="sum=poly",
              sum=_case2_sum(n, 5), poly=str(poly))
        check(poly < _poly_g(n, 5), k=5, n=n, step="poly<G")
    # k=6 for n >= 14
    for n in k6:
        poly = Fraction(22 * n**3 - 516 * n**2 + 4328 * n - 12786, 6)
        check(poly == _case2_sum(n, 6), k=6, n=n, step="sum=poly",
              sum=_case2_sum(n, 6), poly=str(poly))
        check(poly < _poly_g(n, 6), k=6, n=n, step="poly<G")
    return make_certificate(
        "INEQ-CASE2", "the S-case chains: folding identity and strict comparisons",
        {"n_span": n_span}, witnesses)


def suite_id_endgame_94() -> Certificate:
    witnesses = []

    def check(cond, **info):
        if not cond:
            witnesses.append(info)

    n = 9
    check(3 * 5 + binom(6, 4) - 6 == 24, step="f2f4-at-5")
    check(24 + 4 * n - 12 == 48 == g_size_formula(9, 4), step="48")
    check(3 * 6 + binom(6, 4) - 6 == 27, step="f2f4-at-6")
    for t_count in range(0, 5):
        check(t_count * (n - 8) + 16 <= 4 * n - 16 == 20, step="F3-capped", T=t_count)
    check(27 + 20 == 47 < 48, step="47<48")
    check(24 + 22 == 46, step="46")
    return make_certificate(
        "ID-ENDGAME-94", "the n=9, k=4 endgame arithmetic", {}, witnesses)
