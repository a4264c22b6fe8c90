"""Acceptance criteria, one test per criterion, one printed pass/fail line each.

Budgets are asserted as hard limits.  The stretch criterion is optional
and gated behind EKRFORGE_STRETCH=1.
"""

import os
import time

import pytest

from ekrforge.binomial import binom
from ekrforge.properties import verify_identity_suite
from ekrforge.classify import (claim5_excluded_pairs, claim5_maxT,
                               claim6_partition, disjointness_graph, p_of_r,
                               p_of_s)
from ekrforge.constructions import build_G, g_size_formula
from ekrforge.covers import tau
from ekrforge.families import elements_of
from ekrforge.oracles import ft92_oracle, hilton_corollary_oracle
from ekrforge.properties import (suite_hilton_lex, suite_prop14,
                                 suite_trace_bounds_random)
from ekrforge.search import (canonical_form, enumerate_optima, max_intersecting,
                             max_intersecting_degcap)

GRID = [(n, k) for k in range(3, 9) for n in range(2 * k, 2 * k + 13)]


def _report(criterion: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {verdict} in {elapsed:.2f}s "
          f"(budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded budget: {elapsed:.2f}s"


def test_criterion_01_construction_identity():
    t0 = time.perf_counter()
    ok = all(len(build_G(n, k)) == g_size_formula(n, k) for n, k in GRID)
    _report("1 construction-identity", ok, time.perf_counter() - t0, 10,
            f"{len(GRID)} grid points")


def test_criterion_02_covering_number():
    t0 = time.perf_counter()
    ok = all(tau(build_G(n, k)) == 3 for n, k in GRID)
    _report("2 covering-number", ok, time.perf_counter() - t0, 60,
            f"{len(GRID)} grid points")


def test_criterion_03_polynomial_forms():
    t0 = time.perf_counter()
    cert = verify_identity_suite("ID-G-POLY", n_max=200)
    _report("3 polynomial-forms", cert.passed, time.perf_counter() - t0, 1)


def test_criterion_04_gap_fill():
    t0 = time.perf_counter()
    cert = verify_identity_suite("ID-F-REC", k_max=200)
    ok = cert.passed and cert.details["f5"] == 3
    _report("4 gap-fill", ok, time.perf_counter() - t0, 1)


def test_criterion_05_search_oracle():
    t0 = time.perf_counter()
    expected = {
        (7, 3, 1): binom(6, 2),
        (8, 3, 1): binom(7, 2),
        (7, 3, 2): binom(6, 2) - binom(3, 2) + 1,
        (8, 3, 2): binom(7, 2) - binom(4, 2) + 1,
        (7, 3, 3): 10,
        (8, 3, 3): 10,
        (9, 3, 3): 10,
    }
    failures = []
    for (n, k, r), want in expected.items():
        res = max_intersecting(n, k, r, budget=600)
        if res.status != "proved-optimal" or res.value != want:
            failures.append(((n, k, r), res.value, res.status))
    _report("5 search-oracle", not failures, time.perf_counter() - t0, 7 * 600,
            str(failures) if failures else f"{len(expected)} points")


def test_criterion_06_cross_intersecting_oracles():
    t0 = time.perf_counter()
    value, cert = ft92_oracle(6, 2, 3)
    ok = value == 17 == binom(6, 3) - binom(4, 3) + 1 and cert.passed
    hcert = hilton_corollary_oracle(6, 3, 2)
    ok = ok and hcert.passed and hcert.params["max"] == 15
    lex_cert = suite_hilton_lex(samples=10000, seed=0)
    ok = ok and lex_cert.passed
    _report("6 cross-intersecting-oracles", ok, time.perf_counter() - t0, 120,
            f"ft92={value} hilton={hcert.params['max']}")


def test_criterion_07_structure_suite():
    t0 = time.perf_counter()
    pr = {elements_of(v) for v in p_of_r()}
    ps = {elements_of(v) for v in p_of_s()}
    ok = pr == {(1, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)}
    ok = ok and ps == {(1, 2), (3, 4), (2, 4), (1, 6), (1, 4), (2, 5)}
    graph = disjointness_graph(p_of_r(), n=6)
    reduced = graph.without((1, 5))
    ok = ok and reduced.n_vertices() == 6 and reduced.degrees() == [2] * 6
    adj = {i: set() for i in range(6)}
    for i, j in reduced.edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, stack = {0}, [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    ok = ok and len(seen) == 6  # connected 2-regular on 6 vertices: C6
    for independent in ([], [(1, 5)]):
        edges, leftover = claim6_partition(graph, independent)
        touched = [leftover] + [v for e in edges for v in e]
        ok = ok and sorted(touched) == sorted(elements_of(v) for v in p_of_r())
        ok = ok and all(not set(a) & set(b) for a, b in edges)
        ok = ok and tuple(leftover) not in {tuple(i) for i in independent}
    max_t = claim5_maxT()
    ok = ok and max_t <= 4
    entries = claim5_excluded_pairs()
    ok = ok and len(entries) == 6 and all(
        r == "creates-R-copy" for e in entries for r in e["reasons"])
    _report("7 structure-suite", ok, time.perf_counter() - t0, 10,
            f"claim5 max={max_t}")


def test_criterion_08_trace_bound_properties():
    t0 = time.perf_counter()
    cert = suite_trace_bounds_random(samples=1000, seed=0, min_applicable=100)
    detail = (f"applicable={cert.details['window_applicable']} "
              f"evaluated={sum(cert.details['evaluated'].values())}")
    _report("8 trace-bounds", cert.passed, time.perf_counter() - t0, 300, detail)


def test_criterion_09_prop14_property():
    t0 = time.perf_counter()
    cert = suite_prop14(samples=210, seed=0)
    _report("9 prop14-cover-intersecting", cert.passed and
            cert.params["samples"] >= 200, time.perf_counter() - t0, 120,
            f"samples={cert.params['samples']}")


def test_criterion_10_inequality_chains():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for suite in ("INEQ-PROP23", "INEQ-KEY-STEPS", "INEQ-CASE1", "INEQ-CASE2",
                  "ID-ENDGAME-94"):
        cert = verify_identity_suite(suite)
        ok = ok and cert.passed
        if not cert.passed:
            detail.append((suite, cert.witnesses[:2]))
    _report("10 inequality-chains", ok, time.perf_counter() - t0, 5, str(detail))


def test_criterion_11_degree_cap():
    t0 = time.perf_counter()
    ok = True
    values = {}
    for ell in (2, 3):
        res = max_intersecting_degcap(7, 3, ell, budget=600)
        bound = (binom(6, 2) - binom(7 - ell - 1, 2)
                 + binom(7 - ell - 1, 3 - ell))
        values[ell] = res.value
        ok = ok and res.status == "proved-optimal" and res.value <= bound == 13
    _report("11 degree-cap", ok, time.perf_counter() - t0, 2 * 600, str(values))


@pytest.mark.stretch
@pytest.mark.skipif(os.environ.get("EKRFORGE_STRETCH") != "1",
                    reason="hours-scale stretch goal; set EKRFORGE_STRETCH=1")
def test_criterion_12_stretch():
    budget = float(os.environ.get("EKRFORGE_STRETCH_BUDGET", "7200"))
    t0 = time.perf_counter()
    # one collecting run of the structural split proves the value and
    # finds the classes of optima
    forms, res = enumerate_optima(9, 4, 3, budget=budget)
    ok = res.value == 48 and res.status == "proved-optimal"
    detail = (f"value={res.value} status={res.status} nodes={res.nodes} "
              f"optima-classes={len(forms)}")
    ok = ok and len(forms) == 1 and forms[0] == canonical_form(build_G(9, 4))
    _report("12 stretch", ok, time.perf_counter() - t0, 2 * budget + 3600, detail)
