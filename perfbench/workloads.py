"""The benchmark's four workloads: their inputs, job lists and output checks.

Each workload is a closed loop with one client: the worker runs its jobs
one after another, each starting when the previous one has returned and
been checked.  A job is a callable that calls the library, checks the
output from outside the library and returns its deterministic counters.
A failed check raises ``CheckFailed``; the worker counts it and goes on.

The library is reached only through its public functions and the
in-process CLI entry point ``ekrforge.cli.run``, always as module
attributes looked up at call time, so that the traced run sees every call.
The benchmark seed only chooses relabelling permutations and the
``--seed`` of the property suites; every job list is fixed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from math import comb
from pathlib import Path

PROVED = "proved-optimal"
# Far above the slowest job, so that no search is ever timeboxed.
BUDGET_S = 3600.0


class CheckFailed(Exception):
    """An output of the library disagrees with its independent check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def binom(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def ekr(n: int, k: int) -> int:
    """m(n,k,1): the star, C(n-1,k-1)."""
    return binom(n - 1, k - 1)


def hilton_milner(n: int, k: int) -> int:
    """m(n,k,2): C(n-1,k-1) - C(n-k-1,k-1) + 1."""
    return binom(n - 1, k - 1) - binom(n - k - 1, k - 1) + 1


def g_size(n: int, k: int) -> int:
    """|G(n,k)| from its closed form."""
    return (binom(n - 1, k - 1) - binom(n - k, k - 1) - binom(n - k - 1, k - 1)
            + binom(n - 2 * k, k - 1) + binom(n - k - 2, k - 3) + 3)


def m_value(n: int, k: int, r: int) -> int:
    """m(n,k,r) at k = 3, where m(n,3,3) = 10 for n >= 7."""
    if r == 1:
        return ekr(n, k)
    if r == 2:
        return hilton_milner(n, k)
    check(k == 3, f"no closed form for m({n},{k},{r})")
    return 10


def seeded_perm(n: int, seed: int, tag: str) -> list[int]:
    rng = random.Random(f"{tag}:{seed}")
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(masks, perm) -> list[int]:
    out = []
    for m in masks:
        img = 0
        for i, j in enumerate(perm):
            if m >> i & 1:
                img |= 1 << j
        out.append(img)
    return out


def max_degree(masks, n: int) -> int:
    return max(sum(1 for m in masks if m >> i & 1) for i in range(n))


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


class Lib:
    """The library modules, resolved once and used through their attributes."""

    def __init__(self):
        # import_module, not attribute access: the package re-exports a
        # function named ``covers`` that shadows the module of that name
        for name in ("cli", "constructions", "covers", "families", "search"):
            setattr(self, name, importlib.import_module(f"ekrforge.{name}"))

    def check_witness(self, witness, value: int, r_min: int, perm) -> None:
        """Re-check a search witness after a seeded relabelling."""
        fam = self.families.UniformFamily.from_masks(
            witness.n, witness.k, relabel(witness.masks, perm))
        check(len(fam) == value, f"witness has {len(fam)} members, value is {value}")
        check(self.families.is_intersecting(fam), "witness is not intersecting")
        t = self.covers.brute_force_tau(fam)
        check(t >= r_min, f"witness covering number {t} < {r_min}")


# ── oracle ───────────────────────────────────────────────────────────────────

# m(n,3,r) chains, the seeded structural split at k = 3, and the
# degree-capped search with its known optima.
ORACLE_POINTS = [(n, 3, r) for r in (1, 2, 3) for n in range(7, 16)]
SEEDED_POINTS = [(n, 3) for n in range(7, 15)]
DEGCAP_VALUES = {(7, 3, 2): 13, (7, 3, 3): 13, (8, 3, 2): 16, (8, 3, 3): 16,
                 (9, 3, 2): 19}


def oracle_jobs(lib: Lib, seed: int, tmp: Path):
    search = lib.search
    jobs, inputs = [], {}

    def exact(n, k, r, perm):
        res = search.max_intersecting(n, k, r, budget=BUDGET_S)
        check(res.status == PROVED, f"status {res.status}")
        check(res.value == m_value(n, k, r), f"value {res.value} != {m_value(n, k, r)}")
        lib.check_witness(res.witness, res.value, r, perm)
        return {"value": res.value, "nodes": res.nodes}

    def seeded(n, k, perm):
        res = search.max_intersecting_seeded(n, k, budget=BUDGET_S)
        check(res.status == PROVED, f"status {res.status}")
        check(res.value == m_value(n, k, 3), f"value {res.value} != {m_value(n, k, 3)}")
        lib.check_witness(res.witness, res.value, 3, perm)
        return {"value": res.value, "nodes": res.nodes}

    def degcap(n, k, ell, perm):
        cap = binom(n - 1, k - 1) - binom(n - ell - 1, k - 1)
        bound = cap + binom(n - ell - 1, k - ell)
        res = search.max_intersecting_degcap(n, k, ell, budget=BUDGET_S)
        check(res.status == PROVED, f"status {res.status}")
        check(res.value == DEGCAP_VALUES[n, k, ell],
              f"value {res.value} != {DEGCAP_VALUES[n, k, ell]}")
        check(res.value <= bound, f"value {res.value} above the theorem bound {bound}")
        check(max_degree(res.witness.masks, n) <= cap, f"witness degree above {cap}")
        lib.check_witness(res.witness, res.value, 1, perm)
        return {"value": res.value, "nodes": res.nodes}

    def add(job_id, fn, n, *params):
        perm = seeded_perm(n, seed, job_id)
        inputs[job_id] = perm
        jobs.append((job_id, lambda: fn(n, *params, perm)))

    for n, k, r in ORACLE_POINTS:
        add(f"max_intersecting({n},{k},{r})", exact, n, k, r)
    for n, k in SEEDED_POINTS:
        add(f"max_intersecting_seeded({n},{k})", seeded, n, k)
    for n, k, ell in DEGCAP_VALUES:
        add(f"max_intersecting_degcap({n},{k},{ell})", degcap, n, k, ell)
    return jobs, inputs


# ── verify-all ───────────────────────────────────────────────────────────────

CERTIFICATES = 20


def verify_all_jobs(lib: Lib, seed: int, tmp: Path):
    out = tmp / "verify.jsonl"

    def verify():
        rc = lib.cli.run(["verify", "--suite", "all", "--seed", str(seed),
                          "--format", "json-lines", "--out", str(out)])
        check(rc == 0, f"exit code {rc}")
        data = out.read_bytes()
        certs = [json.loads(line) for line in data.splitlines()]
        check(len(certs) == CERTIFICATES, f"{len(certs)} certificates, expected {CERTIFICATES}")
        check(len({c["id"] for c in certs}) == CERTIFICATES, "duplicate certificate ids")
        failed = [c["id"] for c in certs if c["verdict"] != "pass"]
        check(not failed, f"failing certificates: {failed}")
        check(all(c["params"].get("seed") == seed for c in certs), "seed not recorded")
        return {"certificates": len(certs), "output_sha256": digest(data)}

    return [("verify --suite all", verify)], {"suite_seed": seed}


# ── optima-iso ───────────────────────────────────────────────────────────────

# (n, k, r) -> number of isomorphism classes of optimum families
OPTIMA_CLASSES = {(6, 3, 1): 13, (7, 3, 2): 2, (7, 3, 3): 7, (8, 3, 3): 7, (9, 3, 3): 7}
G84_RELABELLINGS = 3


def optima_iso_jobs(lib: Lib, seed: int, tmp: Path):
    search, families = lib.search, lib.families
    jobs, inputs = [], {}

    def optima(n, k, r, perm):
        forms, res = search.enumerate_optima(n, k, r, budget=BUDGET_S)
        check(res.status == PROVED, f"status {res.status}")
        check(res.value == m_value(n, k, r), f"value {res.value} != {m_value(n, k, r)}")
        check(len(forms) == OPTIMA_CLASSES[n, k, r],
              f"{len(forms)} classes, expected {OPTIMA_CLASSES[n, k, r]}")
        check(len({f.masks for f in forms}) == len(forms), "repeated canonical form")
        check(all(len(f.masks) == res.value for f in forms), "class of the wrong size")
        lib.check_witness(res.witness, res.value, r, perm)
        return {"value": res.value, "nodes": res.nodes, "classes": len(forms)}

    for n, k, r in OPTIMA_CLASSES:
        job_id = f"enumerate_optima({n},{k},{r})"
        perm = seeded_perm(n, seed, job_id)
        inputs[job_id] = perm
        jobs.append((job_id, lambda n=n, k=k, r=r, perm=perm: optima(n, k, r, perm)))

    def relabelled_g(n, k, tag):
        g = lib.constructions.build_G(n, k)
        perm = seeded_perm(n, seed, tag)
        inputs[tag] = perm
        return families.UniformFamily.from_masks(n, k, relabel(g.masks, perm))

    g84 = [relabelled_g(8, 4, f"G(8,4)#{i}") for i in range(G84_RELABELLINGS)]
    g94 = relabelled_g(9, 4, "G(9,4)#0")

    def canon_equal():
        forms = [search.canonical_form(fam) for fam in g84]
        check(len({f.masks for f in forms}) == 1,
              "relabellings of G(8,4) have different canonical forms")
        check(len(forms[0].masks) == g_size(8, 4), "canonical form of the wrong size")
        return {"members": len(forms[0].masks)}

    def canon_g94():
        form = search.canonical_form(g94)
        image = families.UniformFamily(9, 4, tuple(form.masks))
        check(len(image) == g_size(9, 4), "canonical form of the wrong size")
        check(search.are_isomorphic(image, g94), "canonical form is not a relabelling")
        return {"members": len(image)}

    jobs.append((f"canonical_form(G(8,4)) x{G84_RELABELLINGS}", canon_equal))
    jobs.append(("canonical_form(G(9,4))", canon_g94))
    return jobs, inputs


# ── cli-files ────────────────────────────────────────────────────────────────

def cli_files_jobs(lib: Lib, seed: int, tmp: Path):
    big, mid = tmp / "g_24_7.txt", tmp / "g_20_6.txt"

    def cli(*argv) -> bytes:
        out = tmp / "out.txt"
        rc = lib.cli.run([*argv, "--out", str(out)])
        check(rc == 0, f"exit code {rc}")
        return out.read_bytes()

    def header(path, n, k, members):
        head = path.read_text().split("\n", 1)[0]
        check(head == f"{n} {k} {members}", f"header {head!r}, expected {n} {k} {members}")

    def construct(path, n, k):
        rc = lib.cli.run(["construct", "g", "--n", str(n), "--k", str(k), "--out", str(path)])
        check(rc == 0, f"exit code {rc}")
        header(path, n, k, g_size(n, k))
        return {"output_sha256": digest(path.read_bytes())}

    def tau(path, n, k):
        data = json.loads(cli("tau", str(path), "--format", "json-lines"))
        check(data["tau"] == 3, f"tau {data['tau']} != 3")
        check(data["members"] == g_size(n, k), "member count")
        return {"tau": data["tau"]}

    def covers3(path, expected):
        raw = cli("covers", str(path), "--ell", "3", "--format", "json-lines")
        data = json.loads(raw)
        check(data["count"] == expected, f"{data['count']} 3-covers, expected {expected}")
        check(all(len(c) == 3 for c in data["covers"]), "cover of the wrong size")
        return {"count": data["count"], "output_sha256": digest(raw)}

    def trace(path, n, k, *extra):
        raw = cli("trace", str(path), "--window", "1,2,3,4,5", "--format", "json-lines",
                  *extra)
        data = json.loads(raw)
        check(data["total"] == g_size(n, k), f"trace total {data['total']}")
        check(sum(row["f"] for row in data["rows"]) == data["total"], "trace rows")
        if extra:
            check(data["bounds"]["verdict"] == "pass", "trace bounds failed")
        return {"output_sha256": digest(raw)}

    def classify(path):
        data = json.loads(cli("classify", str(path), "--format", "json-lines"))
        check((data["tag"], data["witness"]) == ("star", 1), f"classified as {data}")
        return data

    def saturate(path, n, k):
        raw = cli("saturate", str(path))
        head = raw.split(b"\n", 1)[0].split()
        check(head[:2] == [str(n).encode(), str(k).encode()], "saturation header")
        # G(n,k) is maximal intersecting: saturation adds nothing
        check(int(head[2]) == g_size(n, k), f"saturation has {int(head[2])} members")
        return {"output_sha256": digest(raw)}

    jobs = [
        ("construct g 24 7", lambda: construct(big, 24, 7)),
        ("tau G(24,7)", lambda: tau(big, 24, 7)),
        ("covers G(24,7) --ell 3", lambda: covers3(big, 43)),
        ("trace G(24,7)", lambda: trace(big, 24, 7)),
        ("construct g 20 6", lambda: construct(mid, 20, 6)),
        ("classify G(20,6)", lambda: classify(mid)),
        ("saturate G(20,6)", lambda: saturate(mid, 20, 6)),
        ("trace G(20,6) --check-bounds", lambda: trace(mid, 20, 6, "--check-bounds")),
        ("covers G(20,6) --ell 3", lambda: covers3(mid, 31)),
    ]
    return jobs, {}


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "oracle": oracle_jobs,
    "verify-all": verify_all_jobs,
    "optima-iso": optima_iso_jobs,
    "cli-files": cli_files_jobs,
}
