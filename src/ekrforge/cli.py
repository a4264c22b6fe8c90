"""Command-line surface: construct, analyze, verify, search.

Subcommands: construct | tau | covers | saturate | trace | classify |
verify | oracle | lex.  Exit codes: 0 on success / all certificates
passing, 1 when any certificate fails, 2 on usage or input errors and on
output that stdout's encoding cannot write, 3 when an internal check
fails (a bug in ekrforge, not in the input).

Determinism: with a fixed invocation (including verify's --seed) the
output is byte-identical across runs; wall times, in JSON and in verify's
text output alike, are emitted as 0 unless --timings (verify, oracle,
trace) is given.  Each is measured in one place: by the suite runner for
verify, around trace_bound_check for trace, and by the search for oracle.
--timings is refused where no time is printed: by trace without
--check-bounds, and by the text output of trace and oracle.  --format
json-array, the certificates as one JSON array, is offered by verify and
oracle alone: the other commands print one JSON object, which json-lines
already spells.

Input outside the domain of the library call it feeds is a usage error
with the library's message (``_on_input``); any other ``ValueError`` is
an internal error.  A warning from the library (classify's τ ≠ 3) is
printed on stderr as an ``ekrforge: warning:`` line.  A flag that the
chosen work does not read is a usage error.  verify runs the selected
suites of the one registry in ``properties`` one after another, emits
them sorted by id, and passes each suite only the range flags its
signature names; a range flag that no selected suite reads is refused,
and so are a repeated suite id, ``all`` next to another id, and, before
any suite runs, a range that a selected suite refuses
(``properties.range_refusal``: an empty one, an ID-G-SIZE range past 64
points or its member limit, a --samples below 1, or one too small for
TRACE-BOUNDS-RANDOM ever to pass).  construct takes --k, --apex and
--input only for the kinds that read them.  The text output of trace
--check-bounds prints, under its verdict, each skipped statement with its
reason and the number of cases each statement evaluated.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

from .binomial import binom
from .certify import Certificate, make_certificate
from .classify import classify_T3
from .covers import covers as cover_enum
from .covers import has_cover, saturate, tau
from .constructions import (build_F_H, build_G, build_HM, build_K34, build_R,
                            build_S, full_star, lex_family)
from .familyio import FamilyFormatError, read_family, render_family
from .families import MAX_GROUND, elements_of, is_intersecting, trace
from .oracles import trace_bound_check
from .properties import SUITES, list_suites, range_refusal, verify_identity_suite
from .search import PROVED, max_intersecting, max_intersecting_degcap

USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _parse_budget(text: str) -> float:
    number, scale = text.strip().lower(), 1.0
    if number.endswith("h"):
        scale, number = 3600.0, number[:-1]
    elif number.endswith("m"):
        scale, number = 60.0, number[:-1]
    elif number.endswith("s"):
        number = number[:-1]
    try:
        budget = float(number) * scale
        if budget >= 0:
            return budget
    except ValueError:
        pass
    raise UsageError(f"oracle --budget must be a duration such as 600s, 10m or 2h, "
                     f"got {text!r}")


def _emit(payload: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(payload, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        # one write: an encoding failure leaves nothing on stdout
        try:
            sys.stdout.write(payload)
        except UnicodeEncodeError as exc:
            raise UsageError(f"stdout's {exc.encoding} encoding cannot write this output; use "
                             f"--out FILE or set PYTHONIOENCODING=utf-8") from None


def _emit_certs(certs: list[Certificate], args) -> None:
    rows = [c.to_json_dict(args.timings) for c in certs]
    if args.format == "json-lines":
        payload = "".join(json.dumps(row) + "\n" for row in rows)
    elif args.format == "json-array":
        payload = json.dumps(rows, indent=2) + "\n"
    else:
        lines = []
        for row in rows:
            lines.append(f"{row['id']}: {row['verdict'].upper()}"
                         f"  ({row['wall_time_ms']} ms)")
            lines.append(f"  {row['statement']}")
            witnesses = row["witnesses"]
            for w in witnesses[:5]:
                lines.append(f"  witness: {w}")
            if len(witnesses) > 5:
                lines.append(f"  ... {len(witnesses) - 5} more")
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.out)


class UsageError(Exception):
    pass


def _on_input(outside, call, *args):
    """``call(*args)`` on arguments taken from the user.  A ``ValueError``
    it raises is a usage error, with the library's message, when
    ``outside()`` confirms that the arguments lie outside the call's
    domain, and an internal error otherwise.  ``outside`` runs only after
    a failure, so valid input is never checked twice."""
    try:
        return call(*args)
    except ValueError as exc:
        if outside():
            raise UsageError(str(exc)) from None
        raise


def _refuse_text_timings(command: str, args, formats: str) -> None:
    """The text output of trace and oracle prints no wall time; ``formats``
    names the JSON formats the command offers."""
    if args.timings and args.format == "text":
        raise UsageError(f"{command} --timings needs --format {formats}: "
                         "the text output prints no time")


def _load_family(path: str):
    try:
        return read_family(path)
    except FileNotFoundError:
        raise UsageError(f"family file not found: {path}") from None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except FamilyFormatError as exc:
        raise UsageError(f"{path}: {exc}") from None


# ── subcommand handlers ──────────────────────────────────────────────────────

# the flags besides --n that each construction reads
_CONSTRUCT_FLAGS = {"g": ("k",), "s": (), "r": (), "k34": (), "star": ("k", "apex"),
                    "hm": ("k",), "fh": ("k", "input")}
# the builder of each construction but fh, its default n and its domain
_BUILDERS = {
    "g": (lambda n, k, apex: build_G(n, k), None, lambda n, k, apex: 6 <= 2 * k <= n),
    "s": (lambda n, k, apex: build_S(n), 6, lambda n, k, apex: n >= 6),
    "r": (lambda n, k, apex: build_R(n), 5, lambda n, k, apex: n >= 5),
    "k34": (lambda n, k, apex: build_K34(n), 4, lambda n, k, apex: n >= 4),
    "star": (full_star, None, lambda n, k, apex: 0 <= k <= n and 1 <= apex <= n),
    "hm": (lambda n, k, apex: build_HM(n, k), None, lambda n, k, apex: 4 <= 2 * k < n),
}


def _cmd_construct(args) -> int:
    kind = args.kind
    for flag in ("k", "apex", "input"):
        if getattr(args, flag) is not None and flag not in _CONSTRUCT_FLAGS[kind]:
            raise UsageError(f"construct {kind} does not take --{flag}")
    if kind in ("g", "star", "hm"):
        missing = [f"--{flag}" for flag in ("n", "k") if getattr(args, flag) is None]
        if missing:
            raise UsageError(f"construct {kind} needs {' and '.join(missing)}")
    if kind == "fh":
        if not args.input:
            raise UsageError("construct fh needs --input with the H family")
        h = _load_family(args.input)
        n = h.n if args.n is None else args.n
        k = h.k if args.k is None else args.k
        fam = _on_input(lambda: not (1 <= n <= MAX_GROUND and h.n <= n and h.k == k
                                     and not any(m & 1 for m in h.masks)
                                     and is_intersecting(h)),
                        build_F_H, h, n, k)
    else:
        build, default_n, domain = _BUILDERS[kind]
        n = default_n if args.n is None else args.n
        apex = 1 if args.apex is None else args.apex
        fam = _on_input(lambda: not (1 <= n <= MAX_GROUND and domain(n, args.k, apex)),
                        build, n, args.k, apex)
    _emit(render_family(fam), args.out)
    return 0


def _cmd_tau(args) -> int:
    fam = _load_family(args.family)
    value = _on_input(lambda: not fam.masks or fam.k == 0, tau, fam)
    if args.format == "text":
        _emit(f"{value}\n", args.out)
    else:
        _emit(json.dumps({"tau": value, "n": fam.n, "k": fam.k,
                          "members": len(fam)}) + "\n", args.out)
    return 0


def _cmd_covers(args) -> int:
    fam = _load_family(args.family)
    cf = _on_input(lambda: not 1 <= args.ell <= fam.n, cover_enum, fam, args.ell)
    if args.format == "text":
        lines = [" ".join(map(str, s)) for s in cf.sets()]
        _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    else:
        _emit(json.dumps({"ell": args.ell, "count": len(cf),
                          "covers": [list(s) for s in cf.sets()]}) + "\n", args.out)
    return 0


def _cmd_saturate(args) -> int:
    fam = _load_family(args.family)
    _emit(render_family(_on_input(lambda: not is_intersecting(fam), saturate, fam)),
          args.out)
    return 0


def _cmd_trace(args) -> int:
    if args.timings and not args.check_bounds:
        raise UsageError("trace --timings needs --check-bounds: nothing else is timed")
    _refuse_text_timings("trace", args, "json-lines")
    fam = _load_family(args.family)
    window = _parse_elements(args.window)
    stats = _on_input(lambda: len(set(window)) < len(window)
                      or not all(1 <= x <= fam.n for x in window), trace, fam, window)
    rows = []
    for s_mask, f_s in stats.counts.items():
        alpha = stats.alpha_of(s_mask)
        # the residual family of S has one member per member tracing S
        rows.append({"S": list(elements_of(s_mask)), "f": f_s,
                     "alpha": None if alpha is None else str(alpha),
                     "residual_size": f_s})
    cert = None
    if args.check_bounds:
        start = time.perf_counter()
        cert = _on_input(lambda: not fam.masks or fam.k == 0 or not is_intersecting(fam)
                         or has_cover(fam, 2) or len(window) < 2,
                         trace_bound_check, fam, window)
        cert = replace(cert, wall_time_ms=int((time.perf_counter() - start) * 1000))
    if args.format == "text":
        lines = [f"S={tuple(r['S'])} f={r['f']} alpha={r['alpha']}" for r in rows]
        if cert is not None:
            lines.append(f"TRACE-BOUNDS: {cert.verdict.upper()}")
            lines += [f"  skipped {s['statement']}: {s['reason']}"
                      for s in cert.details["skipped"]]
            evaluated = ", ".join(f"{name} {count}"
                                  for name, count in cert.details["evaluated"].items())
            lines.append(f"  evaluated: {evaluated or 'none'}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {"window": sorted(window), "total": stats.total(), "rows": rows}
        if cert is not None:
            payload["bounds"] = cert.to_json_dict(args.timings)
        _emit(json.dumps(payload) + "\n", args.out)
    return 0 if cert is None or cert.passed else 1


def _cmd_classify(args) -> int:
    fam = _load_family(args.family)
    # the library warns when τ ≠ 3; the CLI reports it as its own message
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = _on_input(lambda: not fam.masks or fam.k == 0
                               or not is_intersecting(fam), classify_T3, fam)
        finally:
            for w in caught:
                print(f"ekrforge: warning: {w.message}", file=sys.stderr)
    payload = {"tag": result.tag.value, "witness": _jsonable(result.witness)}
    if args.format == "text":
        _emit(f"{payload['tag']} witness={payload['witness']}\n", args.out)
    else:
        _emit(json.dumps(payload) + "\n", args.out)
    return 0


_RANGE_FLAGS = ("k_min", "k_max", "n_span", "n_max", "samples")


def _cmd_verify(args) -> int:
    names = args.suite
    repeated = sorted({s for s in names if names.count(s) > 1})
    if repeated:
        raise UsageError(f"suite(s) {', '.join(repeated)} given more than once")
    if "all" in names:
        if len(names) > 1:
            raise UsageError("--suite all cannot be combined with other suite ids")
        names = list_suites()
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise UsageError(
            f"unknown suite(s) {', '.join(unknown)}; known: {', '.join(list_suites())}")
    reads = {name: inspect.signature(SUITES[name]).parameters for name in names}
    settings = {"seed": args.seed}
    for field in _RANGE_FLAGS:
        value = getattr(args, field)
        if value is None:
            continue
        if not any(field in params for params in reads.values()):
            raise UsageError(f"no selected suite reads --{field.replace('_', '-')}")
        settings[field] = value
    kws = {name: {f: v for f, v in settings.items() if f in params}
           for name, params in reads.items()}
    for name in names:  # before any suite runs
        refusal = range_refusal(name, **kws[name])
        if refusal:
            raise UsageError(refusal)

    def run_one(name: str) -> Certificate:
        # a suite's statements start at its default --k-min; below it a
        # suite may fail, or raise where a formula is undefined
        params, kw = reads[name], kws[name]
        cert = _on_input(lambda: "k_min" in kw and kw["k_min"] < params["k_min"].default,
                         lambda: verify_identity_suite(name, **kw))
        return replace(cert, params={**cert.params, "seed": args.seed})

    certs = sorted((run_one(n) for n in names), key=lambda c: c.id)
    _emit_certs(certs, args)
    return 0 if all(c.passed for c in certs) else 1


def _cmd_oracle(args) -> int:
    _refuse_text_timings("oracle", args, "json-lines or json-array")
    if not 1 <= args.n <= MAX_GROUND:
        raise UsageError(f"oracle --n must lie in [1, {MAX_GROUND}], got {args.n}")
    if args.k < 0:
        raise UsageError(f"oracle --k must be at least 0, got {args.k}")
    budget = _parse_budget(args.budget)
    statement = f"maximum intersecting family size, n={args.n} k={args.k} "
    if args.degree_cap_ell is not None:
        for flag, given in (("--r", args.r is not None),
                            ("--no-warm-start", args.no_warm_start)):
            if given:
                raise UsageError(f"oracle --degree-cap-ell does not take {flag}")
        if not 2 <= args.degree_cap_ell <= args.k:
            raise UsageError(f"oracle --degree-cap-ell must lie in [2, --k={args.k}], "
                             f"got {args.degree_cap_ell}")
        if args.n <= 2 * args.k:
            raise UsageError(f"oracle --degree-cap-ell needs --n > 2 * --k, "
                             f"got --n {args.n} --k {args.k}")
        result = max_intersecting_degcap(args.n, args.k, args.degree_cap_ell, budget)
        ident = "M-ORACLE-DEGCAP"
        params = {"n": args.n, "k": args.k, "ell": args.degree_cap_ell}
        statement += f"degree-cap ell={args.degree_cap_ell}"
    else:
        r = 1 if args.r is None else args.r
        if r not in (1, 2, 3):
            raise UsageError(f"oracle --r must be 1, 2 or 3, got {r}")
        if args.n < 2 * args.k:
            raise UsageError(f"oracle needs --n >= 2 * --k, got --n {args.n} --k {args.k}")
        result = max_intersecting(args.n, args.k, r, budget,
                                  seed_incumbent=not args.no_warm_start)
        ident = "M-ORACLE"
        params = {"n": args.n, "k": args.k, "r": r}
        statement += f"tau >= {r}"
    params.update({"value": result.value, "status": result.status,
                   "nodes": result.nodes, "budget_s": budget})
    witnesses = [] if result.status == PROVED else \
        [{"status": result.status, "lower_bound": result.value}]
    cert = replace(make_certificate(ident, statement, params, witnesses),
                   wall_time_ms=int(result.elapsed * 1000))
    if args.format == "text":
        _emit(f"value {result.value} status {result.status} nodes {result.nodes}\n",
              args.out)
    else:
        _emit_certs([cert], args)
    if args.witness_out:
        _emit(render_family(result.witness), args.witness_out)
    return 0 if cert.passed else 1


def _cmd_lex(args) -> int:
    n, k, m = args.n, args.k, args.m
    fam = _on_input(lambda: not (1 <= n <= MAX_GROUND and 0 <= k <= n
                                 and 0 <= m <= binom(n, k)), lex_family, n, k, m)
    _emit(render_family(fam), args.out)
    return 0


def _parse_elements(text: str) -> list[int]:
    try:
        return [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"bad element list {text!r}") from None


def _jsonable(obj):
    if obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return str(obj)


# ── parser ───────────────────────────────────────────────────────────────────

_OUTPUT_FLAGS = {
    "--format": dict(choices=("text", "json-lines"), default="text"),
    "--timings": dict(action="store_true",
                      help="emit measured wall times (breaks byte-stability)"),
}


def _add_output(p: argparse.ArgumentParser, *flags: str, array: bool = False) -> None:
    """--out, plus those of --format and --timings that the handler reads.
    ``array`` offers --format json-array too, for the commands that emit
    certificates (verify and oracle): the list of them as one JSON array.
    The other commands print one JSON object, the same in either spelling,
    so they offer json-lines alone."""
    p.add_argument("--out", default=None, help="output path (default stdout)")
    for flag in flags:
        options = _OUTPUT_FLAGS[flag]
        if flag == "--format" and array:
            options = {**options, "choices": (*options["choices"], "json-array")}
        p.add_argument(flag, **options)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state,
    and the handlers look up the library's names when they are called."""
    parser = argparse.ArgumentParser(
        prog="ekrforge",
        description="intersecting-family verification and search toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family")
    p.add_argument("kind", choices=tuple(_CONSTRUCT_FLAGS))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--apex", type=int, default=None, help="star only; default 1")
    p.add_argument("--input", default=None, help="H family file (fh only)")
    _add_output(p)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("tau", help="covering number of a family file")
    p.add_argument("family")
    _add_output(p, "--format")
    p.set_defaults(handler=_cmd_tau)

    p = sub.add_parser("covers", help="all size-l covers of a family file")
    p.add_argument("family")
    p.add_argument("--ell", type=int, required=True)
    _add_output(p, "--format")
    p.set_defaults(handler=_cmd_covers)

    p = sub.add_parser("saturate", help="maximal intersecting completion")
    p.add_argument("family")
    _add_output(p)
    p.set_defaults(handler=_cmd_saturate)

    p = sub.add_parser("trace", help="trace statistics through a window")
    p.add_argument("family")
    p.add_argument("--window", required=True, help="e.g. 1,2,3,4,5")
    p.add_argument("--check-bounds", action="store_true")
    _add_output(p, "--format", "--timings")
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("classify", help="classify the 3-cover family")
    p.add_argument("family")
    _add_output(p, "--format")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("verify", help="run certificate suites")
    p.add_argument("--suite", action="append", required=True,
                   help="suite id, repeatable; 'all' for everything")
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--n-span", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_output(p, "--format", "--timings", array=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("oracle", help="exact m(n,k,r) search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=None, help="default 1")
    p.add_argument("--budget", default="600s", help="e.g. 600s, 10m, 2h")
    p.add_argument("--degree-cap-ell", type=int, default=None)
    p.add_argument("--no-warm-start", action="store_true")
    p.add_argument("--witness-out", default=None)
    _add_output(p, "--format", "--timings", array=True)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("lex", help="lexicographic initial segment L(n,k,m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_output(p)
    p.set_defaults(handler=_cmd_lex)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"ekrforge: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (AssertionError, ValueError) as exc:
        # the post-hoc witness checks of the searches raise AssertionError;
        # a ValueError on input that the command's checks let through is a
        # bug in ekrforge too
        print(f"ekrforge: internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def main() -> None:
    sys.exit(run())
