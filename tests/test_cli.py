"""CLI surface: exit codes, file round trips, diagnostics, determinism."""

import json
import random
from itertools import combinations

import pytest

import ekrforge.cli
from conftest import reference_parse_family
from ekrforge import certify, properties
from ekrforge.cli import run
from ekrforge.constructions import build_G, full_star, g_size_formula
from ekrforge.families import UniformFamily
from ekrforge.familyio import (FamilyFormatError, parse_family, read_family,
                               render_family, write_family)
from ekrforge.properties import list_suites


def test_family_roundtrip(tmp_path):
    g = build_G(9, 4)
    path = tmp_path / "g94.fam"
    write_family(g, path)
    assert read_family(path) == g
    text = render_family(g)
    assert text.splitlines()[0] == "9 4 48"
    assert text.endswith("\n")


def test_family_format_rejects_bad_input():
    with pytest.raises(FamilyFormatError) as err:
        parse_family("6 3 1\n1 2\n")
    assert err.value.line_no == 2
    with pytest.raises(FamilyFormatError):
        parse_family("6 3 1\n1 2 9\n")
    with pytest.raises(FamilyFormatError):
        parse_family("6 3 2\n1 2 3\n1 2 3\n")
    with pytest.raises(FamilyFormatError):
        parse_family("6 3 2\n1 2 3\n")
    with pytest.raises(FamilyFormatError):
        parse_family("6 3 1\n3 2 1\n")
    with pytest.raises(FamilyFormatError):
        parse_family("")


# (text, line_no, message) of every reader diagnostic: the first problem in
# file order is reported, a range error before an order error on one line
FAMILY_DIAGNOSTICS = [
    ("6 3\n1 2 3\n", 1, "header must be 'n k m', got '6 3'"),
    ("6 x 1\n1 2 3\n", 1, "non-integer header field in '6 x 1'"),
    ("6 3 1\n1 2\n", 2, "member has 2 elements, expected k=3"),
    ("6 3 1\n1 2 x\n", 2, "non-integer element in '1 2 x'"),
    ("6 3 2\n1 2 3\n1 2 9\n", 3, "element 9 outside [1, 6]"),
    ("6 3 1\n3 2 1\n", 2, "elements must be strictly increasing"),
    ("6 3 1\n1 1 2\n", 2, "elements must be strictly increasing"),
    ("6 3 3\n1 2 3\n2 3 4\n\n1 2 3\n", 5, "duplicate member (first seen on line 2)"),
    ("6 3 2\n1 2 3\n", 3, "header promises 2 members, file has 1"),
    ("6 3 1\n3 9 1\n", 2, "element 9 outside [1, 6]"),
    ("6 3 4\n1 2 3\n1 2 3\n2 3 4\n1 2\n", 3, "duplicate member (first seen on line 2)"),
]


@pytest.mark.parametrize("text,line_no,message", FAMILY_DIAGNOSTICS)
def test_family_format_diagnostics(text, line_no, message):
    with pytest.raises(FamilyFormatError) as err:
        parse_family(text)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


def test_family_roundtrip_shuffled_lines():
    g = build_G(20, 6)
    head, *members = render_family(g).splitlines()
    random.Random(7).shuffle(members)
    assert parse_family("\n".join([head, *members]) + "\n") == g


def test_empty_family_file_valid():
    fam = parse_family("6 3 0\n")
    assert len(fam) == 0 and fam.n == 6 and fam.k == 3


def test_family_roundtrip_across_chunks():
    """G(24,7) has 82,141 member lines, many chunks of the bulk path."""
    g = build_G(24, 7)
    assert parse_family(render_family(g)) == g


def _outcome(reader, text):
    """The family a reader returns, or the (line_no, message) it raises."""
    try:
        return reader(text)
    except FamilyFormatError as exc:
        return exc.line_no, str(exc)


def _token_edit(rng, tokens, n):
    i = rng.randrange(len(tokens))
    edit = rng.randrange(8)
    if edit == 0:
        tokens[i] = "0" + tokens[i]
    elif edit == 1:
        tokens[i] = "+" + tokens[i]
    elif edit == 2:
        tokens[i] = rng.choice(["0", str(n + 1), "-1", "x", "2.0"])
    elif edit == 3:
        j = rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif edit == 4:
        del tokens[i]
    elif edit == 5:
        tokens.insert(i, tokens[i])
    elif edit == 6:
        tokens.insert(i, str(rng.randint(1, n)))
    else:
        # a double or trailing space, or a tab
        tokens[i] += rng.choice([" ", "\t", "\t1"])


def _mutated_text(rng, n, k, members):
    """The canonical text of a family with up to three random edits."""
    lines = [f"{n} {k} {len(members)}"] + [" ".join(map(str, s)) for s in members]
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        edit = rng.randrange(7)
        at = rng.randrange(1, len(lines) + 1)
        if edit <= 1 and at < len(lines) and lines[at]:
            tokens = lines[at].split(" ")
            _token_edit(rng, tokens, n)
            lines[at] = " ".join(tokens)
        elif edit == 2:
            lines.insert(at, rng.choice(["", " ", "\t"]))
        elif edit == 3 and at < len(lines):
            lines.insert(at, lines[at])
        elif edit == 4 and at < len(lines):
            lines[at] = rng.choice([" ", "\t", ""]) + lines[at] + rng.choice([" ", ""])
        elif edit == 5:
            lines[0] = f"{n} {k} {len(members) + rng.choice([-1, 1])}"
        elif edit == 6 and at < len(lines):
            del lines[at]
    newline = rng.choice(["\n", "\n", "\r\n"])
    return newline.join(lines) + rng.choice([newline, ""])


def test_parse_family_matches_reference_on_random_texts():
    """The bulk reader and the per-line reference give the same family or
    the same (line_no, message) on valid and malformed texts, n <= 9,
    k = 0 and m = 0 included."""
    rng = random.Random(20260419)
    read = 0
    for _ in range(4000):
        n = rng.randint(1, 9)
        k = rng.randint(0, n)
        pool = list(combinations(range(1, n + 1), k))
        members = rng.sample(pool, rng.randint(0, min(len(pool), 12)))
        text = _mutated_text(rng, n, k, members)
        outcome = _outcome(parse_family, text)
        assert outcome == _outcome(reference_parse_family, text), text
        read += not isinstance(outcome, tuple)
    assert 1000 < read < 3000


def _swap_two(line):
    a, b, *rest = line.split(" ")
    return " ".join([b, a, *rest])


@pytest.fixture(scope="module")
def g_20_6_lines():
    return render_family(build_G(20, 6)).splitlines()


# one edit of one member line of G(20,6), given the lines before it
_G_LINE_EDITS = {
    "swap two elements": lambda lines, i: lines[:i] + [_swap_two(lines[i])],
    "duplicate the previous line": lambda lines, i: lines[:i] + [lines[i - 1]],
    "element out of range": lambda lines, i: lines[:i] + [lines[i].rsplit(" ", 1)[0] + " 21"],
    "blank line": lambda lines, i: lines[:i] + ["", lines[i]],
    "leading space": lambda lines, i: lines[:i] + [" " + lines[i]],
    "drop an element": lambda lines, i: lines[:i] + [lines[i].rsplit(" ", 1)[0]],
}


@pytest.mark.parametrize("edit", list(_G_LINE_EDITS))
def test_parse_family_matches_reference_on_mutated_g_20_6(g_20_6_lines, edit):
    """Edits at the first line, around the 4,096-line chunk boundaries and
    at the last line of G(20,6)'s 8,619-line file."""
    lines = g_20_6_lines
    for line_no in (2, 4097, 4098, 4099, 8193, 8194, len(lines)):
        i = line_no - 1
        text = "\n".join(_G_LINE_EDITS[edit](lines, i) + lines[i + 1:]) + "\n"
        outcome = _outcome(parse_family, text)
        assert outcome == _outcome(reference_parse_family, text), (edit, line_no)


def test_construct_then_tau(tmp_path, capsys):
    out = tmp_path / "g94.fam"
    assert run(["construct", "g", "--n", "9", "--k", "4", "--out", str(out)]) == 0
    assert run(["tau", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_covers_subcommand(tmp_path, capsys):
    path = tmp_path / "r.fam"
    assert run(["construct", "r", "--out", str(path)]) == 0
    assert run(["covers", str(path), "--ell", "2", "--format", "json-lines"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 7


def test_saturate_and_classify(tmp_path, capsys):
    path = tmp_path / "s.fam"
    sat = tmp_path / "sat.fam"
    assert run(["construct", "s", "--n", "7", "--out", str(path)]) == 0
    assert run(["saturate", str(path), "--out", str(sat)]) == 0
    fam = read_family(sat)
    assert len(fam) > 3
    gpath = tmp_path / "g.fam"
    assert run(["construct", "g", "--n", "9", "--k", "4", "--out", str(gpath)]) == 0
    assert run(["classify", str(gpath), "--format", "json-lines"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tag"] == "star" and payload["witness"] == 1


def test_trace_subcommand(tmp_path, capsys):
    gpath = tmp_path / "g.fam"
    run(["construct", "g", "--n", "9", "--k", "4", "--out", str(gpath)])
    assert run(["trace", str(gpath), "--window", "1,2,3,4,5",
                "--format", "json-lines"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 48


def test_verify_exit_codes(capsys):
    assert run(["verify", "--suite", "ID-F-REC", "--format", "json-lines"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "pass"
    assert cert["params"]["seed"] == 0
    # a failing certificate must exit 1: the K3(4) comparison is equality at k=3
    assert run(["verify", "--suite", "INEQ-PROP23", "--k-min", "3", "--k-max", "3",
                "--format", "json-lines"]) == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "fail" and cert["witnesses"]


def test_verify_usage_errors():
    assert run(["verify", "--suite", "NOPE"]) == 2
    assert run(["nonsense"]) == 2


def test_verify_refuses_repeated_suite(capsys):
    assert run(["verify", "--suite", "ID-G-2K", "--suite", "ID-F-REC",
                "--suite", "ID-G-2K"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ID-G-2K given more than once" in captured.err


def test_verify_refuses_all_with_other_suites(capsys):
    assert run(["verify", "--suite", "all", "--suite", "ID-G-2K"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--suite all cannot be combined with other suite ids" in captured.err


def test_bad_paths_exit_2_naming_the_path(tmp_path, capsys):
    """A directory or a non-UTF-8 file to read, and an --out or
    --witness-out that cannot be written, are usage errors."""
    fam = tmp_path / "r.fam"
    assert run(["construct", "r", "--out", str(fam)]) == 0
    latin = tmp_path / "latin1.fam"
    latin.write_bytes(b"5 3 1\n1 2 \xe9\n")
    missing = tmp_path / "missing" / "out.txt"
    for argv, path in [
        (["tau", str(tmp_path)], tmp_path),
        (["tau", str(latin)], latin),
        (["tau", str(fam), "--out", str(tmp_path)], tmp_path),
        (["tau", str(fam), "--out", str(missing)], missing),
        (["oracle", "--n", "6", "--k", "3", "--r", "2", "--witness-out", str(missing)],
         missing),
    ]:
        assert run(argv) == 2, argv
        assert str(path) in capsys.readouterr().err, argv
    assert not missing.parent.exists()


def test_malformed_family_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.fam"
    bad.write_text("6 3 1\n1 2\n")
    assert run(["tau", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_oracle_subcommand(capsys):
    assert run(["oracle", "--n", "7", "--k", "3", "--r", "3", "--budget", "600s",
                "--format", "json-lines"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["id"] == "M-ORACLE"
    assert cert["params"]["value"] == 10
    assert cert["params"]["status"] == "proved-optimal"
    assert "seed" not in cert["params"]


def test_oracle_reports_empty_optimum(capsys):
    """No intersecting 2-uniform family has covering number 3: m(4,2,3) = 0
    is a proved value, not an error."""
    assert run(["oracle", "--n", "4", "--k", "2", "--r", "3",
                "--format", "json-lines"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "pass"
    assert cert["params"]["value"] == 0
    assert cert["params"]["status"] == "proved-optimal"


def test_oracle_degcap_subcommand(capsys):
    args = ["oracle", "--n", "8", "--k", "3", "--degree-cap-ell", "2",
            "--format", "json-lines"]
    assert run(args) == 0
    first = capsys.readouterr().out
    cert = json.loads(first)
    assert cert["id"] == "M-ORACLE-DEGCAP"
    assert cert["params"]["value"] == 16
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_oracle_degcap_refuses_tau_search_flags(capsys):
    """--r and --no-warm-start steer the τ-search only; the degree-capped
    search must not run as if they had been applied."""
    base = ["oracle", "--n", "7", "--k", "3", "--degree-cap-ell", "2"]
    for extra in (["--r", "3"], ["--no-warm-start"]):
        assert run(base + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"does not take {extra[0]}" in captured.err


BAD_ORACLE = [
    (["--n", "5", "--k", "3"], "needs --n >= 2 * --k, got --n 5 --k 3"),
    (["--n", "7", "--k", "3", "--r", "4"], "--r must be 1, 2 or 3, got 4"),
    (["--n", "7", "--k", "3", "--r", "0"], "--r must be 1, 2 or 3, got 0"),
    (["--n", "8", "--k", "3", "--degree-cap-ell", "1"], "--degree-cap-ell must lie in [2, --k=3]"),
    (["--n", "8", "--k", "3", "--degree-cap-ell", "4"], "--degree-cap-ell must lie in [2, --k=3]"),
    (["--n", "6", "--k", "3", "--degree-cap-ell", "2"], "--degree-cap-ell needs --n > 2 * --k"),
]


@pytest.mark.parametrize("argv,message", BAD_ORACLE, ids=[" ".join(a) for a, _ in BAD_ORACLE])
def test_oracle_refuses_bad_parameters(argv, message, monkeypatch, capsys):
    """Out-of-range parameters are usage errors that name the flag, refused
    before any search runs."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(ekrforge.cli, "max_intersecting", unreachable)
    monkeypatch.setattr(ekrforge.cli, "max_intersecting_degcap", unreachable)
    assert run(["oracle"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"ekrforge: oracle {message}" in captured.err


def test_internal_error_exits_3(monkeypatch, capsys):
    """A failed internal check is neither a usage error nor a failed
    certificate."""
    def broken(*args):
        raise AssertionError("degree cap violated by the witness")

    monkeypatch.setattr(ekrforge.cli, "max_intersecting_degcap", broken)
    assert run(["oracle", "--n", "8", "--k", "3", "--degree-cap-ell", "2"]) == 3
    assert "internal error: degree cap violated" in capsys.readouterr().err


# inputs outside the domain of the library call they feed, with the
# library's message; FILE names a family file written by the test
BAD_INPUT = [
    (["covers", "G73", "--ell", "0"], "cover size 0 outside [1, n=7]"),
    (["covers", "G73", "--ell", "8"], "cover size 8 outside [1, n=7]"),
    (["trace", "G73", "--window", "1,8"], "element 8 outside ground set [1..7]"),
    (["trace", "G73", "--window", "0"], "element 0 outside ground set [1..7]"),
    (["trace", "G73", "--window", "2,2"], "duplicate element 2"),
    (["trace", "DISJOINT", "--window", "1,2", "--check-bounds"],
     "trace_bound_check requires an intersecting family"),
    (["trace", "STAR", "--window", "1,2", "--check-bounds"],
     "trace_bound_check requires covering number >= 3, got 1"),
    (["trace", "EMPTY", "--window", "1", "--check-bounds"],
     "tau of an empty family is undefined"),
    (["classify", "DISJOINT"], "classify_T3 requires an intersecting family"),
    (["classify", "EMPTY"], "tau of an empty family is undefined"),
    (["saturate", "DISJOINT"], "saturate requires an intersecting family"),
    (["tau", "EMPTY"], "tau of an empty family is undefined"),
    (["construct", "g", "--n", "5", "--k", "3"],
     "build_G requires n >= 2k >= 6, got n=5, k=3"),
    (["construct", "g", "--n", "70", "--k", "3"], "ground size 70 outside [1, 64]"),
    (["construct", "s", "--n", "0"], "S needs an ambient ground set of size at least 6"),
    (["construct", "r", "--n", "4"], "R needs an ambient ground set of size at least 5"),
    (["construct", "k34", "--n", "3"], "K3(4) needs an ambient ground set of size at least 4"),
    (["construct", "star", "--n", "5", "--k", "7"], "uniformity k=7 outside [0, n=5]"),
    (["construct", "star", "--n", "5", "--k", "3", "--apex", "9"], "apex 9 outside [1..5]"),
    (["construct", "hm", "--n", "6", "--k", "3"], "build_HM requires n > 2k >= 4, got n=6, k=3"),
    (["construct", "fh", "--input", "STAR"], "H must avoid element 1"),
    (["construct", "fh", "--input", "G73", "--n", "5"],
     "H lives on a larger ground set than requested"),
    (["construct", "fh", "--input", "DISJOINT", "--k", "2"], "H has uniformity 3, expected 2"),
    (["lex", "--n", "5", "--k", "2", "--m", "11"], "m=11 outside [0, C(5,2)=10]"),
    (["lex", "--n", "5", "--k", "-1", "--m", "0"], "uniformity k=-1 outside [0, n=5]"),
    (["lex", "--n", "70", "--k", "2", "--m", "1"], "ground size 70 outside [1, 64]"),
    (["oracle", "--n", "70", "--k", "3"], "oracle --n must lie in [1, 64], got 70"),
    (["oracle", "--n", "70", "--k", "3", "--degree-cap-ell", "2"],
     "oracle --n must lie in [1, 64], got 70"),
    (["oracle", "--n", "8", "--k", "-1"], "oracle --k must be at least 0, got -1"),
    (["oracle", "--n", "8", "--k", "3", "--budget", "ten"],
     "oracle --budget must be a duration such as 600s, 10m or 2h, got 'ten'"),
    (["oracle", "--n", "8", "--k", "3", "--budget=-1s"],
     "oracle --budget must be a duration such as 600s, 10m or 2h, got '-1s'"),
    (["verify", "--suite", "ID-G-2K", "--k-min", "2"],
     "g_size_formula requires n >= 2k >= 6, got n=4, k=2"),
    (["verify", "--suite", "INEQ-KEY-STEPS", "--k-min", "1"],
     "binom: negative top argument -2 (range bug?)"),
    (["verify", "--suite", "ID-G-2K", "--k-min", "10", "--k-max", "3"],
     "ID-G-2K: k_min 10 is above k_max 3, so the range is empty"),
    (["verify", "--suite", "ID-G-SIZE", "--k-min", "10"],
     "ID-G-SIZE: k_min 10 is above k_max 8, so the range is empty"),
    (["verify", "--suite", "INEQ-CASE1", "--n-span", "-1"],
     "INEQ-CASE1: n_span -1 leaves one of its n-ranges empty, so it would check nothing there"),
    (["verify", "--suite", "ID-HM", "--n-span", "0"],
     "ID-HM: n_span 0 leaves one of its n-ranges empty, so it would check nothing there"),
    (["verify", "--suite", "INEQ-PROP23", "--n-span", "0"],
     "INEQ-PROP23: n_span 0 leaves one of its n-ranges empty, so it would check nothing there"),
    (["verify", "--suite", "INEQ-KEY-STEPS", "--n-span", "0"],
     "INEQ-KEY-STEPS: n_span 0 leaves one of its n-ranges empty, so it would check nothing there"),
    # |U| = 6 starts at n = 2k + 2
    (["verify", "--suite", "INEQ-KEY-STEPS", "--n-span", "1"],
     "INEQ-KEY-STEPS: n_span 1 leaves one of its n-ranges empty, so it would check nothing there"),
    (["verify", "--suite", "INEQ-CASE1", "--n-span", "0"],
     "INEQ-CASE1: n_span 0 leaves one of its n-ranges empty, so it would check nothing there"),
    (["verify", "--suite", "INEQ-CASE2", "--n-span", "0"],
     "INEQ-CASE2: n_span 0 leaves one of its n-ranges empty, so it would check nothing there"),
    (["verify", "--suite", "ID-G-SIZE", "--k-max", "40"],
     "ID-G-SIZE: n = 2k + n_span reaches 92 at k = 40, past the 64-point ground set"),
    (["verify", "--suite", "ID-G-SIZE", "--k-max", "10"],
     "ID-G-SIZE: G(30,9) has 3990315 members, past the limit of 1048576 per family"),
    (["verify", "--suite", "all", "--k-max", "40"],
     "ID-G-SIZE: n = 2k + n_span reaches 92 at k = 40, past the 64-point ground set"),
]
FAMILIES = {"G73": build_G(7, 3), "STAR": full_star(7, 3), "EMPTY": UniformFamily(6, 3, ()),
            "DISJOINT": UniformFamily.from_sets(7, 3, [(2, 3, 4), (2, 5, 6), (5, 6, 7)])}


@pytest.mark.parametrize("argv,message", BAD_INPUT, ids=[" ".join(a) for a, _ in BAD_INPUT])
def test_input_outside_domain_is_usage_error(argv, message, tmp_path, capsys):
    """Input that a library call refuses exits 2 with the library's message,
    not 3, and prints nothing on stdout."""
    paths = {}
    for name, fam in FAMILIES.items():
        paths[name] = str(tmp_path / f"{name}.fam")
        write_family(fam, paths[name])
    assert run([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ekrforge: {message}\n"


def test_library_value_error_on_valid_input_is_internal(tmp_path, monkeypatch, capsys):
    """A ValueError that valid input cannot explain is a bug in ekrforge:
    exit 3, not a usage error."""
    def broken(family):
        raise ValueError("binom: negative top argument -1 (range bug?)")

    family = tmp_path / "g73.fam"
    write_family(build_G(7, 3), family)
    monkeypatch.setattr(ekrforge.cli, "tau", broken)
    assert run(["tau", str(family)]) == 3
    assert capsys.readouterr().err == (
        "ekrforge: internal error: binom: negative top argument -1 (range bug?)\n")


def test_lex_subcommand(capsys):
    assert run(["lex", "--n", "5", "--k", "2", "--m", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "5 2 4"


def test_json_output_byte_stable(capsys):
    run(["verify", "--suite", "ID-G-2K", "--format", "json-lines", "--seed", "7"])
    first = capsys.readouterr().out
    run(["verify", "--suite", "ID-G-2K", "--format", "json-lines", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["wall_time_ms"] == 0


def test_verify_order_normalized(capsys):
    args = ["verify", "--suite", "ID-G-2K", "--suite", "ID-F-REC",
            "--suite", "ID-ENDGAME-94", "--format", "json-lines", "--k-max", "40"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
    ids = [json.loads(line)["id"] for line in first.splitlines()]
    assert ids == sorted(ids)


def test_verify_text_output_byte_stable(capsys):
    """Measured wall times appear only under --timings, in text as in JSON."""
    args = ["verify", "--suite", "ID-G-SIZE", "--suite", "ID-EKR", "--k-max", "5"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
    headers = [line for line in first.splitlines() if not line.startswith(" ")]
    assert headers == ["ID-EKR: PASS  (0 ms)", "ID-G-SIZE: PASS  (0 ms)"]


def test_verify_runs_every_registered_suite(capsys):
    # three samples are below TRACE-BOUNDS-RANDOM's applicability floor
    assert run(["verify", "--suite", "all", "--k-max", "5", "--n-span", "4",
                "--n-max", "20", "--samples", "3", "--format", "json-lines"]) == 1
    certs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [c["id"] for c in certs] == list_suites()
    assert len(certs) == 20
    assert [c["id"] for c in certs if c["verdict"] == "fail"] == ["TRACE-BOUNDS-RANDOM"]


def test_verify_refuses_ranges_before_any_suite_runs(monkeypatch, capsys):
    """A refused range exits 2 before any selected suite runs, so no G(n,k)
    is built; the largest default ID-G-SIZE family stays inside the limit."""
    ran = []
    monkeypatch.setattr(ekrforge.cli, "verify_identity_suite",
                        lambda name, **kw: ran.append(name))
    for argv in (["--suite", "ID-G-2K", "--suite", "ID-G-SIZE", "--k-max", "12"],
                 ["--suite", "all", "--n-span", "-3"]):
        assert run(["verify", *argv]) == 2
        assert capsys.readouterr().out == ""
    assert ran == []
    assert properties.range_refusal("ID-G-SIZE") is None
    # n = 2k lies in both ranges, so they still check a point at n_span 0
    assert properties.range_refusal("ID-EKR", n_span=0) is None
    assert properties.range_refusal("ID-G-SIZE", n_span=0) is None
    assert g_size_formula(28, 8) <= certify.G_SIZE_MEMBER_LIMIT
    with pytest.raises(ValueError, match="past the limit"):
        certify.suite_id_g_size(k_max=10)


def test_verify_refuses_range_flags_no_suite_reads(capsys):
    for extra in (["--k-max", "5"], ["--samples", "3"]):
        assert run(["verify", "--suite", "ID-ENDGAME-94", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"no selected suite reads {extra[0]}" in captured.err


def test_construct_missing_size_is_usage_error(capsys):
    for argv, missing in ((["construct", "g"], "--n and --k"),
                          (["construct", "star", "--n", "7"], "--k"),
                          (["construct", "hm", "--k", "3"], "--n")):
        assert run(argv) == 2
        assert f"needs {missing}" in capsys.readouterr().err


def test_construct_fh_flow(tmp_path, capsys):
    h = tmp_path / "h.fam"
    h.write_text("7 3 1\n2 3 4\n")
    out = tmp_path / "fh.fam"
    assert run(["construct", "fh", "--input", str(h), "--out", str(out)]) == 0
    fam = read_family(out)
    assert (2, 3, 4) in fam.sets()
    assert run(["tau", str(out)], ) == 0
    assert capsys.readouterr().out.strip() == "2"


# each construction with the flags it does not read
CONSTRUCT_UNREAD = [
    (["g", "--n", "7", "--k", "3"], ("--apex", "--input")),
    (["s"], ("--k", "--apex", "--input")),
    (["r"], ("--k", "--apex", "--input")),
    (["k34"], ("--k", "--apex", "--input")),
    (["star", "--n", "7", "--k", "3"], ("--input",)),
    (["hm", "--n", "7", "--k", "3"], ("--apex", "--input")),
    (["fh", "--input", "FAMILY"], ("--apex",)),
]
CONSTRUCT_VALUES = {"--k": "3", "--apex": "2", "--input": "FAMILY"}


@pytest.mark.parametrize("argv,flag", [
    pytest.param(argv, flag, id=f"{argv[0]} {flag}")
    for argv, flags in CONSTRUCT_UNREAD for flag in flags])
def test_construct_refuses_unread_flags(argv, flag, tmp_path, capsys):
    family = tmp_path / "h.fam"
    family.write_text("7 3 1\n2 3 4\n")
    argv = ["construct", *argv, flag, CONSTRUCT_VALUES[flag]]
    assert run([str(family) if a == "FAMILY" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"does not take {flag}" in captured.err


def test_construct_star_apex(capsys):
    for extra, apex in (([], 1), (["--apex", "4"], 4)):
        assert run(["construct", "star", "--n", "6", "--k", "3", *extra]) == 0
        fam = parse_family(capsys.readouterr().out)
        assert len(fam) == 10 and all(apex in s for s in fam.sets())


# each subcommand with the output flags its handler never read
UNREAD_FLAGS = [
    (["construct", "g", "--n", "7", "--k", "3"], ("--seed", "--timings", "--format")),
    (["tau", "FAMILY"], ("--seed", "--timings")),
    (["covers", "FAMILY", "--ell", "2"], ("--seed", "--timings")),
    (["saturate", "FAMILY"], ("--seed", "--timings", "--format")),
    (["trace", "FAMILY", "--window", "1,2,3,4,5"], ("--seed",)),
    (["classify", "FAMILY"], ("--seed", "--timings")),
    (["oracle", "--n", "7", "--k", "3"], ("--seed",)),
    (["lex", "--n", "5", "--k", "2", "--m", "4"], ("--seed", "--timings", "--format")),
]
FLAG_VALUES = {"--seed": ["1"], "--timings": [], "--format": ["json-lines"]}


@pytest.mark.parametrize("argv,flag", [
    pytest.param(argv, flag, id=f"{argv[0]} {flag}")
    for argv, flags in UNREAD_FLAGS for flag in flags])
def test_unread_flags_are_usage_errors(argv, flag, tmp_path, capsys):
    family = tmp_path / "g.fam"
    write_family(build_G(9, 4), family)
    argv = [str(family) if a == "FAMILY" else a for a in argv]
    assert run(argv + [flag] + FLAG_VALUES[flag]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# the output that --timings would time, and what each command needs for it
UNTIMED = [
    (["oracle", "--n", "7", "--k", "3"], "--format json-lines or json-array"),
    (["trace", "FAMILY", "--window", "1,2,3,4,5"], "--check-bounds"),
    (["trace", "FAMILY", "--window", "1,2,3,4,5", "--format", "json-lines"], "--check-bounds"),
    (["trace", "FAMILY", "--window", "1,2,3,4,5", "--check-bounds", "--format", "text"],
     "--format json-lines or json-array"),
]


@pytest.mark.parametrize("argv,needs", UNTIMED, ids=[" ".join(a) for a, _ in UNTIMED])
def test_timings_where_nothing_is_timed_is_usage_error(argv, needs, tmp_path, capsys):
    family = tmp_path / "g.fam"
    write_family(build_G(9, 4), family)
    argv = [str(family) if a == "FAMILY" else a for a in argv]
    assert run(argv + ["--timings"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[0]} --timings needs {needs}" in captured.err


def test_output_flags_where_read(tmp_path, capsys):
    family = tmp_path / "g.fam"
    write_family(build_G(9, 4), family)
    for argv in (["verify", "--suite", "ID-G-2K", "--seed", "1"],
                 ["oracle", "--n", "7", "--k", "3"],
                 ["trace", str(family), "--window", "1,2,3,4,5", "--check-bounds"]):
        assert run(argv + ["--format", "json-lines", "--timings"]) == 0
        assert json.loads(capsys.readouterr().out)
