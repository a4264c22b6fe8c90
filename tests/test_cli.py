"""CLI surface: exit codes, file round trips, diagnostics, determinism."""

import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import ekrforge.cli
from conftest import fano_plane, reference_parse_family, reference_render_family
from ekrforge import certify, familyio, properties
from ekrforge.classify import classify_T3
from ekrforge.cli import run
from ekrforge.constructions import build_G, full_star, g_size_formula
from ekrforge.families import UniformFamily, ksets_colex, mask_of
from ekrforge.familyio import (CHUNK_CHARS, FamilyFormatError, parse_family, read_family,
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


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 63, 64])
def test_render_family_matches_reference(n):
    """Members on every byte boundary of the mask: a run of consecutive
    points from each start, at k = 1, 2, 3 and n, and random k-sets."""
    rng = random.Random(n)
    for k in sorted({1, min(2, n), min(3, n), n}):
        members = {mask_of(range(s, s + k), n) for s in range(1, n - k + 2)}
        members |= {mask_of(rng.sample(range(1, n + 1), k), n) for _ in range(20)}
        fam = UniformFamily.from_masks(n, k, members)
        assert render_family(fam) == reference_render_family(fam), (n, k)


@pytest.mark.parametrize("fam", [UniformFamily(3, 0, ()), UniformFamily(3, 0, (0,)),
                                 UniformFamily(9, 4), UniformFamily(64, 1)])
def test_render_family_matches_reference_without_members_to_spell(fam):
    """Both k = 0 families (∅ is a blank line) and empty families at k >= 1."""
    assert render_family(fam) == reference_render_family(fam)


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


def test_family_roundtrip_every_small_family():
    """Every family with n <= 5 reads back as itself through both readers,
    k = 0 with m = 0 and m = 1 included: its one possible member, ∅, is
    written as a blank line."""
    checked = 0
    for n in range(1, 6):
        for k in range(n + 1):
            sets = list(ksets_colex(n, k))
            for chosen in range(1 << len(sets)):
                fam = UniformFamily(n, k, tuple(m for i, m in enumerate(sets)
                                                if chosen >> i & 1))
                text = render_family(fam)
                assert parse_family(text) == fam == reference_parse_family(text), text
                checked += 1
    assert checked == 4 + 8 + 20 + 100 + 2116


@pytest.mark.parametrize("text,outcome", [
    ("3 0 0\n", UniformFamily(3, 0, ())),
    ("3 0 1\n\n", UniformFamily(3, 0, (0,))),
    ("3 0 1\n \n", UniformFamily(3, 0, (0,))),
    ("3 0 2\n\n\n", (3, "line 3: duplicate member (first seen on line 2)")),
    ("3 0 0\n\n", (2, "line 2: header promises 0 members, file has 1")),
    ("3 0 1\n1\n", (2, "line 2: member has 1 elements, expected k=0")),
])
def test_k0_family_files(text, outcome):
    """At k = 0 a blank line after the header is the member ∅."""
    assert _outcome(parse_family, text) == outcome == _outcome(reference_parse_family, text)


@pytest.mark.parametrize("text", [
    "9 4 2\r\n1 2 3 4\r\n1 2 3 5\r\n",
    "9 4 2\r1 2 3 4\r1 2 3 5\r",
    "9 4 1\v1 2 3 4\n",
    "9 4 1\u20281 2 3 4\n",
    "9 4 1\x1c1 2 3 4\n",
    "9 4 1\n1 2 3 4",
    "9 4 1\n1 2 3 4\n\n",
    "9 4 2\n1 2 3 4\u20281 2 3 5\n",
    "9 4 2\n1 2 3 4\r1 2 3 5\n",
    "9 4 2\n1 2 3 4\x851 2 3 5",
    # a member hidden in the header line, and one past the last "\n"
    "9 4 1\v1 2 3 5\n1 2 3 4\n",
    "9 4 1\n1 2 3 4\n1 2 3 5",
    # "\r\n" after the header line, mixed with "\n" and lone "\r"
    "9 4 2\r\n1 2 3 4\n1 2 3 5\r\n",
    "9 4 3\r\n1 2 3 4\r1 2 3 5\r\n1 2 3 6\r\n",
    "9 4 2\r\n1 2 3 4\r1 2 3 4\r\n",
    "9 4 2\r\n1 2 3 4\r\r\n1 2 3 4\r\n",
    "9 4 1\r\r\n1 2 3 4\r\n",
    "9 4 1\r\n1 2 3 4\r",
    "9 4 2\r\n1 2 3 4\r\n1 2 3 4\r\n",
    "9 4 3\r\n1 2 3 4\r\n1 2 3 5\r\n",
    "3 0 1\r\n\r\n",
], ids=["CRLF", "CR", "VT in the header line", "LS in the header line",
        "FS in the header line", "no final newline", "blank last line",
        "LS in a member line", "CR in a member line", "NEL and no final newline",
        "two members, one in the header line", "two members, one unterminated",
        "CRLF then LF", "CRLF, CR in a member line", "CRLF, duplicate after a CR",
        "CRLF, duplicate after CR CR LF", "CR CR LF after the header",
        "CRLF, final lone CR", "CRLF, duplicate", "CRLF, short by one member",
        "CRLF at k = 0"])
def test_line_boundaries_other_than_newline(text):
    """The bulk path cuts at "\n" alone; a text with any other line
    boundary, or without a final newline, reads as ``splitlines`` sees it."""
    assert _outcome(parse_family, text) == _outcome(reference_parse_family, text)


def test_k0_family_file_through_the_cli(tmp_path, capsys):
    path = tmp_path / "empty-set.fam"
    assert run(["lex", "--n", "3", "--k", "0", "--m", "1", "--out", str(path)]) == 0
    assert path.read_text() == "3 0 1\n\n"
    assert run(["saturate", str(path)]) == 0
    assert capsys.readouterr().out == "3 0 1\n\n"


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    """Family files and --out files are read and written as UTF-8 whatever
    the locale's codec: under the C locale, with UTF-8 mode and locale
    coercion off, verify --suite all writes the bytes (τ included) that it
    writes in UTF-8 mode, and tau reads a member spelled in Arabic-Indic
    digits.  Output to stdout follows the locale: τ on an ASCII stdout is
    a usage error (exit 2, nothing on stdout, a hint on stderr), and in
    UTF-8 mode it is written."""
    fam = tmp_path / "arabic-indic.fam"
    fam.write_bytes("3 1 1\n\u0661\n".encode("utf-8"))
    src = str(Path(ekrforge.cli.__file__).parents[1])
    written = []
    for name, env in (("c", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}),
                      ("utf8", {"PYTHONUTF8": "1"})):
        env = {**os.environ, "PYTHONPATH": src, **env}
        out = tmp_path / f"{name}.txt"
        for argv in (["verify", "--suite", "all", "--out", str(out)],
                     ["tau", str(fam), "--out", str(tmp_path / "tau.txt")]):
            proc = subprocess.run([sys.executable, "-m", "ekrforge", *argv], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (name, argv, proc.stderr)
        assert (tmp_path / "tau.txt").read_text() == "1\n"
        written.append(out.read_bytes())
        proc = subprocess.run([sys.executable, "-m", "ekrforge", "verify", "--suite", "PROP-22",
                               "--samples", "3"], env=env, capture_output=True, encoding="utf-8")
        if name == "c":
            assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
            assert "PYTHONIOENCODING" in proc.stderr and "internal" not in proc.stderr
        else:
            assert proc.returncode == 0 and "τ" in proc.stdout, proc.stderr
    assert written[0] == written[1] and "τ".encode("utf-8") in written[0]


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


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                            "\u0665\u0666\u0667\u0668\u0669")


def _two_digit_edit(rng, lines, n):
    """One edit, in place, of a random member line of ``lines`` (the header
    first) or of the header's member count."""
    at = rng.randrange(1, len(lines))
    tokens = lines[at].split(" ")
    edit = rng.randrange(9)
    if edit == 0:
        # a one-digit point swapped with a two-digit one: same length,
        # another layout
        ones = [i for i, t in enumerate(tokens) if len(t) == 1]
        twos = [i for i, t in enumerate(tokens) if len(t) == 2]
        if ones and twos:
            i, j = rng.choice(ones), rng.choice(twos)
            tokens[i], tokens[j] = tokens[j], tokens[i]
    elif edit == 1:
        # two points of one width swapped: same layout, out of order
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif edit == 2:
        tokens[rng.randrange(len(tokens))] = rng.choice(["07", "00", "0", "65", str(n + 1)])
    elif edit == 3:
        i = rng.randrange(len(tokens))
        tokens[i] = tokens[i].translate(_ARABIC_INDIC)
    elif edit == 4:
        tokens[-1] += "\r"
    elif edit == 5:
        tokens[-1] += str(rng.randrange(10))
    elif edit == 6:
        # a line replaced by a copy of another: the count is kept
        tokens = lines[rng.randrange(1, len(lines))].split(" ")
    elif edit == 7:
        _token_edit(rng, tokens, n)
    else:
        n_, k_, m_ = lines[0].split(" ")
        lines[0] = f"{n_} {k_} {int(m_) + rng.choice([-1, 1])}"
    lines[at] = " ".join(tokens)


def test_parse_family_matches_reference_on_two_digit_texts():
    """The same agreement for 10 <= n <= 64, where member lines of one file
    differ in length by their number of two-digit points, read in shuffled
    order with up to three edits per text."""
    rng = random.Random(20261020)
    read = 0
    for _ in range(3000):
        n = rng.randint(10, 64)
        k = rng.randint(1, min(n, 9))
        members = list({tuple(sorted(rng.sample(range(1, n + 1), k)))
                        for _ in range(rng.randint(1, 24))})
        rng.shuffle(members)
        lines = [f"{n} {k} {len(members)}"] + [" ".join(map(str, s)) for s in members]
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            _two_digit_edit(rng, lines, n)
        text = "\n".join(lines) + "\n"
        outcome = _outcome(parse_family, text)
        assert outcome == _outcome(reference_parse_family, text), text
        read += not isinstance(outcome, tuple)
    assert 700 < read < 2300


@pytest.mark.parametrize("line", ["1 07", "1 \u0661\u0662", "1 12\r", "1\t12", "1  2",
                                  "12 3", "12 10", "1 1", "1 65", "0 12", "3 2"])
def test_bulk_path_declines_non_canonical_lines(line):
    """The bulk path reads only canonical lines, each point the decimal text
    of a point of [n] without sign or leading zero; "07", which ``int``
    reads as 7, and every other line goes to the per-line reader."""
    text = f"64 2 2\n1 2\n{line}\n"
    assert familyio._canonical_masks(text, 7, 64, 2, 2) is None
    assert familyio._canonical_masks("64 2 2\n1 2\n1 12\n", 7, 64, 2, 2) == [
        0b11, 1 << 11 | 1]


def _swap_two(line):
    a, b, *rest = line.split(" ")
    return " ".join([b, a, *rest])


@pytest.fixture(scope="module")
def g_20_6_lines():
    return render_family(build_G(20, 6)).splitlines()


def _with(lines, i, *new):
    """The lines with line i replaced by ``new``."""
    return lines[:i] + list(new) + lines[i + 1:]


def _move_last_element(lines, i):
    """Line i gives its last element to the front of the next line, or to a
    line of its own after the last line: k - 1 tokens, then k + 1."""
    head, last = lines[i].rsplit(" ", 1)
    after = lines[i + 1:] or [""]
    return lines[:i] + [head, f"{last} {after[0]}".rstrip(" ")] + after[1:]


# one edit of the member line i of G(20,6): the lines of the edited file
_G_LINE_EDITS = {
    "swap two elements": lambda lines, i: _with(lines, i, _swap_two(lines[i])),
    "duplicate the previous line": lambda lines, i: _with(lines, i, lines[i - 1]),
    "element out of range": lambda lines, i: _with(lines, i, lines[i].rsplit(" ", 1)[0] + " 21"),
    "blank line": lambda lines, i: _with(lines, i, "", lines[i]),
    "leading space": lambda lines, i: _with(lines, i, " " + lines[i]),
    "drop an element": lambda lines, i: _with(lines, i, lines[i].rsplit(" ", 1)[0]),
    "move the last element to the next line": _move_last_element,
    "trailing space": lambda lines, i: _with(lines, i, lines[i] + " "),
    "double space": lambda lines, i: _with(lines, i, lines[i].replace(" ", "  ", 1)),
    "tab for a space": lambda lines, i: _with(lines, i, lines[i].replace(" ", "\t", 1)),
}


def _chunk_ends(text):
    """The 1-based numbers of the lines that end a chunk of the bulk path,
    the last chunk's excepted: each chunk runs up to the first "\n" past
    ``CHUNK_CHARS`` characters."""
    ends, start = [], text.find("\n") + 1
    while 0 <= (end := text.find("\n", start + CHUNK_CHARS)) < len(text) - 1:
        ends.append(text.count("\n", 0, end) + 1)
        start = end + 1
    return ends


@pytest.mark.parametrize("edit", list(_G_LINE_EDITS))
def test_parse_family_matches_reference_on_mutated_g_20_6(g_20_6_lines, edit):
    """Edits at the first line, around the chunk boundaries and at the last
    line of G(20,6)'s 8,619-line file, with "\n" endings, "\r\n" endings
    and no final newline.  Moving an element to the next line keeps a
    chunk's token count, so only the alignment of the line sentinels tells
    it from a canonical chunk."""
    lines = g_20_6_lines
    ends = _chunk_ends("\n".join(lines) + "\n")
    assert ends
    for line_no in (2, *(e + d for e in ends for d in (-1, 0, 1, 2)), len(lines)):
        edited = _G_LINE_EDITS[edit](lines, line_no - 1)
        for sep, last in (("\n", "\n"), ("\r\n", "\r\n"), ("\n", "")):
            text = sep.join(edited) + last
            outcome = _outcome(parse_family, text)
            assert outcome == _outcome(reference_parse_family, text), (edit, line_no, sep, last)


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


def test_trace_check_bounds_on_a_window_past_the_single_pair_threshold(tmp_path, capsys):
    """The Fano plane with the window [7] is valid input: the single-pair
    bound, which needs n >= k+|U|-2 = 8, is skipped, not an internal error.
    The text output names what was skipped and why under the verdict, so
    this pass, where only the α-inequality ran, reads apart from a full one."""
    path = tmp_path / "fano.fam"
    write_family(fano_plane(), path)
    assert run(["trace", str(path), "--window", "1,2,3,4,5,6,7", "--check-bounds"]) == 0
    assert capsys.readouterr().out.endswith(
        "TRACE-BOUNDS: PASS\n"
        "  skipped single-pair: needs n >= k+|U|-2 = 8\n"
        "  skipped disjoint-pair: needs n >= 2k+|U|-4 = 9\n"
        "  evaluated: sperner-alpha 70\n")


def test_classify_below_three_points(tmp_path, capsys):
    """Over n < 3 there is no 3-set, so T^(3)(F) is empty.  The library's
    τ ≠ 3 warning still comes, and the CLI prints it on stderr as an
    ekrforge message; the exit code and stdout are those of a plain
    classification."""
    path = tmp_path / "n2.fam"
    path.write_text("2 1 1\n1\n")
    assert run(["classify", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "empty witness=None\n"
    assert captured.err == "ekrforge: warning: classify_T3: covering number is 1, not 3\n"
    with pytest.warns(UserWarning, match="covering number is 1, not 3"):
        classify_T3(read_family(path))


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
    # every trace statement reads a pair of window points
    (["trace", "G73", "--window", "7", "--check-bounds"],
     "trace_bound_check needs a window of at least 2 points, got 1: "
     "every statement reads a pair of its points"),
    (["trace", "G73", "--window", "", "--check-bounds"],
     "trace_bound_check needs a window of at least 2 points, got 0: "
     "every statement reads a pair of its points"),
    (["trace", "ZERO", "--window", "1", "--check-bounds"],
     "tau of a family holding the empty set is undefined: no set meets it"),
    (["classify", "DISJOINT"], "classify_T3 requires an intersecting family"),
    (["classify", "EMPTY"], "tau of an empty family is undefined"),
    (["saturate", "DISJOINT"], "saturate requires an intersecting family"),
    (["tau", "EMPTY"], "tau of an empty family is undefined"),
    (["tau", "ZERO"], "tau of a family holding the empty set is undefined: no set meets it"),
    (["classify", "ZERO"],
     "tau of a family holding the empty set is undefined: no set meets it"),
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
    # ID-G-POLY's n-ranges start at 9, 11 and 13 (k = 4, 5, 6)
    (["verify", "--suite", "ID-G-POLY", "--n-max", "5"],
     "ID-G-POLY: n_max 5 leaves one of its n-ranges empty, so it would check nothing there"),
    (["verify", "--suite", "ID-G-POLY", "--n-max", "12"],
     "ID-G-POLY: n_max 12 leaves one of its n-ranges empty, so it would check nothing there"),
    # ID-F-REC checks the recurrence for 5 <= k < k_max
    (["verify", "--suite", "ID-F-REC", "--k-max", "3"],
     "ID-F-REC: k_max 3 leaves one of its k-ranges empty, so it would check nothing there"),
    (["verify", "--suite", "ID-F-REC", "--k-max", "5"],
     "ID-F-REC: k_max 5 leaves one of its k-ranges empty, so it would check nothing there"),
    (["verify", "--suite", "ID-G-SIZE", "--k-max", "40"],
     "ID-G-SIZE: n = 2k + n_span reaches 92 at k = 40, past the 64-point ground set"),
    (["verify", "--suite", "ID-G-SIZE", "--k-max", "10"],
     "ID-G-SIZE: G(30,9) has 3990315 members, past the limit of 1048576 per family"),
    (["verify", "--suite", "all", "--k-max", "40"],
     "ID-G-SIZE: n = 2k + n_span reaches 92 at k = 40, past the 64-point ground set"),
    # the closed form is evaluated before G(N,k) is built, so the first point is named
    (["verify", "--suite", "ID-G-SIZE", "--k-min", "2"],
     "g_size_formula requires n >= 2k >= 6, got n=4, k=2"),
    (["verify", "--suite", "SATURATION-PROPS", "--samples", "0"],
     "SATURATION-PROPS: samples must be at least 1, got 0"),
    (["verify", "--suite", "SATURATION-PROPS", "--samples", "-5"],
     "SATURATION-PROPS: samples must be at least 1, got -5"),
    (["verify", "--suite", "SPERNER-RANDOM", "--samples", "-5"],
     "SPERNER-RANDOM: samples must be at least 1, got -5"),
    (["verify", "--suite", "PROP-14", "--samples", "0"],
     "PROP-14: samples must be at least 1, got 0"),
    (["verify", "--suite", "all", "--samples", "0"],
     "HILTON-LEX: samples must be at least 1, got 0"),
    (["verify", "--suite", "TRACE-BOUNDS-RANDOM", "--samples", "50"],
     "TRACE-BOUNDS-RANDOM: samples 50 draw 50 families, fewer than the 100 that must "
     "meet the window hypothesis, so it would always fail"),
    # 99 samples draw 49 families at each of the two grid points
    (["verify", "--suite", "TRACE-BOUNDS-RANDOM", "--samples", "99"],
     "TRACE-BOUNDS-RANDOM: samples 99 draw 98 families, fewer than the 100 that must "
     "meet the window hypothesis, so it would always fail"),
]
FAMILIES = {"G73": build_G(7, 3), "STAR": full_star(7, 3), "EMPTY": UniformFamily(6, 3, ()),
            "DISJOINT": UniformFamily.from_sets(7, 3, [(2, 3, 4), (2, 5, 6), (5, 6, 7)]),
            "ZERO": UniformFamily(3, 0, (0,))}  # {∅}, written as "3 0 1\n\n"


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
    # of 100 samples, fewer than TRACE-BOUNDS-RANDOM's floor of 100 meet the
    # window hypothesis (3 samples are refused: they could never meet it);
    # k_max 6 is the least that ID-F-REC accepts (its recurrence runs to k_max - 1)
    assert run(["verify", "--suite", "all", "--k-max", "6", "--n-span", "4",
                "--n-max", "20", "--samples", "100", "--format", "json-lines"]) == 1
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
    # 100 samples draw 100 families, enough to reach the floor of 100
    assert properties.range_refusal("TRACE-BOUNDS-RANDOM", samples=100) is None
    assert properties.range_refusal("SATURATION-PROPS", samples=1) is None
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


# the commands that print one JSON object offer json-lines alone: a
# json-array value would print the same bytes
@pytest.mark.parametrize("argv", [
    ["tau", "FAMILY"], ["covers", "FAMILY", "--ell", "2"],
    ["trace", "FAMILY", "--window", "1,2,3,4,5"], ["classify", "FAMILY"]],
    ids=lambda argv: argv[0])
def test_json_array_only_where_certificates_are_listed(argv, tmp_path, capsys):
    family = tmp_path / "g.fam"
    write_family(build_G(9, 4), family)
    argv = [str(family) if a == "FAMILY" else a for a in argv]
    assert run(argv + ["--format", "json-array"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --format: invalid choice: 'json-array'" in captured.err


# the output that --timings would time, and what each command needs for it
UNTIMED = [
    (["oracle", "--n", "7", "--k", "3"], "--format json-lines or json-array"),
    (["trace", "FAMILY", "--window", "1,2,3,4,5"], "--check-bounds"),
    (["trace", "FAMILY", "--window", "1,2,3,4,5", "--format", "json-lines"], "--check-bounds"),
    (["trace", "FAMILY", "--window", "1,2,3,4,5", "--check-bounds", "--format", "text"],
     "--format json-lines:"),
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
