r"""The family text format.

First line ``n k m``; then m lines, each the sorted 1-based elements of
one member separated by single spaces; member lines in colex order;
trailing newline; no comments.  The reader accepts member lines in any
order (families are canonically re-sorted on load) but insists on sorted
elements within a line, correct cardinalities, in-range elements and no
duplicate members.  It skips blank lines, except at k = 0, where a blank
line is the one possible member, ∅ (so a second one is a duplicate).  It
reports the first problem in file order with its 1-based line number;
within one line, a non-integer element comes first, then a wrong
cardinality, an out-of-range element and an order error.

After the header, the member lines go through a bulk path in chunks of
whole lines, each cut at the first "\n" past ``CHUNK_CHARS`` characters
by one ``str.find``, so that the per-member work runs in C and only one
chunk's tokens are alive at a time; no list of all the lines is made.
Each "\n" of a chunk becomes a newline token, the sentinel, and the
chunk is split on single spaces; it is aligned when it has exactly k
tokens per line plus one sentinel between lines, and the sentinels sit
in every (k+1)-th slot.  It is accepted only if every line is canonical:
every token the decimal text of a point of [n] without sign or leading
zero (so no blank, doubled, leading or trailing space and no tab), and
the points strictly increasing.  One duplicate test and one sort follow,
and the family is built with ``UniformFamily._trusted``, since the bulk
path has already proved each member.  When anything fails (a blank or
non-canonical line, as every member line at k = 0 is, a count that
disagrees with the header, a duplicate), the per-line reader runs from
line 2 instead, over ``str.splitlines``.  It is the only path that
reports errors, so the diagnostics, their line numbers and their
precedence do not depend on the bulk path.  A text that does not end in
"\n", or whose header line holds another line boundary ("\r\n", "\r",
"\v", "\u2028", ...), goes to the per-line reader at once, since cutting
at "\n" alone would see other lines than ``splitlines`` does; another
boundary inside a member line is not a canonical token, so the bulk path
declines it.

The writer reads byte j of every mask as one C slice of the masks packed
as little-endian 64-bit words, maps it through a 256-entry table of element texts for
the points 8j + 1 .. 8j + 8, and adds the columns up line by line.
"""

from __future__ import annotations

import struct
from itertools import chain, repeat
from operator import add, itemgetter, lt
from pathlib import Path
from typing import TextIO

from .families import UniformFamily

CHUNK_CHARS = 1 << 16


class FamilyFormatError(ValueError):
    """Malformed family file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_family(text: str) -> UniformFamily:
    cut = text.find("\n")
    # the header line ends at the first line boundary of any kind, which
    # lies at or before the first "\n"
    first = text[:cut] if cut >= 0 else text
    header = (first.splitlines() or [""])[0]
    if not header.strip():
        raise FamilyFormatError(1, "missing 'n k m' header")
    head = header.split()
    if len(head) != 3:
        raise FamilyFormatError(1, f"header must be 'n k m', got {header!r}")
    try:
        n, k, m = (int(x) for x in head)
    except ValueError:
        raise FamilyFormatError(1, f"non-integer header field in {header!r}") from None
    if n < 1 or n > 64:
        raise FamilyFormatError(1, f"ground size {n} outside [1, 64]")
    if not 0 <= k <= n:
        raise FamilyFormatError(1, f"uniformity {k} outside [0, {n}]")
    if m < 0:
        raise FamilyFormatError(1, f"negative member count {m}")
    # the bulk path cuts the member lines at "\n" alone, so it reads only a
    # text that ends in "\n" and whose header line runs up to the first "\n"
    if text.endswith("\n") and header == first:
        masks = _canonical_masks(text, cut + 1, n, k, m)
        if masks is not None:
            # the bulk path has shown each member a k-subset of [n], and all distinct
            return UniformFamily._trusted(n, k, tuple(sorted(masks)))
    return UniformFamily(n, k, tuple(sorted(_checked_masks(text.splitlines(), n, k, m))))


def _canonical_masks(text: str, start: int, n: int, k: int, m: int) -> list[int] | None:
    r"""The members of the member lines ``text[start:]``, each ended by
    "\n", in file order if every member line is canonical and the m
    members are distinct, else None."""
    if text.count("\n", start) != m:
        return None
    table = {str(x): 1 << (x - 1) for x in range(1, n + 1)}
    masks: list[int] = []
    while start < len(text):
        # a chunk of whole lines: up to the first "\n" past CHUNK_CHARS
        # characters, or to the end
        end = text.find("\n", start + CHUNK_CHARS)
        if end < 0:
            end = len(text) - 1
        lines = text.count("\n", start, end) + 1
        # a canonical chunk splits into k tokens per line with a "\n" sentinel
        # between lines; at k = 0 a line is one token "", so a file with
        # members falls back
        toks = text[start:end].replace("\n", " \n ").split(" ")
        if len(toks) != lines * (k + 1) - 1:
            return None
        # with the count right, a sentinel outside the slots k::k+1 would
        # be left behind below and fail the lookup: every line has k tokens
        del toks[k::k + 1]
        try:
            bits = list(map(table.__getitem__, toks))
        except KeyError:
            return None
        del toks
        # bits[i*k + j] is the j-th point of the chunk's i-th line
        if not _rising(bits, k):
            return None
        masks += map(sum, zip(*[iter(bits)] * k))
        start = end + 1
    return masks if len(set(masks)) == m else None


def _rising(bits: list[int], k: int) -> bool:
    """True iff every run ``bits[i*k:(i+1)*k]`` strictly increases: one
    comparison of each entry but a run's last with the next one.  The two
    copies die on return, before the next chunk's tokens are made."""
    firsts, lasts = bits[:], bits[:]
    del firsts[k - 1::k], lasts[::k]
    return all(map(lt, firsts, lasts))


def _checked_masks(lines: list[str], n: int, k: int, m: int) -> list[int]:
    """The members of ``lines[1:]`` in file order, checked line by line;
    raises the ``FamilyFormatError`` of the first problem in file order."""
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
            raise _first_duplicate(body, masks) or FamilyFormatError(
                line_no, f"non-integer element in {ln!r}") from None
        if len(elems) != k:
            raise _first_duplicate(body, masks) or FamilyFormatError(
                line_no, f"member has {len(elems)} elements, expected k={k}")
        mask = 0
        for x in elems:
            if not 0 < x <= n:
                raise _first_duplicate(body, masks) or FamilyFormatError(
                    line_no, f"element {x} outside [1, {n}]")
            mask |= bits[x]
        if mask.bit_count() != k or elems != sorted(elems):
            raise _first_duplicate(body, masks) or FamilyFormatError(
                line_no, "elements must be strictly increasing")
        masks.append(mask)
    duplicate = _first_duplicate(body, masks)
    if duplicate:
        raise duplicate
    return masks


def _first_duplicate(body: list[tuple[int, str]],
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


def read_family(path: str | Path) -> UniformFamily:
    return parse_family(Path(path).read_text())


def render_family(family: UniformFamily) -> str:
    masks = family.masks
    # one 256-entry table per 8 points of the ground set: the text of the
    # elements that each value of that byte of a mask stands for, each one
    # followed by a space
    tables = [["".join(f"{8 * j + b + 1} " for b in range(8) if v >> b & 1)
               for v in range(256)]
              for j in range((family.n + 7) // 8)]
    # the masks as little-endian 64-bit words: byte j of every mask is one
    # C slice
    packed = struct.pack(f"<{len(masks)}Q", *masks)
    texts = map(tables[0].__getitem__, packed[0::8])
    for j in range(1, len(tables)):
        texts = map(add, texts, map(tables[j].__getitem__, packed[j::8]))
    # a line is the sum of its columns less the last space
    return "\n".join(chain([f"{family.n} {family.k} {len(masks)}"],
                           map(itemgetter(slice(-1)), texts), [""]))


def write_family(family: UniformFamily, path: str | Path | TextIO) -> None:
    text = render_family(family)
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text)
