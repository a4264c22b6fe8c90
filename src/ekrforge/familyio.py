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
chunk's lines are alive at a time; no list of all the lines is made.
A bulk line must be canonical: every point the decimal text of a point
of [n] without sign or leading zero, the points strictly increasing and
separated by single spaces (so no blank, doubled, leading or trailing
space and no tab).  In such a line the length fixes the layout: a line
of length 2k - 1 + d holds k - d one-digit points, then d two-digit
points.  So the chunk's lines are sorted by length, each length's lines
are joined and encoded as ASCII, and every token position is read as
one stride slice of those bytes, a column with one byte per line: the
separator columns must be spaces, the others digits, no tens digit 0.
Each point column becomes one byte per line (a tens column plus its
units column, added as integers, since no point exceeds 99), the points
must lie in [n], and neighbouring columns must increase (one subtraction
of integers per pair, with 0x80 added to every byte so that no borrow
crosses a byte).  Byte j of every mask is the sum of the point columns
mapped through a table of the bits of the points 8j + 1 .. 8j + 8, the
inverse of the writer's tables.  One sort and a strict-increase test
(no duplicates) follow, and the family is built with
``UniformFamily._trusted``, since the bulk path has already proved each
member.  When anything fails (a blank or non-canonical line, as every
member line at k = 0 is, a non-ASCII character, a count that disagrees
with the header, a duplicate), the per-line reader runs from line 2
instead, over ``str.splitlines``.  It is the only path that reports
errors, so the diagnostics, their line numbers and their precedence do
not depend on the bulk path.  A text that does not end in "\n", or
whose header line holds another line boundary ("\r\n", "\r", "\v",
"\u2028", ...), goes to the per-line reader at once, since cutting at
"\n" alone would see other lines than ``splitlines`` does; another
boundary inside a member line is not a canonical character, so the bulk
path declines it.  Files are read and written as UTF-8, whatever the
locale.

The writer reads byte j of every mask as one C slice of the masks packed
as little-endian 64-bit words, maps it through a 256-entry table of element texts for
the points 8j + 1 .. 8j + 8, and adds the columns up line by line.
"""

from __future__ import annotations

import struct
from itertools import chain, groupby
from operator import add, itemgetter, lt
from pathlib import Path

from .families import MAX_GROUND, UniformFamily

CHUNK_CHARS = 1 << 16

_DIGITS = b"0123456789"
# the value of a digit byte, and ten times it for a tens digit
_ONES = bytes.maketrans(_DIGITS, bytes(range(10)))
_TENS = bytes.maketrans(_DIGITS, bytes(range(0, 100, 10)))
# the bytes above 0x80, which the order test deletes
_ABOVE_HALF = bytes(range(0x81, 0x100))
# per 8 points 8j + 1 .. 8j + 8: the bit of each point byte in byte j of a
# mask, 0 for the points outside; the inverse of render_family's tables
_POINT_BITS = [bytes(8 * j + 1) + bytes(1 << b for b in range(8)) + bytes(247 - 8 * j)
               for j in range(8)]


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
    if n < 1 or n > MAX_GROUND:
        raise FamilyFormatError(1, f"ground size {n} outside [1, {MAX_GROUND}]")
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
            return UniformFamily._trusted(n, k, tuple(masks))
    return UniformFamily(n, k, tuple(sorted(_checked_masks(text.splitlines(), n, k, m))))


def _canonical_masks(text: str, start: int, n: int, k: int, m: int) -> list[int] | None:
    r"""The members of the member lines ``text[start:]``, each ended by
    "\n", sorted, if every member line is canonical and the m members are
    distinct, else None."""
    if text.count("\n", start) != m:
        return None
    masks: list[int] = []
    while start < len(text):
        # a chunk of whole lines: up to the first "\n" past CHUNK_CHARS
        # characters, or to the end
        end = text.find("\n", start + CHUNK_CHARS)
        if end < 0:
            end = len(text) - 1
        lines = text[start:end].split("\n")
        lines.sort(key=len)
        # a canonical line of length 2k - 1 + d holds k - d one-digit points,
        # then d two-digit points; at k = 0 a line is "", so a file with
        # members falls back
        for width, same in groupby(lines, len):
            twos = width - (2 * k - 1)
            if not 0 <= twos <= k:
                return None
            try:
                block = "".join(same).encode("ascii")
            except UnicodeEncodeError:
                return None
            got = _block_masks(block, width, k - twos, twos, n)
            if got is None:
                return None
            masks += got
        start = end + 1
    masks.sort()
    return masks if all(map(lt, masks, masks[1:])) else None


def _block_masks(block: bytes, width: int, ones: int, twos: int,
                 n: int) -> tuple[int, ...] | None:
    """The members of ``block``, lines of ``width`` characters joined with
    no separator, if every line is ``ones`` one-digit points, then ``twos``
    two-digit points, strictly increasing, in [n] and separated by single
    spaces, else None.  Each check and each step reads one column, the
    same position of every line, as one C slice."""
    count = len(block) // width
    starts = [2 * i for i in range(ones)] + [2 * ones + 3 * i for i in range(twos)]
    # the only non-digits are spaces, as many as the separator columns hold,
    # and every separator column is spaces
    spaces = b" " * count
    if (block.translate(None, _DIGITS) != spaces * (ones + twos - 1)
            or any(block[c - 1::width] != spaces for c in starts[1:])):
        return None
    points = [block[c::width].translate(_ONES) for c in starts[:ones]]
    for c in starts[ones:]:
        tens = block[c::width]
        if b"0" in tens:
            return None
        # a point is at most 99, so no byte carries into the next
        points.append((int.from_bytes(tens.translate(_TENS), "big")
                       + int.from_bytes(block[c + 1::width].translate(_ONES), "big")
                       ).to_bytes(count, "big"))
    if b"".join(points).translate(None, bytes(range(1, n + 1))):
        return None
    # the points lie in [1, 64], so each byte of next + 0x80 - previous lies in
    # [65, 191] and no borrow crosses a byte; above 0x80 means increasing
    half = int.from_bytes(b"\x80" * count, "big")
    values = [int.from_bytes(p, "big") for p in points]
    for lo, hi in zip(values, values[1:]):
        if (hi + half - lo).to_bytes(count, "big").translate(None, _ABOVE_HALF):
            return None
    # byte j of each mask: the bits of its points in 8j + 1 .. 8j + 8, which
    # are distinct, so their sum is their union and no byte carries
    packed = bytearray(8 * count)
    for j, table in enumerate(_POINT_BITS[:(n + 7) // 8]):
        packed[j::8] = sum(int.from_bytes(p.translate(table), "big")
                           for p in points).to_bytes(count, "big")
    return struct.unpack(f"<{count}Q", packed)


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
    return parse_family(Path(path).read_text(encoding="utf-8"))


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


def write_family(family: UniformFamily, path: str | Path) -> None:
    Path(path).write_text(render_family(family), encoding="utf-8")
