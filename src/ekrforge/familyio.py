"""The family text format.

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
``CHUNK_LINES`` lines, so that the per-member work runs in C and only one
chunk's tokens are alive at a time.  A chunk is accepted only if every
line is canonical: exactly k-1 single spaces, every token the decimal
text of a point of [n] without sign or leading zero, and the points
strictly increasing.  One duplicate test and one sort follow.  When
anything fails (a blank or non-canonical line, as every member line at
k = 0 is, a count that disagrees with the header, a duplicate), the
per-line reader runs from line 2 instead.  It is the only path that
reports errors, so the diagnostics, their line numbers and their
precedence do not depend on the bulk path.
"""

from __future__ import annotations

from itertools import repeat
from operator import lt
from pathlib import Path
from typing import TextIO

from .families import UniformFamily

CHUNK_LINES = 4096


class FamilyFormatError(ValueError):
    """Malformed family file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_family(text: str) -> UniformFamily:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FamilyFormatError(1, "missing 'n k m' header")
    head = lines[0].split()
    if len(head) != 3:
        raise FamilyFormatError(1, f"header must be 'n k m', got {lines[0]!r}")
    try:
        n, k, m = (int(x) for x in head)
    except ValueError:
        raise FamilyFormatError(1, f"non-integer header field in {lines[0]!r}") from None
    if n < 1 or n > 64:
        raise FamilyFormatError(1, f"ground size {n} outside [1, 64]")
    if not 0 <= k <= n:
        raise FamilyFormatError(1, f"uniformity {k} outside [0, {n}]")
    if m < 0:
        raise FamilyFormatError(1, f"negative member count {m}")
    masks = _canonical_masks(lines, n, k, m)
    if masks is None:
        masks = _checked_masks(lines, n, k, m)
    return UniformFamily(n, k, tuple(sorted(masks)))


def _canonical_masks(lines: list[str], n: int, k: int, m: int) -> list[int] | None:
    """The members of ``lines[1:]`` in file order if every member line is
    canonical and the m members are distinct, else None."""
    if len(lines) - 1 != m:
        return None
    table = {str(x): 1 << (x - 1) for x in range(1, n + 1)}
    masks: list[int] = []
    for start in range(1, len(lines), CHUNK_LINES):
        chunk = lines[start:start + CHUNK_LINES]
        # no line has k-1 = -1 spaces: a file with members at k = 0 falls back
        if not all(map((k - 1).__eq__, map(str.count, chunk, repeat(" ")))):
            return None
        try:
            bits = list(map(table.__getitem__, " ".join(chunk).split(" ")))
        except KeyError:
            return None
        # bits[i*k + j] is the j-th point of the chunk's i-th line
        if not all(all(map(lt, bits[j::k], bits[j + 1::k])) for j in range(k - 1)):
            return None
        masks += map(sum, zip(*[iter(bits)] * k))
    return masks if len(set(masks)) == m else None


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
    # one 256-entry table per 8 points of the ground set: the text of the
    # elements that each value of that byte of a mask stands for
    tables = [(lo, [" ".join(str(lo + b + 1) for b in range(8) if v >> b & 1)
                    for v in range(256)])
              for lo in range(0, family.n, 8)]
    lines = [f"{family.n} {family.k} {len(family)}\n"]
    lines += [" ".join([t[m >> lo & 255] for lo, t in tables if m >> lo & 255]) + "\n"
              for m in family.masks]
    return "".join(lines)


def write_family(family: UniformFamily, path: str | Path | TextIO) -> None:
    text = render_family(family)
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text)
