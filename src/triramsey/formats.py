"""Bit-exact serialization: graph6 codec, level files, run-report documents.

graph6 is the standard interchange coding for small graphs: one byte holding
order+63 (single-byte size form, order <= 62), then the upper-triangular
adjacency bits in column-major order -- x(0,1), x(0,2), x(1,2), x(0,3), ... --
packed six per byte, most significant bit first, each byte offset by 63.

A level file is a text document: a fixed header naming the search parameters
and member count, one graph6 line per member in canonical-key order, and a
SHA-256 digest over the body so truncation or tampering is detected before a
resumed search can be poisoned.

The graph6 layout has one home, this module.  Both codecs have one
implementation each, a table-driven numpy kernel (``graph6_tables``,
``row_tables``, built by ``graphs._bit_tables``) between a (graphs x n)
array of adjacency rows and a (graphs x characters) uint8 block of lines;
``graph6_encode`` and ``graph6_decode`` validate one graph or line and call
it on a batch of one.  Level bodies move as such blocks, never as one
string per member: ``write_level`` streams a level's rows to the file and
the digest a chunk at a time, and ``read_level`` decodes and labels a body
as one block (``_regular_body``), a labeling batch (``graphs._label_spans``)
at a time, into one array of keys that ``canon.sorted_keys`` sorts, and
leaves the level's rows to ``LevelSet.from_keys``.  A body
irregular as written (CRLF, ``>>graph6<<`` headers, padded lines) is split,
normalized (``_graph6_text``) and rejoined first; if it is still irregular,
``graph6_decode`` reports its first bad line.
"""

from __future__ import annotations

import hashlib
import os
from functools import lru_cache
from pathlib import Path

import numpy as np

from .canon import canonical_forms, key_width, sorted_keys
from .canon import canonical_graph  # noqa: F401  (perfbench/tracing.py swaps this name for a timed wrapper)
from .enumeration import LevelSet, ProblemSpec
from .errors import CapacityError, DecodeError, IntegrityError, SpecConflictError
from .graphs import (
    MAX_N,
    Graph,
    _apply_tables,
    _bit_tables,
    _label_spans,
    _row_sides,
    _spans,
)

_LEVEL_MAGIC = "tfree-level 1"
_REPORT_MAGIC = "run-report 1"


def _graph6_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The vertex pairs a < b of order n in graph6 order, by b and then by
    a, as index arrays of their a and their b."""
    vertices = np.arange(n)
    second, first = np.nonzero(vertices[:, None] > vertices)
    return first, second


# ``graph6_encode`` and ``graph6_decode`` take one graph of any order, so
# that a caller may switch orders at every call; the tables take at most
# 0.33 MB for one order and 6 MB for every order, so every order's are kept.
@lru_cache(maxsize=None)
def graph6_tables(n: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    """graph6 -> rows: character 1 + s // 6, less 63, holds the graph6 pair
    s at bit 5 - s % 6."""
    first, second = _graph6_pairs(n)
    char, place = np.divmod(np.tile(np.arange(len(first)), 2), 6)
    return _bit_tables(1 + char, 5 - place, *_row_sides(first, second), 6, np.uint32)


@lru_cache(maxsize=None)
def row_tables(n: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    """Rows -> graph6: the source units are the bytes of the rows as
    little-endian words of ``row_bytes(n)`` bytes, where row b holds pair
    (a, b) at bit a; the target words are the line's characters, less 63
    (``graph6_tables`` inverted)."""
    first, second = _graph6_pairs(n)
    byte, bit = np.divmod(first, 8)
    char, place = np.divmod(np.arange(len(first)), 6)
    return _bit_tables(second * row_bytes(n) + byte, bit, 1 + char, 5 - place, 8, np.uint8)


def row_bytes(n: int) -> int:
    """The bytes of one row word of order n in ``row_tables``: 4 up to
    MAX_N, 8 past it (graph6 lines reach order 62)."""
    return 4 if n <= MAX_N else 8


def graph6_encode(g: Graph) -> str:
    n = g.order
    if n > 62:
        raise CapacityError("single-byte graph6 size form supports order <= 62")
    rows = np.array(g.adj, dtype=f"<u{row_bytes(n)}").reshape(1, n)
    return _graph6_block(rows)[0, :-1].tobytes().decode("ascii")


def _graph6_width(n: int) -> int:
    """The characters of a graph6 line of order n: the size character, then
    n(n-1)/2 bits six a character."""
    return 1 + (n * (n - 1) // 2 + 5) // 6


def _graph6_block(rows: np.ndarray) -> np.ndarray:
    """The graph6 lines of every graph of a (graphs x n) unsigned row array,
    each ended by a newline, as a (graphs x (width + 1)) uint8 block: the
    sum of the ``row_tables`` entries of the rows' bytes, plus 63."""
    m, n = rows.shape
    block = np.zeros((m, _graph6_width(n) + 1), dtype=np.uint8)
    octets = np.ascontiguousarray(rows, dtype=f"<u{row_bytes(n)}").view(np.uint8)
    _apply_tables(row_tables(n), octets, block)
    block[:, 1:-1] += np.uint8(63)
    block[:, 0] = n + 63
    block[:, -1] = ord("\n")
    return block


def _graph6_rows(data: np.ndarray, n: int) -> np.ndarray:
    """The (graphs x n) uint32 rows of checked graph6 lines of order ``n``, as a
    (graphs x characters) uint8 array (characters past the line's ignored)."""
    return _apply_tables(graph6_tables(n), data - np.uint8(63),
                         np.zeros((len(data), n), dtype=np.uint32))


def _regular(data: np.ndarray, n: int) -> np.ndarray:
    """Per line of a (lines x ``_graph6_width(n)``) uint8 array: whether its
    characters are all in the graph6 range, its size character is n's and
    its padding bits are zero, which is all ``graph6_decode`` checks of a
    line of that width."""
    nbits = n * (n - 1) // 2
    padding = np.uint8((1 << (6 * data.shape[1] - 6 - nbits)) - 1)
    values = data - np.uint8(63)
    return ((values < 64).all(axis=1) & (data[:, 0] == n + 63)
            & ((values[:, -1] & padding) == 0))


def _graph6_text(line: str) -> str:
    """A line's graph6 characters: the line stripped, less one leading ``>>graph6<<``."""
    return line.strip().removeprefix(">>graph6<<")


def graph6_decode(line: str) -> Graph:
    s = _graph6_text(line)
    if not s:
        raise DecodeError("empty graph6 line", offset=0)
    if not (s.isascii() and "?" <= min(s) and max(s) <= "~"):
        for idx, ch in enumerate(s):
            if not 63 <= ord(ch) <= 126:
                raise DecodeError(f"character {ch!r} outside graph6 range 63..126", offset=idx)
    if ord(s[0]) == 126:
        raise DecodeError("multi-byte size form is not supported", offset=0)
    n = ord(s[0]) - 63
    if n > MAX_N:
        raise CapacityError(f"decoded order {n} exceeds capacity {MAX_N}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - 1 < need:
        raise DecodeError(f"truncated: expected {need} data characters, found {len(s) - 1}",
                          offset=len(s))
    if len(s) - 1 > need:
        raise DecodeError(f"expected {need} data characters, found {len(s) - 1}",
                          offset=1 + need)
    pad = need * 6 - nbits
    if (ord(s[-1]) - 63) & ((1 << pad) - 1):
        raise DecodeError("nonzero trailing padding bits", offset=len(s) - 1)
    data = np.frombuffer(s.encode("ascii"), dtype=np.uint8).reshape(1, -1)
    return Graph(n, tuple(_graph6_rows(data, n)[0].tolist()))


def _spec_fields(spec: ProblemSpec) -> list[str]:
    return [
        f"k {spec.k}",
        f"i {'-' if spec.i is None else spec.i}",
        f"j {spec.j}",
    ]


def write_level(level: LevelSet, spec: ProblemSpec, destination) -> None:
    """Write a level file; members appear in stored (canonical-key) order.

    The body is encoded from the level's rows a chunk (``_spans``) at a
    time and streamed to the file and the digest."""
    header = [_LEVEL_MAGIC, *_spec_fields(spec), f"order {level.order}",
              f"count {len(level)}", "begin"]
    digest = hashlib.sha256()
    path = Path(destination)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as out:
        out.write(("\n".join(header) + "\n").encode("ascii"))
        for span in _spans(len(level), level.order ** 2):
            block = _graph6_block(level.rows[span])
            digest.update(block)
            out.write(block)
        out.write(f"digest sha256 {digest.hexdigest()}\n".encode("ascii"))
        # On disk before the rename, so a crash never leaves an empty checkpoint.
        out.flush()
        os.fsync(out.fileno())
    os.replace(tmp, path)


def _parse_header_int(lines: list[str], index: int, name: str, low: int,
                      high: int | None = None) -> int:
    try:
        tag, value = lines[index].split(" ", 1)
    except (ValueError, IndexError):
        raise IntegrityError(f"level file line {index + 1}: missing '{name}' field")
    if tag != name:
        raise IntegrityError(f"level file line {index + 1}: expected '{name}', found '{tag}'")
    # Only what ``write_level`` writes: int() would also take "+1", " 1" and "1_0".
    digits = value.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise IntegrityError(f"level file line {index + 1}: bad {name} value {value!r}")
    number = int(value)
    if number < low or high is not None and number > high:
        raise IntegrityError(f"level file line {index + 1}: {name} {number} "
                             f"outside {low}..{high or ''}")
    return number


def _parse_header(lines: list[str]) -> tuple[ProblemSpec, int, int]:
    """The spec, order and member count of a level file's first lines."""
    if not lines or lines[0] != _LEVEL_MAGIC:
        raise IntegrityError(f"not a level file: missing '{_LEVEL_MAGIC}' header")
    if len(lines) < 7:
        raise IntegrityError("level file: incomplete header")
    k = _parse_header_int(lines, 1, "k", 0)
    i = None if lines[2] == "i -" else _parse_header_int(lines, 2, "i", 2)
    j = _parse_header_int(lines, 3, "j", 2)
    order = _parse_header_int(lines, 4, "order", 1, MAX_N)
    count = _parse_header_int(lines, 5, "count", 0)
    if lines[6] != "begin":
        raise IntegrityError("level file line 7: missing 'begin' marker")
    return ProblemSpec(k=k, j=j, i=i), order, count


def _regular_body(data: bytes, start: int, order: int, count: int) -> np.ndarray | None:
    """The body of a level file whose header ends at byte ``start``, as a
    read-only (count x (width + 1)) view of the file's bytes, when it is
    regular: ``count`` lines of graph6 width, each ended by a newline, every
    one ``_regular``.  None for any other body."""
    width = _graph6_width(order) + 1
    if len(data) < start + count * width:
        return None
    block = np.frombuffer(data, dtype=np.uint8, count=count * width, offset=start)
    block = block.reshape(count, width)
    if (block[:, -1] == ord("\n")).all() and _regular(block[:, :-1], order).all():
        return block
    return None


def read_level(source) -> tuple[LevelSet, ProblemSpec]:
    """Read and validate a level file; members are re-canonicalized.

    A regular body (``_regular_body``: what ``write_level`` writes) is read
    as a byte block over the file's bytes.  Any other body is split into
    lines, hashed as they are and read as a block over their normalized
    (``_graph6_text``) text, each line ended by a newline, if that is
    regular (a CRLF, prefixed or padded body is).  If not, the lines go
    through ``graph6_decode`` and the order check in file order, after the
    digest check, so that the first bad line raises.  The block is decoded
    and labeled a labeling batch (``_label_spans``) at a time
    (``canonical_forms``) into one array of keys, whose distinct keys
    ``sorted_keys`` gives in key order; a repeated class leaves fewer of
    them than members.  The level's rows are decoded from the sorted keys
    (``LevelSet.from_keys``).
    """
    data = Path(source).read_bytes()
    if not data.isascii():
        at = int(np.argmax(np.frombuffer(data, dtype=np.uint8) > 127))
        raise IntegrityError(f"level file: non-ASCII byte 0x{data[at]:02x} "
                             f"at byte offset {at}")
    start = 0
    for _ in range(7):  # past the header: the first seven lines
        start = data.find(b"\n", start) + 1 or len(data)
    head = data[:start].decode("ascii").splitlines()
    spec, order, count = _parse_header(head)
    block = _regular_body(data, start, order, count) if len(head) == 7 else None
    if block is None:
        lines = data.decode("ascii").splitlines()
        body, rest = lines[7:7 + count], lines[7 + count:]
        if len(body) != count:
            raise IntegrityError(f"level file holds {len(body)} members, header says {count}")
        hashed = "".join(line + "\n" for line in body).encode("ascii")
        text = "".join(_graph6_text(line) + "\n" for line in body).encode("ascii")
        block = _regular_body(text, 0, order, count)
    else:
        hashed, rest = block, data[start + block.size:].decode("ascii").splitlines()
    if not rest:
        raise IntegrityError("level file: missing digest footer")
    if not rest[0].startswith("digest sha256 "):
        raise IntegrityError("level file: malformed digest footer")
    if len(rest) > 1:
        raise IntegrityError(f"level file line {7 + count + 2}: data after digest footer")
    actual, expected = hashlib.sha256(hashed).hexdigest(), rest[0][len("digest sha256 "):]
    if actual != expected:
        raise IntegrityError(f"level file digest mismatch: {actual} != {expected}")
    if block is None:  # some line is bad; the first raises
        for g in map(graph6_decode, body):
            if g.order != order:
                raise IntegrityError(f"member of order {g.order} in a level of order {order}")

    keys = np.empty((count, key_width(order)), dtype=np.uint8)
    for span in _label_spans(count, order):
        keys[span] = canonical_forms(_graph6_rows(block[span], order))
    keys = sorted_keys(keys)
    if len(keys) < count:
        raise IntegrityError("level file repeats an isomorphism class")
    return LevelSet.from_keys(order, keys), spec


def level_filename(order: int) -> str:
    return f"level-{order:02d}.lvl"


def check_spec_match(file_spec: ProblemSpec, spec: ProblemSpec, source) -> None:
    if file_spec != spec:
        raise SpecConflictError(
            f"{source}: written for k={file_spec.k} i={file_spec.i} j={file_spec.j}, "
            f"requested k={spec.k} i={spec.i} j={spec.j}")


def render_report(report) -> str:
    """Key-value run report with a per-level table; schema in the README."""
    spec = report.spec
    lines = [
        _REPORT_MAGIC,
        f"status {report.status}",
        f"mode {spec.mode}",
    ]
    lines.extend(_spec_fields(spec))
    lines.append(f"value {'-' if report.value is None else report.value}")
    lines.append(f"extremal-count {report.extremal_count}")
    lines.append(f"resumed-from {'-' if report.resumed_from is None else report.resumed_from}")
    lines.append("levels")
    for order in sorted(report.per_level_counts):
        seconds = report.wall_times.get(order, 0.0)
        lines.append(f"order {order} count {report.per_level_counts[order]} "
                     f"seconds {seconds:.3f}")
    lines.append("end")
    return "\n".join(lines)
