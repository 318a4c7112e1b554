"""Bit-exact serialization: graph6 codec, level files, run-report documents.

graph6 is the standard interchange coding for small graphs: one byte holding
order+63 (single-byte size form, order <= 62), then the upper-triangular
adjacency bits in column-major order -- x(0,1), x(0,2), x(1,2), x(0,3), ... --
packed six per byte, most significant bit first, each byte offset by 63.

A level file is a text document: a fixed header naming the search parameters
and member count, one graph6 line per member in canonical-key order, and a
SHA-256 digest over the body so truncation or tampering is detected before a
resumed search can be poisoned.

Both codecs have one implementation each, a numpy kernel over a (graphs x n)
array of adjacency rows; ``graph6_encode`` and ``graph6_decode`` validate one
graph or line and call it on a batch of one.  ``write_level`` encodes a
level's rows a chunk at a time; ``read_level`` decodes and labels the body a
labeling batch (``graphs._label_spans``) at a time and leaves the level's
rows to ``LevelSet.from_keys``.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

from .canon import canonical_forms
from .canon import canonical_graph  # noqa: F401  (perfbench/tracing.py swaps this name for a timed wrapper)
from .enumeration import LevelSet, ProblemSpec
from .errors import CapacityError, DecodeError, IntegrityError, SpecConflictError
from .graphs import (
    MAX_N,
    Graph,
    _label_spans,
    _spans,
    adjacency_matrices,
    matrix_rows,
    row_array,
    upper_pairs,
)

_LEVEL_MAGIC = "tfree-level 1"
_REPORT_MAGIC = "run-report 1"


def graph6_encode(g: Graph) -> str:
    n = g.order
    if n > 62:
        raise CapacityError("single-byte graph6 size form supports order <= 62")
    return _graph6_lines(row_array([g.adj], n))[0]


def _graph6_lines(rows: np.ndarray) -> list[str]:
    """The graph6 line of every graph of a (graphs x n) row array."""
    m, n = rows.shape
    # x(u, v) for u < v in sequence order, by v and then by u: the lower
    # triangle, row by row.
    bits = adjacency_matrices(rows)[:, upper_pairs(n).T]
    # Six bits a character, most significant first, zero padded.
    need = (bits.shape[1] + 5) // 6
    six = np.zeros((m, need * 6), dtype=bool)
    six[:, :bits.shape[1]] = bits
    values = np.packbits(six.reshape(m, need, 6), axis=2)[:, :, 0] >> 2
    text = np.hstack([np.full((m, 1), n, dtype=np.uint8), values]) + np.uint8(63)
    blob = text.tobytes().decode("ascii")
    width = text.shape[1]
    return [blob[at:at + width] for at in range(0, len(blob), width)]


def _graph6_rows(data: np.ndarray, n: int) -> np.ndarray:
    """The (graphs x n) uint32 rows of checked graph6 lines of order ``n``, as a
    (graphs x characters) uint8 array."""
    sequence = np.arange(n * (n - 1) // 2)
    values = data[:, 1 + sequence // 6] - np.uint8(63)
    matrices = np.zeros((len(data), n, n), dtype=bool)
    matrices[:, upper_pairs(n).T] = values >> (5 - sequence % 6).astype(np.uint8) & 1
    matrices |= matrices.transpose(0, 2, 1)
    return matrix_rows(matrices)


def graph6_decode(line: str) -> Graph:
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
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


def _body_digest(lines: list[str]) -> str:
    """The sha256 of the body lines, each ended by a newline."""
    body = "\n".join(lines) + "\n" if lines else ""
    return hashlib.sha256(body.encode("ascii")).hexdigest()


def write_level(level: LevelSet, spec: ProblemSpec, destination) -> None:
    """Write a level file; members appear in stored (canonical-key) order."""
    body = []
    for span in _spans(len(level), level.order ** 2):
        body += _graph6_lines(level.rows[span])
    lines = [_LEVEL_MAGIC]
    lines.extend(_spec_fields(spec))
    lines.append(f"order {level.order}")
    lines.append(f"count {len(body)}")
    lines.append("begin")
    lines.extend(body)
    lines.append(f"digest sha256 {_body_digest(body)}")
    path = Path(destination)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="ascii") as out:
        out.write("\n".join(lines) + "\n")
        # On disk before the rename, so a crash never leaves an empty checkpoint.
        out.flush()
        os.fsync(out.fileno())
    os.replace(tmp, path)


def _parse_header_int(lines: list[str], index: int, name: str) -> int:
    try:
        tag, value = lines[index].split(" ", 1)
    except (ValueError, IndexError):
        raise IntegrityError(f"level file line {index + 1}: missing '{name}' field")
    if tag != name:
        raise IntegrityError(f"level file line {index + 1}: expected '{name}', found '{tag}'")
    try:
        return int(value)
    except ValueError:
        raise IntegrityError(f"level file line {index + 1}: bad {name} value {value!r}")


def read_level(source) -> tuple[LevelSet, ProblemSpec]:
    """Read and validate a level file; members are re-canonicalized.

    The body is decoded and labeled a labeling batch (``_label_spans``) at
    a time (``_body_rows``, ``canonical_forms``), and the level's rows are
    decoded from its sorted keys (``LevelSet.from_keys``).
    """
    data = Path(source).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise IntegrityError(f"level file: non-ASCII byte 0x{data[exc.start]:02x} "
                             f"at byte offset {exc.start}") from None
    lines = text.splitlines()
    if not lines or lines[0] != _LEVEL_MAGIC:
        raise IntegrityError(f"not a level file: missing '{_LEVEL_MAGIC}' header")
    if len(lines) < 7:
        raise IntegrityError("level file: incomplete header")
    k = _parse_header_int(lines, 1, "k")
    i = None if lines[2] == "i -" else _parse_header_int(lines, 2, "i")
    j = _parse_header_int(lines, 3, "j")
    order = _parse_header_int(lines, 4, "order")
    if not 1 <= order <= MAX_N:
        raise IntegrityError(f"level file line 5: order {order} outside 1..{MAX_N}")
    count = _parse_header_int(lines, 5, "count")
    if lines[6] != "begin":
        raise IntegrityError("level file line 7: missing 'begin' marker")
    body = lines[7:7 + count]
    if len(body) != count:
        raise IntegrityError(f"level file holds {len(body)} members, header says {count}")
    footer_index = 7 + count
    if len(lines) <= footer_index:
        raise IntegrityError("level file: missing digest footer")
    footer = lines[footer_index]
    if not footer.startswith("digest sha256 "):
        raise IntegrityError("level file: malformed digest footer")
    if len(lines) > footer_index + 1:
        raise IntegrityError(f"level file line {footer_index + 2}: data after digest footer")
    expected = footer[len("digest sha256 "):]
    actual = _body_digest(body)
    if actual != expected:
        raise IntegrityError(f"level file digest mismatch: {actual} != {expected}")

    spec = ProblemSpec(k=k, j=j, i=i)
    keys = []
    for span in _label_spans(count, order):
        keys += canonical_forms(_body_rows(body[span], order))
    keys.sort()
    for key, next_key in zip(keys, keys[1:]):
        if key == next_key:
            raise IntegrityError("level file repeats an isomorphism class")
    return LevelSet.from_keys(order, keys), spec


def _body_rows(lines: list[str], order: int) -> np.ndarray:
    """The (lines x order) uint32 rows of body lines, in file order.

    A line of the exact length, its characters in range, the right size
    character and zero padding bits is decoded with the others in one pass;
    every other line goes through ``graph6_decode`` and the order check in
    file order, so the first bad line raises what decoding line by line would.
    """
    nbits = order * (order - 1) // 2
    width = 1 + (nbits + 5) // 6
    sized = [at for at, line in enumerate(lines) if len(line) == width]
    data = np.frombuffer("".join([lines[at] for at in sized]).encode("ascii"),
                         dtype=np.uint8).reshape(len(sized), width)
    padding = np.uint8((1 << (6 * width - 6 - nbits)) - 1)
    fits = (((data >= 63) & (data <= 126)).all(axis=1) & (data[:, 0] == order + 63)
            & (((data[:, -1] - np.uint8(63)) & padding) == 0))
    fast = np.zeros(len(lines), dtype=bool)
    fast[sized] = fits
    rows = np.zeros((len(lines), order), dtype=np.uint32)
    rows[fast] = _graph6_rows(data[fits], order)
    for at in np.flatnonzero(~fast).tolist():
        g = graph6_decode(lines[at])
        if g.order != order:
            raise IntegrityError(f"member of order {g.order} in a level of order {order}")
        rows[at] = g.adj
    return rows


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
