"""Bit-exact serialization: graph6 codec, level files, run-report documents.

graph6 is the standard interchange coding for small graphs: one byte holding
order+63 (single-byte size form, order <= 62), then the upper-triangular
adjacency bits in column-major order -- x(0,1), x(0,2), x(1,2), x(0,3), ... --
packed six per byte, most significant bit first, each byte offset by 63.

A level file is a text document: a fixed header naming the search parameters
and member count, one graph6 line per member in canonical-key order, and a
SHA-256 digest over the body so truncation or tampering is detected before a
resumed search can be poisoned.
"""

from __future__ import annotations

import hashlib
import os
from functools import lru_cache
from pathlib import Path

from .canon import canonical_graph
from .enumeration import LevelSet, ProblemSpec
from .errors import CapacityError, DecodeError, IntegrityError, SpecConflictError
from .graphs import MAX_N, Graph, graph_from_pair_bits

_LEVEL_MAGIC = "tfree-level 1"
_REPORT_MAGIC = "run-report 1"


def graph6_encode(g: Graph) -> str:
    n = g.order
    if n > 62:
        raise CapacityError("single-byte graph6 size form supports order <= 62")
    need = (n * (n - 1) // 2 + 5) // 6
    # x(u, v) for u < v sits at sequence index v(v-1)/2 + u, counted from the
    # most significant of the need*6 data bits.
    top = need * 6 - 1
    bits = 0
    for v in range(1, n):
        row = g.adj[v] & ((1 << v) - 1)
        base = top - v * (v - 1) // 2
        while row:
            low = row & -row
            bits |= 1 << base - (low.bit_length() - 1)
            row ^= low
    return chr(n + 63) + "".join([chr((bits >> shift & 63) + 63)
                                  for shift in range(need * 6 - 6, -1, -6)])


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
    bits = 0
    for ch in s[1:]:
        bits = bits << 6 | (ord(ch) - 63)
    pad = need * 6 - nbits
    if bits & ((1 << pad) - 1):
        raise DecodeError("nonzero trailing padding bits", offset=len(s) - 1)
    return graph_from_pair_bits(n, bits >> pad, _graph6_pairs(n))


@lru_cache(maxsize=None)
def _graph6_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pair of each unpadded graph6 bit, least significant first."""
    return tuple(reversed([(u, v) for v in range(1, n) for u in range(v)]))


def _spec_fields(spec: ProblemSpec) -> list[str]:
    return [
        f"k {spec.k}",
        f"i {'-' if spec.i is None else spec.i}",
        f"j {spec.j}",
    ]


def _body_digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def write_level(level: LevelSet, spec: ProblemSpec, destination) -> None:
    """Write a level file; members appear in stored (canonical-key) order."""
    body = [graph6_encode(g) for _, g in level.members]
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
    """Read and validate a level file; members are re-canonicalized."""
    text = Path(source).read_text(encoding="ascii")
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
    members = []
    for line in body:
        g = graph6_decode(line)
        if g.order != order:
            raise IntegrityError(f"member of order {g.order} in a level of order {order}")
        members.append(canonical_graph(g))
    members.sort(key=lambda pair: pair[0])
    for (key, _), (next_key, _) in zip(members, members[1:]):
        if key == next_key:
            raise IntegrityError("level file repeats an isomorphism class")
    return LevelSet(order, tuple(members)), spec


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
