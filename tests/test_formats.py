from __future__ import annotations

import hashlib
import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from triramsey import (
    CapacityError,
    DecodeError,
    MAX_N,
    Graph,
    IntegrityError,
    ProblemSpec,
    are_isomorphic,
    build_graph,
    cycle,
    empty_graph,
    graph6_decode,
    graph6_encode,
    level_at,
    permute,
    read_level,
    single_vertex,
    write_level,
)
from triramsey import formats
from triramsey.canon import canonical_forms
from triramsey.enumeration import LevelSet
from triramsey.formats import _graph6_block, render_report
from triramsey.graphs import row_array

from .conftest import random_graph, random_permutation, random_triangle_free


def _body_digest(lines: list[str]) -> str:
    """The sha256 of the body lines, each ended by a newline: the digest a
    level file's footer holds."""
    body = "\n".join(lines) + "\n" if lines else ""
    return hashlib.sha256(body.encode("ascii")).hexdigest()


def test_graph6_fixed_values():
    assert graph6_encode(single_vertex()) == "@"
    assert graph6_encode(build_graph(2, [(0, 1)])) == "A_"
    assert graph6_encode(empty_graph(2)) == "A?"
    assert graph6_encode(empty_graph(0)) == "?"
    assert graph6_decode("A_").edges() == [(0, 1)]
    assert graph6_decode("@").order == 1


def test_graph6_known_line():
    # C5 in standard graph6: 5 vertices, column-major upper triangle
    line = graph6_encode(cycle(5))
    assert graph6_decode(line) == cycle(5)
    assert line[0] == chr(5 + 63)


def test_graph6_decode_errors():
    with pytest.raises(DecodeError):
        graph6_decode("A")  # truncated
    with pytest.raises(DecodeError):
        graph6_decode("")
    with pytest.raises(DecodeError):
        graph6_decode("@@")  # trailing data
    with pytest.raises(DecodeError):
        graph6_decode("B\x20\x20")  # characters below 63
    with pytest.raises(DecodeError):
        graph6_decode("~??")  # multi-byte size form
    with pytest.raises(CapacityError):
        graph6_decode(chr(40 + 63))  # order 40 > MAX_N


def test_graph6_trailing_bits_must_be_zero():
    # order 2 needs 1 bit; set a padding bit: value 1 -> chr(64) '@' data byte
    with pytest.raises(DecodeError):
        graph6_decode("A" + chr(63 + 1))


def test_graph6_offsets_reported():
    try:
        graph6_decode("A")
    except DecodeError as exc:
        assert exc.offset == 1
    try:
        graph6_decode("A\x05")
    except DecodeError as exc:
        assert exc.offset == 1


def test_graph6_round_trip_random():
    rng = random.Random(21)
    for _ in range(500):
        g = random_graph(rng, rng.randint(0, 20), p=rng.choice([0.1, 0.5, 0.9]))
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_matches_networkx():
    # networkx's writer shares no code with ours.
    rng = random.Random(31)
    for n in range(MAX_N + 1):
        g = random_graph(rng, n, p=rng.choice([0.1, 0.5, 0.9]))
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(g.edges())
        line = nx.to_graph6_bytes(reference, header=False).decode("ascii").strip()
        assert graph6_encode(g) == line
        assert graph6_decode(line) == g


def reference_graph6(g: Graph) -> str:
    """graph6 by its definition: x(u, v) for u < v ordered by v, then u, six
    bits a character, most significant first, zero padded, each plus 63."""
    bits = [g.adj[v] >> u & 1 for v in range(1, g.order) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    data = [sum(bit << 5 - at for at, bit in enumerate(bits[lo:lo + 6]))
            for lo in range(0, len(bits), 6)]
    return "".join(chr(63 + value) for value in [g.order] + data)


@pytest.mark.parametrize("seed", range(6))
def test_graph6_batches_match_one_item_calls(seed, monkeypatch, tmp_path):
    """``write_level``'s and ``read_level``'s chunked codecs agree with
    ``graph6_encode`` and ``graph6_decode`` on every order up to MAX_N, empty
    batches included; odd seeds shrink the broadcast bound, so the batches
    run in many chunks."""
    rng = random.Random(40 + seed)
    if seed % 2:
        monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", rng.choice([1, 7, 100, 2000]))
    spec = ProblemSpec(k=1, j=3)
    for n in range(MAX_N + 1):
        graphs = [random_graph(rng, n, rng.choice([0.1, 0.5, 0.9]))
                  for _ in range(rng.randint(0, 6))]
        if n == MAX_N:
            graphs.append(build_graph(n, [(0, n - 1), (n - 2, n - 1)]))  # bit 31 set
        lines = [graph6_encode(g) for g in graphs]
        assert lines == [reference_graph6(g) for g in graphs]
        assert [graph6_decode(line) for line in lines] == graphs
        rows = np.array([g.adj for g in graphs], dtype=np.uint64).reshape(len(graphs), n)
        block = _graph6_block(rows)
        assert block.tobytes().decode("ascii") == "".join(line + "\n" for line in lines)
        target = tmp_path / f"level-{n}.lvl"
        write_level(LevelSet(n, tuple((b"", g) for g in graphs)), spec, target)
        body = target.read_text().splitlines()[7:-1]
        assert body == lines


def test_graph6_encode_beyond_package_capacity():
    # The single-byte size form reaches order 62, past MAX_N.
    rng = random.Random(47)
    for n in (33, 40, 62):
        g = random_graph(rng, 32, 0.5)
        g = Graph(n, g.adj + (0,) * (n - 32))
        assert graph6_encode(g) == reference_graph6(g)
        # Rows wider than 32 bits: edges between every pair of vertices.
        rows = [0] * n
        for u, v in ((u, v) for v in range(n) for u in range(v) if rng.random() < 0.5):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        assert graph6_encode(Graph(n, tuple(rows))) == reference_graph6(Graph(n, tuple(rows)))
    with pytest.raises(CapacityError):
        graph6_encode(Graph(63, (0,) * 63))


def reference_level_file(level: LevelSet, spec: ProblemSpec) -> bytes:
    """A level file as its layout defines it: the header, one
    ``graph6_encode`` line per member, and the digest of those lines."""
    body = [graph6_encode(g) for g in level.graphs()]
    lines = ["tfree-level 1", f"k {spec.k}", f"i {'-' if spec.i is None else spec.i}",
             f"j {spec.j}", f"order {level.order}", f"count {len(body)}", "begin", *body,
             f"digest sha256 {_body_digest(body)}"]
    return ("\n".join(lines) + "\n").encode("ascii")


@pytest.mark.parametrize("seed", range(4))
def test_write_level_matches_reference_writer(seed, monkeypatch, tmp_path):
    """``write_level`` streams the body a chunk at a time into the file and
    the digest; the bytes must be what the reference writer gives, for
    levels of the canonical keys of triangle-free graphs of every order
    1..MAX_N, for levels of ``(b"", Graph)`` pairs of any graphs, and for an
    empty level; odd seeds shrink the
    broadcast bound, so the body is written in many chunks."""
    rng = random.Random(60 + seed)
    levels = [LevelSet(5, ())]
    for n in range(1, MAX_N + 1):
        members = [random_triangle_free(rng, n) for _ in range(rng.randint(1, 12))]
        keys = sorted(set(canonical_forms(np.array([g.adj for g in members], dtype=np.uint32))))
        graphs = [random_graph(rng, n, rng.choice([0.1, 0.5, 0.9])) for _ in range(rng.randint(1, 12))]
        levels += [LevelSet.from_keys(n, keys), LevelSet(n, [(b"", g) for g in graphs])]
    if seed % 2:
        monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", rng.choice([1, 50, 3000]))
    spec = ProblemSpec(k=seed, j=7, i=None if seed < 2 else 5)
    target = tmp_path / "level.lvl"
    for level in levels:
        write_level(level, spec, target)
        assert target.read_bytes() == reference_level_file(level, spec), level.order


@pytest.mark.parametrize("variant", ["crlf", "prefixed", "padded"])
def test_crlf_level_file_reads_back(tmp_path, monkeypatch, variant):
    """A level file whose lines end in CRLF, or whose body lines carry a
    ``>>graph6<<`` header or trailing whitespace (the digest taken over the
    lines as written), is no regular body as written, but its lines, split,
    normalized and rejoined, are: it is decoded as one block with no line
    through ``graph6_decode``, and it reads back equal."""
    spec = ProblemSpec(k=2, j=7)
    level = level_at(spec, 8)
    target = tmp_path / "level.lvl"
    write_level(level, spec, target)
    blocks, decoded = [], []
    regular_body, decode = formats._regular_body, formats.graph6_decode
    monkeypatch.setattr(formats, "_regular_body", lambda *args: blocks.append(regular_body(*args))
                        or blocks[-1])
    monkeypatch.setattr(formats, "graph6_decode", lambda line: decoded.append(line) or decode(line))
    assert read_level(target) == (level, spec)
    assert len(blocks) == 1 and blocks[0].shape[0] == len(level)  # the file's own bytes
    if variant == "crlf":
        target.write_bytes(target.read_bytes().replace(b"\n", b"\r\n"))
    else:
        line = {"prefixed": ">>graph6<<{}", "padded": "{} \t"}[variant]
        _with_body(target, spec, 8, [line.format(graph6_encode(g)) for g in level.graphs()])
    blocks.clear()
    assert read_level(target) == (level, spec)
    assert blocks[0] is None and blocks[1].shape[0] == len(level)
    assert decoded == []
    rewritten = tmp_path / "rewritten.lvl"
    write_level(read_level(target)[0], spec, rewritten)
    assert rewritten.read_bytes() == reference_level_file(level, spec)


def test_level_file_round_trip(tmp_path):
    spec = ProblemSpec(k=1, j=3)
    level = level_at(spec, 4)
    target = tmp_path / "level-04.lvl"
    write_level(level, spec, target)
    loaded, loaded_spec = read_level(target)
    assert loaded_spec == spec
    assert loaded == level
    assert are_isomorphic(loaded.graphs()[0], cycle(4))


def test_level_file_round_trip_r_mode(tmp_path):
    spec = ProblemSpec(k=1, j=4, i=4)
    level = level_at(spec, 5)
    target = tmp_path / "lvl"
    write_level(level, spec, target)
    loaded, loaded_spec = read_level(target)
    assert loaded_spec == spec and loaded == level


def test_empty_level_round_trip(tmp_path):
    spec = ProblemSpec(k=1, j=3)
    level = LevelSet(5, ())
    target = tmp_path / "empty.lvl"
    write_level(level, spec, target)
    loaded, _ = read_level(target)
    assert loaded.order == 5 and len(loaded) == 0


def test_read_level_holds_rows_only(tmp_path):
    """A level read back holds one uint32 row array and no key or graph
    object: T_1(7)'s 1,511 order-9 classes take their 36 bytes of rows each
    and a few KB more by tracemalloc, where keys beside the rows took about
    85 bytes a class and (key, Graph) pairs about 220."""
    spec = ProblemSpec(k=1, j=7)
    target = tmp_path / "level-09.lvl"
    write_level(level_at(spec, 9), spec, target)
    read_level(target)  # fills the caches of the first call
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        level, _ = read_level(target)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(level) == 1511
    assert held - level.rows.nbytes < 8192, held - level.rows.nbytes


def test_body_digest_pins():
    # Every level file's footer depends on these; an empty body hashes b"".
    assert _body_digest([]) == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    assert _body_digest(["A_"]) == "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9"
    assert _body_digest(["A_", "B?"]) == (
        "bb06a64197bda5b59e498027df53075bd50d0ae6cc40ee794d437ae8462eb471")


def test_tampered_body_detected(tmp_path):
    spec = ProblemSpec(k=1, j=3)
    level = level_at(spec, 4)
    target = tmp_path / "level.lvl"
    write_level(level, spec, target)
    lines = target.read_text().splitlines()
    body_at = lines.index("begin") + 1
    lines[body_at] = graph6_encode(empty_graph(4))
    target.write_text("\n".join(lines) + "\n")
    with pytest.raises(IntegrityError, match="digest"):
        read_level(target)


def test_truncated_file_detected(tmp_path):
    spec = ProblemSpec(k=1, j=3)
    level = level_at(spec, 4)
    target = tmp_path / "level.lvl"
    write_level(level, spec, target)
    text = target.read_text()
    target.write_text(text[: text.rindex("digest")])
    with pytest.raises(IntegrityError):
        read_level(target)


def test_wrong_order_member_detected(tmp_path):
    # hand-build a file whose member order disagrees with the header
    target = tmp_path / "level.lvl"
    body = [graph6_encode(cycle(5))]
    lines = ["tfree-level 1", "k 1", "i -", "j 3", "order 4", "count 1", "begin"]
    lines += body
    lines.append(f"digest sha256 {_body_digest(body)}")
    target.write_text("\n".join(lines) + "\n")
    with pytest.raises(IntegrityError, match="order"):
        read_level(target)


@pytest.mark.parametrize("order", [0, -2, MAX_N + 1])
def test_order_out_of_range_detected(tmp_path, order):
    # an empty level with a consistent digest but an impossible order
    target = tmp_path / "level.lvl"
    lines = ["tfree-level 1", "k 1", "i -", "j 3", f"order {order}", "count 0", "begin",
             f"digest sha256 {_body_digest([])}"]
    target.write_text("\n".join(lines) + "\n")
    with pytest.raises(IntegrityError, match="order"):
        read_level(target)


@pytest.mark.parametrize("line, value, message", [
    (1, "k -1", "level file line 2: k -1 outside 0.."),
    (2, "i 0", "level file line 3: i 0 outside 2.."),
    (3, "j 1", "level file line 4: j 1 outside 2.."),
    (5, "count -1", "level file line 6: count -1 outside 0.."),
], ids=["k", "i", "j", "count"])
def test_header_field_out_of_range_detected(tmp_path, line, value, message):
    # Each field's bound is checked where the header is read, as the order's is.
    spec = ProblemSpec(k=1, j=3)
    target = tmp_path / "level.lvl"
    write_level(level_at(spec, 4), spec, target)
    lines = target.read_text().splitlines()
    lines[line] = value
    target.write_text("\n".join(lines) + "\n")
    with pytest.raises(IntegrityError) as info:
        read_level(target)
    assert str(info.value) == message


def test_repeated_member_detected(tmp_path):
    # a consistent file (count and digest recomputed) that lists one class twice
    spec = ProblemSpec(k=1, j=4)
    level = level_at(spec, 6)
    body = [graph6_encode(g) for g in level.graphs()]
    body.insert(1, body[0])
    lines = ["tfree-level 1", "k 1", "i -", "j 4", "order 6", f"count {len(body)}", "begin"]
    lines += body
    lines.append(f"digest sha256 {_body_digest(body)}")
    target = tmp_path / "level.lvl"
    target.write_text("\n".join(lines) + "\n")
    with pytest.raises(IntegrityError, match="repeats"):
        read_level(target)


def test_data_after_footer_detected(tmp_path):
    spec = ProblemSpec(k=1, j=3)
    target = tmp_path / "level.lvl"
    write_level(level_at(spec, 4), spec, target)
    with target.open("a") as out:
        out.write(graph6_encode(cycle(4)) + "\n")
    with pytest.raises(IntegrityError, match="after digest"):
        read_level(target)


def _replace(index, line):
    def edit(lines):
        lines[index] = line
        return lines
    return edit


# Each edit of the 9-line T_1(3) order-4 file trips one header or footer check;
# all of them come before the digest check, so no digest is recomputed.
@pytest.mark.parametrize("edit, message", [
    (_replace(0, "tfree-level 2"), "not a level file: missing 'tfree-level 1' header"),
    (lambda lines: lines[:5], "level file: incomplete header"),
    (_replace(3, "jj 3"), "level file line 4: expected 'j', found 'jj'"),
    (_replace(1, "k"), "level file line 2: missing 'k' field"),
    (_replace(4, "order four"), "level file line 5: bad order value 'four'"),
    (_replace(6, "start"), "level file line 7: missing 'begin' marker"),
    (_replace(5, "count 3"), "level file holds 2 members, header says 3"),
    (lambda lines: lines[:-1] + [lines[-1].replace("sha256", "md5")],
     "level file: malformed digest footer"),
], ids=["magic", "five-lines", "renamed-field", "no-value", "non-integer", "no-begin",
        "count-above-body", "footer"])
def test_corrupt_header_or_footer_detected(tmp_path, edit, message):
    spec = ProblemSpec(k=1, j=3)
    target = tmp_path / "level.lvl"
    write_level(level_at(spec, 4), spec, target)
    lines = target.read_text().splitlines()
    assert len(lines) == 9
    target.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(IntegrityError) as info:
        read_level(target)
    assert str(info.value) == message


def test_non_ascii_byte_detected(tmp_path):
    spec = ProblemSpec(k=1, j=4)
    target = tmp_path / "level.lvl"
    write_level(level_at(spec, 5), spec, target)
    data = bytearray(target.read_bytes())
    at = data.index(b"begin\n") + len("begin\n") + 1
    data[at] = 0xC3
    target.write_bytes(bytes(data))
    with pytest.raises(IntegrityError) as info:
        read_level(target)
    assert str(info.value) == f"level file: non-ASCII byte 0xc3 at byte offset {at}"


def _relabeled_copy(level: LevelSet, spec: ProblemSpec, target, seed: int) -> None:
    """The level's file with every member relabeled and the members shuffled."""
    rng = random.Random(seed)
    graphs = [permute(g, random_permutation(rng, g.order)) for g in level.graphs()]
    rng.shuffle(graphs)
    write_level(LevelSet(level.order, tuple((b"", g) for g in graphs)), spec, target)


@pytest.mark.parametrize("spec, order", [(ProblemSpec(k=2, j=7), 10),
                                         (ProblemSpec(k=1, j=7, i=4), 9)], ids=["t", "r"])
@pytest.mark.parametrize("bound", [None, 1, 150, 5000])
def test_relabeled_level_reads_back_canonical(tmp_path, monkeypatch, spec, order, bound):
    if bound is not None:
        monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", bound)
    level = level_at(spec, order)
    canonical = tmp_path / "canonical.lvl"
    write_level(level, spec, canonical)
    shuffled = tmp_path / "shuffled.lvl"
    _relabeled_copy(level, spec, shuffled, seed=order)
    assert shuffled.read_bytes() != canonical.read_bytes()
    for source in (canonical, shuffled):
        loaded, loaded_spec = read_level(source)
        assert loaded_spec == spec and loaded == level
        rewritten = tmp_path / "rewritten.lvl"
        write_level(loaded, spec, rewritten)
        assert rewritten.read_bytes() == canonical.read_bytes()


def _with_body(target, spec: ProblemSpec, order: int, body: list[str]) -> None:
    """A level file around ``body``, with its count and digest consistent."""
    lines = ["tfree-level 1", f"k {spec.k}", "i -", f"j {spec.j}", f"order {order}",
             f"count {len(body)}", "begin"] + body + [f"digest sha256 {_body_digest(body)}"]
    target.write_text("\n".join(lines) + "\n")


# Edits of the 85-member T_2(7) order-7 body, each placed well after the first
# chunk: (position, line) pairs, with the error the first of them raises.
LATE_EDITS = {
    "wrong-order": ([(70, "Dhc")], IntegrityError, "member of order 5 in a level of order 7"),
    "bad-character": ([(60, "F?!??")], DecodeError,
                      "character '!' outside graph6 range 63..126 (byte offset 2)"),
    "padding": ([(83, "F???@")], DecodeError, "nonzero trailing padding bits (byte offset 4)"),
    "truncated": ([(40, "F???")], DecodeError,
                  "truncated: expected 4 data characters, found 3 (byte offset 4)"),
    "too-long": ([(40, "F?????")], DecodeError,
                 "expected 4 data characters, found 5 (byte offset 5)"),
    "empty": ([(50, "")], DecodeError, "empty graph6 line (byte offset 0)"),
    "multi-byte": ([(50, "~????")], DecodeError,
                   "multi-byte size form is not supported (byte offset 0)"),
    "above-capacity": ([(50, chr(40 + 63))], CapacityError,
                       "decoded order 40 exceeds capacity 32"),
    "prefixed-bad": ([(66, ">>graph6<<F?!??")], DecodeError,
                     "character '!' outside graph6 range 63..126 (byte offset 2)"),
    "prefix-only": ([(66, ">>graph6<<")], DecodeError, "empty graph6 line (byte offset 0)"),
    "space-after-prefix": ([(66, ">>graph6<< F????")], DecodeError,
                           "character ' ' outside graph6 range 63..126 (byte offset 0)"),
    "first-of-two": ([(30, "Dhc"), (60, "F?!??")], IntegrityError,
                     "member of order 5 in a level of order 7"),
    "second-of-two": ([(30, "F?!??"), (60, "Dhc")], DecodeError,
                      "character '!' outside graph6 range 63..126 (byte offset 2)"),
    "repeated": ([(84, "repeat")], IntegrityError, "level file repeats an isomorphism class"),
}


@pytest.mark.parametrize("bound", [None, 100, 2000])
@pytest.mark.parametrize("name", sorted(LATE_EDITS))
def test_bad_line_in_a_later_chunk_detected(tmp_path, monkeypatch, name, bound):
    spec = ProblemSpec(k=2, j=7)
    level = level_at(spec, 7)
    body = [graph6_encode(g) for g in level.graphs()]
    assert len(body) == 85
    edits, error, message = LATE_EDITS[name]
    for at, line in edits:
        # A relabeled copy of the first member repeats its class.
        body[at] = graph6_encode(permute(level.graphs()[0], [6, 5, 4, 3, 2, 1, 0])) if line == "repeat" else line
    target = tmp_path / "level.lvl"
    _with_body(target, spec, 7, body)
    if bound is not None:
        monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", bound)
    with pytest.raises(error) as info:
        read_level(target)
    assert str(info.value) == message


def test_line_ends_decide_the_body(tmp_path):
    # Two byte edits of a regular file that leave every body row of graph6
    # width and characters; only the line ends show that the body is not
    # where a regular one would be, and the file must fail as it does when
    # read line by line.
    spec = ProblemSpec(k=2, j=7)
    target = tmp_path / "level.lvl"
    write_level(level_at(spec, 7), spec, target)
    data = target.read_bytes()
    body = data.index(b"begin\n") + len(b"begin\n")
    edits = {
        # The first body line's newline becomes a graph6 character: 84 lines.
        "joined": (data[:body + 5] + b"?" + data[body + 6:], "level file: missing digest footer"),
        # A vertical tab ends a line: the body starts one line early.
        "tabbed": (data.replace(b"begin\n", b"begin\x0b\n"), "level file: malformed digest footer"),
    }
    for name, (edited, message) in edits.items():
        target.write_bytes(edited)
        with pytest.raises(IntegrityError) as info:
            read_level(target)
        assert str(info.value) == message, name


def test_prefixed_and_padded_lines_accepted(tmp_path, monkeypatch):
    # graph6_decode strips surrounding whitespace and the ">>graph6<<" header.
    monkeypatch.setattr("triramsey.graphs._BROADCAST_ELEMENTS", 100)
    spec = ProblemSpec(k=2, j=7)
    level = level_at(spec, 7)
    body = [graph6_encode(g) for g in level.graphs()]
    body[10] = ">>graph6<<" + body[10]
    body[50] = " " + body[50] + "\t"
    body[80] = ">>graph6<<" + body[80] + " "
    target = tmp_path / "level.lvl"
    _with_body(target, spec, 7, body)
    loaded, _ = read_level(target)
    assert loaded == level


def reference_read_level(source) -> tuple[LevelSet, ProblemSpec]:
    """A level file read line by line, as its layout defines it: the body's
    lines split from the text, every one through ``graph6_decode`` and the
    order check in file order, the digest over the lines, and the members
    labeled one array of rows at once.  Only the header parser is
    ``read_level``'s."""
    data = source.read_bytes()
    if not data.isascii():
        at = next(at for at, byte in enumerate(data) if byte > 127)
        raise IntegrityError(f"level file: non-ASCII byte 0x{data[at]:02x} at byte offset {at}")
    lines = data.decode("ascii").splitlines()
    spec, order, count = formats._parse_header(lines[:7])
    body, rest = lines[7:7 + count], lines[7 + count:]
    if len(body) != count:
        raise IntegrityError(f"level file holds {len(body)} members, header says {count}")
    if not rest:
        raise IntegrityError("level file: missing digest footer")
    if not rest[0].startswith("digest sha256 "):
        raise IntegrityError("level file: malformed digest footer")
    if len(rest) > 1:
        raise IntegrityError(f"level file line {7 + count + 2}: data after digest footer")
    actual, expected = _body_digest(body), rest[0][len("digest sha256 "):]
    if actual != expected:
        raise IntegrityError(f"level file digest mismatch: {actual} != {expected}")
    graphs = []
    for line in body:
        g = graph6_decode(line)
        if g.order != order:
            raise IntegrityError(f"member of order {g.order} in a level of order {order}")
        graphs.append(g)
    keys = sorted(canonical_forms(row_array([g.adj for g in graphs], order)))
    if len(set(keys)) < len(keys):
        raise IntegrityError("level file repeats an isomorphism class")
    return LevelSet.from_keys(order, keys), spec


def _outcome(read, source):
    try:
        return read(source)
    except (CapacityError, DecodeError, IntegrityError) as exc:
        return type(exc), str(exc)


def _mutated_body(rng: random.Random, lines: list[str], graphs: list[Graph]) -> list[str]:
    """One to three seeded edits of a level body's lines: characters set,
    inserted or deleted (line breaks and whitespace among them), lines
    dropped, repeated, swapped, prefixed, padded, or replaced by a relabeled
    member or a graph of another order."""
    lines = list(lines)
    alphabet = [chr(c) for c in range(63, 127)] + [" ", "\t", "\r", "\x0b", "\n", "!", "~"]
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        at = rng.randrange(len(lines))
        line = lines[at]
        place = rng.randrange(len(line) + 1)
        edit = rng.randrange(10)
        if edit == 0 and place < len(line):
            lines[at] = line[:place] + rng.choice(alphabet) + line[place + 1:]
        elif edit == 1:
            lines[at] = line[:place] + rng.choice(alphabet) + line[place:]
        elif edit == 2 and place < len(line):
            lines[at] = line[:place] + line[place + 1:]
        elif edit == 3:
            del lines[at]
        elif edit == 4:
            lines.insert(rng.randrange(len(lines) + 1), line)
        elif edit == 5:
            other = rng.randrange(len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        elif edit == 6:
            lines[at] = ">>graph6<<" + line
        elif edit == 7:
            lines[at] = rng.choice([" ", "\t", ""]) + line + rng.choice([" ", "\t", "\r"])
        elif edit == 8:
            g = rng.choice(graphs)
            lines[at] = graph6_encode(permute(g, random_permutation(rng, g.order)))
        else:
            lines[at] = graph6_encode(random_graph(rng, rng.choice([1, 7, 9, 32])))
    return lines


def test_read_level_matches_line_by_line_reference(tmp_path):
    """``read_level`` against ``reference_read_level`` on 400 seeded
    mutations of T_1(5)'s 30-member order-8 level: 300 body edits with the
    count (mostly) and the digest recomputed over the lines a reader sees,
    a third of them with CRLF line ends, and 100 raw byte edits of the
    file.  Both must give the same level or the same error and message."""
    rng = random.Random(24)
    spec = ProblemSpec(k=1, j=5)
    level = level_at(spec, 8)
    graphs = level.graphs()
    lines = [graph6_encode(g) for g in graphs]
    original = tmp_path / "level.lvl"
    write_level(level, spec, original)
    target = tmp_path / "mutated.lvl"
    outcomes = []
    for trial in range(400):
        if trial < 300:
            body = _mutated_body(rng, lines, graphs)
            seen = ("\n".join(body) + "\n").splitlines() if body else []
            count = len(seen) if rng.random() < 0.8 else len(lines)
            text = "\n".join(["tfree-level 1", "k 1", "i -", "j 5", "order 8", f"count {count}",
                              "begin", *body, f"digest sha256 {_body_digest(seen)}"]) + "\n"
            if rng.random() < 1 / 3:
                text = text.replace("\n", "\r\n")
            target.write_bytes(text.encode("ascii"))
        else:
            data = bytearray(original.read_bytes())
            for _ in range(rng.randint(1, 3)):
                data[rng.randrange(len(data))] = rng.choice(b"?@_~ \t\r\n!0")
            target.write_bytes(bytes(data))
        outcome = _outcome(read_level, target)
        assert outcome == _outcome(reference_read_level, target), trial
        outcomes.append(outcome[0] if isinstance(outcome[0], type) else LevelSet)
    assert {LevelSet, IntegrityError, DecodeError, CapacityError} <= set(outcomes)


def test_render_report_shape():
    from triramsey import RunLimits, compute_number

    report = compute_number(ProblemSpec(k=1, j=3), RunLimits())
    text = render_report(report)
    lines = text.splitlines()
    assert lines[0] == "run-report 1"
    assert "status completed" in lines
    assert "value 5" in lines
    assert "extremal-count 1" in lines
    assert any(line.startswith("order 4 count 1") for line in lines)
    assert lines[-1] == "end"
