from __future__ import annotations

import random

import networkx as nx
import pytest

from triramsey import (
    CapacityError,
    DecodeError,
    MAX_N,
    IntegrityError,
    ProblemSpec,
    are_isomorphic,
    build_graph,
    cycle,
    empty_graph,
    graph6_decode,
    graph6_encode,
    level_at,
    read_level,
    single_vertex,
    write_level,
)
from triramsey.enumeration import LevelSet
from triramsey.formats import render_report

from .conftest import random_graph


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
    from triramsey.formats import _body_digest

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
    from triramsey.formats import _body_digest

    target = tmp_path / "level.lvl"
    lines = ["tfree-level 1", "k 1", "i -", "j 3", f"order {order}", "count 0", "begin",
             f"digest sha256 {_body_digest([])}"]
    target.write_text("\n".join(lines) + "\n")
    with pytest.raises(IntegrityError, match="order"):
        read_level(target)


def test_repeated_member_detected(tmp_path):
    # a consistent file (count and digest recomputed) that lists one class twice
    from triramsey.formats import _body_digest

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
