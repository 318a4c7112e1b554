from __future__ import annotations

import os
import textwrap

import pytest

from triramsey import build_graph, cycle, complete_bipartite, graph6_decode, graph6_encode
from triramsey.cli import _build_parser, main

from .conftest import FIGURE_9_EDGES, petersen, run_script


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_t_1_3(capsys):
    code, out, err = run(capsys, "compute", "--k", "1", "--j", "3", "--workers", "1")
    assert code == 0
    lines = out.splitlines()
    assert "value 5" in lines
    tail = lines[lines.index("end") + 1:]
    assert len(tail) == 1
    from triramsey import are_isomorphic

    assert are_isomorphic(graph6_decode(tail[0]), cycle(4))


def test_compute_r_mode_extremal_line_count(capsys):
    code, out, _ = run(capsys, "compute", "--k", "1", "--i", "4", "--j", "4",
                       "--workers", "1")
    assert code == 0
    lines = out.splitlines()
    tail = lines[lines.index("end") + 1:]
    assert "value 6" in lines and len(tail) == 1


def test_compute_capped_exit_code(capsys, tmp_path):
    code, out, _ = run(capsys, "compute", "--k", "1", "--j", "5", "--workers", "1",
                       "--max-order", "6", "--checkpoint", str(tmp_path))
    assert code == 3
    assert "status capped" in out


def test_compute_resume(capsys, tmp_path):
    code, full_out, _ = run(capsys, "compute", "--k", "1", "--j", "4",
                            "--workers", "1", "--checkpoint", str(tmp_path))
    assert code == 0
    code, out, _ = run(capsys, "compute", "--k", "1", "--j", "4", "--workers", "1",
                       "--resume", str(tmp_path / "level-05.lvl"))
    assert code == 0
    assert "resumed-from 5" in out
    full_tail = full_out[full_out.index("end"):]
    assert out[out.index("end"):] == full_tail


@pytest.mark.parametrize("name", ["missing.lvl", ""])
def test_compute_resume_unreadable_path_is_usage_error(capsys, tmp_path, name):
    # "" resumes from the directory itself.
    code, out, err = run(capsys, "compute", "--k", "1", "--j", "4", "--workers", "1",
                         "--resume", str(tmp_path / name))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path / name) in err


def test_compute_rerun_is_byte_identical(capsys):
    first = run(capsys, "compute", "--k", "2", "--j", "4", "--workers", "1")
    second = run(capsys, "compute", "--k", "2", "--j", "4", "--workers", "2")
    # wall times differ; everything from the value line down must not
    tail = lambda out: out[out.index("value"):out.index("levels")] + out[out.index("end"):]
    assert first[0] == second[0] == 0
    assert tail(first[1]) == tail(second[1])


def test_check_member(capsys):
    g6 = graph6_encode(complete_bipartite(3, 3))
    code, out, _ = run(capsys, "check", "--graph", g6, "--k", "1", "--j", "4")
    assert code == 0
    assert "no 1-sparse 4-set" in out


def test_check_violation_prints_witness(capsys):
    g6 = graph6_encode(cycle(4))
    code, out, _ = run(capsys, "check", "--graph", g6, "--k", "1", "--i", "4", "--j", "4")
    assert code == 1
    assert "1-dense 4-set found: 0 1 2 3" in out


def test_check_prints_first_triangle(capsys):
    # Triangles {1, 2, 3} and {0, 3, 4}: the scan reports the one through the lowest vertex.
    g = build_graph(5, [(0, 3), (0, 4), (3, 4), (1, 2), (2, 3), (1, 3)])
    code, out, _ = run(capsys, "check", "--graph", graph6_encode(g), "--k", "1", "--j", "3")
    assert code == 1
    assert out == "triangle found: 0 3 4\n"


@pytest.mark.parametrize("g, k, j, line", [
    (cycle(7), 1, 4, "1-sparse 4-set found: 0 1 3 4"),
    (petersen(), 1, 5, "1-sparse 5-set found: 0 2 3 5 6"),
], ids=["c7", "petersen"])
def test_check_prints_smallest_sparse_witness(capsys, g, k, j, line):
    code, out, _ = run(capsys, "check", "--graph", graph6_encode(g), "--k", str(k),
                       "--j", str(j))
    assert code == 1
    assert out == line + "\n"


def test_decode_malformed_is_usage_error(capsys):
    code, _, err = run(capsys, "decode", "@@")
    assert code == 2
    assert "error" in err


def test_encode_decode_round_trip(capsys):
    code, out, _ = run(capsys, "encode", "4", "0", "1", "1", "2", "2", "3", "3", "0")
    assert code == 0
    line = out.strip()
    code, out, _ = run(capsys, "decode", line)
    assert code == 0
    assert out.split() == ["4", "0", "1", "0", "3", "1", "2", "2", "3"]


def test_encode_odd_tokens_usage_error(capsys):
    code, _, err = run(capsys, "encode", "4", "0")
    assert code == 2


def test_bound(capsys):
    g6 = graph6_encode(cycle(5))
    code, out, _ = run(capsys, "bound", "--graph", g6, "--k", "1")
    assert code == 0
    assert "size 3" in out


def test_probe_conjecture(capsys):
    code, out, _ = run(capsys, "probe-conjecture", "--k-max", "3", "--workers", "1")
    assert code == 0
    assert out.count("agree") == 3
    assert "DISAGREE" not in out


def test_oracle_verify(capsys):
    code, out, _ = run(capsys, "oracle-verify", "--n", "5", "--k", "1", "--i", "4",
                       "--j", "4")
    assert code == 0
    assert "match" in out


def test_oracle_verify_order_zero_is_usage_error(capsys):
    code, out, err = run(capsys, "oracle-verify", "--n", "0", "--k", "1", "--j", "3")
    assert code == 2
    assert "MISMATCH" not in out
    assert "order 0" in err


@pytest.mark.parametrize("command", [["compute", "--k", "1", "--j", "3"],
                                     ["probe-conjecture", "--k-max", "2"]])
def test_workers_default_is_the_usable_cpus(monkeypatch, command):
    # Under a cpuset or taskset the affinity mask, not the machine, counts.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _build_parser().parse_args(command).workers == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _build_parser().parse_args(command).workers == 8


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["compute", "--k", "1"])  # missing --j
    assert info.value.code == 2


KILL_A_WORKER_IN_CLI = textwrap.dedent("""
    import multiprocessing
    import os
    import sys

    from triramsey import enumeration, graphs
    from triramsey.cli import main

    # Tasks of 1024 // n**2 parents, so the 34 parents of order 6 make two
    # tasks and one reaches a helper.
    graphs._BROADCAST_ELEMENTS = 1 << 10
    extend = enumeration._extend_entries

    def dying(spec, parents):
        # Parents of order 6, in a helper: the calling process computes too.
        if len(parents[0]) == 6 and multiprocessing.parent_process() is not None:
            os._exit(1)
        return extend(spec, parents)

    enumeration._extend_entries = dying

    if __name__ == "__main__":
        sys.exit(main(["compute", "--k", "1", "--j", "6", "--workers", "2", *sys.argv[1:]]))
""")


@pytest.mark.parametrize("checkpoint", [True, False])
def test_killed_worker_is_an_error_not_a_verdict(tmp_path, checkpoint):
    """A dead worker exits 2 with one error line, never 1 ("verdict false")
    with a traceback; the line names the directory to resume from, whose
    level files reach the order the dead step started from."""
    directory = tmp_path / "levels"
    result = run_script(tmp_path, KILL_A_WORKER_IN_CLI,
                        *(["--checkpoint", str(directory)] if checkpoint else []))
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: a worker process died")
    if checkpoint:
        assert str(directory) in result.stderr
        assert (directory / "level-06.lvl").exists()
        assert not (directory / "level-07.lvl").exists()
    else:
        assert "no --checkpoint" in result.stderr


def test_check_figure_nine(capsys):
    from triramsey import build_graph

    g6 = graph6_encode(build_graph(9, FIGURE_9_EDGES))
    code, out, _ = run(capsys, "check", "--graph", g6, "--k", "1", "--i", "4", "--j", "6")
    assert code == 0
