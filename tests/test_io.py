"""The three row writers against plain per-row loops, at the sizes around
the block of rows each write call carries."""

import dataclasses

import pytest

from cmatch import _io, regular
from cmatch.fluid import solve_G_capless, write_fluid_csv
from cmatch.matching import run_policy, write_trajectory_csv
from cmatch.stream import DegreeSequencePair, build_full_graph, write_edge_list

BLOCK = _io._ROWS_PER_WRITE
ROWS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


def _fluid(rows):
    curve = solve_G_capless(regular(3), regular(3), 1.0 / max(rows - 1, 100))
    if rows == 1:  # no step gives a one-point grid
        curve = dataclasses.replace(curve, grid=curve.grid[:1], G=curve.G[:1],
                                    matched=curve.matched[:1])
    assert len(curve.grid) == rows
    lines = [f"# model_u={curve.model_u} model_v={curve.model_v} "
             f"capacity={curve.capacity} step={curve.step:.12g}\n", "s,G,matched\n"]
    for s, g, m in zip(curve.grid, curve.G, curve.matched):
        lines.append(f"{s:.12g},{g:.17g},{m:.17g}\n")
    return lambda path: write_fluid_csv(curve, path), "".join(lines)


def _trajectory(rows):
    seq = DegreeSequencePair.from_degrees([2] * rows, [1] * (rows - 1))
    traj = run_policy(seq, None, "greedy", 0)
    assert len(traj.matched_at_step) == rows
    lines = ["step,matched\n"]
    for k, m in enumerate(traj.matched_at_step):
        lines.append(f"{k},{m}\n")
    return lambda path: write_trajectory_csv(traj, path), "".join(lines)


def _edge_list(rows):
    # one offline vertex short, so the last slot goes to the balancing vertex
    seq = DegreeSequencePair.from_degrees([1] * (rows - 1), [1] * rows)
    graph = build_full_graph(seq, seed=0)
    assert len(graph.row) == rows
    n, t = seq.n_offline, seq.n_arrivals
    lines = [f"{n} {t}\n"]
    for v, u in enumerate(graph.row.tolist()):
        lines.append(f"{v} {u} {int(u == n)}\n")
    return lambda path: write_edge_list(graph, path), "".join(lines)


class _CountingFile:
    def __init__(self, fh, calls):
        self.fh, self.calls = fh, calls

    def write(self, text):
        self.calls.append(len(text))
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("case", [_fluid, _trajectory, _edge_list],
                         ids=["fluid", "trajectory", "edge_list"])
def test_writer_matches_a_per_row_loop_in_one_write_per_block(tmp_path, monkeypatch,
                                                             case, rows):
    write, expected = case(rows)
    calls = []
    monkeypatch.setattr(_io, "open", lambda *a, **k: _CountingFile(open(*a, **k), calls),
                        raising=False)
    path = tmp_path / "out.txt"
    write(path)
    assert path.read_text() == expected
    assert len(calls) == 1 + -(-rows // BLOCK)
