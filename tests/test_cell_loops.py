"""No Python loop of `src/dnet` runs once per vertex, edge or quad.

ROADMAP aim 1 asks that no kernel do Python-level work per cell: a
whole-grid pass is one batched numpy expression, and a sequential
propagation takes O(sum of extents) Python steps.  The audit fails on any
`for` statement or comprehension over a unit-step `range(...)` whose
arguments read a `nverts`, `nedges` or `nquads` attribute
(`range(g.nquads)`, `range(0, net.grid.nedges)`).  A loop over blocks
(`range(0, g.nquads, block)`), axes or extents is not matched.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dnet").glob("*.py"))
CELL_COUNTS = {"nverts", "nedges", "nquads"}


def cell_loops(paths):
    """``file:line`` of every loop over ``range`` of a cell count in ``paths``."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.For, ast.comprehension)):
                continue
            it = node.iter
            if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                    and it.func.id == "range" and len(it.args) < 3
                    and any(isinstance(n, ast.Attribute) and n.attr in CELL_COUNTS
                            for arg in it.args for n in ast.walk(arg))):
                found.append(f"{path.name}:{it.lineno}")
    return found


def test_no_loop_over_cells_in_src():
    loops = cell_loops(SOURCES)
    assert not loops, ("Python loops over every vertex, edge or quad (batch them):\n  "
                       + "\n  ".join(loops))


PLANTED = """\
def per_quad(net, g):
    out = 0.0
    for n in range(g.nquads):
        out += n
    labels = [net.labels[e] for e in range(0, net.grid.nedges)]
    for a in range(g.dim):
        out += a
    for b in range(len(g.dims) - 1):
        out += b
    for s in range(0, g.nquads, 512):
        out += s
    return out, labels, {v: v for v in range(g.nverts - 1)}
"""


def test_a_planted_cell_loop_is_found(tmp_path):
    source = tmp_path / "planted.py"
    source.write_text(PLANTED)
    assert cell_loops([source]) == ["planted.py:3", "planted.py:5", "planted.py:12"]
