"""The block-drawn generators against their per-step references.

Every seed must give the same Cauchy data, the same nets, the same final
``rng`` state and so the same files as one ``standard_normal(d)`` row
per Cauchy step and one whole net per ``random_isothermic`` draw, draw
``i`` reading the ``i``-th run of rows; every Guichard attempt made in a
block must equal the same attempt made alone from its own
``default_rng([seed, i])``; the stacked line congruence validation must
give the same margins and verdicts as the edge-by-edge loop.
"""

import re

import numpy as np
import pytest

import generator_reference as ref
from dnet import (Grid, Signature, cli, isothermic, lie_sphere, omega_from_darboux_pair,
                  random_isothermic)
from dnet.errors import DegeneracyError, EvolutionError, GenerationError, GeometryError
from dnet.isothermic import moutard_evolve, random_cauchy
from dnet.koenigs import LineCongruence
from dnet.lie_sphere import guichard_generate, standard_lie_frame

SIGNATURES = [(4, 2), (4, 1), (3, 1)]
DIMS = [(1, 5), (5, 1), (2, 2), (6, 6), (12, 12)]


@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("pq", SIGNATURES)
def test_random_cauchy_matches_per_step_draws(pq, dims):
    sig, grid = Signature(*pq), Grid(list(dims))
    for seed in range(5):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        lines = random_cauchy(grid, sig, rng, 0.3, sig.standard_frame())
        lines_ref = ref.random_cauchy(grid, sig, rng_ref)
        assert all(np.array_equal(a, b) for a, b in zip(lines, lines_ref))
        assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("pq", SIGNATURES)
def test_random_cauchy_irregular_step_reads_one_run(pq):
    """With no step at all every lift is orthogonal to the previous one:
    the call raises after reading its ``d0 + d1 - 1`` rows."""
    sig, grid = Signature(*pq), Grid([6, 7])
    rng, rng_ref, past = (np.random.default_rng(3) for _ in range(3))
    with pytest.raises(DegeneracyError) as new:
        random_cauchy(grid, sig, rng, 0.0, sig.standard_frame())
    with pytest.raises(DegeneracyError) as old:
        ref.random_cauchy(grid, sig, rng_ref, magnitude=0.0)
    assert str(new.value) == str(old.value) == "could not draw a regular Cauchy step"
    past.standard_normal((6 + 7 - 1, sig.dim))
    assert rng.bit_generator.state == rng_ref.bit_generator.state == past.bit_generator.state


def _generate(dims, seed, **kw):
    try:
        return guichard_generate(dims, seed=seed, **kw)
    except GeometryError as err:
        return f"{type(err).__name__}: {err}"


def _same_guichard(new, old):
    for a, b in ((new.net.mu, old.net.mu), (new.xi, old.xi), (new.x_dual, old.x_dual),
                 (new.omega.eta, old.omega.eta), (new.pn.x, old.pn.x)):
        assert np.array_equal(a, b)
    assert new.diagnostics["orthogonality"] == old.diagnostics["orthogonality"]


@pytest.mark.parametrize("dims", [(6, 6), (8, 8)])
def test_guichard_generate_matches_per_step_attempts(dims):
    """Each attempt against the per-candidate reference fed the same
    ``default_rng([seed, i])``."""
    for seed in range(21):
        new, old = _generate(dims, seed), ref.guichard_generate(dims, seed)
        if old is None:
            assert new.startswith("GenerationError: Guichard generation failed after 48"), new
            continue
        assert not isinstance(new, str), new
        _same_guichard(new, old)


@pytest.mark.parametrize("fault", [1, 3, 7])
def test_guichard_fault_report_is_unchanged(fault):
    new = _generate((6, 6), 2, skip_constraint_at=fault)
    old = ref.guichard_generate((6, 6), 2, skip_constraint_at=fault)
    # the reference's diagnostics that no user read are not returned
    assert isinstance(new, dict) and set(new) == set(old) - {"xi_null", "xi_p", "net_report"}
    for key, value in new.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, old[key]), key
        else:
            assert value == old[key], key


def test_guichard_generate_is_deterministic():
    for dims, seed in (((6, 6), 3), ((9, 7), 4), ((12, 12), 2)):
        first, again = _generate(dims, seed), _generate(dims, seed)
        if isinstance(first, str):
            assert first == again
        else:
            _same_guichard(first, again)


@pytest.mark.parametrize("blocks", [(1,) * 48, (2,) * 24, (8,) * 6])
def test_guichard_generate_does_not_depend_on_block_size(monkeypatch, blocks):
    default = {(dims, seed): _generate(dims, seed)
               for dims in ((5, 5), (8, 8)) for seed in range(6)}
    default[(6, 6), 2] = _generate((6, 6), 2, skip_constraint_at=3)
    monkeypatch.setattr(lie_sphere, "_ATTEMPT_BLOCKS", blocks)
    for (dims, seed), old in default.items():
        kw = {"skip_constraint_at": 3} if isinstance(old, dict) else {}
        new = _generate(dims, seed, **kw)
        if isinstance(old, (str, dict)):
            assert type(new) is type(old)
            assert new == old if isinstance(old, str) else new["worst_vertex"] == old["worst_vertex"]
        else:
            _same_guichard(new, old)


def test_every_accepted_guichard_net_passes_the_acceptance_test():
    accepted = 0
    for dims in ((4, 4), (6, 6), (7, 9), (10, 10)):
        for seed in range(8):
            out = _generate(dims, seed)
            if isinstance(out, str):
                continue
            accepted += 1
            diag = out.diagnostics
            assert diag["orthogonality"] <= 1e-8 and diag["coefficient_dev"] <= 1e-10
            assert out.net.validate(margin=1e-5)["passed"]
    assert accepted >= 16


def _reference_exhaustion(dims, seed, retries):
    """The exhaustion line the per-attempt reference's attempts call for."""
    frame, g = standard_lie_frame(), Grid(list(dims))
    counts = dict.fromkeys(lie_sphere._REJECTIONS, 0)
    best_orth = best_dev = np.inf
    for i in range(retries):
        try:
            _, _, diag = ref.guichard_attempt(g, frame, np.random.default_rng([seed, i]),
                                              0.25, None)
        except EvolutionError:
            counts["evolution"] += 1
            continue
        except (DegeneracyError, GenerationError) as err:
            counts["Cauchy step" if str(err) == "Cauchy step failed" else "base point"] += 1
            continue
        failed = [name for name, ok in (("net invalid", diag["net_valid"]),
                                        ("orthogonality", diag["orthogonality"] <= 1e-8),
                                        ("coefficient_dev", diag["coefficient_dev"] <= 1e-10))
                  if not ok]
        counts[failed[0]] += 1
        best_orth = min(best_orth, diag["orthogonality"])
        best_dev = min(best_dev, diag["coefficient_dev"])
    return (f"GenerationError: Guichard generation failed after {retries} attempts: "
            "rejected at " + ", ".join(f"{name} {n}" for name, n in counts.items())
            + f"; best orthogonality {best_orth:.3e}, best coefficient_dev {best_dev:.3e}")


@pytest.mark.parametrize("seed", [1, 2])
def test_guichard_exhaustion_is_one_line(monkeypatch, seed):
    monkeypatch.setattr(lie_sphere, "_ATTEMPT_BLOCKS", (4, 12))
    err = _generate((12, 12), seed)
    assert "\n" not in err and "array" not in err
    assert err == _reference_exhaustion((12, 12), seed, 16)


def _congruences():
    out = []
    for n, seed in ((3, 0), (6, 1), (8, 2), (10, 4)):
        net = random_isothermic(Grid([n, n]), Signature(4, 2), np.random.default_rng(seed))
        out.append(omega_from_darboux_pair(net, rng=np.random.default_rng(seed + 100))
                   .congruence())
    out.append(guichard_generate([6, 6], seed=1).omega.congruence())
    return out


def test_stacked_congruence_validate_matches_per_edge_loop():
    for cong in _congruences():
        new, old = cong.validate(), ref.line_congruence_validate(cong)
        assert set(new) == set(old)
        for key in old:
            if key == "eta_in_lam2_f":
                assert abs(new[key] - old[key]) <= 1e-15
            else:
                assert new[key] == old[key], key
        s_lines = cong._edge_spans(np.arange(cong.grid.nedges))[2]
        for e in range(cong.grid.nedges):
            assert np.array_equal(s_lines[e], ref.intersection_line(cong, e))


def test_stacked_congruence_validate_degenerate_edges():
    # the second edge has the same plane at both ends: first-order
    # regularity fails there, after a regular first edge
    e0, e1, e2 = np.eye(6)[:3]
    flat = LineCongruence(Grid([1, 3]), [e0, e0, e0], [e2, e1, e1], np.ones((2, 15)))
    with pytest.raises(DegeneracyError) as new:
        flat.validate()
    with pytest.raises(DegeneracyError) as old:
        ref.line_congruence_validate(flat)
    assert str(new.value) == str(old.value)
    assert new.value.where == old.value.where and new.value.where["index"] == 1
    # no edges, no quads
    point = LineCongruence(Grid([1, 1]), [e0], [e1], np.zeros((0, 15)))
    assert point.validate() == ref.line_congruence_validate(point)


class _ScriptedStream:
    """Normal rows read in order from a table, with the part of a
    ``numpy.random.Generator`` the generators use: ``standard_normal``
    and a settable ``bit_generator.state`` (here the read position).
    Editing the table scripts what a draw sees."""

    def __init__(self, table):
        self.table = np.array(table, float)
        self.pos = 0
        self.bit_generator = self

    @property
    def state(self):
        return self.pos

    @state.setter
    def state(self, pos):
        self.pos = pos

    def standard_normal(self, shape):
        size = int(np.prod(shape))
        assert self.pos + size <= self.table.size, "script too short"
        out = self.table.flat[self.pos:self.pos + size].reshape(shape).copy()
        self.pos += size
        return out


def _script(seed, d, edits=()):
    """A script of normal rows with rows ``dst`` set to ``src`` (an index
    or None for a zero row)."""
    rows = np.random.default_rng(seed).standard_normal((4000, d))
    for dst, src in edits:
        rows[dst] = 0.0 if src is None else rows[src]
    return rows


def _isothermic(gen, grid, sig, rng, **kw):
    try:
        out = gen(grid, sig, rng, **kw).mu
    except GeometryError as err:
        out = f"{type(err).__name__}: {err}"
    return out, rng.bit_generator.state


# the constants of random_isothermic that stand for keywords of the reference
CONSTANTS = {"margin": "_MARGIN", "edge_margin": "_EDGE_MARGIN", "retries": "_DRAW_BLOCKS"}


def _draw_blocks(retries):
    """``retries`` draws in blocks of 8, the last one short."""
    return (8,) * (retries // 8) + ((retries % 8,) if retries % 8 else ())


def _assert_same_draws(grid, sig, make_rng, monkeypatch=None, **kw):
    """random_isothermic against the reference called with ``kw``; the
    reference's margins and retries set the constants that stand for
    them through ``monkeypatch``."""
    for name in CONSTANTS.keys() & kw.keys():
        value = _draw_blocks(kw[name]) if name == "retries" else kw[name]
        monkeypatch.setattr(isothermic, CONSTANTS[name], value)
    given = {k: v for k, v in kw.items() if k not in CONSTANTS}
    new, state = _isothermic(random_isothermic, grid, sig, make_rng(), **given)
    old, state_ref = _isothermic(ref.random_isothermic, grid, sig, make_rng(), **kw)
    if isinstance(old, str) or isinstance(new, str):
        assert new == old
    else:
        assert np.array_equal(new, old)
    assert state == state_ref
    return new


@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("pq", SIGNATURES)
def test_random_isothermic_matches_per_draw_reference(pq, dims):
    sig, grid = Signature(*pq), Grid(list(dims))
    for seed in range(5):
        _assert_same_draws(grid, sig, lambda: np.random.default_rng(seed))


def _rows_per_draw(grid):
    return sum(grid.dims) - 1


def _evolution_degenerate(grid, draw):
    """Edits that give ``draw`` the same first step on both lines, so its
    first quad has an isotropic diagonal."""
    first = draw * _rows_per_draw(grid) + 1
    return [(first + grid.dims[0] - 1, first)]


def _rejections(text):
    """The count per rejection reason of an exhaustion line."""
    counts = re.search(r"rejected at (.*);", text).group(1)
    return {name: int(n) for name, n in
            (item.rsplit(" ", 1) for item in counts.split(", "))}


def _expected_rejections(text, retries, **counts):
    """The ``counts`` given, and the rest of the ``retries`` draws split
    between the edge and the diagonal margin as ``text`` splits them;
    no draw fails only its opposite-label margin at these margins."""
    expected = dict.fromkeys(["irregular Cauchy step", "isotropic diagonal", "edge margin",
                              "diagonal margin", "opposite-label margin", "validate"], 0)
    expected.update(counts)
    if "edge margin" not in counts:
        expected["edge margin"] = _rejections(text)["edge margin"]
        expected["diagonal margin"] = retries - sum(expected.values())
    return expected


@pytest.mark.parametrize("retries", [5, 9, 64])
@pytest.mark.parametrize("case", ["margins", "edge", "isotropic", "irregular"])
def test_exhaustion_counts_each_draw_once(monkeypatch, case, retries):
    """Every draw rejected by its edge or diagonal margin; every draw by
    its edge margin, which is tested first, though it fails the diagonal
    margin too; draw 1 by an isotropic diagonal and the others by their
    margins; every draw by an irregular step."""
    sig, grid = Signature(4, 2), Grid([6, 6])
    if case in ("margins", "edge"):
        kw = {"edge_margin": 0.9} if case == "edge" else {}
        text = _assert_same_draws(grid, sig, lambda: np.random.default_rng(4), monkeypatch,
                                  retries=retries, margin=0.3, **kw)
        counts = {"edge margin": retries} if case == "edge" else {}
    elif case == "isotropic":
        rows = _script(4, sig.dim, _evolution_degenerate(grid, 1))
        text = _assert_same_draws(grid, sig, lambda: _ScriptedStream(rows), monkeypatch,
                                  retries=retries, margin=0.3)
        counts = {"isotropic diagonal": 1}
    else:
        text = _assert_same_draws(grid, sig, lambda: np.random.default_rng(4), monkeypatch,
                                  retries=retries, magnitude=0.0)
        counts = {"irregular Cauchy step": retries, "edge margin": 0}
    expected = _expected_rejections(text, retries, **counts)
    assert "\n" not in text and "array" not in text and "float64" not in text
    assert text.startswith(f"DegeneracyError: no well-conditioned net after {retries} draws: ")
    assert _rejections(text) == expected and sum(expected.values()) == retries
    assert min(expected.values()) >= 0
    best = re.search(r"best diagonal margin (\S+)$", text).group(1)
    assert (best == "-inf") == (case == "irregular")


def _with_irregular_draw(grid, sig, edits, monkeypatch, **kw):
    """Draws 0-2 have an isotropic diagonal, draw 3 is rejected by
    ``edits`` and the later draws keep their rows."""
    edits = [e for draw in range(3) for e in _evolution_degenerate(grid, draw)] + edits
    rows = _script(9, sig.dim, edits)
    return _assert_same_draws(grid, sig, lambda: _ScriptedStream(rows), monkeypatch, **kw)


@pytest.mark.parametrize("retries", [12, 64])
def test_irregular_step_rejects_that_draw_alone(monkeypatch, retries):
    """A zero row at a step of draw 3 makes that step irregular; the draw
    is rejected whole and draw 4 reads the rows it reads when draw 3 is
    rejected by an isotropic diagonal instead."""
    sig, grid = Signature(4, 1), Grid([6, 6])
    irregular = [(3 * _rows_per_draw(grid) + 4, None)]
    net = _with_irregular_draw(grid, sig, irregular, monkeypatch, retries=retries)
    same = _with_irregular_draw(grid, sig, _evolution_degenerate(grid, 3), monkeypatch,
                                retries=retries)
    assert not isinstance(net, str) and np.array_equal(net, same)
    text = _with_irregular_draw(grid, sig, irregular, monkeypatch, retries=retries, margin=0.3)
    assert _rejections(text) == _expected_rejections(
        text, retries, **{"irregular Cauchy step": 1, "isotropic diagonal": 3})


@pytest.mark.parametrize("first", [0, 5, 8, 13])
def test_rng_ends_just_past_the_accepted_draw(first):
    """Draws before ``first`` have an isotropic diagonal, so the accepted
    draw is the first of a block, in the middle of one, or in the
    second block; ``rng`` ends just past its rows."""
    sig, grid = Signature(4, 1), Grid([6, 6])
    run = _rows_per_draw(grid) * sig.dim
    rows = _script(9, sig.dim, [e for draw in range(first)
                                for e in _evolution_degenerate(grid, draw)])
    rng = _ScriptedStream(rows)
    net = random_isothermic(grid, sig, rng)
    assert rng.pos == (first + 1) * run
    alone = _ScriptedStream(rows)
    alone.pos = first * run
    lines = random_cauchy(grid, sig, alone, 0.3, sig.standard_frame())
    assert alone.pos == rng.pos
    assert np.array_equal(net.mu, moutard_evolve(grid, sig, *lines,
                                                 frame=sig.standard_frame()).mu)


def test_random_generators_are_deterministic(monkeypatch):
    for pq, n, seed, kw in (((4, 2), 6, 0, {}), ((3, 1), 12, 1, {}),
                            ((4, 1), 32, 1, {}), ((4, 2), 8, 2, {"_MARGIN": 0.3})):
        sig, grid = Signature(*pq), Grid([n, n])
        for name, value in kw.items():
            monkeypatch.setattr(isothermic, name, value)
        first, again = (_isothermic(random_isothermic, grid, sig,
                                    np.random.default_rng(seed)) for _ in range(2))
        assert first[1] == again[1]
        assert (first[0] == again[0] if isinstance(first[0], str)
                else np.array_equal(first[0], again[0]))
        lines, lines_again = (random_cauchy(grid, sig, np.random.default_rng(seed), 0.3,
                                             sig.standard_frame())
                              for _ in range(2))
        assert all(np.array_equal(a, b) for a, b in zip(lines, lines_again))


def _gen_bytes(tmp_path, name, kind, *args):
    path = tmp_path / name
    assert cli.main(["gen", kind, "--dims", "6x6", "-o", str(path), *args]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("kind, args", [
    ("darboux-pair", ["--param", "m=0.5"]),
    ("darboux-pair", ["--param", "m=inf"]),
    ("darboux-pair", ["--param", "m=0.5", "--signature", "3,1"]),
    ("omega", []),
])
def test_generated_files_match_per_draw_reference(tmp_path, monkeypatch, kind, args):
    """The Darboux seed and the Omega partner read the stream the accepted
    draw leaves, so where ``rng`` ends shows in these files."""
    for seed in range(1, 5):
        argv = [kind, "--seed", str(seed), *args]
        new = _gen_bytes(tmp_path, "new.json", *argv)
        with monkeypatch.context() as m:
            m.setattr(isothermic, "random_isothermic", ref.random_isothermic)
            old = _gen_bytes(tmp_path, "old.json", *argv)
        assert new == old
