"""The block-drawn generators against their per-step references.

Every seed must give the same Cauchy data, the same final ``rng`` state
and so the same files as one ``standard_normal(d)`` draw per candidate;
the stacked line congruence validation must give the same margins and
verdicts as the edge-by-edge loop.
"""

import numpy as np
import pytest

import generator_reference as ref
from dnet import Grid, Signature, lie_sphere, omega_from_darboux_pair, random_isothermic
from dnet.errors import DegeneracyError, GeometryError
from dnet.isothermic import _CandidateRows, random_cauchy
from dnet.koenigs import LineCongruence
from dnet.lie_sphere import guichard_generate

SIGNATURES = [(4, 2), (4, 1), (3, 1)]
DIMS = [(1, 5), (5, 1), (2, 2), (6, 6), (12, 12)]


@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("pq", SIGNATURES)
def test_random_cauchy_matches_per_step_draws(pq, dims):
    sig, grid = Signature(*pq), Grid(list(dims))
    for seed in range(5):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        lines = random_cauchy(grid, sig, rng)
        lines_ref = ref.random_cauchy(grid, sig, rng_ref)
        assert all(np.array_equal(a, b) for a, b in zip(lines, lines_ref))
        assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("pq", SIGNATURES)
def test_random_cauchy_failure_leaves_the_same_stream(pq):
    sig, grid = Signature(*pq), Grid([6, 6])
    rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(DegeneracyError) as new:
        random_cauchy(grid, sig, rng, magnitude=0.0)
    with pytest.raises(DegeneracyError) as old:
        ref.random_cauchy(grid, sig, rng_ref, magnitude=0.0)
    assert str(new.value) == str(old.value)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("fail_at", [None, 0, 4, 9])
def test_candidate_rows_read_the_rows_of_a_per_candidate_loop(fail_at):
    """A scripted acceptance rule (about one row in three, none at step
    ``fail_at``) read in blocks and read one row per candidate."""
    steps, d = 10, 3

    def accept(row, step):
        return step != fail_at and row[0] > 0.4

    def per_candidate(rng):
        out = []
        for step in range(steps):
            for _ in range(64):
                row = 2.0 * rng.standard_normal(d)
                if accept(row, step):
                    out.append(row)
                    break
            else:
                raise DegeneracyError("step failed")
        return out

    def blocked(rng):
        out = []
        with _CandidateRows(rng, d, lambda rows: 2.0 * rows, "step failed") as draws:
            for step in range(steps):
                def first(rows):
                    hits = [k for k, row in enumerate(rows) if accept(row, step)]
                    return (hits[0], rows[hits[0]]) if hits else None
                out.append(draws.step(first))
        return out

    results = []
    for read in (per_candidate, blocked):
        rng = np.random.default_rng(11)
        try:
            rows = read(rng)
        except DegeneracyError as err:
            rows = str(err)
        results.append((rows, rng.bit_generator.state, rng.standard_normal()))
    (rows_a, state_a, next_a), (rows_b, state_b, next_b) = results
    if fail_at is None:
        assert all(np.array_equal(a, b) for a, b in zip(rows_a, rows_b))
    else:
        assert rows_a == rows_b == "step failed"
    assert state_a == state_b and next_a == next_b


def _generate(dims, seed, **kw):
    try:
        return guichard_generate(dims, seed=seed, **kw)
    except GeometryError as err:
        return f"{type(err).__name__}: {err}"


def _guichard_pair(monkeypatch, dims, seed, **kw):
    new = _generate(dims, seed, **kw)
    with monkeypatch.context() as m:
        m.setattr(lie_sphere, "_guichard_attempt", ref.guichard_attempt)
        old = _generate(dims, seed, **kw)
    return new, old


@pytest.mark.parametrize("dims", [(6, 6), (8, 8)])
def test_guichard_generate_matches_per_step_attempts(monkeypatch, dims):
    for seed in range(21):
        new, old = _guichard_pair(monkeypatch, dims, seed)
        if isinstance(old, str):
            assert new == old
            continue
        assert not isinstance(new, str), new
        for a, b in ((new.net.mu, old.net.mu), (new.xi, old.xi),
                     (new.x_dual, old.x_dual), (new.omega.eta, old.omega.eta),
                     (new.pn.x, old.pn.x)):
            assert np.array_equal(a, b)
        assert new.diagnostics["orthogonality"] == old.diagnostics["orthogonality"]


@pytest.mark.parametrize("fault", [1, 3, 7])
def test_guichard_fault_report_is_unchanged(monkeypatch, fault):
    new, old = _guichard_pair(monkeypatch, (6, 6), 2, skip_constraint_at=fault)
    assert isinstance(new, dict) and set(new) == set(old)
    for key, value in old.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(new[key], value), key
        else:
            assert new[key] == value, key


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
        for e in range(cong.grid.nedges):
            assert np.array_equal(cong.intersection_line(e), ref.intersection_line(cong, e))


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
