import json
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from dnet.cli import GEN_KINDS, main
from dnet.forms import wedge_vec
from dnet.grid import Grid
from dnet.koenigs import km_pair_check
from dnet.netfile import CHECKS, READS, NetFile, first_non_finite, run_checks
from tests import netfile_reference as ref


def run(*argv):
    return main([str(a) for a in argv])


def test_generation_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run("gen", "isothermic", "--dims", "6x6", "--seed", 7, "-o", a) == 0
    assert run("gen", "isothermic", "--dims", "6x6", "--seed", 7, "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_save_load_lossless(tmp_path):
    path = tmp_path / "net.json"
    assert run("gen", "isothermic", "--dims", "5x5", "--seed", 3, "-o", path) == 0
    nf = NetFile.load(str(path))
    again = tmp_path / "again.json"
    nf.save(str(again))
    assert path.read_bytes() == again.read_bytes()
    nf2 = NetFile.load(str(again))
    assert np.array_equal(nf.vertex_fields["mu"], nf2.vertex_fields["mu"])
    assert np.array_equal(nf.edge_fields["m"], nf2.edge_fields["m"])


def test_infinite_labels_roundtrip(tmp_path):
    path = tmp_path / "pair.json"
    assert run("gen", "darboux-pair", "--dims", "4x4", "--seed", 1,
               "--param", "m=inf", "-o", path) == 0
    nf = NetFile.load(str(path))
    assert np.isinf(nf.edge_fields["m"]).any()
    again = tmp_path / "again.json"
    nf.save(str(again))
    assert path.read_bytes() == again.read_bytes()


def test_verify_isothermic(tmp_path):
    path = tmp_path / "net.json"
    report = tmp_path / "net.report"
    assert run("gen", "isothermic", "--dims", "6x6", "--seed", 7, "-o", path) == 0
    assert run("verify", "-i", path, "--report", report) == 0
    text = report.read_text()
    assert "overall: PASS" in text
    assert "SKIP" in text          # omega checks are skipped with reasons


def test_verify_localizes_corruption(tmp_path):
    path = tmp_path / "net.json"
    assert run("gen", "isothermic", "--dims", "5x5", "--seed", 2, "-o", path) == 0
    with open(path) as fh:
        doc = json.load(fh)
    doc["fields"]["vertex"]["mu"][12][0] += 0.05
    bad = tmp_path / "bad.json"
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    assert run("verify", "-i", bad) == 1
    nf = NetFile.load(str(bad))
    rep = run_checks(nf)
    assert not rep.passed
    moutard = next(c for c in rep.checks if c.name == "isothermic.moutard")
    assert not moutard.passed
    # the worst quad must touch the corrupted vertex (index 12 = (2, 2))
    corner = moutard.worst["corner"]
    assert abs(corner[0] - 2) <= 1 and abs(corner[1] - 2) <= 1


def test_verify_omega_file(tmp_path):
    path = tmp_path / "om.json"
    assert run("gen", "omega", "--dims", "5x5", "--seed", 3, "-o", path) == 0
    nf = NetFile.load(str(path))
    assert {"mu_plus", "mu_minus", "y", "t"} <= set(nf.vertex_fields)
    assert "eta" in nf.form1_fields
    assert run("verify", "-i", path) == 0


def test_verify_guichard_file(tmp_path):
    path = tmp_path / "g.json"
    assert run("gen", "guichard", "--dims", "5x5", "--seed", 1, "-o", path) == 0
    assert run("verify", "-i", path) == 0


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_gen_omega_files_pass_verify(tmp_path, capsys, n):
    # every file gen omega writes passes verify; exit 3 writes nothing
    failed = []
    for seed in range(1, 21):
        path = tmp_path / f"om{seed}.json"
        code = run("gen", "omega", "--dims", f"{n}x{n}", "--seed", seed, "-o", path)
        assert code in (0, 3), seed
        if code == 3:
            assert not path.exists()
        elif run("verify", "-i", path) != 0:
            failed.append(seed)
    capsys.readouterr()
    assert failed == []


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 7: gen omega accepts a 2x2 file that verify rejects "
    "(omega.null_planes 2.707e-08 > 1e-9, omega.reconstruction 1.061e-08 > 1e-8)"))
def test_gen_omega_2x2_file_passes_verify(tmp_path, capsys):
    path = tmp_path / "om.json"
    assert run("gen", "omega", "--dims", "2x2", "--seed", 1, "-o", path) == 0
    code = run("verify", "-i", path)
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("kind", ["omega", "guichard"])
def test_gen_files_store_a_matched_pair(tmp_path, capsys, kind, n):
    # the stored mu_plus / mu_minus of every written file is the
    # Moutard-matched pair the Legendre transforms read
    unmatched = []
    for seed in range(1, 21):
        path = tmp_path / f"{kind}{seed}.json"
        if run("gen", kind, "--dims", f"{n}x{n}", "--seed", seed, "-o", path) != 0:
            continue
        om = NetFile.load(str(path)).omega_net()
        if not km_pair_check(om.grid, om.mu_plus, om.mu_minus, tol=1e-7)[0]:
            unmatched.append(seed)
    capsys.readouterr()
    assert unmatched == []


def test_christoffel_of_an_omega_file_exits_2(tmp_path, capsys):
    # the dual of mu alone would drop eta and overwrite the principal x
    src, out = tmp_path / "g.json", tmp_path / "chr.json"
    assert run("gen", "guichard", "--dims", "6x6", "--seed", 1, "-o", src) == 0
    capsys.readouterr()
    assert run("transform", "christoffel", "-i", src, "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: christoffel") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]


def test_validate_and_verify_agree_on_eta_closed(tmp_path, capsys):
    # this Guichard file's eta_closed, 3.7e-10, is above verify's 1e-10
    path = tmp_path / "g.json"
    assert run("gen", "guichard", "--dims", "10x10", "--seed", 17, "-o", path) == 0
    assert run("verify", "-i", path) == 1
    fails = [line.split()[0] for line in capsys.readouterr().out.splitlines()
             if line.endswith("FAIL") and not line.startswith("overall")]
    assert fails == ["omega.eta_closed"]
    v = NetFile.load(str(path)).omega_net().validate()
    assert 1e-10 < v["applicability"]["eta_closed"] <= 1e-8
    assert not v["applicability"]["passed"] and not v["passed"]


def test_guichard_fault_exit_code(tmp_path):
    path = tmp_path / "g.json"
    assert run("gen", "guichard", "--dims", "5x5", "--seed", 1,
               "--param", "fault=3", "-o", path) == 3
    fail = json.loads(path.read_text())
    assert fail["format"] == "dnet-failure/1"
    assert fail["orthogonality"] > 1e-3
    worst = fail["worst_vertex"]
    assert abs(worst[0] - 3) + abs(worst[1]) <= 2


def test_transform_darboux_records_label(tmp_path):
    src = tmp_path / "iso.json"
    dst = tmp_path / "pair.json"
    assert run("gen", "isothermic", "--dims", "4x4", "--seed", 5, "-o", src) == 0
    assert run("transform", "darboux", "-i", src, "--m", "0.5", "-o", dst) == 0
    nf = NetFile.load(str(dst))
    assert nf.stacked
    g = nf.grid()
    vertical = nf.edge_fields["m"][g.edge()[1] == 0]
    assert np.abs(vertical - 0.5).max() <= 1e-9


def test_transform_calapso_identity(tmp_path):
    src = tmp_path / "iso.json"
    dst = tmp_path / "cal.json"
    assert run("gen", "isothermic", "--dims", "4x4", "--seed", 5, "-o", src) == 0
    assert run("transform", "calapso", "-i", src, "--t", "0", "-o", dst) == 0
    a = NetFile.load(str(src))
    b = NetFile.load(str(dst))
    assert np.abs(a.vertex_fields["mu"] - b.vertex_fields["mu"]).max() <= 1e-12


def test_transform_christoffel_twice(tmp_path):
    src = tmp_path / "iso.json"
    one = tmp_path / "chr.json"
    assert run("gen", "isothermic", "--dims", "5x5", "--seed", 4, "-o", src) == 0
    assert run("transform", "christoffel", "-i", src, "-o", one) == 0
    nf = NetFile.load(str(one))
    x, xd = nf.vertex_fields["x"], nf.vertex_fields["xdual"]
    g = nf.grid()
    t, h = g.edge_tail, g.edge_head
    dx, dxd = x[h] - x[t], xd[h] - xd[t]
    # dual differences are parallel to the original with the -2/m pairing
    sig = nf.sig()
    chart_signs = np.array([1.0, 1.0, 1.0, -1.0])
    pair = np.sum(dx * chart_signs * dxd, axis=1)
    m = nf.edge_fields["m"]
    assert np.abs(pair + 2.0 / m).max() <= 1e-9 * max(1.0, np.abs(2.0 / m).max())


def test_transform_associates_and_dual(tmp_path):
    src = tmp_path / "om.json"
    assoc = tmp_path / "assoc.json"
    dual = tmp_path / "dual.json"
    assert run("gen", "omega", "--dims", "4x4", "--seed", 3, "-o", src) == 0
    assert run("transform", "associates", "-i", src, "-o", assoc) == 0
    nf = NetFile.load(str(assoc))
    assert {"x", "n", "xdual", "ndual"} <= set(nf.vertex_fields)
    assert run("transform", "dual", "-i", src, "-o", dual) == 0
    duo = NetFile.load(str(dual))
    a = NetFile.load(str(assoc))
    assert np.abs(duo.vertex_fields["x"] - a.vertex_fields["xdual"]).max() <= 1e-9


def test_transform_associates_c_offset(tmp_path):
    src = tmp_path / "om.json"
    a0 = tmp_path / "a0.json"
    a1 = tmp_path / "a1.json"
    assert run("gen", "omega", "--dims", "4x4", "--seed", 3, "-o", src) == 0
    assert run("transform", "associates", "-i", src, "-o", a0) == 0
    assert run("transform", "associates", "-i", src, "--c", "0.7", "-o", a1) == 0
    f0, f1 = NetFile.load(str(a0)), NetFile.load(str(a1))
    move = f1.vertex_fields["xdual"] - f0.vertex_fields["xdual"]
    assert np.abs(move - 0.7 * f0.vertex_fields["n"]).max() <= 1e-12


@pytest.mark.parametrize("op", ["dual", "associates"])
@pytest.mark.parametrize("field", ["y", "t"])
def test_omega_transform_without_a_lift_exits_2(tmp_path, capsys, op, field):
    path = tmp_path / "omega.json"
    assert run("gen", "omega", "--dims", "4x4", "--seed", 1, "-o", path) == 0
    doc = json.loads(path.read_text())
    del doc["fields"]["vertex"][field]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("transform", op, "-i", path, "-o", tmp_path / "out.json") == 2
    assert capsys.readouterr().err == (f"usage error: {op} needs omega fields "
                                       f"and a Lie frame\n")


def test_export_obj_counts(tmp_path):
    src = tmp_path / "w.json"
    obj = tmp_path / "x.obj"
    assert run("gen", "weingarten", "--dims", "4x4", "--seed", 0, "-o", src) == 0
    assert run("export", "-i", src, "--field", "x", "--format", "obj",
               "-o", obj) == 0
    lines = obj.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 16
    faces = [ln for ln in lines if ln.startswith("f ")]
    assert len(faces) == 9
    first = faces[0].split()[1:]
    assert first == ["1", "5", "6", "2"]


def test_export_unit_normal_rows(tmp_path):
    src = tmp_path / "w.json"
    csv = tmp_path / "n.csv"
    assert run("gen", "weingarten", "--dims", "4x4", "--seed", 0, "-o", src) == 0
    assert run("export", "-i", src, "--field", "n", "--format", "csv",
               "-o", csv) == 0
    rows = csv.read_text().splitlines()[1:]
    vals = np.array([[float(x) for x in r.split(",")[1:]] for r in rows])
    assert np.abs((vals ** 2).sum(axis=1) - 1.0).max() <= 1e-12


def test_export_csv_roundtrip(tmp_path):
    src = tmp_path / "w.json"
    csv = tmp_path / "x.csv"
    assert run("gen", "weingarten", "--dims", "4x4", "--seed", 0, "-o", src) == 0
    assert run("export", "-i", src, "--field", "x", "--format", "csv",
               "-o", csv) == 0
    nf = NetFile.load(str(src))
    rows = csv.read_text().splitlines()[1:]
    vals = np.array([[float(x) for x in r.split(",")[1:]] for r in rows])
    assert np.array_equal(vals, nf.vertex_fields["x"])


@pytest.mark.parametrize("fmt", ["csv", "obj"])
def test_export_bytes_match_the_row_encoder(tmp_path, fmt):
    # every float whose text the row encoder and a template could tell
    # apart: a signed zero, the least subnormal, a 17-digit integer and the
    # non-finite values, in a field of three columns and a field of none
    special = [-0.0, 5e-324, 1e16, np.inf, -np.inf, np.nan, 0.1, -2.5e-300, 1.0]
    grid = Grid([3, 3])
    x = np.resize(special, (grid.nverts, 3))
    x[4] = -x[4]
    nf = NetFile(signature=(4, 2), dims=(3, 3),
                 vertex_fields={"x": x, "w": np.zeros((grid.nverts, 0))})
    src = tmp_path / "special.json"
    nf.save(str(src))
    for name in ("x", "w") if fmt == "csv" else ("x",):
        out = tmp_path / f"{name}.{fmt}"
        assert run("export", "-i", src, "--field", name, "--format", fmt, "-o", out) == 0
        assert out.read_bytes() == ref.export_text(NetFile.load(str(src)), name,
                                                   fmt).encode()


def test_export_rejects_bad_field(tmp_path):
    src = tmp_path / "iso.json"
    assert run("gen", "isothermic", "--dims", "4x4", "--seed", 5, "-o", src) == 0
    # mu is 6-dimensional: obj export must refuse
    assert run("export", "-i", src, "--field", "mu", "--format", "obj",
               "-o", tmp_path / "bad.obj") == 2
    assert run("export", "-i", src, "--field", "nope", "--format", "csv",
               "-o", tmp_path / "bad.csv") == 2


# every command that writes a file, its output named OUT and its input SRC
WRITERS = {
    "save": ("gen", "isothermic", "--dims", "4x4", "--seed", 1, "-o", "OUT"),
    "report": ("verify", "-i", "SRC", "--report", "OUT"),
    "export": ("export", "-i", "SRC", "--field", "x", "--format", "csv", "-o", "OUT"),
    "fault-report": ("gen", "guichard", "--dims", "6x6", "--seed", 1,
                     "--param", "fault=3", "-o", "OUT"),
}


def _run_writer(tmp_path, argv):
    """Run a writer of WRITERS on a Weingarten file ``w.json``, into ``out``."""
    paths = {"SRC": tmp_path / "w.json", "OUT": tmp_path / "out"}
    return run(*(paths.get(a, a) for a in argv))


@pytest.fixture
def weingarten(tmp_path):
    assert run("gen", "weingarten", "--dims", "4x4", "-o", tmp_path / "w.json") == 0


@pytest.mark.usefixtures("weingarten")
@pytest.mark.parametrize("argv", WRITERS.values(), ids=WRITERS)
def test_failed_write_keeps_the_old_file(tmp_path, capsys, monkeypatch, argv):
    (tmp_path / "out").write_text("old\n")

    def refuse(src, dst):
        raise OSError("no room")
    monkeypatch.setattr(os, "replace", refuse)
    assert _run_writer(tmp_path, argv) == 2
    assert capsys.readouterr().err == "usage error: no room\n"
    assert (tmp_path / "out").read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "w.json"]


@pytest.mark.usefixtures("weingarten")
@pytest.mark.parametrize("argv", WRITERS.values(), ids=WRITERS)
def test_output_naming_a_directory_exits_2(tmp_path, capsys, argv):
    (tmp_path / "out").mkdir()
    assert _run_writer(tmp_path, argv) == 2
    assert capsys.readouterr().err.startswith("usage error: [Errno 21] Is a directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "w.json"]
    assert not any((tmp_path / "out").iterdir())


def test_gen_checks_its_net_before_writing(tmp_path, capsys, monkeypatch):
    import dnet.isothermic as iso
    real = iso.random_isothermic

    def narrow(*args, **kw):
        """The real net with one coordinate of its lifts dropped."""
        net = real(*args, **kw)
        return SimpleNamespace(grid=net.grid, signature=net.signature,
                               mu=net.mu[:, :5], labels=net.labels)
    monkeypatch.setattr(iso, "random_isothermic", narrow)
    assert run("gen", "isothermic", "--dims", "4x4", "--seed", 1,
               "-o", tmp_path / "iso.json") == 2
    assert capsys.readouterr().err == ("usage error: vertex field 'mu' has shape (16, 5), "
                                       "expected 16 rows of 6\n")
    assert not any(tmp_path.iterdir())


def test_tolerance_overrides(tmp_path):
    path = tmp_path / "net.json"
    assert run("gen", "isothermic", "--dims", "5x5", "--seed", 2, "-o", path) == 0
    assert run("verify", "-i", path) == 0
    # an absurdly tight tolerance flips the verdict
    assert run("verify", "-i", path, "--tol", "moutard=1e-18") == 1
    assert run("verify", "-i", path, "--tol", "bogus=1") == 2


def test_usage_errors(tmp_path):
    assert run("gen", "isothermic", "--dims", "bogus", "-o", tmp_path / "x") == 2
    assert run("verify", "-i", tmp_path / "missing.json") == 2


def test_verify_fails_on_nan_vertex(tmp_path, capsys):
    path = tmp_path / "net.json"
    assert run("gen", "isothermic", "--dims", "6x6", "--seed", 7, "-o", path) == 0
    doc = json.loads(path.read_text())
    doc["fields"]["vertex"]["mu"][14][0] = "nan"
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "-i", bad) == 1
    lines = capsys.readouterr().out.splitlines()
    for name in ("isothermic.moutard", "isothermic.label_relations",
                 "isothermic.diagonal_margin"):
        line = next(ln for ln in lines if ln.startswith(name + " "))
        assert "FAIL" in line, line
    # vertex 14 = (2, 2); quad (1, 1) is the first quad that touches it
    moutard = next(ln for ln in lines if ln.startswith("isothermic.moutard "))
    assert "'corner': (1, 1)" in moutard


def test_verify_with_no_checks_fails(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"format": "dnet-net/1", "signature": [4, 2],
                                "dims": [3, 3]}))
    capsys.readouterr()
    assert run("verify", "-i", path) == 1
    assert "overall: FAIL (0 checks, 3 skipped)" in capsys.readouterr().out


def test_guichard_checks_compute_labels_once(tmp_path, monkeypatch):
    from dnet import lie_sphere
    path = tmp_path / "g.json"
    assert run("gen", "guichard", "--dims", "5x5", "--seed", 1, "-o", path) == 0
    calls = []
    real = lie_sphere.omega_edge_labels
    monkeypatch.setattr(lie_sphere, "omega_edge_labels",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    rep = run_checks(NetFile.load(str(path)))
    assert rep.passed
    assert {"omega.eisenhart", "guichard.eisenhart"} <= {c.name for c in rep.checks}
    assert len(calls) == 1


def test_help_is_the_same_on_every_call(capsys):
    from dnet.cli import build_parser
    texts = []
    for _ in range(2):
        assert run("--help") == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] == build_parser().format_help()


def _outcome(capsys, *argv):
    """The exit code of one command, its stdout, its stderr lines and the
    messages of the warnings it issues."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(*argv)
    out, err = capsys.readouterr()
    return code, out, err.splitlines(), [str(w.message) for w in caught]


def _stderr(capsys, *argv):
    """The exit code of one command and its stderr lines, each warning it
    issues counted as one more line."""
    code, _, err, warned = _outcome(capsys, *argv)
    return code, err + warned


def test_overflowing_flatness_gate_and_inf_vertex_print_no_warning(tmp_path, capsys):
    # a huge t overflows the transports of the Calapso flatness gate, and
    # an inf lift makes the residuals of verify inf - inf and inf / inf:
    # one line and exit 3, and a report with exit 1 and nothing on stderr
    path = tmp_path / "iso.json"
    assert run("gen", "isothermic", "--dims", "6x6", "--seed", 7, "-o", path) == 0
    code, err = _stderr(capsys, "transform", "calapso", "--t", "1e300", "-i", path,
                        "-o", tmp_path / "big_t.json")
    assert (code, err) == (3, ["construction degeneracy: connection is not flat: "
                               "quad residual nan > 1.0e-07"])
    doc = json.loads(path.read_text())
    doc["fields"]["vertex"]["mu"][14] = ["inf", 0, 0, 0, 0, 0]
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps(doc))
    assert _stderr(capsys, "verify", "-i", bad) == (1, [])


def test_verify_infinite_label_pair_is_quiet(tmp_path, capsys):
    path = tmp_path / "pair.json"
    assert run("gen", "darboux-pair", "--dims", "4x4", "--seed", 1,
               "--param", "m=inf", "-o", path) == 0
    capsys.readouterr()
    assert run("verify", "-i", path) == 0
    assert capsys.readouterr().err == ""


# each maps the frame section of a `gen omega` file to a corrupted one
FRAME_BREAKS = {
    "frame_basis3_not_orthonormal": lambda fr: {**fr, "basis3": [fr["basis3"][0]] * 3},
    "frame_o_not_null": lambda fr: {**fr, "o": fr["basis3"][0]},
    "frame_o_of_5": lambda fr: {**fr, "o": fr["o"][:5]},
    "frame_basis3_of_2_rows": lambda fr: {**fr, "basis3": fr["basis3"][:2]},
    "frame_no_q": lambda fr: {k: v for k, v in fr.items() if k != "q"},
}

EXIT_CODES = [
    (["gen", "isothermic", "--dims", "4x4", "--seed", "1", "-o", "{out}"], 0),
    (["verify", "-i", "{net}"], 0),
    (["transform", "calapso", "-i", "{net}", "--t", "0.4", "-o", "{out}"], 0),
    (["verify", "-i", "{net}", "--tol", "moutard=1e-18"], 1),
    (["verify", "-i", "{bare}"], 1),
    (["transform", "darboux", "-i", "{net}", "-o", "{out}"], 2),
    (["transform", "darboux", "-i", "{net}", "--m", "abc", "-o", "{out}"], 2),
    (["transform", "darboux", "-i", "{net}", "--m", "nan", "-o", "{out}"], 2),
    (["transform", "calapso", "-i", "{net}", "--t", "abc", "-o", "{out}"], 2),
    (["transform", "calapso", "-i", "{net}", "-o", "{out}"], 2),
    (["transform", "associates", "-i", "{net}", "--c", "abc", "-o", "{out}"], 2),
    (["gen", "isothermic", "--dims", "6x6", "--signature", "4", "-o", "{out}"], 2),
    (["gen", "isothermic", "--dims", "6x6", "--signature", "3,0", "-o", "{out}"], 2),
    (["gen", "isothermic", "--dims", "6x6x6", "-o", "{out}"], 2),
    (["gen", "guichard", "--dims", "6", "-o", "{out}"], 2),
    (["gen", "isothermic", "--dims", "bogus", "-o", "{out}"], 2),
    (["verify", "-i", "{missing}"], 2),
    (["gen", "guichard", "--dims", "5x5", "--seed", "1", "--param", "fault=3",
      "-o", "{out}"], 3),
    (["gen", "omega", "--dims", "4x4", "--signature", "4", "-o", "{out}"], 2),
    (["gen", "minimal", "--dims", "4x4", "--signature", "9,9,9", "-o", "{out}"], 2),
    (["gen", "guichard", "--dims", "4x4", "--signature", "3,1", "-o", "{out}"], 2),
    (["gen", "weingarten", "--dims", "4x4", "--signature", "4,1", "-o", "{out}"], 2),
    (["gen", "weingarten", "--dims", "4x4", "--signature", "4,2", "-o", "{out}"], 0),
    (["gen", "darboux-pair", "--dims", "4x4", "--signature", "3,1", "-o", "{out}"], 0),
    # --param: a key the kind does not read, a value that is not a number,
    # NaN, another non-finite value, a non-integer fault or a zero rho
    (["gen", "isothermic", "--dims", "4x4", "--param", "magnitude=abc", "-o", "{out}"], 2),
    (["gen", "darboux-pair", "--dims", "4x4", "--param", "m=abc", "-o", "{out}"], 2),
    (["gen", "guichard", "--dims", "4x4", "--param", "fault=abc", "-o", "{out}"], 2),
    (["gen", "weingarten", "--dims", "4x4", "--param", "rho=abc", "-o", "{out}"], 2),
    (["gen", "isothermic", "--dims", "4x4", "--param", "bogus=1", "-o", "{out}"], 2),
    (["gen", "isothermic", "--dims", "4x4", "--param", "m=0.5", "-o", "{out}"], 2),
    (["gen", "omega", "--dims", "4x4", "--param", "magnitude=0.3", "-o", "{out}"], 2),
    (["gen", "weingarten", "--dims", "4x4", "--param", "rho=0", "-o", "{out}"], 2),
    (["gen", "minimal", "--dims", "4x4", "--param", "magnitude=nan", "-o", "{out}"], 2),
    (["gen", "isothermic", "--dims", "4x4", "--param", "magnitude=inf", "-o", "{out}"], 2),
    (["gen", "guichard", "--dims", "4x4", "--param", "fault=2.5", "-o", "{out}"], 2),
    (["verify", "-i", "{net}", "--tol", "nullity=abc"], 2),
    (["verify", "-i", "{net}", "--tol", "nullity=nan"], 2),
    # the isotropic Darboux transform does not exist in signature (p, 1)
    (["gen", "darboux-pair", "--dims", "4x4", "--seed", "1", "--signature", "4,1",
      "--param", "m=inf", "-o", "{out}"], 3),
    (["transform", "darboux", "-i", "{net41}", "--m", "inf", "-o", "{out}"], 3),
    # a stacked Darboux pair is not one net to transform
    (["transform", "darboux", "-i", "{pair}", "--m", "2", "-o", "{out}"], 2),
    # a 1x1 grid has no edge: no Guichard net to build (nor an Omega-net,
    # the last case); an Omega-net file of one vertex verifies with the
    # omega group skipped, and fails with no check run, and it has no dual
    # or associates
    (["gen", "guichard", "--dims", "1x1", "-o", "{out}"], 2),
    (["verify", "-i", "{edgeless}"], 1),
    (["transform", "dual", "-i", "{edgeless}", "-o", "{out}"], 2),
    (["transform", "associates", "-i", "{edgeless}", "-o", "{out}"], 2),
    # an Omega-net file with a corrupted frame section is bad input, for
    # every command that loads it
    *((["verify", "-i", f"{{{name}}}"], 2) for name in FRAME_BREAKS),
    *((["transform", "dual", "-i", f"{{{name}}}", "-o", "{out}"], 2) for name in FRAME_BREAKS),
    (["export", "-i", "{frame_no_q}", "--field", "y", "--format", "csv", "-o", "{out}"], 2),
    # no Omega-net of one vertex either: verify would run no check of it
    (["gen", "omega", "--dims", "1x1", "-o", "{out}"], 2),
    # a --tol that is not finite and positive would pass any file
    (["verify", "-i", "{net}", "--tol", "nullity=inf"], 2),
    (["verify", "-i", "{net}", "--tol", "regularity_margin=-inf"], 2),
    (["verify", "-i", "{net}", "--tol", "regularity_margin=0"], 2),
    (["verify", "-i", "{net}", "--tol", "regularity_margin=-1e-6"], 2),
    (["verify", "-i", "{net}", "--tol", "moutard=0"], 2),
    # a negative seed, which numpy's SeedSequence refuses; a rho whose
    # lattice or gamma = -1/rho^2 overflows, the two sides of the largest
    # |rho| (4 rho^2 finite) on the grid of the longest edges, and a rho
    # whose edges vanish
    (["gen", "isothermic", "--dims", "6x6", "--seed", "-1", "-o", "{out}"], 2),
    (["transform", "darboux", "-i", "{net}", "--m", "0.5", "--seed", "-3", "-o", "{out}"], 2),
    (["gen", "weingarten", "--dims", "6x6", "--param", "rho=1e308", "-o", "{out}"], 2),
    (["gen", "weingarten", "--dims", "2x2", "--param", "rho=-6.7e153", "-o", "{out}"], 0),
    (["gen", "weingarten", "--dims", "2x2", "--param", "rho=-6.71e153", "-o", "{out}"], 2),
    (["gen", "weingarten", "--dims", "6x6", "--param", "rho=1e-300", "-o", "{out}"], 3),
    # a fault plants only at a Cauchy step, 1..d0+d1-2: the last one reports
    (["gen", "guichard", "--dims", "4x4", "--seed", "1", "--param", "fault=0", "-o", "{out}"], 2),
    (["gen", "guichard", "--dims", "4x4", "--seed", "1", "--param", "fault=7", "-o", "{out}"], 2),
    (["gen", "guichard", "--dims", "4x4", "--seed", "1", "--param", "fault=6", "-o", "{out}"], 3),
]


@pytest.mark.parametrize("argv, code", EXIT_CODES,
                         ids=[f"{i}-{a[0]}-{a[1]}-exit{c}"
                              for i, (a, c) in enumerate(EXIT_CODES)])
def test_exit_codes(tmp_path, capsys, edgeless_omega, argv, code):
    net = tmp_path / "net.json"
    assert run("gen", "isothermic", "--dims", "4x4", "--seed", 2, "-o", net) == 0
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"format": "dnet-net/1", "signature": [4, 2],
                                "dims": [3, 3]}))
    names = {"net": net, "bare": bare, "out": tmp_path / "out.json",
             "missing": tmp_path / "missing.json", "net41": tmp_path / "net41.json",
             "pair": tmp_path / "pair.json", "edgeless": tmp_path / "edgeless.json",
             **{name: tmp_path / f"{name}.json" for name in FRAME_BREAKS}}
    if "{net41}" in argv:
        assert run("gen", "isothermic", "--dims", "4x4", "--seed", 2, "--signature", "4,1",
                   "-o", names["net41"]) == 0
    if "{pair}" in argv:
        assert run("gen", "darboux-pair", "--dims", "6x6", "--seed", 1,
                   "-o", names["pair"]) == 0
    if "{edgeless}" in argv:
        edgeless_omega.save(str(names["edgeless"]))
    for name, corrupt in FRAME_BREAKS.items():
        if f"{{{name}}}" in argv:
            assert run("gen", "omega", "--dims", "4x4", "--seed", 1, "-o", names[name]) == 0
            doc = json.loads(names[name].read_text())
            doc["frame"] = corrupt(doc["frame"])
            names[name].write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(*(a.format(**names) for a in argv)) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("usage error: "), err
    elif code == 3 and ("m=inf" in argv or "inf" in argv):
        assert err == ("construction degeneracy: no isotropic Darboux transform in "
                       "signature (4, 1): a null seed orthogonal to the net is "
                       "proportional to it\n"), err
    elif code == 0:
        assert err == ""
    elif "{edgeless}" in argv:
        assert "omega.*" in out and "SKIP  [no edges]" in out and err == "", out


# parameters outside their domain, and a file whose mu has a non-null row
BAD_INPUT = {
    "calapso_non_null_mu": (["transform", "calapso", "-i", "{nonnull}", "--t", "0.4"],
                            "calapso needs null lifts: mu at vertex (1, 1)"),
    "darboux_non_null_mu": (["transform", "darboux", "-i", "{nonnull}", "--m", "0.5"],
                            "darboux needs null lifts: mu at vertex (1, 1)"),
    "christoffel_non_null_mu": (["transform", "christoffel", "-i", "{nonnull}"],
                                "christoffel needs null lifts: mu at vertex (1, 1)"),
    # NaN and inf compare false, so they pass the null test: named first,
    # and no numpy warning
    "calapso_inf_mu": (["transform", "calapso", "-i", "{infmu}", "--t", "0.4"],
                       "calapso needs finite lifts: mu at vertex (1, 1) is not finite"),
    "darboux_nan_mu": (["transform", "darboux", "-i", "{nanmu}", "--m", "0.5"],
                       "darboux needs finite lifts: mu at vertex (1, 1) is not finite"),
    "christoffel_inf_mu": (["transform", "christoffel", "-i", "{infmu}"],
                           "christoffel needs finite lifts: mu at vertex (1, 1) is not finite"),
    "darboux_m_zero": (["transform", "darboux", "-i", "{net}", "--m", "0"],
                       "bad --m '0'; expected a nonzero number"),
    "gen_pair_m_zero": (["gen", "darboux-pair", "--dims", "6x6", "--seed", "1",
                         "--param", "m=0"], "bad --param 'm=0'; expected a nonzero number"),
    "calapso_t_inf": (["transform", "calapso", "-i", "{net}", "--t=inf"],
                      "bad --t 'inf'; expected a finite number"),
    "calapso_t_minus_inf": (["transform", "calapso", "-i", "{net}", "--t=-inf"],
                            "bad --t '-inf'; expected a finite number"),
    "associates_c_inf": (["transform", "associates", "-i", "{omega}", "--c=inf"],
                         "bad --c 'inf'; expected a finite number"),
    # associates copies the pair into its output
    "associates_nan_mu_plus": (["transform", "associates", "-i", "{nanplus}"],
                               "associates needs finite lifts: mu_plus at vertex (1, 1) "
                               "is not finite"),
    "associates_inf_mu_minus": (["transform", "associates", "-i", "{infminus}", "--c", "0.7"],
                                "associates needs finite lifts: mu_minus at vertex (1, 1) "
                                "is not finite"),
}

# an Omega-net file with a non-finite entry in one lift of its pair
NON_FINITE_PAIR = {"nanplus": ("mu_plus", "nan"), "infminus": ("mu_minus", "-inf")}


def _non_finite_pairs(omega, tmp_path) -> dict:
    """The files of :data:`NON_FINITE_PAIR` made from the file ``omega``."""
    names = {}
    for name, (field, entry) in NON_FINITE_PAIR.items():
        doc = json.loads(omega.read_text())
        doc["fields"]["vertex"][field][7][1] = entry                    # vertex (1, 1)
        names[name] = tmp_path / f"{name}.json"
        names[name].write_text(json.dumps(doc))
    return names


@pytest.mark.parametrize("argv, message", BAD_INPUT.values(), ids=BAD_INPUT)
def test_bad_input_is_one_line_and_no_file(tmp_path, capsys, argv, message):
    names = {k: tmp_path / f"{k}.json" for k in ("net", "nonnull", "infmu", "nanmu", "omega")}
    assert run("gen", "isothermic", "--dims", "6x6", "--seed", 1, "-o", names["net"]) == 0
    assert run("gen", "omega", "--dims", "6x6", "--seed", 1, "-o", names["omega"]) == 0
    for name, row in (("nonnull", [1.0, 0.5, 0.0, 0.0, 0.2, 0.0]),
                      ("infmu", ["inf", 0, 0, 0, 0, 0]), ("nanmu", [0, 0, "nan", 0, 0, 0])):
        doc = json.loads(names["net"].read_text())
        doc["fields"]["vertex"]["mu"][7] = row                          # vertex (1, 1)
        names[name].write_text(json.dumps(doc))
    names.update(_non_finite_pairs(names["omega"], tmp_path))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run(*(a.format(**names) for a in argv), "-o", out) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"usage error: {message}"), err
    assert not out.exists()


def test_dual_of_a_non_finite_pair_is_written(tmp_path, capsys):
    # dual writes neither lift of the pair
    omega = tmp_path / "omega.json"
    assert run("gen", "omega", "--dims", "6x6", "--seed", 1, "-o", omega) == 0
    for name, path in _non_finite_pairs(omega, tmp_path).items():
        out = tmp_path / f"{name}_dual.json"
        assert _stderr(capsys, "transform", "dual", "-i", path, "-o", out) == (0, [])
        assert out.exists()


@pytest.fixture(scope="module")
def omega_files(tmp_path_factory):
    """6x6 `gen omega` and `gen guichard` files of seed 1."""
    files = {kind: tmp_path_factory.mktemp(kind) / f"{kind}.json" for kind in ("omega", "guichard")}
    for kind, path in files.items():
        assert run("gen", kind, "--dims", "6x6", "--seed", 1, "-o", path) == 0
    return files


# (kind, field, command): a row of a field set to inf, or None for the
# extreme --c of associates
NON_FINITE_ROWS = ([(kind, field, command) for kind in ("omega", "guichard")
                    for field in ("y", "t", "eta") for command in ("verify", "dual", "associates")]
                   + [("guichard", field, "verify") for field in ("x", "xdual")]
                   + [pytest.param("omega", None, "associates", id="omega-c1e308-associates")])


@pytest.mark.parametrize("kind, field, command", NON_FINITE_ROWS)
def test_a_non_finite_omega_lift_fails_at_once(omega_files, tmp_path, capsys, kind, field,
                                               command):
    # no SVD sees the row, which it may never return from: verify fails the
    # checks that read it without a warning, and dual and associates name
    # it.  A lift, which once stalled an SVD, runs in its own process under
    # a timeout; the other cases run in this one
    doc = json.loads(omega_files[kind].read_text())
    if field is not None:
        rows = doc["fields"]["form1" if field == "eta" else "vertex"][field]
        rows[7] = ["inf"] + [0] * (len(rows[7]) - 1)        # vertex or edge (1, 1)
    path, out = tmp_path / "bad.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    argv = (["verify", "-i", path] if command == "verify"
            else ["transform", command, "-i", path, "-o", out]
            + (["--c", "1e308"] if field is None else []))
    if field in ("y", "t"):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-m", "dnet.cli", *map(str, argv)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        code, err, stdout = proc.returncode, proc.stderr.splitlines(), proc.stdout
    else:
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(*argv)
        stdout, err = capsys.readouterr()
        err = err.splitlines() + [str(w.message) for w in caught]
    if command == "verify":
        assert (code, err) == (1, [])
        assert f"FAIL  [non-finite {field}]" in stdout, stdout
    elif field is None:
        assert (code, err) == (2, ["usage error: bad --c '1e308'; the edge differences of "
                                   "x_dual + c n and n_dual - c x must be finite"])
    else:
        what, place = (("forms", "edge (1, 1) along axis 0") if field == "eta"
                       else ("lifts", "vertex (1, 1)"))
        assert (code, err) == (2, [f"usage error: {command} needs finite {what}: {field} at "
                                   f"{place} is not finite"])
    assert not out.exists()


@pytest.mark.parametrize("field", ["x", "xdual"])
def test_dual_and_associates_of_a_non_finite_principal_net_are_written(omega_files, tmp_path,
                                                                        capsys, field):
    # neither reads x or xdual, and neither keeps them: dual writes the
    # principal net of its own lifts, associates its own pair
    doc = json.loads(omega_files["guichard"].read_text())
    doc["fields"]["vertex"][field][7] = ["inf", 0, 0]                  # vertex (1, 1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("dual", "associates"):
        out = tmp_path / f"{command}.json"
        assert _stderr(capsys, "transform", command, "-i", path, "-o", out) == (0, [])
        assert "inf" not in out.read_text()


def test_an_empty_field_has_no_non_finite_row(edgeless_omega, tmp_path):
    # the eta of a grid of one vertex has no row: (0, 15) as built, (0,)
    # as read back
    path = tmp_path / "edgeless.json"
    edgeless_omega.save(str(path))
    files = (edgeless_omega, NetFile.load(str(path)))
    assert [nf.form1_fields["eta"].shape for nf in files] == [(0, 15), (0,)]
    for nf in files:
        assert first_non_finite(nf, ("eta",)) is None
        assert first_non_finite(nf, READS["associates"]) is None


# the 6x6 file of seed 1 that holds every field of each READS entry: a
# `gen` kind, or "pair", the associates output of the omega file, which
# holds xdual and ndual
READ_SOURCES = {**dict.fromkeys(("darboux", "calapso", "christoffel"), "isothermic"),
                "dual": "omega", "omega": "omega", "principal": "minimal",
                "associates": "guichard", "special": "guichard", "guichard": "pair"}
OP_OPTIONS = {"darboux": ["--m", "0.5"], "calapso": ["--t", "0.4"]}
READ_ROWS = [(entry, field, value) for entry, fields in READS.items() for field in fields
             for value in ("nan", "inf")]


@pytest.fixture(scope="module")
def read_sources(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reads")
    files = {kind: tmp / f"{kind}.json"
             for kind in ("isothermic", "omega", "minimal", "guichard", "pair")}
    for kind in ("isothermic", "omega", "minimal", "guichard"):
        assert run("gen", kind, "--dims", "6x6", "--seed", 1, "-o", files[kind]) == 0
    assert run("transform", "associates", "-i", files["omega"], "-o", files["pair"]) == 0
    return files


@pytest.mark.parametrize("entry, field, value", READ_ROWS)
def test_a_non_finite_row_of_a_field_read_fails_at_once(read_sources, tmp_path, capsys,
                                                        entry, field, value):
    # one case per row of READS: a transform exits 2 with one line naming
    # the row and writes nothing, and verify fails every check of the group
    # at the row, with nothing on stderr
    doc = json.loads(read_sources[READ_SOURCES[entry]].read_text())
    rows = doc["fields"]["form1" if field == "eta" else "vertex"][field]
    rows[7] = [value] + [0] * (len(rows[7]) - 1)        # vertex or edge (1, 1)
    path, out = tmp_path / "bad.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    if entry in CHECKS:
        code, stdout, err, warned = _outcome(capsys, "verify", "-i", path)
        assert (code, err, warned) == (1, [], [])
        status = {ln.split()[0]: ln for ln in stdout.splitlines() if ln.split()}
        for name, *_ in CHECKS[entry]:
            assert f"FAIL  [non-finite {field}]  worst=" in status[name], status[name]
            assert "(1, 1)" in status[name], status[name]
    else:
        what, place = (("forms", "edge (1, 1) along axis 0") if field == "eta"
                       else ("lifts", "vertex (1, 1)"))
        assert _stderr(capsys, "transform", entry, *OP_OPTIONS.get(entry, ()), "-i", path,
                       "-o", out) == (2, [f"usage error: {entry} needs finite {what}: {field} "
                                          f"at {place} is not finite"])
        assert not out.exists()


def _off_gauge(fields):
    # eta + d(c y^t) spans the same planes, off the gauge (eta q, p) = 0
    vf, g = fields["vertex"], Grid((6, 6))
    c = np.random.default_rng(1).standard_normal(g.nverts)
    tau = c[:, None] * wedge_vec(np.array(vf["y"]), np.array(vf["t"]))
    fields["form1"]["eta"] = (np.array(fields["form1"]["eta"]) + g.edge_difference(tau)).tolist()


def _repeat_plane(fields):          # the planes at (1, 1) and (1, 2) coincide
    vf = fields["vertex"]
    vf["y"][8], vf["t"][8] = vf["y"][7], vf["t"][7]


def _point_plane(fields):           # the plane at (1, 1) collapses to a line
    fields["vertex"]["t"][7] = fields["vertex"]["y"][7]


def _repeat_point(fields):          # the principal net's edge (1, 1)-(1, 2) vanishes
    fields["vertex"]["x"][8] = fields["vertex"]["x"][7]


def _bend_xdual(fields):            # x_dual at (1, 1) leaves its edges' directions
    fields["vertex"]["xdual"][7][0] += 0.3


# name: the READ_SOURCES file planted, the fault, the groups its error
# stops, the error's message and its element (None: the edge farthest off
# the gauge)
PLANTED = {
    "eta-off-gauge": ("omega", _off_gauge, ("omega",),
                      "associates need the (eta q, p) = 0 gauge", None),
    "repeated-plane": ("omega", _repeat_plane, ("omega",),
                       "first-order regularity fails: dim f_ij < 3",
                       {"kind": "edge", "index": 36, "tail": (1, 1), "axis": 1}),
    "point-plane": ("omega", _point_plane, ("omega",), "intersection line degenerate",
                    {"kind": "edge", "index": 1, "tail": (0, 1), "axis": 0}),
    "vanishing-edge": ("guichard", _repeat_point, ("principal", "guichard"),
                       "vanishing edge in the principal net",
                       {"kind": "edge", "index": 36, "tail": (1, 1), "axis": 1}),
    "xdual-not-parallel": ("pair", _bend_xdual, ("guichard",),
                           "x_dual is not edge-parallel to x",
                           {"kind": "edge", "index": 7, "tail": (1, 1), "axis": 0}),
}


def _planted(read_sources, tmp_path, source, plant):
    doc = json.loads(read_sources[source].read_text())
    plant(doc["fields"])
    path = tmp_path / "planted.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("source, plant, groups, message, where", PLANTED.values(),
                         ids=PLANTED)
def test_an_error_inside_a_group_fails_only_that_group(read_sources, tmp_path, capsys, source,
                                                       plant, groups, message, where):
    # verify prints the whole report and exits 1: every row of a group that
    # the error stops fails at its element, and every other row reads as
    # in the file before the fault
    path = _planted(read_sources, tmp_path, source, plant)
    if where is None:
        om = NetFile.load(str(path)).omega_net()
        off = np.abs(om.signature.inner(om.eta_q(), om.lie_frame.p))
        where = om.grid.locate_edge(int(np.argmax(off)))
    code, stdout, err, warned = _outcome(capsys, "verify", "-i", path)
    assert (code, err, warned) == (1, [], [])
    failing = [name for group in groups for name, *_ in CHECKS[group]]
    rows = stdout.splitlines()[2:-2]
    assert [r.split()[0] for r in rows if r.split()[0] in failing] == failing
    for row in rows:
        if row.split()[0] in failing:
            assert row.split()[1] == "nan", row
            assert row.endswith(f"FAIL  [aborted: {message}]  worst={where}"), row
    _, before, _, _ = _outcome(capsys, "verify", "-i", read_sources[source])
    assert ([r for r in rows if r.split()[0] not in failing]
            == [r for r in before.splitlines()[2:-2] if r.split()[0] not in failing])


def test_a_transform_whose_output_check_stops_exits_1(read_sources, tmp_path, capsys):
    # associates keeps the collapsed plane, and its output check stops there
    path = _planted(read_sources, tmp_path, "omega", _point_plane)
    out = tmp_path / "out.json"
    code, stdout, err, warned = _outcome(capsys, "transform", "associates", "-i", path,
                                         "-o", out)
    assert (code, stdout, warned) == (1, "", []) and not out.exists()
    assert err[-2:] == ["overall: FAIL (14 checks, 1 skipped)",
                        "transform output failed verification; not written"], err
    assert "FAIL  [aborted: intersection line degenerate]" in err[2], err


# the transforms of the files of each gen kind
KIND_OPS = {"isothermic": [["darboux", "--m", "0.5"], ["calapso", "--t", "0.4"], ["christoffel"]],
            "darboux-pair": [["calapso", "--t", "0.4"], ["christoffel"]],
            "omega": [["dual"], ["associates"]], "guichard": [["dual"], ["associates"]],
            "minimal": [], "weingarten": []}


@pytest.mark.parametrize("kind", GEN_KINDS)
@pytest.mark.parametrize("dims", ["1x1", "1x6", "6x1", "2x2"])
def test_gen_of_a_small_grid_is_quiet(tmp_path, capsys, kind, dims):
    # one vertex, one row, one column or one quad: gen exits 0 to 3 without
    # a traceback or a warning, with one line and no file unless it exits
    # 0, and so do verify and each transform of what it writes.  A
    # transform whose output fails its own checks prints that report and
    # exits 1 (calapso of the 2x2 pair, dual and associates of the 2x2
    # omega file)
    path = tmp_path / "net.json"
    code, _, err, warned = _outcome(capsys, "gen", kind, "--dims", dims, "--seed", 1, "-o", path)
    assert code in (0, 2, 3) and warned == [] and len(err) == (code != 0), err
    assert path.exists() == (code == 0)
    if code:
        return
    code, _, err, warned = _outcome(capsys, "verify", "-i", path)
    assert code in (0, 1) and (err, warned) == ([], [])
    for op in KIND_OPS[kind]:
        out = tmp_path / f"{op[0]}.json"
        code, _, err, warned = _outcome(capsys, "transform", *op, "-i", path, "-o", out)
        assert code in (0, 1, 2, 3) and warned == [] and out.exists() == (code == 0)
        if code == 1:
            assert err[-1] == "transform output failed verification; not written", err
        else:
            assert len(err) == (code != 0), err


def test_extreme_transform_parameters_print_no_warning(tmp_path, capsys):
    # a tiny m overflows the norm of the Darboux base lifts: the same exit
    # codes and lines as with the warnings, and no warning after them (a
    # huge c of associates is bad input, in NON_FINITE_ROWS)
    iso = tmp_path / "iso.json"
    assert run("gen", "isothermic", "--dims", "6x6", "--seed", 1, "-o", iso) == 0
    code, err = _stderr(capsys, "transform", "darboux", "--m", "1e-300", "-i", iso,
                        "-o", tmp_path / "d.json")
    assert (code, err) == (3, ["construction degeneracy: no admissible Darboux seed after 24 "
                               "draws: rejected at seed draw 0, propagation 24, normalization 0, "
                               "diagonal margin 0, Moutard 0, nullity 0; best diagonal "
                               "margin -inf"])
    # a tinier m overflows the base lift itself: some seeds pass the march
    # with inf lifts and fail the quality screens, with the counts the
    # warnings came with
    for m, propagation in (("1e-308", 13), ("1e-320", 1)):
        code, err = _stderr(capsys, "transform", "darboux", "--m", m, "-i", iso,
                            "-o", tmp_path / "d.json")
        assert (code, err) == (3, [f"construction degeneracy: no admissible Darboux seed after "
                                   f"24 draws: rejected at seed draw 0, propagation "
                                   f"{propagation}, normalization 0, diagonal margin "
                                   f"{24 - propagation}, Moutard 0, nullity 0; best diagonal "
                                   f"margin -inf"])


@pytest.mark.parametrize("dims", ["1x5", "5x1"])
def test_isothermic_line_without_quads(tmp_path, capsys, dims):
    path = tmp_path / "line.json"
    assert run("gen", "isothermic", "--dims", dims, "--seed", 1, "-o", path) == 0
    capsys.readouterr()
    assert run("verify", "-i", path) == 0
    out = capsys.readouterr().out
    assert "isothermic.diagonal_margin" in out and "no quads" in out
    assert "overall: PASS" in out
    # its Darboux pair is stacked, so it has quads, but the line has none
    pair = tmp_path / "pair.json"
    assert run("gen", "darboux-pair", "--dims", dims, "--seed", 1, "-o", pair) == 0
    assert run("verify", "-i", pair) == 0


QUADS = ("isothermic.moutard", "isothermic.label_relations", "isothermic.diagonal_margin",
         "isothermic.flatness(t=-1.0)", "isothermic.flatness(t=0.3)",
         "isothermic.flatness(t=2.0)")
# a file of a grid without quads or edges: (kind, dims), the checks it
# skips with their reason, the checks that still measure something, and
# its summary line
VACUOUS = [
    ("isothermic", "1x1", {**dict.fromkeys(QUADS, "no quads"),
                           "isothermic.stored_labels": "no edges"},
     ["isothermic.nullity"], "overall: PASS (1 checks, 9 skipped)"),
    ("isothermic", "1x5", dict.fromkeys(QUADS, "no quads"),
     ["isothermic.nullity", "isothermic.stored_labels"], "overall: PASS (2 checks, 8 skipped)"),
    # the stacked pair of one vertex has one vertical edge and no quad
    ("darboux-pair", "1x1", dict.fromkeys(QUADS, "no quads"),
     ["isothermic.nullity", "isothermic.stored_labels"], "overall: PASS (2 checks, 8 skipped)"),
    ("minimal", "1x1", {"principal.curvature_relation": "no edges",
                        "principal.circularity": "no quads"},
     ["principal.unit_normal"], "overall: PASS (1 checks, 5 skipped)"),
    ("weingarten", "1x1", {"principal.curvature_relation": "no edges",
                           "principal.circularity": "no quads"},
     ["principal.unit_normal"], "overall: PASS (1 checks, 5 skipped)"),
    ("minimal", "5x1", {"principal.circularity": "no quads"},
     ["principal.unit_normal", "principal.curvature_relation"],
     "overall: PASS (2 checks, 4 skipped)"),
    ("omega", "1x5", {"omega.eta_closed": "no quads", "omega.duality": "no quads"},
     ["omega.gauge", "omega.nondegeneracy", "omega.eisenhart"],
     "overall: PASS (8 checks, 4 skipped)"),
    ("guichard", "1x5", {**dict.fromkeys(QUADS, "no quads"), "omega.eta_closed": "no quads",
                         "omega.duality": "no quads", "principal.circularity": "no quads",
                         "guichard.associate": "no quads"},
     ["isothermic.stored_labels", "guichard.eisenhart", "special.orthogonality"],
     "overall: PASS (16 checks, 10 skipped)"),
]


@pytest.mark.parametrize("kind, dims, skipped, measured, summary", VACUOUS,
                         ids=[f"{k}-{d}" for k, d, *_ in VACUOUS])
def test_checks_over_nothing_are_skipped(tmp_path, capsys, kind, dims, skipped, measured,
                                         summary):
    path = tmp_path / "net.json"
    assert run("gen", kind, "--dims", dims, "--seed", 1, "-o", path) == 0
    capsys.readouterr()
    assert run("verify", "-i", path) == 0
    lines = capsys.readouterr().out.splitlines()
    status = {ln.split()[0]: ln for ln in lines if ln.split() and "." in ln.split()[0]}
    for name, reason in skipped.items():
        assert status[name].endswith(f"SKIP  [{reason}]"), status[name]
    for name in measured:
        assert status[name].split()[3] == "PASS", status[name]
    assert summary in lines
    # the library reports the same skips
    rep = run_checks(NetFile.load(str(path)))
    assert {name: reason for name, reason in rep.skipped if name in skipped} == skipped


def test_guichard_exhaustion_is_one_line(tmp_path, capsys):
    assert run("gen", "guichard", "--dims", "16x16", "--seed", 1,
               "-o", tmp_path / "g.json") == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("construction degeneracy: Guichard generation failed after 48 "
                          "attempts: rejected at base point ")
    assert "array" not in err and "best orthogonality" in err


def test_isothermic_exhaustion_is_one_line(tmp_path, capsys):
    assert run("gen", "isothermic", "--dims", "32x32", "--seed", 1,
               "-o", tmp_path / "i.json") == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("construction degeneracy: no well-conditioned net after 64 "
                          "draws: rejected at irregular Cauchy step ")
    assert "float64" not in err and "best diagonal margin" in err
    # each margin by name: the best diagonal margin is above its 1e-5 bar
    assert run("gen", "isothermic", "--dims", "12x12", "--seed", 18,
               "-o", tmp_path / "j.json") == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert ("edge margin 38, diagonal margin 26, opposite-label margin 0, validate 0; "
            "best diagonal margin 1.169e-05") in err


def test_readme_lists_every_check():
    from pathlib import Path

    from dnet.netfile import CHECKS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    missing = [name for rows in CHECKS.values() for name, *_ in rows
               if f"`{name}`" not in readme]
    assert not missing, missing


def test_check_table_names_tolerances_and_order(tmp_path):
    from dnet.netfile import CHECKS, DEFAULT_TOLS, MARGIN, RESIDUAL
    rows = [row for group in CHECKS.values() for row in group]
    names = [name for name, *_ in rows]
    assert len(set(names)) == len(names)
    for name, key, tol, kind, carrier in rows:
        assert kind in (RESIDUAL, MARGIN)
        assert carrier in ("quads", "edges", None), name
        assert (tol in DEFAULT_TOLS if isinstance(tol, str)
                else tol[1] in DEFAULT_TOLS if isinstance(tol, tuple)
                else isinstance(tol, float)), name
    # the checks whose value is a maximum over the quads or the edges
    carried = {name: carrier for name, *_, carrier in rows if carrier}
    assert carried == {**dict.fromkeys(QUADS + ("omega.eta_closed", "omega.duality",
                                                "principal.circularity", "guichard.associate",
                                                "omega.duality_fields"), "quads"),
                       "isothermic.stored_labels": "edges",
                       "principal.curvature_relation": "edges"}
    # a Guichard file runs every group, in table order, margins noted
    path = tmp_path / "g.json"
    assert run("gen", "guichard", "--dims", "5x5", "--seed", 1, "-o", path) == 0
    rep = run_checks(NetFile.load(str(path)))
    ran = [c.name for c in rep.checks]
    assert ran == [n for n in names if n in ran]
    assert {n.split(".")[0] for n in ran} == {"isothermic", "omega", "principal",
                                              "guichard", "special"}
    margins = {name for name, _, _, kind, _ in rows if kind == MARGIN}
    assert all((c.note == "margin (must stay above tolerance)") == (c.name in margins)
               for c in rep.checks)
