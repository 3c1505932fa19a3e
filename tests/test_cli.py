import json

import numpy as np
import pytest

from dnet.cli import main
from dnet.netfile import NetFile, run_checks


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
    vertical = nf.edge_fields["m"][g.edge_axis == 0]
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


def test_export_rejects_bad_field(tmp_path):
    src = tmp_path / "iso.json"
    assert run("gen", "isothermic", "--dims", "4x4", "--seed", 5, "-o", src) == 0
    # mu is 6-dimensional: obj export must refuse
    assert run("export", "-i", src, "--field", "mu", "--format", "obj",
               "-o", tmp_path / "bad.obj") == 2
    assert run("export", "-i", src, "--field", "nope", "--format", "csv",
               "-o", tmp_path / "bad.csv") == 2


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


def test_verify_infinite_label_pair_is_quiet(tmp_path, capsys):
    path = tmp_path / "pair.json"
    assert run("gen", "darboux-pair", "--dims", "4x4", "--seed", 1,
               "--param", "m=inf", "-o", path) == 0
    capsys.readouterr()
    assert run("verify", "-i", path) == 0
    assert capsys.readouterr().err == ""


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
]


@pytest.mark.parametrize("argv, code", EXIT_CODES,
                         ids=[f"{i}-{a[0]}-{a[1]}-exit{c}"
                              for i, (a, c) in enumerate(EXIT_CODES)])
def test_exit_codes(tmp_path, capsys, argv, code):
    net = tmp_path / "net.json"
    assert run("gen", "isothermic", "--dims", "4x4", "--seed", 2, "-o", net) == 0
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"format": "dnet-net/1", "signature": [4, 2],
                                "dims": [3, 3]}))
    names = {"net": net, "bare": bare, "out": tmp_path / "out.json",
             "missing": tmp_path / "missing.json"}
    capsys.readouterr()
    assert run(*(a.format(**names) for a in argv)) == code
    err = capsys.readouterr().err
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("usage error: "), err
    elif code == 0:
        assert err == ""
