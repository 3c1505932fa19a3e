"""The command-line contract over mutated files.

Each `gen` kind writes its 6x6 file of seed 1; each mutation changes one
row of one field (or drops a field, cuts an array one row short, or
breaks `dims`), and `verify` and the transforms run on the result in
this process, with every warning raised as an error.  The contract:

* `verify` exits 0, 1 or 2, and its exit 1 prints nothing on stderr;
* an exit 2 or 3 prints exactly one stderr line;
* no exception escapes `cli.main`;
* no file is written on a non-zero exit;
* a second run gives the same exit, the same bytes on stdout and stderr
  and the same file.

Tier-1 runs every `STRIDE`-th case, a fixed subset; the full sweep runs
under the `contract_sweep` marker: ``pytest -m contract_sweep``.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest

from dnet.cli import GEN_KINDS, main

COMMANDS = (["verify"], ["transform", "darboux", "--m", "0.5", "--seed", "1"],
            ["transform", "calapso", "--t", "0.4"], ["transform", "christoffel"],
            ["transform", "dual"], ["transform", "associates"],
            ["transform", "associates", "--c", "0.3"])
# the mutations of one row i (j another row, k an entry of the row)
ROW_MUTATIONS = {
    "copy": lambda a, i, j, k: a.__setitem__(i, a[j]),
    "zero": lambda a, i, j, k: a.__setitem__(i, 0.0),
    "negate": lambda a, i, j, k: a.__setitem__(i, -a[i]),
    "times1e3": lambda a, i, j, k: a.__setitem__(i, a[i] * 1e3),
    "times1e-200": lambda a, i, j, k: a.__setitem__(i, a[i] * 1e-200),
    "swap": lambda a, i, j, k: a.__setitem__([i, j], a[[j, i]]),
    **{f"entry={v!r}": (lambda v: lambda a, i, j, k: a.reshape(len(a), -1).__setitem__(
        (i, k), v))(v) for v in (1e300, -1e-300, 0.0, 1.0)},
}
STRIDE = 7          # about 4 s of tier-1


def _cases():
    """(kind, section, field, mutation) of every mutated file, in a fixed order."""
    fields = {"isothermic": {"vertex": ("mu",), "edge": ("m",)},
              "darboux-pair": {"vertex": ("mu",), "edge": ("m",)},
              "omega": {"vertex": ("mu_plus", "mu_minus", "y", "t"), "form1": ("eta",),
                        "edge": ("m",)},
              "guichard": {"vertex": ("mu", "xi", "mu_plus", "mu_minus", "y", "t", "x", "n",
                                      "xdual"), "form1": ("eta",), "edge": ("m", "kappa")},
              "minimal": {"vertex": ("x", "n"), "edge": ("kappa",)},
              "weingarten": {"vertex": ("x", "n"), "edge": ("kappa",)}}
    assert tuple(fields) == GEN_KINDS
    out = []
    for kind, sections in fields.items():
        for section, names in sections.items():
            for name in names:
                out += [(kind, section, name, m) for m in (*ROW_MUTATIONS, "drop", "short")]
        out.append((kind, None, None, "dims"))
    return out


CASES = _cases()


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("contract")
    out = {}
    for kind in GEN_KINDS:
        path = tmp / f"{kind}.json"
        assert main(["gen", kind, "--dims", "6x6", "--seed", "1", "-o", str(path)]) == 0
        out[kind] = json.loads(path.read_text())
    return out


def _mutated(doc: dict, case: tuple, index: int) -> dict:
    """A copy of ``doc`` with the mutation of ``case``; the rows it changes
    come from a generator seeded with the case's index."""
    kind, section, name, mutation = case
    doc = json.loads(json.dumps(doc))
    if mutation == "dims":
        doc["dims"] = [doc["dims"][0] + 1, doc["dims"][1]]
        return doc
    fields = doc["fields"][section]
    if mutation == "drop":
        del fields[name]
        return doc
    if mutation == "short":
        fields[name] = fields[name][:-1]
        return doc
    arr = np.array(fields[name], dtype=float)
    rng = np.random.default_rng(index)
    i, j = rng.choice(len(arr), size=2, replace=False)
    k = int(rng.integers(arr[0].size))
    ROW_MUTATIONS[mutation](arr, int(i), int(j), k)
    fields[name] = [v if np.isfinite(v) else repr(v) for v in arr.tolist()] if arr.ndim == 1 \
        else [[v if np.isfinite(v) else repr(v) for v in row] for row in arr.tolist()]
    return doc


def _run(argv, out) -> tuple:
    """Exit code, stdout, stderr and output bytes of one command in this
    process, with every warning an error; an exception that escapes
    ``main`` fails the test."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    written = out.read_bytes() if out.exists() else None
    if out.exists():
        out.unlink()
    return code, stdout.getvalue(), stderr.getvalue(), written


def _check(sources, tmp_path, index):
    case = CASES[index]
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(_mutated(sources[case[0]], case, index)))
    for command in COMMANDS:
        argv = [*command[:2], "-i", str(path), *command[2:]]
        if command[0] == "transform":
            argv += ["-o", str(out)]
        first = _run(argv, out)
        code, _, err, written = first
        what = (case, command, code, err)
        if command[0] == "verify":
            assert code in (0, 1, 2), what
            assert code != 1 or err == "", what
        if code in (2, 3):
            assert len(err.splitlines()) == 1 and err.endswith("\n"), what
        assert (written is not None) == (command[0] == "transform" and code == 0), what
        assert _run(argv, out) == first, what


@pytest.mark.parametrize("index", range(0, len(CASES), STRIDE))
def test_a_mutated_file_keeps_the_contract(sources, tmp_path, index):
    _check(sources, tmp_path, index)


@pytest.mark.contract_sweep
@pytest.mark.parametrize("index", [i for i in range(len(CASES)) if i % STRIDE])
def test_the_full_contract_sweep(sources, tmp_path, index):
    _check(sources, tmp_path, index)
