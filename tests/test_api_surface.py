"""Every optional parameter of `src/dnet` is set by some call, and its
default is taken by some call.

A parameter with a default that no call in `src/`, `perfbench/` or
`demos/` passes (by keyword or by position) is a knob nobody turns: it
should be the constant it always is.  A keyword argument whose value is
the parameter's own literal default (`f(x, base=0)` for `base=0`) sets
nothing; a positional one counts, as callers need it to reach a later
position.  A test does not justify a knob:
where a test needs another value, it patches the module constant.  The
exceptions are the inputs of `ALLOWED`, which only tests set and which
choose which object is built, each with its reason.  Calls are matched
by the callable's name (`f(...)`, `obj.f(...)`); a class's `__init__` is
matched by the class name or the name of any subclass defined in
`src/dnet`.  A call into a test reference module (`ref.validate(net)` with
`ref` bound to `tests/*_reference.py`, or a function imported from one)
sets nothing in `src/`.

The mirror rule: a default that no call takes (each call passes the
parameter, by position or by keyword with another value) belongs to no
user, and the parameter should be required.  A call takes the default
when it leaves the parameter out, leaves a starred argument that may
stop short of it, or passes by keyword its literal default, also as one
branch of a conditional (`f(out=None if c else o)`).  A function that no
user calls is skipped: the rule is about its callers.  Both rules read
`partial(f, ...)` as a call of `f` with the arguments it binds.

The match is by name only, so a same-named method of two `src/` classes
can still mask one of them: `net.validate(margin=...)` of `IsothermicNet`
would count for `LineCongruence.validate` too, were it given a `margin`.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dnet").glob("*.py"))
CALLERS = [p for d in ("src", "perfbench", "demos") for p in sorted((ROOT / d).rglob("*.py"))]

# inputs that only tests set, each choosing which object is built, with
# its reason: (qualified name, parameter) -> reason
ALLOWED = {
    ("darboux_legendre", "seed"): "an explicit seed picks one Darboux transform of the family",
    ("extract_pair", "seeds_plus"): "the fiber seeds that pick one K-Moutard pair of a "
                                    "congruence",
    ("extract_pair", "seeds_minus"): "the fiber seeds of the second net of the pair",
    ("special_quantity_solve", "xi_seed"): "the value of xi at vertex 0, the constant of "
                                           "integration",
    ("PrincipalNet.validate", "frame"): "the Lie frame the circularity is measured in",
    ("legendre_lift", "frame"): "the Lie frame of the lift; tests pass random_lie_frame's",
    ("sphere_lattice", "center"): "the center of the sphere the patch lies on",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _literal(node):
    """``(type, value)`` of a literal expression, else None."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError):
        return None
    return type(value), value


def _optional_parameters():
    """(module, qualified name, call names, parameter, positional index or
    None, literal default or None) for every parameter with a default."""
    trees = {path: _parse(path) for path in SOURCES}
    bases = {}                                   # class name -> base names
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}

    def subclasses(name):
        found = {name}
        while True:
            more = {c for c, bs in bases.items() if bs & found} - found
            if not more:
                return found
            found |= more

    out = []

    def visit(node, path, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".", child.name)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                names = {child.name}
                if child.name == "__init__" and cls is not None:
                    names = subclasses(cls)
                skip = 0 if cls is None else 1           # self / cls
                first = len(args.args) - len(args.defaults)
                for i, default in zip(range(first, len(args.args)), args.defaults):
                    out.append((path.name, prefix + child.name, names,
                                args.args[i].arg, i - skip, _literal(default)))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((path.name, prefix + child.name, names, arg.arg, None,
                                    _literal(default)))
                visit(child, path, prefix + child.name + ".", None)
            else:
                visit(child, path, prefix, cls)

    for path, tree in trees.items():
        visit(tree, path, "", None)
    return out


def _reference_names(tree):
    """Names a module binds to a test reference module or to a function
    imported from one."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            from_reference = isinstance(node, ast.ImportFrom) and (
                node.module or "").endswith("_reference")
            names |= {alias.asname or alias.name for alias in node.names
                      if from_reference or alias.name.endswith("_reference")}
    return names


def _keyword_value(node):
    """The literal of a keyword's value; for a conditional, the list of the
    literals of its branches."""
    if isinstance(node, ast.IfExp):
        return [lit for branch in (node.body, node.orelse)
                for lit in _branches(_keyword_value(branch))]
    return _literal(node)


def _branches(value):
    return value if isinstance(value, list) else [value]


def _calls(trees):
    """callable name -> list of (keyword name -> literal value or None,
    positional count, starred from index or None), over the calls in
    `trees` but those into a test reference module.  `partial(f, ...)`
    is a call of `f` with the arguments it binds."""
    calls = {}
    for tree in trees:
        refs = _reference_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if getattr(func, "id", getattr(func, "attr", None)) == "partial" and args:
                func, args = args[0], args[1:]
            if isinstance(func, ast.Name):
                name, receiver = func.id, func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
                receiver = func.value.id if isinstance(func.value, ast.Name) else None
            else:
                continue
            if receiver in refs:
                continue
            starred = next((i for i, a in enumerate(args) if isinstance(a, ast.Starred)), None)
            keywords = {k.arg: _keyword_value(k.value) for k in node.keywords
                        if k.arg is not None}
            calls.setdefault(name, []).append((keywords, len(args), starred))
    return calls


def _is_set(calls, names, param, index, default):
    for name in names:
        for keywords, npos, starred in calls.get(name, ()):
            # a keyword set to the literal default sets nothing
            if param in keywords and any(lit is None or lit != default
                                         for lit in _branches(keywords[param])):
                return True
            # a starred argument may fill every position from its own on
            if index is not None and (index < npos or starred is not None):
                return True
    return False


def _is_taken(calls, names, param, index, default):
    for name in names:
        for keywords, npos, starred in calls.get(name, ()):
            # a keyword set to the literal default, in some branch, takes it
            if param in keywords:
                if any(lit is not None and lit == default
                       for lit in _branches(keywords[param])):
                    return True
            # a starred argument may leave every position from its own on
            elif index is None or index >= (npos if starred is None else starred):
                return True
    return False


def unused_parameters():
    calls = _calls(map(_parse, CALLERS))
    return [f"{module}:{qualname}({param}=)"
            for module, qualname, names, param, index, default in _optional_parameters()
            if (qualname, param) not in ALLOWED
            and not _is_set(calls, names, param, index, default)]


def untaken_defaults():
    calls = _calls(map(_parse, CALLERS))
    return [f"{module}:{qualname}({param}=)"
            for module, qualname, names, param, index, default in _optional_parameters()
            if any(calls.get(name) for name in names)
            and not _is_taken(calls, names, param, index, default)]


def test_every_optional_parameter_is_set_by_some_call():
    unused = unused_parameters()
    assert not unused, ("optional parameters no call sets (make each the "
                        "constant it always is):\n  " + "\n  ".join(unused))


def test_every_default_is_taken_by_some_call():
    untaken = untaken_defaults()
    assert not untaken, ("defaults no call takes (make each parameter "
                         "required):\n  " + "\n  ".join(untaken))


def test_calls_into_reference_modules_set_nothing():
    tree = ast.parse("from tests import netfile_reference as ref\n"
                     "import walk_reference\n"
                     "from tests.isothermic_reference import evolve_quad as quad\n"
                     "ref.validate(net, margin=1)\n"
                     "walk_reference.darboux_march(net, 0.5, min_denom=2)\n"
                     "quad(a, b, tol=3)\n"
                     "net.validate(margin=4)\n")
    assert _calls([tree]) == {"validate": [({"margin": (int, 4)}, 0, None)]}


def test_each_allowed_parameter_exists_and_only_tests_set_it():
    calls = _calls(map(_parse, CALLERS))
    found = {(qualname, param): _is_set(calls, names, param, index, default)
             for _, qualname, names, param, index, default in _optional_parameters()}
    assert ALLOWED.keys() <= found.keys(), ALLOWED.keys() - found.keys()
    assert not [key for key in ALLOWED if found[key]]


PLANTED = ("def planted_walk(grid, base=0, tol=1e-8, *, seed=None):\n"
           "    return grid\n")


@pytest.mark.parametrize("call, unused", [
    ("planted_walk(g, base=0, tol=1e-7, seed=None)", ["base", "seed"]),
    ("planted_walk(g, 0, 1e-8, seed=s)", []),
    ("planted_walk(g, base=b, tol=1e-8, seed=0)", ["tol"]),
])
def test_a_default_passed_by_keyword_sets_nothing(monkeypatch, tmp_path, call, unused):
    source, caller = tmp_path / "planted.py", tmp_path / "caller.py"
    source.write_text(PLANTED)
    caller.write_text(call + "\n")
    monkeypatch.setattr(sys.modules[__name__], "SOURCES", [*SOURCES, source])
    monkeypatch.setattr(sys.modules[__name__], "CALLERS", [*CALLERS, caller])
    assert [u for u in unused_parameters() if "planted_walk" in u] == [
        f"planted.py:planted_walk({name}=)" for name in unused]


@pytest.mark.parametrize("call, untaken", [
    ("planted_walk(g, b, tol=1e-7, seed=s)", ["base", "tol", "seed"]),
    ("partial(planted_walk, g)", []),
    ("functools.partial(planted_walk, g, b, tol=t)", ["base", "tol"]),
    ("planted_walk(g, b, tol=1e-8, seed=None if c else s)", ["base"]),
    ("planted_walk(g, b, t, seed=s if c else 0 if d else None)", ["base", "tol"]),
    ("planted_walk(g, b, *rest, seed=s)", ["base", "seed"]),
    ("other_walk(g)", []),
])
def test_a_default_is_taken_by_an_omitted_or_literal_argument(monkeypatch, tmp_path, call,
                                                              untaken):
    source, caller = tmp_path / "planted.py", tmp_path / "caller.py"
    source.write_text(PLANTED)
    caller.write_text(call + "\n")
    monkeypatch.setattr(sys.modules[__name__], "SOURCES", [*SOURCES, source])
    monkeypatch.setattr(sys.modules[__name__], "CALLERS", [*CALLERS, caller])
    assert [u for u in untaken_defaults() if "planted_walk" in u] == [
        f"planted.py:planted_walk({name}=)" for name in untaken]


if __name__ == "__main__":
    print(len(_optional_parameters()), "optional parameters")
    print("set by no call:", unused_parameters())
    print("default taken by no call:", untaken_defaults())
