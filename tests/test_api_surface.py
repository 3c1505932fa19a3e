"""Every optional parameter of `src/dnet` is set by some call.

A parameter with a default that no call in `src/`, `perfbench/`, `demos/`
or `tests/` passes (by keyword or by position) is a knob nobody turns: it
should be the constant it always is.  Calls are matched by the callable's
name (`f(...)`, `obj.f(...)`); a class's `__init__` is matched by the class
name or the name of any subclass defined in `src/dnet`.  A call into a test
reference module (`tests/*_reference.py`: `ref.validate(net)` with `ref`
bound to one, or a function imported from one) sets nothing in `src/`.

The match is by name only, so a same-named method of two `src/` classes
can still mask one of them: `net.validate(margin=...)` of `IsothermicNet`
would count for `LineCongruence.validate` too, were it given a `margin`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dnet").glob("*.py"))
CALLERS = [p for d in ("src", "perfbench", "demos", "tests")
           for p in sorted((ROOT / d).rglob("*.py"))]

# keywords that reach a function only through a test wrapper, with the
# test lines that set them
FORWARDED = {
    # tests/test_generators.py:312 and :377, through `_assert_same_draws` and
    # `_isothermic`
    ("random_isothermic", "margin"),
    # tests/test_isothermic.py:159-162, through `darboux_transform(..., **kw)`;
    # tests/test_walks.py:169, through `_outcome`
    ("darboux_transform", "margin"),
    ("darboux_transform", "min_denom"),
    # tests/test_generators.py:163, through `_generate`
    ("guichard_generate", "retries"),
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _optional_parameters():
    """(module, qualified name, call names, parameter, positional index or
    None) for every parameter with a default."""
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
                for i in range(first, len(args.args)):
                    out.append((path.name, prefix + child.name, names,
                                args.args[i].arg, i - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((path.name, prefix + child.name, names, arg.arg, None))
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


def _calls(trees):
    """callable name -> list of (keyword names, positional count, starred
    from index or None), over the calls in `trees` but those into a test
    reference module."""
    calls = {}
    for tree in trees:
        refs = _reference_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name, receiver = func.id, func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
                receiver = func.value.id if isinstance(func.value, ast.Name) else None
            else:
                continue
            if receiver in refs:
                continue
            starred = next((i for i, a in enumerate(node.args)
                            if isinstance(a, ast.Starred)), None)
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            calls.setdefault(name, []).append((keywords, len(node.args), starred))
    return calls


def _is_set(calls, names, param, index):
    for name in names:
        for keywords, npos, starred in calls.get(name, ()):
            if param in keywords:
                return True
            # a starred argument may fill every position from its own on
            if index is not None and (index < npos or starred is not None):
                return True
        if (name, param) in FORWARDED:
            return True
    return False


def unused_parameters():
    calls = _calls(map(_parse, CALLERS))
    return [f"{module}:{qualname}({param}=)"
            for module, qualname, names, param, index in _optional_parameters()
            if not _is_set(calls, names, param, index)]


def test_every_optional_parameter_is_set_by_some_call():
    unused = unused_parameters()
    assert not unused, ("optional parameters no call sets (make each the "
                        "constant it always is):\n  " + "\n  ".join(unused))


def test_calls_into_reference_modules_set_nothing():
    tree = ast.parse("from tests import netfile_reference as ref\n"
                     "import walk_reference\n"
                     "from tests.isothermic_reference import evolve_quad as quad\n"
                     "ref.validate(net, margin=1)\n"
                     "walk_reference.darboux_march(net, 0.5, min_denom=2)\n"
                     "quad(a, b, tol=3)\n"
                     "net.validate(margin=4)\n")
    assert _calls([tree]) == {"validate": [({"margin"}, 0, None)]}


def test_forwarded_keywords_still_name_real_parameters():
    known = {(name, param) for _, _, names, param, _ in _optional_parameters()
             for name in names}
    assert FORWARDED <= known


if __name__ == "__main__":
    print(len(_optional_parameters()), "optional parameters")
    print("\n".join(unused_parameters()))
