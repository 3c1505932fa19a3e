"""Every function, class and method of `src/dnet` is reached from a user.

A user reaches the library through `dnet.cli.main`, the demos and the
benchmark.  The audit takes the closure of the names they use:

* roots: the body of `cli.main`, the module-level code of `src/dnet`
  (tables such as `netfile.CHECKS`; imports do not count), every name
  used in `perfbench/` or `demos/`, and the names of `ALLOWED`;
* edges: a reached definition reaches every name its body, decorators,
  default values and class bases use, but its own parameters and local
  variables.  A reached class also reaches its class body and its dunder
  methods, which Python calls implicitly.

A class-body name bound to the value of a call (a property such as
`Grid.edge_tail = _table(...)`, a dataclass `field(...)`) is a definition
like a method, and reaches the names its call uses.  Every non-dunder
module-level function, class, method and such class attribute must be
reached.
`ALLOWED` names the paper constructions that only tests call, each with
its reason.

Names are matched by name only, not by binding: a use of `obj.at` reaches
every `at` defined in `src/dnet`.  So a dead method that shares its name
with a live one, or with a common attribute (`at`, `dim`, `lines`), is
not found here.
"""

import ast
import functools
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dnet").glob("*.py"))
USERS = [p for d in ("perfbench", "demos") for p in sorted((ROOT / d).rglob("*.py"))]

# paper constructions that only tests call, each with its reason
ALLOWED = {
    "koenigs_dual": "Koenigs duality of a projective net in an affine chart",
    "christoffel_ratio": "the factored stretch ratio of two Koenigs dual sections",
    "random_moutard_net": "a Koenigs net built directly from a Moutard lift",
    "special_quantity_solve": "linear conserved quantities of special isothermic nets",
    "legendre_lift": "the Legendre lift of a principal net in Lie sphere geometry",
    "random_lie_frame": "a random admissible Lie frame for the Legendre lift",
    "quad_holonomy_residual": "flatness of the g_ij line bundles around one quad",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _bound_by_call(stmt):
    """The names a class-body statement binds to the value of a call."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or not isinstance(stmt.value, ast.Call):
        return []
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _names(*nodes, bound=frozenset()):
    """Names and attribute names used under ``nodes``, but the plain names
    in ``bound`` and annotations: under ``from __future__ import
    annotations`` the latter are never run."""
    out = set()
    stack = [n for n in nodes if n is not None]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            if node.id not in bound:
                out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    stack.append(child)
    return out


@functools.lru_cache(maxsize=None)
def _uses(node):
    """The names a reached definition reaches, computed once per node."""
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        return _names(node.value)
    if isinstance(node, ast.ClassDef):
        body = [s for s in node.body if not isinstance(s, _FUNCS) and not _bound_by_call(s)]
        dunders = [s for s in node.body if isinstance(s, _FUNCS) and _dunder(s.name)]
        return _names(*node.decorator_list, *node.bases, *node.keywords, *body).union(
            *map(_uses, dunders))
    # a local variable (`act`, `packed`) reaches no definition of its name
    local = {n.arg for n in ast.walk(node) if isinstance(n, ast.arg)}
    local |= {n.id for n in ast.walk(node)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    local |= {n.name for n in ast.walk(node) if isinstance(n, _DEFS) and n is not node}
    return _names(*node.decorator_list, *node.args.defaults, *node.args.kw_defaults,
                  *node.body, bound=local)


@functools.lru_cache(maxsize=None)
def _module(path):
    """The syntax tree of the file ``path``, parsed once per process."""
    return ast.parse(path.read_text())


def definitions():
    """name -> [(qualified name, node)] over the module-level functions and
    classes of `src/dnet`, the methods of those classes and their class
    attributes bound by a call."""
    out = {}
    for path in SOURCES:
        for node in _module(path).body:
            if not isinstance(node, _DEFS):
                continue
            out.setdefault(node.name, []).append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                for meth in node.body:
                    names = [meth.name] if isinstance(meth, _FUNCS) else _bound_by_call(meth)
                    for name in names:
                        if not _dunder(name):
                            out.setdefault(name, []).append(
                                (f"{path.stem}.{node.name}.{name}", meth))
    return out


def roots(allowed):
    """The names `cli.main`, the module-level code of `src/dnet` (but its
    imports), the users and ``allowed`` reach."""
    names = set(allowed) | {"main"}
    for path in SOURCES:
        names |= _names(*(s for s in _module(path).body
                          if not isinstance(s, (*_DEFS, ast.Import, ast.ImportFrom))))
    for path in USERS:
        names |= _names(_module(path))
    return names


def reached(names, defs):
    """Qualified names of the definitions that ``names`` reach."""
    seen, frontier, out = set(), set(names), set()
    while frontier:
        name = frontier.pop()
        seen.add(name)
        for qual, node in defs.get(name, ()):
            out.add(qual)
            frontier |= _uses(node) - seen
    return out


def unreached(allowed=ALLOWED, defs=None):
    """Qualified names of the definitions no root reaches."""
    defs = definitions() if defs is None else defs
    got = reached(roots(allowed), defs)
    return sorted(qual for entries in defs.values() for qual, _ in entries if qual not in got)


def test_every_definition_is_reached():
    dead = unreached()
    assert not dead, ("definitions no command, demo or benchmark reaches "
                      "(delete them, or allow-list a paper construction):\n  "
                      + "\n  ".join(dead))


def test_a_table_only_the_benchmark_reads_is_unreached_without_it(monkeypatch):
    # the whole-grid tables are class attributes bound by a call, and only
    # perfbench/ reads them
    tables = {"grid.Grid.edge_tail", "grid.Grid.edge_head"}
    assert not tables & set(unreached())
    monkeypatch.setattr(sys.modules[__name__], "USERS",
                        [p for p in USERS if p.is_relative_to(ROOT / "demos")])
    assert tables <= set(unreached())


def test_each_allowed_name_exists_and_is_needed():
    # what the roots but ALLOWED reach, walked once, and what each ALLOWED
    # name reaches alone: the roots less one name reach the union of the
    # others
    defs = definitions()
    base = reached(roots(()), defs)
    own = {name: reached({name}, defs) for name in ALLOWED}
    for name in ALLOWED:
        assert name in defs, f"ALLOWED names {name!r}, which src/dnet does not define"
        rest = base.union(*(own[k] for k in ALLOWED if k != name))
        assert {q for q, _ in defs[name]}.isdisjoint(rest), (
            f"{name!r} is reached without its ALLOWED entry; drop the entry")


@pytest.mark.parametrize("name, message", [
    ("run_checks", "'run_checks' is reached without its ALLOWED entry"),
    # reached only through the entry of christoffel_ratio
    ("factor_edge_ratios", "'factor_edge_ratios' is reached without its ALLOWED entry"),
    ("no_such_name", "ALLOWED names 'no_such_name', which src/dnet does not define")],
    ids=["reached", "reached-through-another-entry", "undefined"])
def test_a_needless_allowed_entry_fails(monkeypatch, name, message):
    monkeypatch.setitem(ALLOWED, name, "planted")
    with pytest.raises(AssertionError, match=message):
        test_each_allowed_name_exists_and_is_needed()


if __name__ == "__main__":
    print("\n".join(unreached()) or "every definition is reached")
    # ROADMAP F25: the definitions only the demos reach, and their lines
    USERS = [p for p in USERS if not p.is_relative_to(ROOT / "demos")]
    nodes = {qual: node for entries in definitions().values() for qual, node in entries}
    demo_only = unreached()
    lines = {(qual.split(".")[0], n) for qual in demo_only
             for n in range(nodes[qual].lineno, nodes[qual].end_lineno + 1)}
    print(f"{len(demo_only)} definitions, {len(lines)} lines, reached only from demos/:")
    for qual in demo_only:
        print(f"  {qual} {nodes[qual].end_lineno - nodes[qual].lineno + 1}")
