"""Spans recorded from outside dnet, by wrapping its public callables.

Every wrapped callable records one span per call: name, start, end,
parent span, workload operation id and whether an exception passed
through it.  Spans stay in memory until the pass ends.  Wrappers are
installed by rebinding every name in every ``dnet.*`` namespace that
holds the original (``isothermic`` and ``lie_sphere`` both import
``moutard_evolve`` by name, for example), and methods are wrapped on
their class, so internal calls are seen too.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path); a two-part path is a method
# on a class, and "Grid.__init__" is reported as the constructor.
TARGETS = {
    "grid.Grid": ("dnet.grid", "Grid.__init__"),
    "grid.staircase_tree": ("dnet.grid", "Grid.staircase_tree"),
    "grid.integrate_one_form": ("dnet.grid", "integrate_one_form"),
    "grid.trivialize_connection": ("dnet.grid", "trivialize_connection"),
    "forms.exterior_derivative": ("dnet.forms", "exterior_derivative"),
    "forms.wedge": ("dnet.forms", "wedge"),
    "pseudo_euclidean.gamma_lambda": ("dnet.pseudo_euclidean", "gamma_lambda"),
    "pseudo_euclidean.renull": ("dnet.pseudo_euclidean", "renull"),
    "isothermic.moutard_evolve": ("dnet.isothermic", "moutard_evolve"),
    "isothermic.random_isothermic": ("dnet.isothermic", "random_isothermic"),
    "isothermic.darboux_transform": ("dnet.isothermic", "darboux_transform"),
    "isothermic.IsothermicNet.validate": ("dnet.isothermic", "IsothermicNet.validate"),
    "isothermic.flat_connection": ("dnet.isothermic", "flat_connection"),
    "isothermic.calapso_transform": ("dnet.isothermic", "calapso_transform"),
    "isothermic.christoffel_dual": ("dnet.isothermic", "christoffel_dual"),
    "koenigs.LineCongruence.validate": ("dnet.koenigs", "LineCongruence.validate"),
    "lie_sphere.guichard_generate": ("dnet.lie_sphere", "guichard_generate"),
    "lie_sphere.omega_edge_labels": ("dnet.lie_sphere", "omega_edge_labels"),
    "lie_sphere.associates": ("dnet.lie_sphere", "associates"),
    "lie_sphere.PrincipalNet.validate": ("dnet.lie_sphere", "PrincipalNet.validate"),
    "osystem.ParallelFamily.validate": ("dnet.osystem", "ParallelFamily.validate"),
    "osystem.check_osystem": ("dnet.osystem", "check_osystem"),
    "netfile.NetFile.load": ("dnet.netfile", "NetFile.load"),
    "netfile.NetFile.save": ("dnet.netfile", "NetFile.save"),
    "netfile.run_checks": ("dnet.netfile", "run_checks"),
    "cli.main": ("dnet.cli", "main"),
}

# Spans whose calls, self time and errors are reported per operation.
COUNTED = {
    "pseudo_euclidean.gamma_lambda": ("calls", "self_ms"),
    "pseudo_euclidean.renull": ("calls",),
    "isothermic.moutard_evolve": ("calls", "self_ms", "errors"),
    "grid.integrate_one_form": ("self_ms", "errors"),
    "grid.trivialize_connection": ("self_ms", "errors"),
}

# useful_ratio: results returned over the attempts beneath the span.
# Darboux retries by calling itself with an explicit seed, so its
# attempts are the nested darboux_transform spans.
USEFUL = {
    "isothermic.random_isothermic": "isothermic.moutard_evolve",
    "isothermic.darboux_transform": "isothermic.darboux_transform",
    "lie_sphere.guichard_generate": "isothermic.moutard_evolve",
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list = list(TARGETS)
        self.spans: list = []      # [name, start, end, parent, op, error, extra]
        self.stack: list = []
        self.op = -1
        self.recording = False

    def _wrap(self, name_id: int, fn, extra=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name_id, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.op, 0, None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if extra is not None:
                span[6] = extra(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        """Rebind every target in every loaded ``dnet`` namespace."""
        extras = {
            "netfile.NetFile.save": lambda args, out: os.path.getsize(args[1]),
            "netfile.NetFile.load": lambda args, out: os.path.getsize(args[1]),
            "netfile.run_checks": lambda args, out: (len(out.checks), len(out.skipped)),
        }
        modules = [m for n, m in sys.modules.items()
                   if n == "dnet" or n.startswith("dnet.")]
        for name_id, name in enumerate(self.names):
            modname, path = TARGETS[name]
            owner = sys.modules[modname]
            parts = path.split(".")
            if len(parts) == 2:
                cls = getattr(owner, parts[0])
                raw = cls.__dict__[parts[1]]
                if isinstance(raw, classmethod):
                    # NetFile.load: the wrapper sees (cls, path, ...)
                    wrapped = classmethod(self._wrap(name_id, raw.__func__,
                                                     extras.get(name)))
                else:
                    wrapped = self._wrap(name_id, raw, extras.get(name))
                setattr(cls, parts[1], wrapped)
                continue
            orig = getattr(owner, path)
            wrapped = self._wrap(name_id, orig, extras.get(name))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

    def per_layer(self, ops: int) -> dict:
        """Aggregate the spans into the per-layer metrics.

        ``calls``, ``self_ms`` and ``errors`` are per workload operation;
        ``bytes`` is the file size per call; ``checks_run`` and
        ``checks_skipped`` are per ``run_checks`` call, read from the
        returned report.
        """
        spans = self.spans
        self_s = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                self_s[s[3]] -= s[2] - s[1]
        calls = defaultdict(int)
        errors = defaultdict(int)
        total = defaultdict(float)
        extra = defaultdict(list)
        for i, s in enumerate(spans):
            name = self.names[s[0]]
            calls[name] += 1
            errors[name] += s[5]
            total[name] += self_s[i]
            if s[6] is not None:
                extra[name].append(s[6])

        per_op = max(ops, 1)
        out = {}
        for name in self.names:
            stats = COUNTED.get(name, ("self_ms",))
            if "calls" in stats:
                out[f"{name}.calls"] = calls[name] / per_op
            if "self_ms" in stats:
                out[f"{name}.self_ms"] = 1e3 * total[name] / per_op
            if "errors" in stats:
                out[f"{name}.errors"] = errors[name] / per_op
        for name, attempt in USEFUL.items():
            out[f"{name}.useful_ratio"] = self._useful_ratio(name, attempt)
        for name in ("netfile.NetFile.load", "netfile.NetFile.save"):
            sizes = extra[name]
            out[f"{name}.bytes"] = sum(sizes) / len(sizes) if sizes else 0.0
        reports = extra["netfile.run_checks"]
        n = max(len(reports), 1)
        out["netfile.run_checks.checks_run"] = sum(r[0] for r in reports) / n
        out["netfile.run_checks.checks_skipped"] = sum(r[1] for r in reports) / n
        return out

    def _useful_ratio(self, name: str, attempt: str) -> float:
        nid, aid = self.names.index(name), self.names.index(attempt)
        spans = self.spans

        def outermost(i):
            """Index of the outermost ``name`` span enclosing span i."""
            found, p = -1, spans[i][3]
            while p >= 0:
                if spans[p][0] == nid:
                    found = p
                p = spans[p][3]
            return found

        results, attempts = 0, 0
        for i, s in enumerate(spans):
            if s[0] == nid and outermost(i) < 0 and not s[5]:
                results += 1
            if s[0] == aid and outermost(i) >= 0:
                attempts += 1
        return results / attempts if attempts else 0.0

    def dump(self, path: str, per_layer: dict):
        """Write every span and the per-layer summary as one JSON file."""
        doc = {"names": self.names,
               "fields": ["name", "start", "end", "parent", "op", "error", "extra"],
               "spans": self.spans,
               "per_layer": per_layer}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        os.replace(tmp, path)
