"""Command line driver.

    dnet gen <kind> --dims AxB --seed S [--signature p,q] [--param k=v] -o FILE
    dnet verify -i FILE [--tol name=value] [--report FILE]
    dnet transform <op> -i FILE [--m M | --t T | --c C] [--seed S] -o FILE
    dnet export -i FILE --field NAME --format obj|csv -o FILE

Exit codes: 0 pass, 1 verification failure, 2 usage error,
3 construction degeneracy (never from verify of a loaded file).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import isothermic as iso
from . import lie_sphere as lie
from .errors import FormatError, GeometryError
from .grid import Grid
from .netfile import (DEFAULT_TOLS, READS, NetFile, first_non_finite, run_checks,
                      write_text)
from .pseudo_euclidean import Signature, non_null, standard_chart_indices

GEN_KINDS = ("isothermic", "darboux-pair", "omega", "guichard", "minimal",
             "weingarten")
TRANSFORM_OPS = ("darboux", "calapso", "christoffel", "dual", "associates")
# the --param keys each gen kind reads, with their defaults (None: unset)
GEN_PARAMS = {
    "isothermic": {"magnitude": 0.3},
    "darboux-pair": {"m": 0.5},
    "omega": {},
    "guichard": {"fault": None},
    "minimal": {"magnitude": 0.25},
    "weingarten": {"rho": 1.5},
}


def _parse_dims(text: str):
    try:
        dims = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise FormatError(f"bad dims {text!r}; expected like 6x6")
    if len(dims) != 2 or any(d < 1 for d in dims):
        raise FormatError(f"bad dims {text!r}; every generator builds a 2D grid, "
                          f"expected like 6x6")
    return dims


def _parse_signature(text: str):
    """``p,q`` of a signature with a null frame, and its standard frame."""
    try:
        p, q = (int(v) for v in text.split(","))
        sig = Signature(p, q)
        return (p, q), sig, sig.standard_frame()
    except ValueError:
        raise FormatError(f"bad --signature {text!r}; expected p,q with p, q >= 1, "
                          f"like 4,2")


def _parse_number(option: str, text, default=None) -> float:
    """A number option, not NaN: ``--t`` and ``--c`` finite, ``--m`` nonzero;
    a transform option is required unless it has a default."""
    if text is None:
        if default is None:
            raise FormatError(f"{option} is required for this transform")
        return default
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"bad {option} {text!r}; expected a number")
    if np.isnan(value):
        raise FormatError(f"bad {option} {text!r}; expected a number")
    if option in ("--t", "--c") and np.isinf(value) or option == "--m" and value == 0:
        raise FormatError(f"bad {option} {text!r}; expected a "
                          f"{'nonzero' if option == '--m' else 'finite'} number")
    return value


def _parse_params(kind: str, items) -> dict:
    """The ``--param k=v`` values given to ``gen kind``: finite numbers
    (``m`` may be ``inf`` or ``-inf``), ``fault`` an integer and ``m`` and
    ``rho`` nonzero with ``4 rho^2`` finite, for the keys of ``GEN_PARAMS[kind]`` only."""
    keys = GEN_PARAMS[kind]
    out = {}
    for item in items or ():
        k, eq, v = item.partition("=")
        if not eq:
            raise FormatError(f"bad --param {item!r}; expected k=v")
        if k not in keys:
            raise FormatError(f"bad --param {item!r}; gen {kind} reads "
                              f"{', '.join(keys) or 'no --param'}")
        value = _parse_number(f"--param {k}", v)
        if not np.isfinite(value) and k != "m":
            raise FormatError(f"bad --param {item!r}; expected a finite number")
        if k == "fault" and not value.is_integer() or k in ("m", "rho") and value == 0:
            raise FormatError(f"bad --param {item!r}; expected "
                              f"{'an integer' if k == 'fault' else 'a nonzero number'}")
        if k == "rho" and not np.isfinite(4 * value * value):
            raise FormatError(f"bad --param {item!r}; expected |rho| <= 6.7e153, so that "
                              f"the squared diameter 4 rho^2 of the sphere is finite")
        out[k] = value
    return out


def cmd_generate(args) -> int:
    dims = _parse_dims(args.dims)
    # a grid of one vertex has no edge: no Guichard net, and no Omega-net
    # of which verify could run a check
    if args.kind in ("omega", "guichard") and dims == (1, 1):
        raise FormatError(f"bad dims {args.dims!r}; gen {args.kind} needs a grid with an edge")
    if args.kind in ("isothermic", "darboux-pair"):
        _, sig, frame = _parse_signature("4,2" if args.signature is None else args.signature)
    elif args.signature is None or _parse_signature(args.signature)[0] == (4, 2):
        frame = lie.standard_lie_frame()
    else:
        raise FormatError(f"bad --signature {args.signature!r}; gen {args.kind} "
                          f"writes signature 4,2 files")
    section = NetFile.frame_section(frame)
    given = _parse_params(args.kind, args.param)
    params = {**GEN_PARAMS[args.kind], **given}
    rng = np.random.default_rng(args.seed)
    meta = {"generator": args.kind, "seed": args.seed,
            "params": {k: (str(v) if np.isinf(v) else v) for k, v in given.items()}}

    if args.kind == "isothermic":
        net = iso.random_isothermic(Grid(dims), sig, rng,
                                    magnitude=params["magnitude"], frame=frame)
        nf = NetFile.from_isothermic(net, section, meta)
    elif args.kind == "darboux-pair":
        net = iso.random_isothermic(Grid(dims), sig, rng, frame=frame)
        hat = iso.darboux_transform(net, params["m"], rng=rng)
        nf = NetFile.from_isothermic(iso.stack_pair(net, hat), section, meta)
    elif args.kind == "omega":
        net = iso.random_isothermic(Grid(dims), frame.signature, rng, frame=frame)
        om = lie.omega_from_darboux_pair(net, rng=rng)
        nf = NetFile(signature=(4, 2), dims=dims, frame=section,
                     vertex_fields={"mu_plus": om.mu_plus,
                                    "mu_minus": om.mu_minus,
                                    "y": om.y, "t": om.t},
                     form1_fields={"eta": om.eta},
                     edge_fields={"m": lie.omega_edge_labels(om)},
                     metadata=meta)
    elif args.kind == "guichard":
        fault = None if params["fault"] is None else int(params["fault"])
        # a fault skips the rescaling at one Cauchy step, 1..d0+d1-2
        if fault is not None and not 1 <= fault <= sum(dims) - 2:
            raise FormatError(f"bad --param fault={fault}; gen guichard --dims {args.dims} "
                              f"plants a fault at a Cauchy step 1..{sum(dims) - 2}")
        out = lie.guichard_generate(dims, seed=args.seed, skip_constraint_at=fault)
        if isinstance(out, dict):
            fail = {
                "format": "dnet-failure/1",
                "generator": "guichard",
                "seed": args.seed,
                "fault_at": fault,
                "worst_vertex": list(out["worst_vertex"]),
                "orthogonality": out["orthogonality"],
                "orthogonality_map": out["orthogonality_map"].tolist(),
            }
            write_text(args.output, [json.dumps(fail, sort_keys=True, indent=1), "\n"])
            sys.stderr.write(
                f"guichard generation fault report written to {args.output}: "
                f"worst vertex {out['worst_vertex']}, "
                f"orthogonality {out['orthogonality']:.3e}\n")
            return 3
        nf = NetFile(signature=(4, 2), dims=dims, frame=section,
                     vertex_fields={"mu": out.net.mu, "xi": out.xi,
                                    "mu_plus": out.omega.mu_plus,
                                    "mu_minus": out.omega.mu_minus,
                                    "y": out.omega.y, "t": out.omega.t,
                                    "x": out.pn.x, "n": out.pn.n,
                                    "xdual": out.x_dual},
                     form1_fields={"eta": out.omega.eta},
                     edge_fields={"m": lie.omega_edge_labels(out.omega),
                                  "kappa": out.pn.kappa},
                     metadata=meta)
    else:                                   # minimal, weingarten: a principal net
        if args.kind == "minimal":
            pn, _ = lie.minimal_net(dims, seed=args.seed, magnitude=params["magnitude"])
        else:
            rho = params["rho"]
            pn = lie.sphere_lattice(dims, radius=rho)
            meta["params"].update({"rho": rho, "alpha": 1.0, "beta": 0.0,
                                   "gamma": -1.0 / rho ** 2})
        nf = NetFile(signature=(4, 2), dims=dims, frame=section,
                     vertex_fields={"x": pn.x, "n": pn.n},
                     edge_fields={"kappa": pn.kappa}, metadata=meta)

    nf.check_format()             # emitted files must pass load validation
    nf.save(args.output)
    return 0


def cmd_verify(args) -> int:
    nf = NetFile.load(args.input)
    tols = {}
    for item in args.tol or ():
        if "=" not in item:
            raise FormatError(f"bad --tol {item!r}; expected name=value")
        k, v = item.split("=", 1)
        if k not in DEFAULT_TOLS:
            raise FormatError(f"unknown tolerance {k!r}; "
                              f"known: {sorted(DEFAULT_TOLS)}")
        tols[k] = _parse_number(f"--tol {k}", v)
        # inf would pass every residual, and 0 or less every margin (>= 0)
        if not 0 < tols[k] < np.inf:
            raise FormatError(f"bad --tol {k} {v!r}; expected a finite positive number")
    rep = run_checks(nf, tols)
    text = rep.to_text()
    if args.report:
        write_text(args.report, [text, "\n"])
    sys.stdout.write(text + "\n")
    return 0 if rep.passed else 1


def cmd_transform(args) -> int:
    nf = NetFile.load(args.input)
    # NaN and inf pass no test that compares them: name them first
    if (bad := first_non_finite(nf, READS[args.op])) is not None:
        name, where = bad
        what, place = (("lifts", f"vertex {where['coords']}") if where["kind"] == "vertex" else
                       ("forms", f"edge {where['tail']} along axis {where['axis']}"))
        raise FormatError(f"{args.op} needs finite {what}: {name} at {place} is not finite")
    meta = dict(nf.metadata)
    meta.update({"transform": args.op, "transform_seed": args.seed})
    rng = np.random.default_rng(args.seed)

    if args.op in ("darboux", "calapso", "christoffel"):
        if "mu" not in nf.vertex_fields:
            raise FormatError(f"{args.op} needs a mu field")
        net = nf.isothermic_net()
        # the null test of the edge transports, at the worst lift that fails it
        bad = np.flatnonzero(non_null(net.mu, net.signature))
        if bad.size:
            defect = np.abs(net.signature.norm2(net.mu[bad])) / np.sum(net.mu[bad] ** 2, axis=1)
            raise FormatError(f"{args.op} needs null lifts: mu at vertex "
                              f"{net.grid.coords(bad[np.argmax(defect)])} has "
                              f"|(mu, mu)| / |mu|^2 = {defect.max():.3e} > 1e-8")
        frame = nf.the_frame() or net.signature.standard_frame()
        if args.op == "darboux":
            m = _parse_number("--m", args.m)
            if net.grid.stacked:
                raise FormatError("darboux needs one net; the file holds a stacked pair")
            meta["m"] = "inf" if np.isinf(m) else m
            hat = iso.darboux_transform(net, m, rng=rng)
            out = NetFile.from_isothermic(iso.stack_pair(net, hat), nf.frame, meta)
        elif args.op == "calapso":
            t = _parse_number("--t", args.t)
            meta["t"] = t
            moved, _ = iso.calapso_transform(net, t)
            out = NetFile.from_isothermic(moved, nf.frame, meta)
        else:
            if "eta" in nf.form1_fields:
                raise FormatError("christoffel of an Omega-net file would drop its form "
                                  "'eta' and overwrite its principal net 'x'")
            data = iso.christoffel_dual(net, frame)
            idx = standard_chart_indices(net.signature)
            out = NetFile(signature=nf.signature, dims=nf.dims, stacked=nf.stacked,
                          frame=nf.frame, edge_fields=nf.edge_fields, metadata=meta,
                          vertex_fields={**nf.vertex_fields, "x": data.x[:, idx],
                                         "xdual": data.x_dual[:, idx]})
    else:                                   # dual, associates
        om = nf.omega_net()
        if om is None:
            raise FormatError(f"{args.op} needs omega fields and a Lie frame")
        if not om.grid.nedges:
            raise FormatError(f"{args.op} needs a grid with an edge")
        if args.op == "dual":
            duo = lie.dual_legendre(om)
            pn = duo.principal()
            out = NetFile(signature=nf.signature, dims=nf.dims, frame=nf.frame,
                          vertex_fields={"y": duo.y, "t": duo.t,
                                         "x": pn.x, "n": pn.n},
                          form1_fields={"eta": duo.eta},
                          edge_fields={"kappa": pn.kappa}, metadata=meta)
        else:
            a = lie.associates(om)
            c = _parse_number("--c", args.c, default=0.0)
            with np.errstate(over="ignore", invalid="ignore"):
                xd = a.x_dual + c * a.n
                nd = a.n_dual - c * a.x
                # the checks of the new pair take its edge differences
                if not all(np.isfinite(om.grid.edge_difference(v)).all() for v in (xd, nd)):
                    raise FormatError(f"bad --c {args.c!r}; the edge differences of "
                                      "x_dual + c n and n_dual - c x must be finite")
            out = NetFile(signature=nf.signature, dims=nf.dims, frame=nf.frame,
                          vertex_fields={**nf.vertex_fields, "x": a.x, "n": a.n,
                                         "xdual": xd, "ndual": nd},
                          form1_fields=nf.form1_fields, edge_fields=nf.edge_fields,
                          metadata=meta)

    rep = run_checks(out)
    if not rep.passed:
        sys.stderr.write(rep.to_text() + "\n")
        sys.stderr.write("transform output failed verification; not written\n")
        return 1
    out.save(args.output)
    return 0


def cmd_export(args) -> int:
    nf = NetFile.load(args.input)
    field = nf.vertex_fields.get(args.field)
    if field is None:
        raise FormatError(f"no vertex field {args.field!r} in file")
    g, (n, width) = nf.grid(), field.shape
    if args.format == "obj":
        if width != 3:
            raise FormatError("obj export needs a 3-dimensional field")
        if g.ndim != 2:
            raise FormatError("obj export needs a 2D grid")
        parts = [f"# dnet export: field {args.field}, dims {list(nf.dims)}\n",
                 "v %.17g %.17g %.17g\n" * n % tuple(field.ravel().tolist()),
                 "f %d %d %d %d\n" * g.nquads % tuple((g.corners() + 1).ravel().tolist())]
    else:
        cols = ",".join(f"{args.field}_{k}" for k in range(width))
        # %d of the float index column is the index
        rows = np.column_stack([np.arange(n, dtype=float), field])
        parts = [f"vertex,{cols}\n",
                 ("%d," + ",".join(["%r"] * width) + "\n") * n % tuple(rows.ravel().tolist())]
    write_text(args.output, parts)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dnet",
                                 description="discrete net constructions, "
                                             "transformations and verification")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a net file")
    gen.add_argument("kind", choices=GEN_KINDS)
    gen.add_argument("--dims", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--signature", help="p,q (default 4,2); the kinds other than "
                     "isothermic and darboux-pair accept only 4,2")
    gen.add_argument("--param", action="append")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="verify a net file")
    ver.add_argument("-i", "--input", required=True)
    ver.add_argument("--tol", action="append")
    ver.add_argument("--report")
    ver.set_defaults(func=cmd_verify)

    tr = sub.add_parser("transform", help="transform a net file")
    tr.add_argument("op", choices=TRANSFORM_OPS)
    tr.add_argument("-i", "--input", required=True)
    tr.add_argument("--m")
    tr.add_argument("--t")
    tr.add_argument("--c")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("-o", "--output", required=True)
    tr.set_defaults(func=cmd_transform)

    ex = sub.add_parser("export", help="export a vertex field")
    ex.add_argument("-i", "--input", required=True)
    ex.add_argument("--field", required=True)
    ex.add_argument("--format", choices=("obj", "csv"), required=True)
    ex.add_argument("-o", "--output", required=True)
    ex.set_defaults(func=cmd_export)
    return ap


# built once per process: parsing leaves the parser unchanged
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        if getattr(args, "seed", 0) < 0:
            raise FormatError(f"bad --seed {args.seed}; expected a non-negative integer")
        return args.func(args)
    except (FormatError, OSError) as err:
        sys.stderr.write(f"usage error: {err}\n")
        return 2
    except GeometryError as err:
        sys.stderr.write(f"construction degeneracy: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
