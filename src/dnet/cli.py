"""Command line driver.

    dnet gen <kind> --dims AxB --seed S [--signature p,q] [--param k=v] -o FILE
    dnet verify -i FILE [--tol name=value] [--report FILE]
    dnet transform <op> -i FILE [--m M | --t T | --c C] [--seed S] -o FILE
    dnet export -i FILE --field NAME --format obj|csv -o FILE

Exit codes: 0 pass, 1 verification failure, 2 usage error,
3 construction degeneracy.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import FormatError, GeometryError
from .grid import Grid
from .netfile import DEFAULT_TOLS, NetFile, run_checks
from .pseudo_euclidean import Signature

GEN_KINDS = ("isothermic", "darboux-pair", "omega", "guichard", "minimal",
             "weingarten")
TRANSFORM_OPS = ("darboux", "calapso", "christoffel", "dual", "associates")


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
    """A float option of a transform (``inf`` allowed), required unless
    it has a default."""
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
    return value


def _parse_params(items):
    out = {}
    for item in items or ():
        if "=" not in item:
            raise FormatError(f"bad --param {item!r}; expected k=v")
        k, v = item.split("=", 1)
        try:
            out[k] = float(v) if v not in ("inf", "-inf") else float(v)
        except ValueError:
            out[k] = v
    return out


def _encode_rows(arr):
    return [float(v) for v in np.asarray(arr, float)]


def _frame_dict(lf):
    return {
        "o": lf.o.tolist(),
        "q": lf.q.tolist(),
        "p": lf.p.tolist(),
        "basis3": lf.basis3.tolist(),
    }


def _plain_frame_dict(frame):
    d = {"o": frame.o.tolist(), "q": frame.q.tolist()}
    if frame.p is not None:
        d["p"] = frame.p.tolist()
    return d


def cmd_generate(args) -> int:
    from . import isothermic as iso
    from . import lie_sphere as lie

    dims = _parse_dims(args.dims)
    params = _parse_params(args.param)
    rng = np.random.default_rng(args.seed)
    meta = {"generator": args.kind, "seed": args.seed,
            "params": {k: (str(v) if v in (np.inf, -np.inf) else v)
                       for k, v in params.items()}}

    if args.kind == "isothermic":
        pq, sig, frame = _parse_signature(args.signature)
        net = iso.random_isothermic(Grid(dims), sig, rng,
                                    magnitude=params.get("magnitude", 0.3),
                                    frame=frame)
        nf = NetFile(signature=pq, dims=dims,
                     frame=_plain_frame_dict(frame),
                     vertex_fields={"mu": net.mu},
                     edge_fields={"m": net.labels}, metadata=meta)
    elif args.kind == "darboux-pair":
        pq, sig, frame = _parse_signature(args.signature)
        net = iso.random_isothermic(Grid(dims), sig, rng, frame=frame)
        m = params.get("m", 0.5)
        m = np.inf if m in ("inf", np.inf) else float(m)
        hat = iso.darboux_transform(net, m, rng=rng)
        stacked = iso.stack_pair(net, hat)
        nf = NetFile(signature=pq, dims=stacked.grid.dims, stacked=True,
                     frame=_plain_frame_dict(frame),
                     vertex_fields={"mu": stacked.mu},
                     edge_fields={"m": stacked.labels}, metadata=meta)
    elif args.kind == "omega":
        sig = Signature(4, 2)
        lf = lie.standard_lie_frame()
        net = iso.random_isothermic(Grid(dims), sig, rng, frame=lf.frame)
        om = lie.omega_from_darboux_pair(net, rng=rng, frame=lf)
        nf = NetFile(signature=(4, 2), dims=dims, frame=_frame_dict(lf),
                     vertex_fields={"mu_plus": om.mu_plus,
                                    "mu_minus": om.mu_minus,
                                    "y": om.y, "t": om.t},
                     form1_fields={"eta": om.eta},
                     edge_fields={"m": lie.omega_edge_labels(om)},
                     metadata=meta)
    elif args.kind == "guichard":
        lf = lie.standard_lie_frame()
        fault = params.get("fault")
        out = lie.guichard_generate(dims, seed=args.seed, frame=lf,
                                    skip_constraint_at=(None if fault is None
                                                        else int(fault)))
        if isinstance(out, dict):
            import json as _json
            fail = {
                "format": "dnet-failure/1",
                "generator": "guichard",
                "seed": args.seed,
                "fault_at": int(fault),
                "worst_vertex": list(out["worst_vertex"]),
                "orthogonality": out["orthogonality"],
                "orthogonality_map": _encode_rows(out["orthogonality_map"]),
            }
            with open(args.output, "w", encoding="utf-8") as fh:
                _json.dump(fail, fh, sort_keys=True, indent=1)
                fh.write("\n")
            sys.stderr.write(
                f"guichard generation fault report written to {args.output}: "
                f"worst vertex {out['worst_vertex']}, "
                f"orthogonality {out['orthogonality']:.3e}\n")
            return 3
        nf = NetFile(signature=(4, 2), dims=dims, frame=_frame_dict(lf),
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
    elif args.kind == "minimal":
        pn, _ = lie.minimal_net(dims, seed=args.seed,
                                magnitude=params.get("magnitude", 0.25))
        lf = lie.standard_lie_frame()
        nf = NetFile(signature=(4, 2), dims=dims, frame=_frame_dict(lf),
                     vertex_fields={"x": pn.x, "n": pn.n},
                     edge_fields={"kappa": pn.kappa}, metadata=meta)
    elif args.kind == "weingarten":
        rho = params.get("rho", 1.5)
        pn = lie.sphere_lattice(dims, radius=rho)
        lf = lie.standard_lie_frame()
        meta["params"].update({"rho": rho, "alpha": 1.0, "beta": 0.0,
                               "gamma": -1.0 / rho ** 2})
        nf = NetFile(signature=(4, 2), dims=dims, frame=_frame_dict(lf),
                     vertex_fields={"x": pn.x, "n": pn.n},
                     edge_fields={"kappa": pn.kappa}, metadata=meta)
    else:
        raise FormatError(f"unknown kind {args.kind!r}")

    nf.save(args.output)
    NetFile.load(args.output)     # emitted files must pass load validation
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
        tols[k] = float(v)
    rep = run_checks(nf, tols)
    text = rep.to_text()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    sys.stdout.write(text + "\n")
    return 0 if rep.passed else 1


def cmd_transform(args) -> int:
    from . import isothermic as iso
    from . import lie_sphere as lie

    nf = NetFile.load(args.input)
    g = nf.grid()
    sig = nf.sig()
    meta = dict(nf.metadata)
    meta.update({"transform": args.op, "transform_seed": args.seed})
    rng = np.random.default_rng(args.seed)

    if args.op in ("darboux", "calapso", "christoffel"):
        if "mu" not in nf.vertex_fields:
            raise FormatError(f"{args.op} needs a mu field")
        net = iso.IsothermicNet(g, sig, nf.vertex_fields["mu"])
        frame = nf.the_frame() or sig.standard_frame()
        if args.op == "darboux":
            m = _parse_number("--m", args.m)
            meta["m"] = "inf" if np.isinf(m) else m
            hat = iso.darboux_transform(net, m, rng=rng)
            stacked = iso.stack_pair(net, hat)
            out = NetFile(signature=nf.signature, dims=stacked.grid.dims,
                          stacked=True, frame=nf.frame,
                          vertex_fields={"mu": stacked.mu},
                          edge_fields={"m": stacked.labels}, metadata=meta)
        elif args.op == "calapso":
            t = _parse_number("--t", args.t)
            meta["t"] = t
            moved, _ = iso.calapso_transform(net, t)
            out = NetFile(signature=nf.signature, dims=nf.dims,
                          stacked=nf.stacked, frame=nf.frame,
                          vertex_fields={"mu": moved.mu},
                          edge_fields={"m": moved.labels}, metadata=meta)
        else:
            from .pseudo_euclidean import standard_chart_indices
            data = iso.christoffel_dual(net, frame)
            idx = standard_chart_indices(sig)
            vfields = dict(nf.vertex_fields)
            vfields.update({"x": data.x[:, idx], "xdual": data.x_dual[:, idx]})
            out = NetFile(signature=nf.signature, dims=nf.dims,
                          stacked=nf.stacked, frame=nf.frame,
                          vertex_fields=vfields, edge_fields=nf.edge_fields,
                          metadata=meta)
    elif args.op in ("dual", "associates"):
        lf = nf.lie_frame()
        if lf is None or "eta" not in nf.form1_fields:
            raise FormatError(f"{args.op} needs omega fields and a Lie frame")
        om = lie.OmegaNet(g, lf, nf.vertex_fields["y"], nf.vertex_fields["t"],
                          nf.form1_fields["eta"],
                          mu_plus=nf.vertex_fields.get("mu_plus"),
                          mu_minus=nf.vertex_fields.get("mu_minus"))
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
            xd = a.x_dual + c * a.n
            nd = a.n_dual - c * a.x
            vfields = dict(nf.vertex_fields)
            vfields.update({"x": a.x, "n": a.n, "xdual": xd, "ndual": nd})
            out = NetFile(signature=nf.signature, dims=nf.dims, frame=nf.frame,
                          vertex_fields=vfields,
                          form1_fields=nf.form1_fields,
                          edge_fields=nf.edge_fields, metadata=meta)
    else:
        raise FormatError(f"unknown transform {args.op!r}")

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
    g = nf.grid()
    if args.format == "obj":
        if field.shape[1] != 3:
            raise FormatError("obj export needs a 3-dimensional field")
        if g.ndim != 2:
            raise FormatError("obj export needs a 2D grid")
        lines = [f"# dnet export: field {args.field}, dims {list(nf.dims)}"]
        for row in field:
            lines.append("v " + " ".join(f"{v:.17g}" for v in row))
        d0, d1 = nf.dims
        for a in range(d0 - 1):
            for b in range(d1 - 1):
                i = a * d1 + b + 1
                lines.append(f"f {i} {i + d1} {i + d1 + 1} {i + 1}")
        text = "\n".join(lines) + "\n"
    else:
        cols = ",".join(f"{args.field}_{k}" for k in range(field.shape[1]))
        lines = [f"vertex,{cols}"]
        for idx, row in enumerate(field):
            lines.append(f"{idx}," + ",".join(repr(float(v)) for v in row))
        text = "\n".join(lines) + "\n"
    tmp = f"{args.output}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    import os
    os.replace(tmp, args.output)
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
    gen.add_argument("--signature", default="4,2")
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
        return args.func(args)
    except FormatError as err:
        sys.stderr.write(f"usage error: {err}\n")
        return 2
    except OSError as err:
        sys.stderr.write(f"usage error: {err}\n")
        return 2
    except GeometryError as err:
        sys.stderr.write(f"construction degeneracy: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
