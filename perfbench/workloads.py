"""The three workloads: ``cli-roundtrip``, ``verify-corpus`` and
``construct-64``.

Each workload is a closed loop with one client in one process.  Inputs
come from the workload seed only, and no input repeats within a pass:
every ``gen`` has its own (kind, dims, seed), every verified file has
its own content and every 64x64 net its own Cauchy data.  Work is done
in rounds of fixed composition, and a new round starts only while the
pass is inside its time budget, so that the mix of kinds and sizes is
the same in every pass.

A workload object records, for the pass that owns it:

* ``ops``: one entry per timed operation (``ms``, ``failed``,
  ``verdict``, ``key`` naming its input, ``digest`` of its output,
  ``tries`` and ``rejected``, see below);
* ``samples``: latencies in ms of the ``gen``, ``verify``,
  ``transform`` and ``net`` stages;
* ``units``: durations of the set-up units, and ``units_needed``, the
  number of units one set-up consists of;
* ``checks``: correctness checks, name -> [passed, run];
* ``messages``: one line per failure, rejected attempt and FAIL verdict.

An attempt that raises or exits with a usage (2) or degeneracy (3) code
is rejected, and the operation retries it with fresh inputs drawn from
the seed, as a user would: a CLI request starts again with the next
``gen`` and ``transform`` seeds, a 64x64 net takes other Cauchy data.
The time of every attempt counts in the operation's latency.  An
operation fails only when all of its tries are rejected.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from pathlib import Path

import numpy as np

from dnet import cli, isothermic, osystem
from dnet import grid as grid_mod
from dnet import pseudo_euclidean as pe
from dnet.netfile import DEFAULT_TOLS, NetFile

GEN_KINDS = (
    ("isothermic", ("--signature", "4,2")),
    ("isothermic", ("--signature", "4,1")),
    ("isothermic", ("--signature", "3,1")),
    ("darboux-pair", ("--param", "m=0.5")),
    ("darboux-pair", ("--param", "m=inf")),
    ("omega", ()),
    ("guichard", ()),
)
GEN_DIMS = (6, 8, 10, 12)

# The transforms that apply to each generated kind.  A Darboux pair is
# already stacked, so a further Darboux transform collides with its own
# vertical labels; Guichard files carry the omega fields.
TRANSFORMS = {
    "isothermic": (("calapso", "--t", "0.4"), ("christoffel",),
                   ("darboux", "--m", "0.5")),
    "darboux-pair": (("calapso", "--t", "0.4"), ("christoffel",)),
    "omega": (("associates",), ("dual",)),
    "guichard": (("associates",), ("dual",)),
}

SIGNATURES = ((4, 2), (4, 1), (3, 1))
LARGE_DIMS = (32, 64)
NET_DIMS = 64
NET_T = 0.3
REPEATS = 5                  # set-up repetitions when set-up is cheap
REQUEST_TRIES = 16           # gen + transform seeds per request; 12x12 rejects up to ~40 % of gen seeds
NET_TRIES = 6                # Cauchy data per 64x64 net; FlatnessError on ~1 (4,2) net in 10
VERIFY_ROUND_SECONDS = 12.5  # budget share of one corpus round, about 10 s of verify at baseline


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def label(kind, extra, n) -> str:
    return " ".join([kind, *extra, f"{n}x{n}"])


def first_line(text: str) -> str:
    for line in text.splitlines():
        if line.strip():
            return line.strip()[:160]
    return ""


def first_fail(report: str) -> str:
    for line in report.splitlines():
        if " FAIL" in line and not line.startswith("overall"):
            return " ".join(line.split())[:160]
    return ""


def check_counts(report: str):
    """(checks run, checks skipped) from the report's closing line."""
    last = report.strip().splitlines()[-1] if report.strip() else ""
    try:
        inside = last.split("(", 1)[1].split(")", 1)[0]
        run, skipped = inside.split(",")
        return int(run.split()[0]), int(skipped.split()[0])
    except (IndexError, ValueError):
        return None


class Call:
    """One in-process ``dnet`` command with its exit status and output."""

    def __init__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        self.exc = None
        self.code = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                self.code = cli.main(list(argv))
        except Exception as exc:     # a traceback is a failure to record
            self.exc = exc
        self.ms = (time.perf_counter() - t0) * 1e3
        self.out, self.err = out.getvalue(), err.getvalue()

    @property
    def failed(self) -> bool:
        """Raised, or exited with a usage (2) or degeneracy (3) code."""
        return self.exc is not None or self.code not in (0, 1)

    def reason(self) -> str:
        if self.exc is not None:
            return f"{type(self.exc).__name__}: {first_line(str(self.exc))}"
        text = f"exit {self.code}"
        detail = first_line(self.err)
        if self.code == 1:
            detail = first_fail(self.out or self.err) or detail
        return f"{text}: {detail}" if detail else text


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.ops: list = []
        self.samples = {"gen": [], "verify": [], "transform": [], "net": []}
        self.units: list = []
        self.units_needed = 1
        self.checks: dict = {}
        self.messages: list = []
        self.own_s = 0.0     # benchmark bookkeeping inside the timed loop
        self.tracer = None

    def rng(self, stream: int):
        return np.random.default_rng([self.seed, stream])

    def check(self, name: str, passed: bool, detail: str = ""):
        entry = self.checks.setdefault(name, [0, 0])
        entry[0] += bool(passed)
        entry[1] += 1
        if not passed:
            self.messages.append(f"CHECK FAILED {name}: {detail}")

    def record(self, ms, failed, verdict, key, digest, what, reason="",
               tries=1, rejected=0):
        self.ops.append({"ms": ms, "failed": bool(failed), "verdict": verdict,
                         "key": key, "digest": digest, "tries": tries,
                         "rejected": rejected})
        if failed:
            self.messages.append(f"FAILURE {what}: {reason}")
        elif verdict is False:
            self.messages.append(f"VERDICT FAIL {what}: {reason}")

    def begin_op(self):
        if self.tracer is not None:
            self.tracer.op = len(self.ops)

    def setup(self):
        raise NotImplementedError

    def after(self):
        """Correctness checks that run after the timed loop."""

    def loop(self, rounds, run_one):
        """Run whole rounds while the pass is inside its budget; returns
        the timed wall time without the benchmark's own bookkeeping."""
        start = time.perf_counter()
        for items in rounds:
            if time.perf_counter() - start >= self.seconds:
                break
            for item in items:
                run_one(item)
        return time.perf_counter() - start - self.own_s

    def repeated_inputs(self) -> int:
        keys = [op["key"] for op in self.ops]
        return len(keys) - len(set(keys))

    def repeat_gen(self, argv, path):
        """Run a gen again into a fresh file; the bytes must match."""
        again = path + ".again.json"
        Call(argv[:-1] + [again])
        same = os.path.exists(again) and Path(again).read_bytes() == Path(path).read_bytes()
        self.check("repeated gen is byte-identical", same, " ".join(argv[1:-2]))


# -- cli-roundtrip ------------------------------------------------------------

class CliRoundtrip(Workload):
    """Seeded ``dnet gen`` -> ``verify`` -> ``transform`` requests."""

    name = "cli-roundtrip"

    def _build(self):
        rng = self.rng(1)
        rounds = []
        # enough rounds for a loop many times faster than today's
        for r in range(max(4, 4 * math.ceil(self.seconds))):
            items = []
            for kind, extra in GEN_KINDS:
                family = TRANSFORMS[kind]
                for i, n in enumerate(GEN_DIMS):
                    # the transform rotates with the round: the mix of
                    # transforms is part of the workload, not of the seed
                    items.append((kind, extra, n, rng.integers(2 ** 31, size=REQUEST_TRIES).tolist(),
                                  family[(i + r) % len(family)],
                                  rng.integers(2 ** 31, size=REQUEST_TRIES).tolist()))
            rounds.append([items[i] for i in rng.permutation(len(items))])
        return rounds

    def _warm_up(self):
        """One small request per command path, on 4x4 grids that no
        timed request uses, so lazy imports finish before timing."""
        path = os.path.join(self.workdir, "warm.json")
        for kind, extra, op in (("isothermic", ("--signature", "4,2"), ("calapso", "--t", "0.4")),
                                ("omega", (), ("associates",))):
            Call(["gen", kind, "--dims", "4x4", "--seed", "0", *extra, "-o", path])
            Call(["verify", "-i", path])
            Call(["transform", *op, "-i", path, "-o", path + ".t"])

    def setup(self):
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.rounds = self._build()
            self._warm_up()
            self.units.append(time.perf_counter() - t0)
        self.gens = []     # (argv, path, verify report) of successful gens

    def _request(self, req):
        """gen -> verify -> transform.  A rejected gen or transform starts
        the request again with the next gen seed and transform seed: a
        transform that no seed admits on one net (a Darboux transform,
        say) needs another net, not another transform seed."""
        kind, extra, n, gen_seeds, op, op_seeds = req
        index = len(self.samples["net"])
        path = os.path.join(self.workdir, f"r{index}.json")
        out = path + ".out.json"
        ms = dict.fromkeys(("gen", "verify", "transform"), 0.0)
        gen_tried, op_tried, gen_rejected, op_rejected = [], [], 0, 0
        tr = None
        for gen_seed, op_seed in zip(gen_seeds, op_seeds):
            argv = ["gen", kind, "--dims", f"{n}x{n}", "--seed", str(gen_seed),
                    *extra, "-o", path]
            what = f"gen {label(kind, extra, n)} seed {gen_seed}"
            self.begin_op()
            gen = Call(argv)
            ms["gen"] += gen.ms
            gen_tried.append(gen_seed)
            if gen.failed:
                gen_rejected += 1
                self.messages.append(f"REJECTED {what}: {gen.reason()}")
                continue
            t0 = time.perf_counter()
            written = os.path.exists(path)
            data = Path(path).read_bytes() if written else b""
            self.own_s += time.perf_counter() - t0
            self.check("gen exit 0 writes its file", written, what)
            if not written:
                break
            self.begin_op()
            ver = Call(["verify", "-i", path])
            self.check("verify exits 0 or 1", ver.code in (0, 1), f"{what}: {ver.reason()}")
            ms["verify"] += ver.ms
            self.samples["verify"].append(ver.ms)
            self.record(ver.ms, ver.failed, None if ver.failed else ver.code == 0,
                        ("verify", sha(data)), sha(ver.out.encode()),
                        f"verify of {what}", ver.reason())
            self.begin_op()
            tr = Call(["transform", *op, "-i", path, "--seed", str(op_seed), "-o", out])
            ms["transform"] += tr.ms
            op_tried.append((sha(data), op_seed))
            if tr.failed:
                op_rejected += 1
                self.messages.append(f"REJECTED transform {' '.join(op)} of {what} "
                                     f"seed {op_seed}: {tr.reason()}")
                continue
            if tr.code == 0:
                self.check("transform exit 0 writes its file", os.path.exists(out), what)
            self.gens.append((argv, path, ver.out))
            break
        # an operation fails only when every one of its tries was rejected
        self.samples["gen"].append(ms["gen"])
        self.record(ms["gen"], gen_rejected == len(gen_tried), None,
                    ("gen", kind, extra, n, tuple(gen_tried)), sha(data) if not gen.failed else "",
                    what, gen.reason(), len(gen_tried), gen_rejected)
        if tr is not None:
            self.samples["transform"].append(ms["transform"])
            self.record(ms["transform"], op_rejected == len(op_tried),
                        None if tr.failed else tr.code == 0,
                        ("transform", op, tuple(op_tried)), f"exit {tr.code}",
                        f"transform {' '.join(op)} of {what}", tr.reason(),
                        len(op_tried), op_rejected)
        self.samples["net"].append(sum(ms.values()))

    def run(self):
        return self.loop(self.rounds, self._request)

    def after(self):
        """Repeat a few small gens and their verifies: bytes must match."""
        small = [g for g in self.gens if int(g[0][3].split("x")[0]) <= 8][:3]
        for argv, path, report in small:
            self.repeat_gen(argv, path)
            ver = Call(["verify", "-i", path])
            self.check("repeated verify report is byte-identical", ver.out == report,
                       " ".join(argv[1:-2]))


# -- verify-corpus ------------------------------------------------------------

class VerifyCorpus(Workload):
    """``dnet verify`` over a corpus that set-up builds; read-only."""

    name = "verify-corpus"

    def _gen_small(self, rng, r, files):
        for kind, extra in GEN_KINDS:
            family = TRANSFORMS[kind]
            for i, n in enumerate(GEN_DIMS):
                tag = f"{kind}{''.join(extra).replace(',', '')}-{n}"
                path = os.path.join(self.workdir, f"c{r}-{tag}.json")
                argv = ["gen", kind, "--dims", f"{n}x{n}",
                        "--seed", str(int(rng.integers(2 ** 31))), *extra, "-o", path]
                gen = Call(argv)
                self.samples["gen"].append(gen.ms)
                if gen.code != 0:
                    self.messages.append(f"SET-UP FAILURE {' '.join(argv[1:-2])}: {gen.reason()}")
                    continue
                if self.first_gen is None:
                    self.first_gen = (argv, path)
                files.append((path, " ".join([kind, *extra, "gen"])))
                op = family[(i + r) % len(family)]
                out = path + f".{op[0]}.json"
                tr = Call(["transform", *op, "-i", path,
                           "--seed", str(int(rng.integers(2 ** 31))), "-o", out])
                self.samples["transform"].append(tr.ms)
                if tr.code == 0:
                    files.append((out, " ".join([kind, *extra, op[0]])))
                else:
                    self.messages.append(f"SET-UP {'FAILURE' if tr.failed else 'VERDICT FAIL'} "
                                         f"transform {op[0]} of {' '.join(argv[1:-2])}: {tr.reason()}")

    def _gen_large(self, rng, r, files):
        """32x32 and 64x64 isothermic files: ``dnet gen`` cannot reach these
        sizes, so they come from ``random_cauchy`` + ``moutard_evolve``."""
        for p, q in SIGNATURES:
            sig = pe.Signature(p, q)
            frame = sig.standard_frame()
            for n in LARGE_DIMS:
                g = grid_mod.Grid([n, n])
                seed = int(rng.integers(2 ** 31))
                try:
                    line0, line1 = isothermic.random_cauchy(
                        g, sig, np.random.default_rng(seed), 0.3, frame)
                    net = isothermic.moutard_evolve(g, sig, line0, line1, frame=frame)
                except Exception as exc:   # recorded, the corpus goes on
                    self.messages.append(f"SET-UP FAILURE moutard_evolve ({p},{q}) "
                                         f"{n}x{n}: {type(exc).__name__}: {first_line(str(exc))}")
                    continue
                frame_doc = {"o": frame.o.tolist(), "q": frame.q.tolist()}
                if frame.p is not None:
                    frame_doc["p"] = frame.p.tolist()
                path = os.path.join(self.workdir, f"c{r}-large-{p}{q}-{n}.json")
                NetFile(signature=(p, q), dims=(n, n), frame=frame_doc,
                        vertex_fields={"mu": net.mu}, edge_fields={"m": net.labels},
                        metadata={"generator": "moutard_evolve", "seed": seed}).save(path)
                files.append((path, f"isothermic ({p},{q}) {n}x{n}"))

    def setup(self):
        rounds = max(1, math.ceil(self.seconds / VERIFY_ROUND_SECONDS))
        self.units_needed = rounds
        self.first_gen = None
        self.rounds = []
        rng = self.rng(2)
        for r in range(rounds):
            t0 = time.perf_counter()
            files = []
            self._gen_small(rng, r, files)
            self._gen_large(rng, r, files)
            self.rounds.append([files[i] for i in rng.permutation(len(files))])
            self.units.append(time.perf_counter() - t0)
        self.reports = {}

    def _verify(self, item):
        path, cls = item
        t0 = time.perf_counter()
        data = Path(path).read_bytes()
        self.own_s += time.perf_counter() - t0
        self.begin_op()
        ver = Call(["verify", "-i", path])
        self.check("verify exits 0 or 1", ver.code in (0, 1), f"{cls}: {ver.reason()}")
        counts = check_counts(ver.out)
        self.samples["verify"].append(ver.ms)
        self.samples["net"].append(ver.ms)
        self.reports[path] = (cls, ver.out, counts)
        self.record(ver.ms, ver.failed, None if ver.failed else ver.code == 0,
                    ("verify", sha(data)), f"{counts}:{sha(ver.out.encode())}",
                    f"verify {cls} {os.path.basename(path)}", ver.reason())

    def run(self):
        return self.loop(self.rounds, self._verify)

    def after(self):
        # Every file of one class carries the same fields, so the checks
        # run plus the checks skipped must agree across the class.
        totals = {}
        for cls, _, counts in self.reports.values():
            if counts is not None:
                totals.setdefault(cls, set()).add(sum(counts))
        for cls, seen in sorted(totals.items()):
            self.check("checks per file class agree", len(seen) == 1, f"{cls}: {sorted(seen)}")
        for path, (cls, report, _) in list(self.reports.items())[:3]:
            ver = Call(["verify", "-i", path])
            self.check("repeated verify report is byte-identical", ver.out == report, cls)
        if self.first_gen is not None:
            self.repeat_gen(*self.first_gen)


# -- construct-64 -------------------------------------------------------------

STAGES = ("gen", "transform", "verify")


def _labels(mu, g, signs):
    return 1.0 / np.einsum("ea,a,ea->e", mu[g.edge_tail], signs, mu[g.edge_head])


def _rel(a, b):
    return float((np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)),
                                             1e-300)).max(initial=0.0))


def net_identities(g, sig, net, moved, x, xd, chart):
    """Largest relative edge residuals of the Calapso labels m~ = m - t
    and of the Christoffel pairing (dx, dx*) = -2/m, in plain numpy."""
    m = _labels(net.mu, g, sig.signs.astype(float))
    calapso = _rel(_labels(moved.mu, g, sig.signs.astype(float)), m - NET_T)
    t, h = g.edge_tail, g.edge_head
    pairing = np.einsum("ea,a,ea->e", x[h] - x[t], chart.signs.astype(float), xd[h] - xd[t])
    return calapso, _rel(pairing, -2.0 / m)


def pipeline(n, sig, seed, rec):
    """Grid -> Cauchy data -> evolve | flat connection -> Calapso ->
    Christoffel | O-system checks on the Christoffel pair in chart
    coordinates.  ``rec`` gets the Cauchy data hash and the time of each
    stage as it ends."""
    frame = sig.standard_frame()
    t0 = time.perf_counter()
    g = grid_mod.Grid([n, n])
    line0, line1 = isothermic.random_cauchy(g, sig, np.random.default_rng(seed), 0.3, frame)
    rec["key"] = sha(line0.tobytes() + line1.tobytes())
    net = isothermic.moutard_evolve(g, sig, line0, line1, frame=frame)
    t1 = time.perf_counter()
    rec["gen"] = (t1 - t0) * 1e3
    isothermic.flat_connection(net, NET_T)
    moved, _ = isothermic.calapso_transform(net, NET_T)
    data = isothermic.christoffel_dual(net, frame)
    t2 = time.perf_counter()
    rec["transform"] = (t2 - t1) * 1e3
    idx = pe.standard_chart_indices(sig)
    chart = pe.Signature(sig.p - 1, sig.q - 1)
    x, xd = data.x[:, idx], data.x_dual[:, idx]
    fam = osystem.ParallelFamily(g, [x, xd], chart)
    family = fam.validate()
    osys = osystem.check_osystem(fam, [[0.0, 1.0], [1.0, 0.0]])
    rec["verify"] = (time.perf_counter() - t2) * 1e3
    return g, net, moved, x, xd, chart, family, osys


class Construct64(Workload):
    """The library pipeline on 64x64 nets, no file I/O and no CLI."""

    name = "construct-64"

    def _build(self):
        rng = self.rng(3)
        return [[(sig, rng.integers(2 ** 31, size=NET_TRIES).tolist()) for sig in SIGNATURES]
                for _ in range(max(4, 4 * math.ceil(self.seconds)))]

    def setup(self):
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.rounds = self._build()
            # an 8x8 pipeline that no timed net uses, for lazy set-up
            pipeline(8, pe.Signature(4, 1), 0, {})
            self.units.append(time.perf_counter() - t0)

    def _net(self, item):
        (p, q), seeds = item
        sig = pe.Signature(p, q)
        self.begin_op()
        times = dict.fromkeys(STAGES, 0.0)    # summed over attempts
        keys = []
        ms = 0.0
        for tries, seed in enumerate(seeds, 1):
            what = f"net ({p},{q}) {NET_DIMS}x{NET_DIMS} seed {seed}"
            rec = {}
            t0 = time.perf_counter()
            try:
                out, err = pipeline(NET_DIMS, sig, seed, rec), None
            except Exception as exc:     # a raised pipeline is a rejected attempt
                # keep only its text: the traceback would hold the failed
                # attempt's arrays through the retry and raise peak_rss_mb
                out, err = None, f"{type(exc).__name__}: {first_line(str(exc))}"
            took = (time.perf_counter() - t0) * 1e3
            ms += took
            if err is not None:
                # the stage that raised is timed up to the exception
                running = next(stage for stage in STAGES if stage not in rec)
                rec[running] = took - sum(rec.get(stage, 0.0) for stage in STAGES)
            for stage in STAGES:
                times[stage] += rec.get(stage, 0.0)
            keys.append(rec.get("key", what))
            if err is None:
                break
            self.messages.append(f"REJECTED {what}: {err}")
        for stage in STAGES:
            self.samples[stage].append(times[stage])
        self.samples["net"].append(ms)
        key = ("net", tuple(keys))
        if err is not None:
            self.record(ms, True, None, key, err.split(":")[0], what, err, tries, tries)
            return
        t1 = time.perf_counter()
        g, net, moved, x, xd, chart, family, osys = out
        calapso, christoffel = net_identities(g, sig, net, moved, x, xd, chart)
        tol = DEFAULT_TOLS["label_relations"]
        self.check("net identities computed",
                   math.isfinite(calapso) and math.isfinite(christoffel), what)
        misses = [f"{name} residual {res:.3e} > {tol:g}"
                  for name, res in (("calapso labels", calapso),
                                    ("christoffel pairing", christoffel)) if res > tol]
        if not osys["passed"]:
            misses.append(f"check_osystem equality {osys['characterization_equality']:.3e} "
                          f"vanishing {osys['bracket_vanishes']:.3e}")
        if not family["passed"]:
            self.messages.append(f"NOTE {what}: ParallelFamily.validate edge_parallel "
                                 f"{family['edge_parallel']:.3e}")
        self.own_s += time.perf_counter() - t1
        self.record(ms, False, not misses, key,
                    f"{calapso:.6e}/{christoffel:.6e}/{osys['passed']}", what, "; ".join(misses),
                    tries, tries - 1)

    def run(self):
        return self.loop(self.rounds, self._net)


WORKLOADS = {w.name: w for w in (CliRoundtrip, VerifyCorpus, Construct64)}
