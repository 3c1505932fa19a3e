"""The dnet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``BENCHMARK.json`` in a fresh worker process and
prints a report: a header, every failure and FAIL verdict with its
reason, the correctness checks, and every metric with its unit and
sample count.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``--trace 1`` runs the workload twice with the same seed, untraced and
then traced, takes the per-layer metrics from the traced pass, and
prints the tracing overhead (traced minus untraced) of every
end-to-end metric.  All spans go to ``.perfbench/traces/``.

Exit status is 0 for a correct run, 1 when a correctness check failed
or the program under test cannot be run, 2 for bad arguments.
See ``perfbench/NOTES.md`` for why the workloads and metrics are what
they are.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 8128
RUN_LIMIT_S = 170.0       # every pass of one invocation ends within this
STAGES = ("gen", "verify", "transform", "net")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def source_header(seed: int) -> dict:
    sha = "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.split()
        # only a repository rooted at the checkout itself names this tree
        if len(out) == 2 and os.path.samefile(out[0], ROOT):
            sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "dnet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git": sha, "src_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "held_out_seed": HELD_OUT_SEED}


def run_pass(args, traced: bool, deadline: float) -> dict:
    """One worker process; returns its raw records."""
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(os.path.join(base, "traces"), exist_ok=True)
    os.makedirs(os.path.join(base, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                               dir=os.path.join(base, "work"))
    out = os.path.join(workdir, "result.json")
    # the worker pins BLAS and OpenMP threads itself, before numpy loads
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(traced)),
           "--workdir", workdir, "--out", out,
           "--trace-file", os.path.join(base, "traces", f"{args.workload}-seed{args.seed}.json")]
    try:
        spawned = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=env,
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0 or not os.path.exists(out):
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise RuntimeError(f"worker exited {proc.returncode}: {tail}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def tail(values):
    """The highest percentile with at least ten samples beyond it (near
    the median when there are only about 20); with ten samples or fewer
    there is none, and the maximum is reported instead."""
    s = sorted(values)
    n = len(s)
    if n > 10:
        return s[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} samples"
    return s[-1], f"p100 (maximum) of {n} samples, ten or fewer"


def metrics_of(res: dict) -> dict:
    """name -> (value, detail) of all 13 end-to-end figures."""
    out = {}
    imports, units = res["import_s"], res["units"]
    out["setup_s"] = (statistics.median(imports)
                      + res["units_needed"] * statistics.median(units),
                      f"median of {len(imports)} imports {statistics.median(imports):.3f} s"
                      f" + {res['units_needed']} x median of {len(units)} set-up units")
    ops = res["ops"]
    failed = sum(op["failed"] for op in ops)
    verdicts = [op["verdict"] for op in ops if op["verdict"] is not None]
    out["ops_per_s"] = ((len(ops) - failed) / res["timed_s"],
                        f"{len(ops) - failed} completed in {res['timed_s']:.2f} s timed")
    tries = sum(op["tries"] for op in ops)
    rejected = sum(op["rejected"] for op in ops)
    out["failed_share"] = (rejected / max(tries, 1),
                           f"{rejected} rejected of {tries} attempts; "
                           f"{failed} of {len(ops)} operations failed")
    out["verified_share"] = (sum(verdicts) / max(len(verdicts), 1),
                             f"{sum(verdicts)} pass of {len(verdicts)} checked")
    for stage in STAGES:
        xs = res["samples"][stage]
        if xs:
            out[f"{stage}_p50_ms"] = (statistics.median(xs), f"p50 of {len(xs)} samples")
            out[f"{stage}_tail_ms"] = tail(xs)
        else:
            out[f"{stage}_p50_ms"] = out[f"{stage}_tail_ms"] = (0.0, "0 samples")
    out["peak_rss_mb"] = (res["peak_rss_mb"], "ru_maxrss of the worker, 1 sample")
    return out


def correctness(res: dict) -> bool:
    ok = res["repeated_inputs"] == 0
    print(f"check  repeated inputs: {res['repeated_inputs']}"
          f"{'' if ok else '  <-- FAILED'}")
    for name, (passed, run) in sorted(res["checks"].items()):
        print(f"check  {name}: {passed}/{run}{'' if passed == run else '  <-- FAILED'}")
        ok = ok and passed == run
    return ok


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description="dnet benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "dnet", "__init__.py")):
        sys.stderr.write(f"no dnet sources under {os.path.join(ROOT, 'src')}\n")
        return 1
    header = source_header(args.seed)
    try:
        untraced = run_pass(args, False, deadline)
        traced = run_pass(args, True, deadline) if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        sys.stderr.write(f"benchmark pass failed: {err}\n")
        return 1

    header.update(untraced["header"])
    print(f"# dnet benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# " + ", ".join(f"{k} {v}" for k, v in header.items()))
    for line in untraced["messages"]:
        print(line)
    correct = correctness(untraced)
    base = metrics_of(untraced)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (value, detail) in base.items():
        print(f"metric {name:<18} {value:>14.6g} {units[name]:<6} [{detail}]")

    if traced is None:
        metrics = {m["name"]: {"value": base[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        print("# traced pass")
        traced_ok = correctness(traced)
        digests = {op["key"]: op["digest"] for op in untraced["ops"]}
        shared = [op for op in traced["ops"] if op["key"] in digests]
        same = sum(digests[op["key"]] == op["digest"] for op in shared)
        print(f"check  traced pass reproduces untraced outputs: {same}/{len(shared)}")
        correct = correct and traced_ok and same == len(shared) and bool(shared)
        for name, (value, _) in metrics_of(traced).items():
            print(f"overhead {name:<18} {value - base[name][0]:>+14.6g} "
                  f"{units[name]} [traced {value:.6g}]")
        # The end-to-end figures listed under per_layer (see NOTES.md)
        # come from the untraced pass, like every end-to-end figure.
        layer = dict(traced["per_layer"])
        layer.update({name: value for name, (value, _) in base.items()})
        for m in spec["per_layer"]:
            print(f"layer  {m['name']:<44} {layer[m['name']]:>14.6g} {m['unit']}")
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}

    ops = untraced["ops"]
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": sum(op["failed"] for op in ops), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
