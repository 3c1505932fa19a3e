"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --spawned-at T --workdir DIR --out FILE [--trace-file F]

``run.py`` starts this with ``PYTHONPATH`` set to the checkout's
``src``; BLAS and OpenMP are pinned to one thread here, before numpy is
imported.  ``--spawned-at`` is the parent's ``time.monotonic()`` just
before the spawn, so the import time includes interpreter start.  The
pass writes its raw records as JSON to ``--out``; ``run.py`` turns them
into metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"       # before numpy is imported

import argparse
import json
import resource
import subprocess
import sys
import time

# a fresh interpreter that only imports, for more samples of import time
IMPORT_PROBE = ("import sys, time; t = float(sys.argv[1]); import numpy, dnet; "
                "print(time.monotonic() - t)")


def import_seconds(own: float, probes: int = 4) -> list:
    """This process's import time plus that of ``probes`` fresh ones."""
    times = [own]
    for _ in range(probes):
        spawned = time.monotonic()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, repr(spawned)],
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return times


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    import numpy as np
    import dnet
    import_s = time.monotonic() - args.spawned_at
    if not os.path.abspath(dnet.__file__).startswith(src + os.sep):
        sys.stderr.write(f"dnet was imported from {dnet.__file__}, not from {src}\n")
        return 2

    from workloads import WORKLOADS
    from tracing import Tracer

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    header = {"python": sys.version.split()[0], "numpy": np.__version__,
              "blas": f"{blas.get('name')} {blas.get('version')}",
              "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}

    w = WORKLOADS[args.workload](args.seed, args.seconds, args.workdir)
    w.setup()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        w.tracer = tracer
        tracer.recording = True
    timed_s = w.run()
    if tracer is not None:
        tracer.recording = False
    w.after()

    result = {
        "header": header,
        "import_s": import_seconds(import_s),
        "units": w.units,
        "units_needed": w.units_needed,
        "timed_s": timed_s,
        "ops": [{**op, "key": repr(op["key"])} for op in w.ops],
        "samples": w.samples,
        "checks": w.checks,
        "repeated_inputs": w.repeated_inputs(),
        "messages": w.messages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["per_layer"] = tracer.per_layer(len(w.ops))
        if args.trace_file:
            tracer.dump(args.trace_file, result["per_layer"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
