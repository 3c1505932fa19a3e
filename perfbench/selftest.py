"""Self-test of the benchmark: a tiny-budget run of every workload.

    python3 perfbench/selftest.py

For each workload it runs ``run.py`` with a one-second budget, untraced
and traced, and asserts that

* every end-to-end metric is printed with its unit and a sample count,
  and the untraced JSON line carries exactly the end-to-end metrics;
* the traced run prints and emits every per-layer metric, and the
  tracing overhead of every end-to-end metric;
* the correctness checks ran, and passed.

Takes about two minutes; exits 0 when every assertion holds.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# correctness checks each workload must report as run
CHECKS = {
    "cli-roundtrip": ("repeated gen is byte-identical",
                      "repeated verify report is byte-identical", "verify exits 0 or 1"),
    "verify-corpus": ("repeated gen is byte-identical", "checks per file class agree",
                      "repeated verify report is byte-identical", "verify exits 0 or 1"),
    "construct-64": ("net identities computed",),
}
# the end-to-end figures every run prints; BENCHMARK.json bounds some of
# them and lists the rest, without a bound, under per_layer
FIGURES = ("setup_s", "ops_per_s", "failed_share", "verified_share",
           "gen_p50_ms", "gen_tail_ms", "verify_p50_ms", "verify_tail_ms",
           "transform_p50_ms", "transform_tail_ms", "net_p50_ms", "net_tail_ms",
           "peak_rss_mb")
COUNT = re.compile(r"\d+ (samples?|set-up units|completed|attempts|checked)")


def run(workload: str, trace: int):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", "1", "--seconds", "1",
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    assert lines, f"{workload}: no output; stderr: {proc.stderr[-500:]}"
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def expect_checks(workload, lines, extra=()):
    ran = {}
    for line in lines:
        m = re.match(r"check  (.+): (\d+)/(\d+)", line)
        if m:
            ran[m.group(1)] = (int(m.group(2)), int(m.group(3)))
    assert any(line == "check  repeated inputs: 0" for line in lines), workload
    for name in CHECKS[workload] + tuple(extra):
        assert name in ran and ran[name][1] > 0, f"{workload}: check {name!r} did not run"
        assert ran[name][0] == ran[name][1], f"{workload}: check {name!r} failed"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        code, lines, result = run(name, 0)
        assert code == 0 and result["correct"], f"{name}: untraced run not correct"
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, name
        assert result["attempted"] >= 1, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == e2e, name
        printed = {}
        for line in lines:
            m = re.match(r"metric (\S+)\s+(\S+) (\S+)\s+\[(.*)\]$", line)
            if m:
                printed[m.group(1)] = (m.group(3), m.group(4))
        for metric in FIGURES:
            unit = e2e.get(metric) or layers[metric]
            assert metric in printed, f"{name}: {metric} not printed"
            assert printed[metric][0] == unit, f"{name}: {metric} unit {printed[metric][0]}"
            assert COUNT.search(printed[metric][1]), f"{name}: {metric} has no sample count"
        expect_checks(name, lines)

        code, lines, result = run(name, 1)
        assert code == 0 and result["correct"], f"{name}: traced run not correct"
        assert {k: v["unit"] for k, v in result["metrics"].items()} == layers, name
        for metric in layers:
            assert any(re.match(rf"layer  {re.escape(metric)}\s", line) for line in lines), \
                f"{name}: layer {metric} not printed"
        for metric in e2e:
            assert any(line.startswith(f"overhead {metric} ") for line in lines), \
                f"{name}: overhead of {metric} not printed"
        expect_checks(name, lines, ("traced pass reproduces untraced outputs",))
        print(f"selftest {name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
