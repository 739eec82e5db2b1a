"""The torushecke benchmark: one workload, many passes, one result line.

    python3 perfbench/run.py --workload braid-affine --seed 0 --seconds 30 --trace 0

Each pass runs in a fresh interpreter (``onepass.py``), one at a time,
closed loop with one client.  With ``--trace 0`` passes repeat until
``--seconds`` have gone by and the end-to-end metrics are medians over
them; set-up is also measured by separate set-up-only interpreters.
Times are scaled to a reference host speed measured while each pass
runs (``speed.py``); the unscaled wall times are printed too.  With
``--trace 1`` the run makes one plain pass and one traced pass and
reports the per-layer metrics of the traced one.

Every pass is checked: report entries, normal-form round trips and
refusals, and the sha256 of the schema-"1" report bytes, which must be
the same on every pass of a run and, at the default seed, equal the
digest recorded in ``baseline.json``.  The last line of standard output
is the JSON result; everything before it is for people.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import onepass  # noqa: E402
import workloads  # noqa: E402

SPEC = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"
# a run must end within 180 s; no pass starts after this many seconds
TIME_LIMIT_S = 170.0
SETUP_PROBES = 5


class BenchError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, stdin, deadline: float, *flags) -> dict:
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before the pass could start")
    cmd = [sys.executable, str(HERE / "onepass.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                              timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {' '.join(flags)} did not end in time") from None
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S

    package = onepass.import_package()
    if package is None or not SPEC.is_file():
        print(f"error: needs {onepass.SRC}/torushecke and {SPEC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    baseline = json.loads(BASELINE.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    stdin = None
    make_inputs = workloads.WORKLOADS[args.workload][2]
    if make_inputs is not None:
        stdin = json.dumps(make_inputs(onepass.Lib(package), args.seed))

    try:
        # the first set-up probe may compile bytecode; it is not counted
        run_pass(args.workload, args.seed, None, deadline, "--setup-only")
        setups = [run_pass(args.workload, args.seed, None, deadline,
                           "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        passes = []
        if args.trace:
            passes.append(run_pass(args.workload, args.seed, stdin, deadline))
            passes.append(run_pass(args.workload, args.seed, stdin, deadline,
                                   "--trace"))
        else:
            t0 = time.perf_counter()
            while not passes or time.perf_counter() - t0 < args.seconds:
                passes.append(run_pass(args.workload, args.seed, stdin, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    expected = baseline["digests"].get(args.workload) \
        if args.seed == baseline["default_seed"] else None
    attempted = failed = 0
    problems = []
    for i, p in enumerate(passes):
        attempted += p["attempted"] + 1  # entries, round trips, refusals, digest
        failed += p["failed"]
        problems += p["problems"]
        bad_digest = p["digest"] != passes[0]["digest"] or \
            (expected is not None and p["digest"] != expected)
        if bad_digest:
            failed += 1
            problems.append(f"pass {i}: report digest {p['digest']} differs "
                            f"(expected {expected or passes[0]['digest']})")
        label = "traced pass" if "layers" in p else "pass"
        print(f"{label} {i}: run_s={p['run_s']:.4f} (wall {p['run_wall_s']:.4f}, "
              f"speed factor {p['speed_factor']:.4f} over {p['speed_units']} units) "
              f"setup_s={p['setup_s']:.4f} "
              f"peak_rss_mb={p['peak_rss_mb']:.1f} ops={p['attempted']} "
              f"failed={p['failed']} digest={p['digest']} "
              f"gauges={json.dumps(p['gauges'], sort_keys=True)}")

    if args.trace and passes[1]["leftover_wrappers"]:
        failed += 1
        problems.append(f"wrappers left behind: {passes[1]['leftover_wrappers']}")
    attempted += args.trace

    plain = [p for p in passes if "layers" not in p]
    run_s = [p["run_s"] for p in plain]
    setups += [p["setup_s"] for p in plain]
    q1, q3 = quartiles(run_s)
    print(f"run_s: median {statistics.median(run_s):.4f} s, quartiles "
          f"{q1:.4f} / {q3:.4f} s over {len(run_s)} pass(es); wall median "
          f"{statistics.median(p['run_wall_s'] for p in plain):.4f} s")
    print(f"setup_s: median {statistics.median(setups):.4f} s over "
          f"{len(setups)} set-ups")
    print(f"ops: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.6f})")
    for line in problems[:20]:
        print(f"problem: {line}")

    if args.trace:
        untraced, traced = passes
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = traced["run_wall_s"] / untraced["run_wall_s"]
        print(f"spans: {traced['span_count']} written to {traced['spans_file']}")
    else:
        values = {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {values[m['name']]} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
