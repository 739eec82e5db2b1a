"""Self-tests of the benchmark; they take a few minutes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import onepass  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 9
# per-layer metrics that must repeat exactly; times need not
EXACT_SUFFIXES = ("_count", "_ratio", "_share", "_size", "report_bytes")


def _pass(workload: str, seed: int, *flags) -> dict:
    stdin = None
    make_inputs = workloads.WORKLOADS[workload][2]
    if make_inputs is not None:
        package = onepass.import_package()
        stdin = json.dumps(make_inputs(onepass.Lib(package), seed))
    proc = subprocess.run(
        [sys.executable, str(HERE / "onepass.py"), "--workload", workload,
         "--seed", str(seed), *flags],
        input=stdin, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_two_traced_passes_give_identical_counts(workload):
    first = _pass(workload, 3, "--trace")
    second = _pass(workload, 3, "--trace")
    exact = {k: v for k, v in first["layers"].items() if k.endswith(EXACT_SUFFIXES)}
    assert exact == {k: second["layers"][k] for k in exact}
    assert first["digest"] == second["digest"]
    assert first["failed"] == second["failed"] == 0


def _package_objects():
    """Every module attribute and class member of the package, by identity."""
    out = {}
    for m in spans.package_modules():
        for key, value in vars(m).items():
            out[(m.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == m.__name__:
                for attr, member in vars(value).items():
                    out[(m.__name__, key, attr)] = member
    return out


def test_tracer_puts_every_original_back():
    package = onepass.import_package()
    lib = onepass.Lib(package)
    before = _package_objects()
    tracer = spans.Tracer()
    tracer.install()
    assert lib.presentations.weyl_ball is not before[("torushecke.rootdata",
                                                       "weyl_ball")]
    datum = lib.rootdata.preset_datum("A2aff")
    lib.presentations.braid_suite(datum, 3)
    tracer.restore()
    after = _package_objects()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert tracer.leftover_wrappers() == []
    assert tracer.layer_totals()["laurent.div"]["calls"] > 0


@pytest.mark.parametrize("seed", [0, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_passes(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0


def test_reference_units_are_left_out_of_the_segment_time():
    gauge = speed.Gauge()
    p = workloads.Pass(gauge)
    t0 = time.perf_counter()
    with p:
        end = t0 + 0.6
        while time.perf_counter() < end:
            pass
    total = time.perf_counter() - t0
    assert gauge.units >= 3
    assert abs(p.run_s + gauge.busy_s - total) < 0.01
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert gauge.factor() > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "braid-affine",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
