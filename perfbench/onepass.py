"""One pass of one workload, in a fresh interpreter.

Run by ``run.py``, one process per pass, so that ``ru_maxrss`` and the
module-level caches belong to this pass alone.  Prints one JSON object:
set-up and run time, the host-speed factor, peak RSS, ops attempted and
failed, the digest of the schema-"1" report bytes, the cache-size gauges
read at the end, and, with --trace, the per-layer metrics and the spans
file it wrote.

Set-up is importing torushecke from this checkout's ``src`` plus
building the workload's root data with ``preset_datum``.

Times are reported twice: as wall time (``*_wall_s``, the run time with
the reference units left out) and scaled by the host's speed measured by
``speed.Gauge`` (``run_s``, ``setup_s``): in between the timed work for
``run_s``, right after set-up for ``setup_s``.  The traced pass is not
scaled, and its ``run_s`` is its wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# reference units run right after set-up, to scale the set-up time
SETUP_UNITS = 20

MODULES = ("rootdata", "scalars", "laurent", "algebra", "demazure",
           "membership", "sampling", "presentations", "serialize", "elliptic")


class Lib:
    """The package modules, plus cache gauges summed over retired data."""

    def __init__(self, package):
        for name in MODULES:
            setattr(self, name, getattr(package, name))
        self.sigma_cache_size = 0
        self.mul_cache_size = 0

    def retire(self, datum) -> None:
        self.sigma_cache_size += len(datum.extra.get("sigma_words", ()))
        self.mul_cache_size += len(datum._mul)

    def gauges(self) -> dict:
        return {
            "laurent.unimod_cache_size": len(self.laurent._UNIMOD_CACHE),
            "demazure.sigma_cache_size": self.sigma_cache_size,
            "rootdata.mul_cache_size": self.mul_cache_size,
            "elliptic.nome_cache_size": len(self.elliptic._NOME_QUARTER_CACHE),
        }


def import_package():
    """Import torushecke from this checkout only; None if it is not here."""
    if not (SRC / "torushecke" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import torushecke
    for name in MODULES:
        importlib.import_module(f"torushecke.{name}")
    if Path(torushecke.__file__).resolve().parent != SRC / "torushecke":
        return None
    return torushecke


def layer_metrics(tracer, gauges: dict) -> dict:
    """The per-layer metrics of one traced pass, by name."""
    t = tracer.layer_totals()
    c = tracer.counts

    def calls(group):
        return t.get(group, {}).get("calls", 0)

    def self_s(*groups):
        return sum(t.get(g, {}).get("self_s", 0.0) for g in groups)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "scalars.op_count": c["scalars.op"],
        "scalars.self_s": self_s("scalars.op"),
        "scalars.general_den_share": ratio(c["scalars.general_den"], c["scalars.op"]),
        "laurent.div_count": calls("laurent.div"),
        "laurent.div_ok_ratio": ratio(c["laurent.div_ok"], calls("laurent.div")),
        "laurent.div_self_s": self_s("laurent.div"),
        "laurent.restrict_count": calls("laurent.restrict"),
        "laurent.restrict_self_s": self_s("laurent.restrict"),
        "laurent.poly_mul_count": calls("laurent.poly_mul"),
        "laurent.poly_mul_self_s": self_s("laurent.poly_mul"),
        "laurent.ratfunc_add_self_s": self_s("laurent.ratfunc_add"),
        "laurent.ratfunc_mul_self_s": self_s("laurent.ratfunc_mul"),
        "laurent.unimod_cache_size": gauges["laurent.unimod_cache_size"],
        "algebra.mul_count": calls("algebra.mul"),
        "algebra.mul_self_s": self_s("algebra.mul"),
        "algebra.action_self_s": self_s("algebra.action"),
        "demazure.sigma_word_hit_ratio": ratio(c["demazure.sigma_hit"],
                                               calls("demazure.sigma_word")),
        "demazure.sigma_prefix_share": ratio(c["demazure.sigma_prefix_letters"],
                                             c["demazure.sigma_letters"]),
        "demazure.sigma_cache_size": gauges["demazure.sigma_cache_size"],
        "demazure.nf_count": calls("demazure.nf"),
        "demazure.nf_self_s": self_s("demazure.nf"),
        "demazure.refusal_count": c["demazure.refusal"],
        "membership.check_count": calls("membership.check"),
        "membership.check_self_s": self_s("membership.check"),
        "membership.violation_count": c["membership.violation"],
        "rootdata.build_s": self_s("rootdata.build"),
        "rootdata.words_s": self_s("rootdata.words"),
        "rootdata.mul_cache_size": gauges["rootdata.mul_cache_size"],
        "sampling.gen_self_s": self_s("sampling.gen"),
        "presentations.suite_s": self_s("presentations.suite"),
        "serialize.dump_s": self_s("serialize.dump"),
        "serialize.load_s": self_s("serialize.load"),
        "serialize.report_bytes": c["serialize.report_bytes"],
        "elliptic.eval_count": calls("elliptic.eval"),
        "elliptic.eval_self_s": self_s("elliptic.eval"),
        "elliptic.suite_self_s": self_s("elliptic.suite"),
        "elliptic.nome_cache_size": gauges["elliptic.nome_cache_size"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    presets, run, make_inputs = workloads.WORKLOADS[args.workload]
    inputs = json.load(sys.stdin) if make_inputs and not args.setup_only else None

    t0 = time.perf_counter()
    package = import_package()
    import_s = time.perf_counter() - t0
    if package is None:
        print(f"error: no torushecke package under {SRC}", file=sys.stderr)
        return 2
    lib = Lib(package)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    t1 = time.perf_counter()
    data = [lib.rootdata.preset_datum(name) for name in presets]
    setup_wall_s = import_s + time.perf_counter() - t1
    import speed
    probe = speed.Gauge()
    probe.sample(SETUP_UNITS)
    setup = {"setup_s": setup_wall_s * probe.factor(), "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    # the traced pass is not scaled: its spans should hold package work only
    gauge = None if tracer is not None else speed.Gauge()
    try:
        p = run(lib, data, args.seed, inputs, gauge)
    finally:
        if tracer is not None:
            tracer.restore()
    for datum in data:
        lib.retire(datum)
    gauges = lib.gauges()
    factor = gauge.factor() if gauge is not None else 1.0
    out = {
        **setup,
        "run_s": p.run_s * factor,
        "run_wall_s": p.run_s,
        "speed_factor": factor,
        "speed_units": gauge.units if gauge is not None else 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": p.attempted,
        "failed": p.failed,
        "problems": p.problems,
        "digest": hashlib.sha256("".join(p.texts).encode()).hexdigest(),
        "gauges": gauges,
    }
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}.json"
        tracer.dump_spans(spans_path)
        out["layers"] = layer_metrics(tracer, gauges)
        out["span_count"] = len(tracer.span_start)
        out["spans_file"] = str(spans_path.relative_to(ROOT))
        out["leftover_wrappers"] = tracer.leftover_wrappers()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
