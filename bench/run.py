#!/usr/bin/env python3
"""codim benchmark: run one workload for one seed, print one JSON result line.

    python3 bench/run.py --workload codim-sup --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --write-spec      # regenerate BENCHMARK.json

Run from anywhere; codim is imported from ``src/`` next to this directory.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. Run records,
spans and digests go to ``.bench_build/`` at the repository root.
"""

import os
import sys
import time

# Pin BLAS to one thread before numpy can be imported: with two threads
# sharing two busy cores, one CoDiM seed measured 4x slower.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
CODIM_MODULES = ("tensor", "models", "contrastive", "mixmatch", "noise", "trainers",
                 "metrics", "data", "config", "checkpoint", "cli")

RUN_SECONDS = 40
# name, unit, better, bound (allowed worsening as a share of the parent median)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("accuracy", "fraction", "higher", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.15),
]


def import_codim():
    """Import numpy and codim from this checkout's ``src/`` (never from an
    installed copy); exits non-zero when the sources are not there."""
    if not (SRC / "codim" / "__init__.py").is_file():
        raise SystemExit(f"error: no codim sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    import numpy  # noqa: F401
    mods = [importlib.import_module(f"codim.{name}") for name in CODIM_MODULES]
    import codim
    if Path(codim.__file__).resolve().parent != SRC / "codim":
        raise SystemExit(f"error: imported codim from {codim.__file__}, not {SRC}")
    return mods


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python_threads": threading.active_count(),
    }


def source_id() -> str:
    """Identity of everything a digest depends on: codim and benchmark
    sources and the numpy version."""
    import numpy
    h = hashlib.sha256(numpy.__version__.encode())
    for path in sorted([*(SRC / "codim").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestBook:
    """Reference digest per (workload, protocol seed) for this source: the
    first unit seen in this run or any earlier run in this checkout."""

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source
        try:
            self.book = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.book = {}
        self.refs = self.book.setdefault(source, {})

    def check(self, workload: str, unit) -> bool:
        key = f"{workload}:{unit.protocol_seed}"
        ref = self.refs.setdefault(key, unit.digest)
        if ref == unit.digest:
            return True
        if unit.ops:
            unit.ops[-1].problems.append(
                f"output digest {unit.digest[:12]} differs from {ref[:12]} "
                f"of an earlier run of this source and seed")
        return False

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.book, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


def run_units(workload, ctx, seeds, deadline, mandatory, tracer=None):
    """Run ``mandatory`` units, then cycle through ``seeds`` while another
    unit of median length still fits before ``deadline``."""
    units, lengths = [], []
    i = 0
    while i < mandatory or time.perf_counter() + statistics.median(lengths) <= deadline:
        start = time.perf_counter()
        if tracer is None:
            units.append(workload.run_unit(ctx, seeds[i % len(seeds)]))
        else:
            with tracer.recording():
                units.append(workload.run_unit(ctx, seeds[i % len(seeds)]))
        lengths.append(time.perf_counter() - start)
        i += 1
    return units


def pooled_accuracy(units):
    if not units or any(u.accuracy is None for u in units):
        return None
    return sum(u.accuracy[0] for u in units) / sum(u.accuracy[1] for u in units)


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, ctx, seeds, deadline, import_s):
    """End-to-end metrics of untraced units, wall time at the reference
    speed (``speed.py``). Returns (units, metrics, problems, measured seconds)."""
    from speed import SpeedProbe

    probe = ctx.probe = SpeedProbe()
    units = run_units(workload, ctx, seeds, deadline, mandatory=len(seeds))
    problems = []
    accuracy = pooled_accuracy(units[:len(seeds)])
    if accuracy is None or not 0.0 <= accuracy <= 1.0:
        problems.append(f"accuracy unavailable or out of range: {accuracy}")
    measured = {
        "wall_s": statistics.median(u.wall_s for u in units),
        "setup_s": import_s + statistics.median(u.setup_s for u in units),
        "speed_factor": probe.factor,
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": metric(statistics.median(u.ref_wall_s for u in units), "s"),
        "setup_s": metric(measured["setup_s"], "s"),
        "accuracy": metric(accuracy, "fraction"),
        "peak_rss_mb": metric(peak_rss_mb, "MiB"),
    }
    return units, metrics, problems, measured


def trace(workload, ctx, seeds, deadline, mods):
    """Per-layer metrics: one untraced reference unit, then traced units.
    Returns (all units, metrics, problems, {})."""
    import layers
    import workloads
    from tracing import Tracer

    reference = workload.run_unit(ctx, seeds[0])
    tracer = Tracer(mods, layers.OBSERVERS)
    traced_ctx = workloads.Context(ctx.work_dir, tracer)
    tracer.install()
    try:
        problems = [f"unwrapped binding {name}" for name in tracer.unbound_originals()]
        traced = run_units(workload, traced_ctx, seeds, deadline, mandatory=1,
                           tracer=tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    problems += layers.coverage_problems(workload.name, summary)
    values = layers.derive(
        summary, tracer.observations, tracer.nodes_built, len(traced),
        codivide_attempts=sum(u.codivide_attempts for u in traced),
        bytes_written=sum(u.bytes_written for u in traced),
        planted=traced_ctx.planted,
        overhead=statistics.median(u.wall_s for u in traced) / reference.wall_s)
    unit_of = {name: unit for name, unit, _ in layers.PER_LAYER}
    (BUILD / "traces").mkdir(exist_ok=True)
    tracer.save(BUILD / "traces" / f"{workload.name}.npz")
    metrics = {name: metric(v, unit_of[name]) for name, v in values.items()}
    return [reference, *traced], metrics, problems, {}


def run(args) -> dict:
    start = time.perf_counter()
    mods = import_codim()
    import workloads
    import_s = time.perf_counter() - start

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    work_dir = BUILD / workload.name
    work_dir.mkdir(parents=True, exist_ok=True)
    seeds = workload.protocol_seeds(args.seed)
    env = environment()
    deadline = time.perf_counter() + args.seconds
    ctx = workloads.Context(work_dir)
    if args.trace:
        units, metrics, problems, measured = trace(workload, ctx, seeds, deadline, mods)
    else:
        units, metrics, problems, measured = measure(workload, ctx, seeds, deadline,
                                                     import_s)

    book = DigestBook(BUILD / "digests.json", source_id())
    if not all([book.check(workload.name, u) for u in units]):
        problems.append("an output digest differs between runs of the same source and seed")
    book.save()

    ops = [op for u in units for op in u.ops]
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "protocol_seeds": seeds, "environment": env, "import_s": import_s,
        "measured": measured,
        "units": [{"protocol_seed": u.protocol_seed, "setup_s": u.setup_s,
                   "wall_s": u.wall_s, "digest": u.digest, "accuracy": u.accuracy,
                   "ops": [vars(op) for op in u.ops]} for u in units],
        "problems": problems, "metrics": metrics,
    }
    (BUILD / "results").mkdir(exist_ok=True)
    (BUILD / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"# {workload.name} seed {args.seed} trace {args.trace}: {len(units)} units "
          f"over protocol seeds {seeds}; python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']}, BLAS threads {env['blas_threads']}, nproc {env['nproc']}, "
          f"{env['cpu_model']}")
    failures = collections.Counter((op.name, "; ".join(op.problems)) for op in ops if not op.ok)
    for (name, why), count in failures.items():
        print(f"# FAILED {name} in {count} units: {why}")
    for line in problems:
        print(f"# PROBLEM {line}", file=sys.stderr)
    failed = sum(not op.ok for op in ops)
    print(f"# error_rate = {failed / len(ops)} ({failed} of {len(ops)} operations failed)")
    for name, value in measured.items():
        print(f"# measured {name} = {value}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    return {"correct": not problems, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def spec() -> dict:
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    return {
        "command": ["python3", f"{BENCH.name}/run.py"],
        "paths": [BENCH.name],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in layers.PER_LAYER],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n",
                                             encoding="utf-8")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
