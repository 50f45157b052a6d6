#!/usr/bin/env python3
"""playlab benchmark.

    python3 perfbench/run.py --workload {plays,train,grid} --seed N \\
        --seconds S --trace {0,1} [--record-reference]

Run from the root of a source checkout; the program is imported from
``src/``.  Each run sets up its inputs from the seed (several times, to
report the median set-up time), then repeats passes of the workload until
``--seconds`` have elapsed, checks every output, and prints human-readable
lines followed by one JSON line: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  A traced run
also writes its spans to ``.bench_out/trace-<workload>-seed<N>.json``.
The workloads and the metric definitions are in ``perfbench/README.md``.
"""

import os

# Before numpy loads: one BLAS thread.  The grid already runs nproc cells at
# once, and trained perplexities depend bit for bit on the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("plays", "train", "grid")
SETUP_REPS = 5  # set-up runs this often per run; setup_s is the median


@dataclass
class Context:
    playlab: object
    seed: int
    seconds: float
    nproc: int
    work: Path
    checks: object
    tracer: object
    hooks: object
    info: list = field(default_factory=list)


def _args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's output digests and perplexities as the "
                             "reference for its seed (untraced runs only)")
    args = parser.parse_args(argv)
    if args.record_reference and args.trace:
        parser.error("--record-reference needs --trace 0")
    return args


def _blas(np) -> dict:
    """OpenBLAS version from numpy's build record, and the thread count the
    loaded library reports."""
    info = {"openblas": "unknown", "blas_threads": "unknown"}
    try:
        info["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "playlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _manifest(args, np, nproc) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "python": platform.python_version(),
        "numpy": np.__version__, **_blas(np),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(), "source_sha256": _source_sha256(),
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child
    (today the set-up interpreter; worker processes, once there are any)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _import_program() -> None:
    """Import the program in a fresh interpreter, as every CLI call does:
    the set-up cost each workload shares."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import playlab.cli"
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], check=True,
                   capture_output=True, timeout=120)


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "playlab" / "__init__.py").is_file():
        print(f"error: no playlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import playlab
    import playlab.cli

    import grid
    import layers
    import plays
    import train
    from common import Checks, median
    from tracer import Tracer

    workload = {"plays": plays, "train": train, "grid": grid}[args.workload]
    nproc = len(os.sched_getaffinity(0))
    manifest = _manifest(args, np, nproc)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    same_run = (reference.get("seed") == args.seed and not args.record_reference
                and reference.get("blas_threads") == manifest["blas_threads"])
    checks = Checks(reference.get("workloads", {}).get(args.workload) if same_run else None)
    checks.require("BLAS runs one thread", manifest["blas_threads"] in (1, "unknown"),
                   f"{manifest['blas_threads']}")
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer()
    ctx = Context(playlab, args.seed, args.seconds, nproc, work, checks, tracer,
                  layers.Hooks(playlab))
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            _import_program()
            state = workload.setup(ctx)
            setup_times.append(time.perf_counter() - start)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            tracer.install(playlab, ctx.hooks.table())
            try:
                passes, extra = workload.traced(ctx, state, deadline)
            finally:
                tracer.uninstall()
            metrics = layers.compute(tracer, passes, extra)
            kind = "per_layer"
        else:
            metrics = workload.measure(ctx, state, deadline)
            metrics["setup_s"] = median(setup_times)
            metrics["peak_rss_mb"] = _peak_rss_mb()
            kind = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared[kind]}
    checks.require("every declared metric measured, no other",
                   set(metrics) == set(units), f"{sorted(set(metrics) ^ set(units))}")
    checks.require("metrics are finite", all(math.isfinite(v) for v in metrics.values()))
    if args.trace:
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, manifest)
        ctx.info.append(f"spans written to {trace_path.relative_to(ROOT)}")
    if args.record_reference:
        reference.setdefault("seed", args.seed)
        reference.setdefault("blas_threads", manifest["blas_threads"])
        if (reference["seed"], reference["blas_threads"]) != (args.seed, manifest["blas_threads"]):
            print("error: the reference is for another seed or BLAS thread count",
                  file=sys.stderr)
            return 2
        if not checks.correct:
            print("error: not recording the outputs of a run that fails its checks:\n"
                  + "\n".join(checks.lines()), file=sys.stderr)
            return 1
        reference.setdefault("workloads", {})[args.workload] = checks.recorded
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    elif checks.reference is None:
        ctx.info.append(f"no reference for seed {args.seed}: outputs are checked for "
                        "consistency only")

    print("manifest " + json.dumps(manifest, sort_keys=True))
    for line in ctx.info + checks.lines():
        print(line)
    for name in sorted(units):
        print(f"metric {name} = {metrics.get(name, 0.0)!r} {units[name]}")
    result = {
        "correct": checks.correct,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {
            name: {"value": metrics[name] if math.isfinite(metrics.get(name, math.nan)) else 0.0,
                   "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
