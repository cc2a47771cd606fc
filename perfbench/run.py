"""Benchmark of lsm2d: one workload per run, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli_ladder --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload verdict_128x32 --seed 1 --seconds 36 --trace 1
    python3 perfbench/run.py --workload sparse_512x128 --seed 1 --seconds 1 --trace 0 --smoke

A run imports lsm2d from ``src/`` next to this directory, warms up on the
smallest input, then runs whole passes of the workload until ``--seconds``
would be exceeded. ``--smoke`` shrinks every mesh, for the benchmark's own
tests. Lines before the last describe the run (environment, problem size
and median time of every operation, every wrong check); the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``):

* ``setup_s``: import of lsm2d plus one warm-up pass on the smallest
  input, median of this process and ``SETUP_PROBES`` fresh processes.
* ``wall_s``: time of a typical pass: the sum over operations of each
  one's median time across passes. Only the calls into lsm2d are timed.
* ``peak_rss_mb``: ``ru_maxrss`` of this process, in MiB.
* ``solved_frac``: 1 - failed solves / solves attempted.
* ``correct_frac``: 1 - wrong checks / checks made.

``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics of the traced ones (see ``PER_LAYER``), each a per-pass value,
with the tracing overhead against the untraced passes.
"""

from __future__ import annotations

import os

# BLAS and OpenMP threads are pinned before numpy loads, in this process
# and in the set-up probes it starts: one thread gives steadier times than
# two on a 2-core machine, at about 1.4x the dense-LDL time.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "solved_frac": "ratio",
    "correct_frac": "ratio",
}

PER_LAYER = {
    "lattice.system_inertia.busy_s": "s",
    "lattice.system_inertia.calls": "count",
    "lattice.system_inertia.dense_bytes": "bytes",
    "lattice.solve.self_s": "s",
    "lattice.solve.calls": "count",
    "lattice.solve.failed": "count",
    "lattice.build_mesh.busy_s": "s",
    "lattice.assemble.busy_s": "s",
    "lattice.assemble.calls": "count",
    "lattice.apply_loads.busy_s": "s",
    "lattice.apply_constraints.busy_s": "s",
    "lattice.free_dofs": "count",
    "lattice.reduced_nnz": "count",
    "materials.calibrate.calls": "count",
    "cell.cell_matrix.calls": "count",
    "cell.eigen_analysis.busy_s": "s",
    "lattice.constrained_spectrum.busy_s": "s",
    "benchmarks.run_case.self_s": "s",
    "cli.main.self_s": "s",
    "cli.write_csv.busy_s": "s",
    "cli.write_csv.bytes": "bytes",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_frac": "ratio",
}


def load_modules():
    """Import lsm2d from this checkout's sources, then the workload modules."""
    package = SRC / "lsm2d"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: lsm2d sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import lsm2d

    if Path(lsm2d.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported lsm2d from {lsm2d.__file__}, not from {package}")
    import tracing
    import workloads

    return workloads, tracing


def set_up(workload: str):
    """Import lsm2d and run one warm-up pass on the smallest input."""
    start = time.perf_counter()
    workloads, tracing = load_modules()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        ops = workloads.WORKLOADS[workload](Path(tmp), True, workloads.Problems())
        workloads.run_pass(ops)
    return time.perf_counter() - start, workloads, tracing


def probe_setup(workload: str) -> float:
    """set_up timed in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    return {
        "seed": seed,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def measure(workload, workloads, tracing, seed, seconds, trace, smoke):
    """Whole passes until the next would overrun ``seconds``; alternate tracing if asked."""
    rng = random.Random(seed)
    tracer = tracing.Tracer() if trace else None
    plain, traced, layers = [], [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        ops = workloads.WORKLOADS[workload](Path(tmp), smoke, workloads.Problems())
        start = time.perf_counter()
        while True:
            order = list(ops)
            rng.shuffle(order)
            if trace and len(plain) > len(traced):
                tracer.install()
                try:
                    traced.append(workloads.run_pass(order, tracer))
                finally:
                    tracer.uninstall()
                layers.append(tracer.summary())
                tracer.reset()
            else:
                plain.append(workloads.run_pass(order))
            runs = len(plain) + len(traced)
            elapsed = time.perf_counter() - start
            if (traced or not trace) and elapsed * (runs + 1) / runs > seconds:
                break
    return plain, traced, layers


def typical_pass_seconds(passes) -> float:
    """Sum over operations of their median time; a slow spell in one pass moves it less."""
    labels = passes[0].op_seconds
    return sum(statistics.median(p.op_seconds[label] for p in passes) for label in labels)


def report(workload, env, setup, plain, traced, layers, trace) -> dict:
    passes = plain + traced
    for key, value in env.items():
        print(f"# {key}={value}")
    print(f"# workload={workload} passes={len(plain)} traced_passes={len(traced)}")
    print("# untraced_pass_s=" + ",".join(f"{sum(p.op_seconds.values()):.4f}" for p in plain))
    for label, sizes in passes[0].sizes.items():
        median_s = statistics.median(p.op_seconds[label] for p in plain)
        print("op " + json.dumps({"op": label, "median_s": median_s, "meshes": sizes}))
    attempted = sum(p.solves for p in passes)
    failed = sum(p.failed_solves for p in passes)
    checks = [c for p in passes for c in p.checks]
    wrong = [c for c in checks if not c.ok]
    for name, subject in sorted({(c.name, c.subject) for c in wrong}):
        print(f"wrong: {name}: {subject}")
    failed_frac = failed / attempted if attempted else 1.0
    wrong_frac = len(wrong) / len(checks) if checks else 1.0
    print(f"failed_frac={failed_frac} ({failed}/{attempted} solves)")
    print(f"wrong_frac={wrong_frac} ({len(wrong)}/{len(checks)} checks)")

    untraced_s = typical_pass_seconds(plain)
    if trace:
        traced_s = typical_pass_seconds(traced)
        values = {
            name: statistics.median(layer.get(name, 0.0) for layer in layers)
            for name in PER_LAYER
        }
        values["trace.untraced_wall_s"] = untraced_s
        values["trace.traced_wall_s"] = traced_s
        values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        units = PER_LAYER
    else:
        values = {
            "setup_s": setup,
            "wall_s": untraced_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "solved_frac": 1.0 - failed_frac,
            "correct_frac": 1.0 - wrong_frac,
        }
        units = END_TO_END
    return {
        "correct": bool(checks) and not any(c.integrity for c in wrong),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("cli_ladder", "verdict_128x32", "sparse_512x128")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny meshes, for the benchmark's tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    setup_s, workloads, tracing = set_up(args.workload)
    if args.setup_probe:
        print(setup_s)
        return 0
    samples = [setup_s] + [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    plain, traced, layers = measure(
        args.workload, workloads, tracing, args.seed, args.seconds, args.trace, args.smoke
    )
    result = report(
        args.workload,
        environment(args.seed),
        statistics.median(samples),
        plain,
        traced,
        layers,
        args.trace,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
