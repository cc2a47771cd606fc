"""The benchmark's workloads, the results they return and the checks run on them.

Every workload is a closed loop: one client runs the operations of a pass
back to back, in an order the seed shuffles. An operation's ``run`` is the
timed call into lsm2d. Its ``collect`` then reads what the program returned
or wrote, outside the timing, and the checks below judge it.

Checks come in two kinds:

* integrity checks judge the numbers the program returned on their own
  terms: displacements are finite, they solve the reduced system to
  1e-10 ||rhs||, and the error the program reports equals the error
  recomputed from the displacements and reference it wrote. Any failure
  makes the run's ``correct`` false.
* claim checks hold the program to the paper's claims and to its own
  documented behaviour: affine fields are exact in both regimes, the
  negative-pivot count follows the Born stability thresholds, modified
  errors fall along a mesh ladder, and CLI calls exit 0.

Both kinds count toward ``wrong_frac``.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import lsm2d
from lsm2d import cli

AFFINE_TOL = 1e-9
RESIDUAL_TOL = 1e-10
CONSISTENCY_TOL = 1e-9
BORN_THRESHOLD = {"stress": 1.0 / 3.0, "strain": 1.0 / 4.0}
REGIME_MATERIAL = {"stress": lsm2d.PLANE_STRESS, "strain": lsm2d.PLANE_STRAIN}
LADDER_KINDS = (lsm2d.PURE_BENDING, lsm2d.CANTILEVER)
EXIT_OK = 0
EXIT_NUMERICAL = 3  # the CLI's documented exit code for a numerical failure


@dataclass(frozen=True)
class Check:
    name: str
    subject: str
    ok: bool
    integrity: bool


@dataclass
class MeshResult:
    """One solved (or failed) mesh, as the program reported it."""

    kind: str
    model: str
    nu: float
    regime: str
    mesh: tuple[int, int]
    rel_l2: float
    failed: bool
    negative_pivots: int | None = None
    profile: dict[str, float] = field(default_factory=dict)
    u: np.ndarray | None = None  # (N, 2) displacements the program output
    ref: np.ndarray | None = None  # (N, 2) reference the program compared against
    reduced: lsm2d.ReducedSystem | None = None  # cleared once the result is checked
    dense_inertia: bool = False

    @property
    def subject(self) -> str:
        nx, ny = self.mesh
        return f"{self.regime} {self.kind} {self.model} nu={self.nu:g} {nx}x{ny}"

    def size(self) -> dict:
        n = self.reduced.matrix.shape[0]
        return {
            "mesh": f"{self.mesh[0]}x{self.mesh[1]}",
            "model": self.model,
            "nu": self.nu,
            "regime": self.regime,
            "free_dofs": n,
            "reduced_nnz": self.reduced.matrix.nnz,
            "dense_inertia_bytes": 8 * n * n if self.dense_inertia else 0,
        }


@dataclass
class Outcome:
    results: list[MeshResult]
    checks: list[Check] = field(default_factory=list)
    solves: int = 0
    failed_solves: int = 0


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    collect: Callable[[object], Outcome]


def solve_kwargs() -> dict:
    """Arguments that make ``solve`` skip the dense inertia, while it takes them."""
    if "compute_inertia" in inspect.signature(lsm2d.solve).parameters:
        return {"compute_inertia": False}
    return {}


def relative_l2(num: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.linalg.norm(ref))
    diff = float(np.linalg.norm(num - ref))
    return diff / scale if scale else diff


def build_case(kind: str, nu: float, regime: str, mesh: tuple[int, int]) -> lsm2d.BenchmarkCase:
    """The case as the CLI builds it: default geometry and material, one mesh."""
    case = lsm2d.make_case(kind, nu, mesh_sizes=(mesh,))
    if regime != "stress":
        m = case.material
        material = lsm2d.Material(m.young_modulus, nu, m.thickness, REGIME_MATERIAL[regime])
        case = dataclasses.replace(case, material=material)
    return case


def build_reduced(case: lsm2d.BenchmarkCase, model: str, mesh_size: tuple[int, int]):
    mesh = lsm2d.case_mesh(case, mesh_size)
    matrix = lsm2d.cell_matrix(lsm2d.calibrate(case.material, model))
    system = lsm2d.assemble(mesh, matrix)
    system = lsm2d.apply_loads(system, mesh, lsm2d.case_loads(case), case.material.thickness)
    return mesh, lsm2d.apply_constraints(system, lsm2d.case_constraints(case, mesh))


class Problems:
    """Reduced systems rebuilt through the public API, for sizes and residual checks.

    Sizes are deterministic, so each system is built once per process.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple, tuple[lsm2d.Mesh, lsm2d.ReducedSystem]] = {}

    def get(self, kind: str, model: str, nu: float, regime: str, mesh: tuple[int, int]):
        key = (kind, model, nu, regime, mesh)
        if key not in self._cache:
            self._cache[key] = build_reduced(build_case(kind, nu, regime, mesh), model, mesh)
        return self._cache[key]


# ---------------------------------------------------------------- cli_ladder


def read_csv(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """The '#' manifest, header and rows of one CSV the CLI wrote."""
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif not header:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header, rows


def _written_files(out: Path) -> list[Path]:
    manifest = out / "run_manifest.json"
    if not manifest.is_file():
        return []
    return [out / name for name in json.loads(manifest.read_text(encoding="utf-8"))["files"]]


def _collect_benchmark(label, out, kind, regime, problems, code) -> Outcome:
    outcome = Outcome(results=[])
    files = _written_files(out)
    tables = [p for p in files if p.name.startswith("errors_")]
    fields: dict[tuple, np.ndarray] = {}
    for path in files:
        if path.name.startswith("field_"):
            meta, header, rows = read_csv(path)
            nx, ny = (int(v) for v in meta["mesh"].split("x"))
            data = np.array(rows, dtype=float)
            cols = [header.index(c) for c in ("u", "v", "u_analytical", "v_analytical")]
            fields[(meta["model"], float(meta["nu"]), (nx, ny))] = data[:, cols]
    for path in tables:
        _, header, rows = read_csv(path)
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            model, nu = row[col["model"]], float(row[col["nu"]])
            mesh = (int(row[col["nx"]]), int(row[col["ny"]]))
            failed = row[col["failed"]] == "true"
            data = fields.get((model, nu, mesh))
            _, reduced = problems.get(kind, model, nu, regime, mesh)
            outcome.results.append(
                MeshResult(
                    kind=kind,
                    model=model,
                    nu=nu,
                    regime=regime,
                    mesh=mesh,
                    rel_l2=float(row[col["rel_l2"]]),
                    failed=failed,
                    negative_pivots=int(row[col["negative_pivots"]]),
                    profile={k: float(row[col[k]]) for k in ("edge_u", "axis_v")},
                    u=None if data is None else data[:, :2],
                    ref=None if data is None else data[:, 2:],
                    reduced=reduced,
                    dense_inertia=True,
                )
            )
    outcome.solves = len(outcome.results)
    outcome.failed_solves = sum(r.failed for r in outcome.results)
    if not tables:
        outcome.checks.append(Check("cli benchmark writes its error table", label, False, False))
        # a numerical failure raised out of the CLI before it wrote the table
        outcome.solves += 1
        outcome.failed_solves += code == EXIT_NUMERICAL
    expected = EXIT_NUMERICAL if outcome.failed_solves else EXIT_OK
    outcome.checks.append(Check("cli exit code agrees with its table", label, code == expected, False))
    shutil.rmtree(out, ignore_errors=True)
    return outcome


def _collect_tables(label, out, expected: tuple[str, ...], code) -> Outcome:
    written = {p.name for p in _written_files(out)}
    checks = [Check("cli exits 0", label, code == EXIT_OK, False)]
    checks += [Check(f"cli writes {name}", label, name in written, False) for name in expected]
    shutil.rmtree(out, ignore_errors=True)
    return Outcome(results=[], checks=checks)


def cli_ladder_ops(tmp: Path, smoke: bool, problems: Problems) -> list[Op]:
    ops = []
    for regime in ("stress", "strain"):
        for name, kind in cli.CASE_NAMES.items():
            out = tmp / f"{regime}_{name}"
            argv = ["benchmark", "--case", name, "--regime", regime, "--out", str(out)]
            if smoke:
                square = kind in (lsm2d.UNIAXIAL, lsm2d.PURE_SHEAR)
                argv += ["--mesh", "2x2,4x4" if square else "8x2,16x4"]
            label = f"cli benchmark --case {name} --regime {regime}"
            ops.append(
                Op(
                    label,
                    lambda argv=argv: cli.main(argv),
                    lambda code, label=label, out=out, kind=kind, regime=regime: _collect_benchmark(
                        label, out, kind, regime, problems, code
                    ),
                )
            )
    out = tmp / "calibrate"
    ops.append(
        Op(
            "cli calibrate",
            lambda out=out: cli.main(["calibrate", "--out", str(out)]),
            lambda code, out=out: _collect_tables("cli calibrate", out, ("calibration.csv",), code),
        )
    )
    # the cantilever is the documented example; the shear plate is a square
    # plate, whose 1x1 constrained cell also reaches constrained_spectrum
    for name in ("cantilever", "shear"):
        out = tmp / f"eigen_{name}"
        label = f"cli eigen --case {name}"
        ops.append(
            Op(
                label,
                lambda name=name, out=out: cli.main(["eigen", "--case", name, "--out", str(out)]),
                lambda code, label=label, out=out: _collect_tables(
                    label, out, ("eigenvalues.csv", "constrained_spectrum.csv"), code
                ),
            )
        )
    return ops


# ------------------------------------------------------------ verdict_128x32

VERDICT_RUNS = ((lsm2d.MODIFIED, 0.3), (lsm2d.BORN, 0.45))


def _collect_run_case(case, model, raw, problems) -> Outcome:
    solutions, report = raw
    nu = case.material.poisson_ratio
    field_at = lsm2d.analytical_field(case)
    results = []
    for size, solution, error in zip(case.mesh_sizes, solutions, report.mesh_errors):
        mesh, reduced = problems.get(case.kind, model, nu, "stress", size)
        ua, va = field_at(mesh.positions[:, 0], mesh.positions[:, 1])
        results.append(
            MeshResult(
                kind=case.kind,
                model=model,
                nu=nu,
                regime="stress",
                mesh=size,
                rel_l2=error.rel_l2,
                failed=error.failed,
                negative_pivots=error.inertia[0] if error.inertia else None,
                profile=dict(error.profile_errors),
                u=None if solution is None else solution.displacements,
                ref=np.column_stack([ua, va]),
                reduced=reduced,
                dense_inertia=True,
            )
        )
    return Outcome(results, solves=len(results), failed_solves=sum(r.failed for r in results))


def verdict_ops(tmp: Path, smoke: bool, problems: Problems) -> list[Op]:
    size = (16, 4) if smoke else (128, 32)
    ops = []
    for model, nu in VERDICT_RUNS:
        case = build_case(lsm2d.CANTILEVER, nu, "stress", size)
        label = f"run_case cantilever {model} nu={nu:g} {size[0]}x{size[1]}"
        ops.append(
            Op(
                label,
                lambda case=case, model=model: lsm2d.run_case(case, model),
                lambda raw, case=case, model=model: _collect_run_case(case, model, raw, problems),
            )
        )
    return ops


# ------------------------------------------------------------ sparse_512x128

SPARSE_NU = 0.3


def _sparse_pipeline(case, model, size, kwargs):
    mesh, reduced = build_reduced(case, model, size)
    try:
        solution = lsm2d.solve(reduced, **kwargs)
    except lsm2d.SingularSystemError:
        return reduced, None, float("nan")
    ua, va = lsm2d.analytical_field(case)(mesh.positions[:, 0], mesh.positions[:, 1])
    return reduced, solution, relative_l2(solution.displacements, np.column_stack([ua, va]))


def _collect_sparse(model, size, raw) -> Outcome:
    reduced, solution, rel_l2 = raw
    result = MeshResult(
        kind=lsm2d.CANTILEVER,
        model=model,
        nu=SPARSE_NU,
        regime="stress",
        mesh=size,
        rel_l2=rel_l2,
        failed=solution is None,
        u=None if solution is None else solution.displacements,
        reduced=reduced,
    )
    return Outcome([result], solves=1, failed_solves=int(result.failed))


def sparse_ops(tmp: Path, smoke: bool, problems: Problems) -> list[Op]:
    sizes = ((16, 4), (32, 8)) if smoke else ((256, 64), (512, 128))
    kwargs = solve_kwargs()
    ops = []
    for size in sizes:
        for model in lsm2d.MODELS:
            case = build_case(lsm2d.CANTILEVER, SPARSE_NU, "stress", size)
            label = f"pipeline cantilever {model} nu={SPARSE_NU:g} {size[0]}x{size[1]}"
            ops.append(
                Op(
                    label,
                    lambda case=case, model=model, size=size: _sparse_pipeline(
                        case, model, size, kwargs
                    ),
                    lambda raw, model=model, size=size: _collect_sparse(model, size, raw),
                )
            )
    return ops


WORKLOADS = {
    "cli_ladder": cli_ladder_ops,
    "verdict_128x32": verdict_ops,
    "sparse_512x128": sparse_ops,
}


# -------------------------------------------------------------------- checks


def check_result(r: MeshResult) -> list[Check]:
    """Integrity and claim checks on one solved mesh; none on a failed one."""
    if r.failed:
        return []
    checks = []
    if r.u is not None:
        checks.append(Check("displacements are finite", r.subject, bool(np.isfinite(r.u).all()), True))
        u_free = r.u.ravel()[r.reduced.free]
        residual = np.linalg.norm(r.reduced.matrix @ u_free - r.reduced.rhs)
        ok = bool(residual <= RESIDUAL_TOL * np.linalg.norm(r.reduced.rhs))
        checks.append(Check("residual <= 1e-10 ||rhs||", r.subject, ok, True))
        if r.ref is not None:
            recomputed = relative_l2(r.u, r.ref)
            ok = abs(recomputed - r.rel_l2) <= CONSISTENCY_TOL * max(recomputed, r.rel_l2) + 1e-15
            checks.append(Check("reported rel_l2 matches the output", r.subject, bool(ok), True))
    if r.kind == lsm2d.UNIAXIAL or (r.kind == lsm2d.PURE_SHEAR and r.model == lsm2d.MODIFIED):
        checks.append(Check("affine field is exact", r.subject, r.rel_l2 <= AFFINE_TOL, False))
    if r.negative_pivots is not None:
        unstable = r.model == lsm2d.BORN and r.nu > BORN_THRESHOLD[r.regime]
        ok = (r.negative_pivots > 0) == unstable
        checks.append(Check("negative pivots iff Born past its threshold", r.subject, ok, False))
    return checks


def check_ladders(results: list[MeshResult]) -> list[Check]:
    """Modified bending and cantilever errors strictly fall along each mesh ladder."""
    ladders: dict[tuple, list[MeshResult]] = {}
    for r in results:
        if r.model == lsm2d.MODIFIED and r.kind in LADDER_KINDS:
            ladders.setdefault((r.regime, r.kind, r.nu), []).append(r)
    checks = []
    for (regime, kind, nu), rows in ladders.items():
        if len(rows) < 2:
            continue
        rows.sort(key=lambda r: r.mesh[0] * r.mesh[1])
        series = [[r.rel_l2 for r in rows]]
        series += [[r.profile.get(key, np.nan) for r in rows] for key in rows[0].profile]
        ok = all(
            np.isfinite(s).all() and all(b < a for a, b in zip(s, s[1:])) for s in series
        )
        meshes = ",".join(f"{r.mesh[0]}x{r.mesh[1]}" for r in rows)
        subject = f"{regime} {kind} modified nu={nu:g} {meshes}"
        checks.append(Check("modified errors fall along the ladder", subject, bool(ok), False))
    return checks


# ---------------------------------------------------------------------- pass


@dataclass
class PassStats:
    """Timing, solve counts, checks and problem sizes of one pass."""

    op_seconds: dict[str, float] = field(default_factory=dict)
    solves: int = 0
    failed_solves: int = 0
    checks: list[Check] = field(default_factory=list)
    sizes: dict[str, list[dict]] = field(default_factory=dict)


def run_pass(ops: list[Op], tracer=None, tamper=None) -> PassStats:
    """Run the operations in order; only ``op.run`` is timed (and traced)."""
    stats = PassStats()
    kept: list[MeshResult] = []
    for op in ops:
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            raw = op.run()
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
        stats.op_seconds[op.label] = elapsed
        outcome = op.collect(raw)
        del raw
        if tamper is not None:
            tamper(outcome)
        stats.solves += outcome.solves
        stats.failed_solves += outcome.failed_solves
        stats.checks += outcome.checks
        for r in outcome.results:
            stats.checks += check_result(r)
        stats.sizes[op.label] = [r.size() for r in outcome.results]
        for r in outcome.results:
            # keep only what the ladder check needs, so big arrays do not
            # outlive their operation and inflate peak RSS
            r.u = r.ref = r.reduced = None
            kept.append(r)
    stats.checks += check_ladders(kept)
    return stats
