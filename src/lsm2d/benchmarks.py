"""Validation problems with closed-form elasticity solutions.

Four plate problems drive the full pipeline and quantify accuracy:

* uniaxial tension: square plate, roller supports on bottom (v = 0) and
  left (u = 0), uniform normal traction on the right edge. The solution
  is affine, so the lattice reproduces it exactly at every particle.
* pure shear: same plate, bottom edge fully fixed, shear tractions on
  the remaining three edges. Also affine (u proportional to y), exact
  for the multi-bond model; the Born model deviates because rotation
  costs it energy.
* pure bending: slender plate loaded by end moments, modelled as linear
  end tractions. Quadratic solution; accuracy must improve under mesh
  refinement.
* cantilever: same plate clamped at the right edge, uniform downward
  traction on the left edge. The reference field satisfies the end
  conditions only weakly (in integral form), so the clamped column is
  excluded from profile errors.

The bending and cantilever frames put x in [0, a] and y in [-b, b] with
the plate axis at y = 0; the square plates use their lower-left corner
as origin.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import lattice
from .cell import cell_matrix
from .lattice import (
    Constraints,
    EdgeTraction,
    LatticeSpec,
    LoadSpec,
    Mesh,
    SingularSystemError,
    Solution,
    _is_integer,
    fix_nodes,
)
from .materials import PLANE_STRAIN, PLANE_STRESS, Material, calibrate

UNIAXIAL = "uniaxial"
PURE_SHEAR = "pure_shear"
PURE_BENDING = "pure_bending"
CANTILEVER = "cantilever"
CASE_KINDS = (UNIAXIAL, PURE_SHEAR, PURE_BENDING, CANTILEVER)

SQUARE_MESHES = ((2, 2), (4, 4), (8, 8), (16, 16))
SLENDER_MESHES = ((8, 2), (16, 4), (32, 8), (64, 16))

FieldEvaluator = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class BenchmarkCase:
    """One validation problem.

    Attributes:
        kind: one of CASE_KINDS.
        length: plate extent along x in m.
        height: plate extent along y in m.
        material: plate material.
        load: kind-specific magnitude: normal stress sigma_xx in Pa
            (uniaxial), shear stress tau_0 in Pa (pure_shear), moment M
            in N m (pure_bending), or total end force per unit thickness
            F in N/m (cantilever).
        mesh_sizes: (nx, ny) discretizations, ordered by refinement.
    """

    kind: str
    length: float
    height: float
    material: Material
    load: float
    mesh_sizes: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.kind not in CASE_KINDS:
            raise ValueError(f"kind must be one of {CASE_KINDS}, got {self.kind!r}")
        if not all(np.isfinite(side) and side > 0.0 for side in (self.length, self.height)):
            raise ValueError(
                f"plate dimensions must be positive and finite, got {self.length} x {self.height}"
            )
        if not self.mesh_sizes:
            raise ValueError("mesh_sizes must be nonempty")
        for size in self.mesh_sizes:
            if np.shape(size) != (2,) or not all(_is_integer(n) and n >= 1 for n in size):
                raise ValueError(f"mesh sizes must be pairs of positive integers, got {size!r}")

    @property
    def half_height(self) -> float:
        return 0.5 * self.height


# plate length and height in m, default load and mesh ladder of each kind
_PLATES = {
    UNIAXIAL: (0.2, 0.2, 1e8, SQUARE_MESHES),
    PURE_SHEAR: (0.2, 0.2, 1e8, SQUARE_MESHES),
    PURE_BENDING: (0.5, 0.125, 2604.17, SLENDER_MESHES),
    CANTILEVER: (0.5, 0.125, 1.25e7, SLENDER_MESHES),
}


def make_case(
    kind: str,
    poisson_ratio: float,
    regime: str = PLANE_STRESS,
    young_modulus: float = 2e11,
    thickness: float = 0.01,
    mesh_sizes: tuple[tuple[int, int], ...] | None = None,
) -> BenchmarkCase:
    """Build a case of the given kind on its default plate.

    The material is isotropic in the given regime; the load is the kind's
    own (see ``BenchmarkCase``), and so are ``mesh_sizes`` by default.
    """
    if kind not in _PLATES:
        raise ValueError(f"kind must be one of {CASE_KINDS}, got {kind!r}")
    length, height, default_load, default_meshes = _PLATES[kind]
    return BenchmarkCase(
        kind,
        length,
        height,
        Material(young_modulus, poisson_ratio, thickness, regime),
        default_load,
        default_meshes if mesh_sizes is None else mesh_sizes,
    )


def moment_to_linear_traction(moment: float, half_height: float, thickness: float) -> float:
    """Corner magnitude sigma_0 of the linear end traction equivalent to a moment.

    The traction sigma(y) = sigma_0 y / b over the edge strip of thickness
    t carries the moment integral 2 sigma_0 t b^2 / 3, so sigma_0 =
    3 M / (2 t b^2).
    """
    if half_height <= 0.0 or thickness <= 0.0:
        raise ValueError("half_height and thickness must be positive")
    return 3.0 * moment / (2.0 * thickness * half_height * half_height)


def analytical_field(case: BenchmarkCase) -> FieldEvaluator:
    """Closed-form displacement field of the case, vectorized over points.

    The fields below are the plane-stress solutions; plane strain uses
    them with E' = E / (1 - nu^2) and nu' = nu / (1 - nu), which leave
    the shear modulus unchanged.

    Returns:
        Callable mapping coordinate arrays (x, y) to displacement arrays
        (u, v) in m.
    """
    E = case.material.young_modulus
    nu = case.material.poisson_ratio
    if case.material.regime == PLANE_STRAIN:
        E, nu = E / (1.0 - nu * nu), nu / (1.0 - nu)

    if case.kind == UNIAXIAL:
        sigma = case.load

        def field(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return sigma * x / E, -nu * sigma * y / E

        return field

    if case.kind == PURE_SHEAR:
        tau = case.load
        G = case.material.shear_modulus

        def field(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return tau * y / G, np.zeros_like(np.asarray(y, dtype=float))

        return field

    if case.kind == PURE_BENDING:
        M = case.load
        L = case.length
        inertia = case.material.thickness * case.height**3 / 12.0

        def field(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            u = M * y * (-x + 0.5 * L) / (E * inertia)
            v = M * (nu * y * y + x * x - x * L) / (2.0 * E * inertia)
            return u, v

        return field

    # cantilever: field with traction-free faces, zero normal
    # stress on the loaded end, and integral (weak) clamp conditions at
    # x = a; F is the end force per unit thickness.
    F = case.load
    a = case.length
    b = case.half_height
    c0 = F / (4.0 * E * b**3)
    # weak end conditions fix the rigid-motion constants: the y-linear
    # coefficient is the full parenthesized expression below; a bare
    # extra -3Fa^2 y/(4Eb^3) term would leave constant shear stress on
    # the free faces, violating equilibrium
    c1 = 3.0 * F * a * a / (4.0 * E * b**3) * (1.0 + (8.0 + 9.0 * nu) * b * b / (5.0 * a * a))
    c3 = -F * a**3 / (2.0 * E * b**3) * (1.0 + (12.0 + 11.0 * nu) * b * b / (5.0 * a * a))

    def field(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = (
            3.0 * c0 * x * x * y
            + 3.0 * F * (1.0 + nu) * y / (2.0 * E * b)
            - c0 * (2.0 + nu) * y**3
            - c1 * y
        )
        v = -3.0 * c0 * nu * x * y * y - c0 * x**3 + c1 * x + c3
        return u, v

    return field


def case_mesh(case: BenchmarkCase, size: tuple[int, int]) -> Mesh:
    """Lattice mesh for one discretization of the case.

    Cells must be square, and the bending supports (axis of the plate)
    require even cell counts in both directions; the cantilever samples
    its axis profile, requiring even ny.
    """
    nx, ny = size
    sx = case.length / nx
    sy = case.height / ny
    if not np.isclose(sx, sy, rtol=1e-12, atol=0.0):
        raise ValueError(f"mesh {nx}x{ny} gives non-square cells for this geometry")
    if case.kind == PURE_BENDING and (nx % 2 or ny % 2):
        raise ValueError("bending supports sit on the plate axis: nx and ny must be even")
    if case.kind == CANTILEVER and ny % 2:
        raise ValueError("axis profile sampling requires even ny")
    if case.kind in (PURE_BENDING, CANTILEVER):
        origin = (0.0, -case.half_height)
    else:
        origin = (0.0, 0.0)
    return lattice.build_mesh(LatticeSpec(nx=nx, ny=ny, cell_size=sx, origin=origin))


def case_constraints(case: BenchmarkCase, mesh: Mesh) -> Constraints:
    """Support conditions of the case on the given mesh."""
    nx, ny = mesh.spec.nx, mesh.spec.ny
    if case.kind == UNIAXIAL:
        pairs = fix_nodes(mesh.edge_nodes("bottom"), "y") + fix_nodes(
            mesh.edge_nodes("left"), "x"
        )
        # the shared corner appears once per direction; no duplicates
        return Constraints.from_pairs(pairs)
    if case.kind == PURE_SHEAR:
        return Constraints.from_pairs(fix_nodes(mesh.edge_nodes("bottom"), "xy"))
    if case.kind == PURE_BENDING:
        mid = ny // 2
        pairs = fix_nodes([mesh.node_index(0, mid), mesh.node_index(nx, mid)], "y")
        pairs += fix_nodes([mesh.node_index(nx // 2, mid)], "x")
        return Constraints.from_pairs(pairs)
    return Constraints.from_pairs(fix_nodes(mesh.edge_nodes("right"), "xy"))


def case_loads(case: BenchmarkCase) -> LoadSpec:
    """Boundary tractions of the case."""
    if case.kind == UNIAXIAL:
        return LoadSpec(
            edge_tractions=(EdgeTraction("right", lattice.UNIFORM, case.load, (1.0, 0.0)),)
        )
    if case.kind == PURE_SHEAR:
        tau = case.load
        return LoadSpec(
            edge_tractions=(
                EdgeTraction("right", lattice.UNIFORM, tau, (0.0, 1.0)),
                EdgeTraction("top", lattice.UNIFORM, tau, (1.0, 0.0)),
                EdgeTraction("left", lattice.UNIFORM, -tau, (0.0, 1.0)),
            )
        )
    if case.kind == PURE_BENDING:
        sigma0 = moment_to_linear_traction(
            case.load, case.half_height, case.material.thickness
        )
        # sign pairs with the analytical field: compression above the
        # axis on the right end, mirrored on the left end
        return LoadSpec(
            edge_tractions=(
                EdgeTraction("right", lattice.LINEAR, -sigma0, (1.0, 0.0)),
                EdgeTraction("left", lattice.LINEAR, sigma0, (1.0, 0.0)),
            )
        )
    traction = case.load / case.height  # F per unit thickness over 2b
    return LoadSpec(
        edge_tractions=(EdgeTraction("left", lattice.UNIFORM, traction, (0.0, -1.0)),)
    )


@dataclass(frozen=True)
class MeshError:
    """Accuracy record of one mesh within a case run.

    ``profile_errors`` holds the figure-style comparisons for the slender
    plates: "edge_u" is the u profile on the left edge, "axis_v" the
    deflection along the plate axis (clamped column excluded for the
    cantilever). ``failed`` marks solves that did not meet the residual
    tolerance; their error fields are NaN.
    """

    mesh_size: tuple[int, int]
    rel_l2: float
    max_abs: float
    profile_errors: dict[str, float]
    inertia: tuple[int, int, int] | None
    indefinite: bool
    failed: bool = False
    failure: str = ""


@dataclass(frozen=True)
class ErrorReport:
    """Per-mesh accuracy of one (case, model) run: its error-versus-mesh table."""

    kind: str
    model: str
    poisson_ratio: float
    mesh_errors: tuple[MeshError, ...]

    def errors(self, key: str | None = None) -> list[float]:
        """Error sequence over meshes; key selects a profile error."""
        if key is None:
            return [row.rel_l2 for row in self.mesh_errors]
        return [row.profile_errors.get(key, float("nan")) for row in self.mesh_errors]

    @property
    def strictly_decreasing(self) -> bool:
        """True when every tracked error strictly decreases over meshes."""
        keys: list[str | None] = [None]
        keys += sorted(self.mesh_errors[0].profile_errors) if self.mesh_errors else []
        for key in keys:
            seq = self.errors(key)
            if any(not np.isfinite(e) for e in seq):
                return False
            if any(b >= a for a, b in zip(seq, seq[1:])):
                return False
        return True


def _relative_l2(num: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.linalg.norm(ref))
    diff = float(np.linalg.norm(num - ref))
    if scale == 0.0:
        return diff
    return diff / scale


def _profile_errors(
    case: BenchmarkCase, mesh: Mesh, num: np.ndarray, ref: np.ndarray
) -> dict[str, float]:
    if case.kind not in (PURE_BENDING, CANTILEVER):
        return {}
    nx, ny = mesh.spec.nx, mesh.spec.ny
    left = mesh.edge_nodes("left")
    axis = np.array([mesh.node_index(ix, ny // 2) for ix in range(nx + 1)])
    if case.kind == CANTILEVER:
        axis = axis[:-1]  # clamp sits at x = a; the weak field is nonzero there
    return {
        "edge_u": _relative_l2(num[left, 0], ref[left, 0]),
        "axis_v": _relative_l2(num[axis, 1], ref[axis, 1]),
    }


def _mesh_error(
    case: BenchmarkCase,
    mesh: Mesh,
    solution: Solution | None,
    failure: SingularSystemError | None,
) -> MeshError:
    size = (mesh.spec.nx, mesh.spec.ny)
    if solution is None:
        return MeshError(
            mesh_size=size,
            rel_l2=float("nan"),
            max_abs=float("nan"),
            profile_errors={},
            inertia=failure.inertia,
            indefinite=bool(failure.inertia and failure.inertia[0] > 0),
            failed=True,
            failure=str(failure),
        )
    num = solution.displacements
    ua, va = analytical_field(case)(mesh.positions[:, 0], mesh.positions[:, 1])
    ref = np.column_stack([ua, va])
    return MeshError(
        mesh_size=size,
        rel_l2=_relative_l2(num, ref),
        max_abs=float(np.abs(num - ref).max()),
        profile_errors=_profile_errors(case, mesh, num, ref),
        inertia=solution.inertia,
        indefinite=solution.indefinite,
    )


@contextmanager
def _timed(timings: dict[str, float], stage: str) -> Iterator[None]:
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] += time.perf_counter() - start


@dataclass(frozen=True)
class Sweep:
    """Runs of one plate over its mesh ladder, one per (case, model).

    Attributes:
        meshes: the lattice of each mesh size, shared by every run.
        runs: per (case, model), in the order given, the per-mesh
            solutions (None where the solve failed) and the ErrorReport.
        timings: seconds spent in each of SWEEP_STAGES, summed over the
            sweep.
    """

    meshes: tuple[Mesh, ...]
    runs: tuple[tuple[list[Solution | None], ErrorReport], ...]
    timings: dict[str, float]


SWEEP_STAGES = ("mesh", "pattern", "values", "solve", "errors")


def _plate(case: BenchmarkCase) -> tuple:
    # everything the meshes, loads and supports depend on
    return (case.kind, case.length, case.height, case.load, case.material.thickness, case.mesh_sizes)


def sweep(runs: Sequence[tuple[BenchmarkCase, str]]) -> Sweep:
    """Solve several (case, model) pairs of one plate on its mesh ladder.

    The cases may differ only in Young's modulus, Poisson ratio and
    regime, which change the cell matrix and the reference field but not
    the lattice. Each mesh, its loads, supports and reduced stencil are
    therefore built once; each run then costs one fill of the stiffness
    values per mesh, a solve and the error evaluation.

    Solver failures (singular or irrecoverably ill-conditioned systems)
    are recorded per mesh rather than raised, since driving a model into
    its unstable regime is part of the protocol.
    """
    timings = dict.fromkeys(SWEEP_STAGES, 0.0)
    if not runs:
        return Sweep(meshes=(), runs=(), timings=timings)
    plate = runs[0][0]
    if any(_plate(case) != _plate(plate) for case, _ in runs):
        raise ValueError("swept cases must share kind, plate, load, thickness and meshes")
    with _timed(timings, "values"):
        tables = [
            lattice.stencil_values(cell_matrix(calibrate(case.material, model)))
            for case, model in runs
        ]
    meshes: list[Mesh] = []
    solutions: list[list[Solution | None]] = [[] for _ in runs]
    errors: list[list[MeshError]] = [[] for _ in runs]
    for size in plate.mesh_sizes:
        with _timed(timings, "mesh"):
            mesh = case_mesh(plate, size)
        with _timed(timings, "pattern"):
            forces = lattice.load_vector(mesh, case_loads(plate), plate.material.thickness)
            stencil = lattice.reduce_stencil(mesh, forces, case_constraints(plate, mesh))
        meshes.append(mesh)
        for i, ((case, _), table) in enumerate(zip(runs, tables)):
            with _timed(timings, "values"):
                reduced = stencil.fill(table)
            with _timed(timings, "solve"):
                try:
                    solution, failure = lattice.solve(reduced), None
                except SingularSystemError as exc:
                    solution, failure = None, exc
            with _timed(timings, "errors"):
                errors[i].append(_mesh_error(case, mesh, solution, failure))
            solutions[i].append(solution)
    reports = (
        ErrorReport(
            kind=case.kind,
            model=model,
            poisson_ratio=case.material.poisson_ratio,
            mesh_errors=tuple(rows),
        )
        for (case, model), rows in zip(runs, errors)
    )
    return Sweep(meshes=tuple(meshes), runs=tuple(zip(solutions, reports)), timings=timings)


def run_case(
    case: BenchmarkCase, model: str
) -> tuple[list[Solution | None], ErrorReport]:
    """Solve the case on every mesh and compare with the analytical field.

    A sweep of one run: solver failures are recorded per mesh rather than
    raised (see ``sweep``).

    Returns:
        Per-mesh solutions (None where the solve failed) and the
        ErrorReport.
    """
    return sweep([(case, model)]).runs[0]
