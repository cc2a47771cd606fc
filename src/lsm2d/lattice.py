"""Rectangular particle lattices: assembly, loads, constraints, solve.

A lattice of nx by ny square cells has (nx+1)(ny+1) particles on a regular
grid. Each particle carries two degrees of freedom, ordered particle-major
with x before y, so particle p owns DOFs 2p and 2p+1. Cells are tiled so
every interior edge bond is shared by exactly two cells; the half-weight
the cell matrix assigns to edge bonds then accumulates to the full bond
stiffness, while boundary edges keep their single half contribution.

Dirichlet data is imposed by eliminating constrained DOFs (rows and
columns removed, right-hand side corrected), never by penalties, so the
spectrum of the reduced matrix is the physical constrained spectrum. The
free DOFs come out in geometric nested-dissection order: one row or column
of particles separates the grid, so the order follows from nx and ny alone,
and the reduced matrix is factored as given, with no further ordering. The
solver reports the inertia (negative pivot count) of the reduced matrix
because intentionally indefinite systems are part of the workflow: they
factorize and solve, but the result must carry an instability flag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import SuperLU, splu

EDGES = ("left", "right", "bottom", "top")

UNIFORM = "uniform"
LINEAR = "linear"


class SingularSystemError(RuntimeError):
    """Reduced system could not be solved to the required residual.

    ``inertia`` is that of the failed factor; None if splu itself raised.
    """

    def __init__(self, message: str, inertia: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.inertia = inertia


@dataclass(frozen=True)
class LatticeSpec:
    """Size and placement of a rectangular lattice of square cells."""

    nx: int
    ny: int
    cell_size: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"nx and ny must be >= 1, got {self.nx}x{self.ny}")
        if not (np.isfinite(self.cell_size) and self.cell_size > 0.0):
            raise ValueError(f"cell_size must be positive and finite, got {self.cell_size}")
        if not np.all(np.isfinite(self.origin)):
            raise ValueError(f"origin must be finite, got {self.origin}")

    @property
    def particle_radius(self) -> float:
        return 0.5 * self.cell_size


@dataclass(frozen=True)
class Mesh:
    """Particle grid with cell connectivity.

    Attributes:
        spec: generating LatticeSpec.
        positions: (N, 2) particle coordinates in m.
        cells: (nx*ny, 4) particle indices per cell in corner order
            (lower left, lower right, upper right, upper left).
    """

    spec: LatticeSpec
    positions: np.ndarray
    cells: np.ndarray

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_particles

    def node_index(self, ix: int, iy: int) -> int:
        nx = self.spec.nx
        if not (0 <= ix <= nx and 0 <= iy <= self.spec.ny):
            raise IndexError(f"grid index ({ix}, {iy}) outside lattice")
        return iy * (nx + 1) + ix

    def edge_nodes(self, edge: str) -> np.ndarray:
        """Particle indices along one boundary edge, ordered along it."""
        nx, ny = self.spec.nx, self.spec.ny
        if edge == "left":
            return np.arange(ny + 1) * (nx + 1)
        if edge == "right":
            return np.arange(ny + 1) * (nx + 1) + nx
        if edge == "bottom":
            return np.arange(nx + 1)
        if edge == "top":
            return np.arange(nx + 1) + ny * (nx + 1)
        raise ValueError(f"edge must be one of {EDGES}, got {edge!r}")


@dataclass(frozen=True)
class EdgeTraction:
    """Traction on one boundary edge.

    ``magnitude`` is in Pa. A uniform profile applies it everywhere; a
    linear profile varies antisymmetrically about the edge midline,
    reaching +magnitude at the positive end. ``direction`` is the traction
    direction in the global frame.
    """

    edge: str
    profile: str
    magnitude: float
    direction: tuple[float, float]

    def __post_init__(self) -> None:
        if self.edge not in EDGES:
            raise ValueError(f"edge must be one of {EDGES}, got {self.edge!r}")
        if self.profile not in (UNIFORM, LINEAR):
            raise ValueError(f"profile must be uniform or linear, got {self.profile!r}")
        if not np.isfinite(self.magnitude):
            raise ValueError("traction magnitude must be finite")
        if len(self.direction) != 2 or not np.all(np.isfinite(self.direction)):
            raise ValueError(f"direction must be two finite values, got {self.direction}")


@dataclass(frozen=True)
class LoadSpec:
    """Point forces (N) and edge tractions (Pa) applied to a lattice."""

    point_forces: tuple[tuple[int, tuple[float, float]], ...] = ()
    edge_tractions: tuple[EdgeTraction, ...] = ()

    def __post_init__(self) -> None:
        for node, force in self.point_forces:
            if len(force) != 2 or not np.all(np.isfinite(force)):
                raise ValueError(f"point force on node {node} must be two finite values")


@dataclass(frozen=True)
class Constraints:
    """Prescribed DOF values (Dirichlet data), one entry per DOF."""

    dofs: np.ndarray
    values: np.ndarray

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, float]]) -> "Constraints":
        pairs = list(pairs)
        dofs = np.array([p[0] for p in pairs], dtype=int)
        values = np.array([p[1] for p in pairs], dtype=float)
        if len(np.unique(dofs)) != len(dofs):
            raise ValueError("duplicate DOF in constraint set")
        return Constraints(dofs=dofs, values=values)


def fix_nodes(nodes: Sequence[int], directions: str, value: float = 0.0) -> list[tuple[int, float]]:
    """Constraint pairs pinning the given particles.

    Args:
        nodes: particle indices.
        directions: "x", "y", or "xy".
        value: prescribed displacement in m.
    """
    if directions not in ("x", "y", "xy"):
        raise ValueError(f"directions must be x, y or xy, got {directions!r}")
    pairs = []
    for node in nodes:
        if "x" in directions:
            pairs.append((2 * int(node), value))
        if "y" in directions:
            pairs.append((2 * int(node) + 1, value))
    return pairs


@dataclass(frozen=True)
class GlobalSystem:
    """Assembled sparse stiffness matrix with its force vector.

    ``order`` is the elimination order of all DOFs; constraint elimination
    keeps the free ones in it, and the factorization uses it as given.
    """

    stiffness: scipy.sparse.csr_matrix
    forces: np.ndarray
    order: np.ndarray


@dataclass(frozen=True)
class ReducedSystem:
    """Global system after constraint elimination.

    ``free`` maps reduced indices back to global DOFs; ``fixed`` and
    ``fixed_values`` keep the eliminated data for re-insertion.
    """

    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    free: np.ndarray
    fixed: np.ndarray
    fixed_values: np.ndarray
    n_dofs: int


@dataclass(frozen=True)
class Solution:
    """Displacement field with solver diagnostics.

    Attributes:
        u: full DOF vector in m, prescribed values re-inserted.
        residual: ||K u - rhs|| of the reduced solve, in N.
        inertia: (negative, zero, positive) pivot counts of the reduced
            matrix, or None when not computed or when the factor pivoted
            off the diagonal.
        indefinite: True when the reduced matrix has negative pivots.
        factor_nnz: stored entries of the factor, nnz(L+U); its fill-in.
    """

    u: np.ndarray
    residual: float
    inertia: tuple[int, int, int] | None
    indefinite: bool
    factor_nnz: int

    @property
    def displacements(self) -> np.ndarray:
        """(N, 2) per-particle displacement view."""
        return self.u.reshape(-1, 2)


def build_mesh(spec: LatticeSpec) -> Mesh:
    """Generate the particle grid and cell connectivity for a spec."""
    nx, ny = spec.nx, spec.ny
    l = spec.cell_size
    ox, oy = spec.origin
    xs = ox + l * np.arange(nx + 1)
    ys = oy + l * np.arange(ny + 1)
    gx, gy = np.meshgrid(xs, ys)  # row-major: iy varies slowest
    positions = np.column_stack([gx.ravel(), gy.ravel()])
    # lower-left particle of each cell, cells numbered row by row
    a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    cells = np.column_stack([a, a + 1, a + nx + 2, a + nx + 1])
    return Mesh(spec=spec, positions=positions, cells=cells)


def _dissect(grid: np.ndarray, blocks: list[np.ndarray]) -> None:
    # module level on purpose: a recursive closure is a reference cycle,
    # which keeps its blocks alive until the cyclic collector runs
    rows, cols = grid.shape
    if max(rows, cols) < 3:
        blocks.append(grid.ravel())
    elif cols >= rows:
        _dissect(grid[:, : cols // 2], blocks)
        _dissect(grid[:, cols // 2 + 1 :], blocks)
        blocks.append(grid[:, cols // 2])
    else:
        _dissect(grid[: rows // 2], blocks)
        _dissect(grid[rows // 2 + 1 :], blocks)
        blocks.append(grid[rows // 2])


def _nested_dissection(nx: int, ny: int) -> np.ndarray:
    """DOF order of an (nx+1) x (ny+1) particle grid by nested dissection.

    Every bond joins adjacent particle rows or columns, so one full row or
    column of particles separates the grid. Each block is split at the
    middle line of its longer side; the two halves are numbered first and
    the separator last, down to blocks whose sides hold fewer than 3
    particles. A particle's x and y DOFs stay adjacent.
    """
    blocks: list[np.ndarray] = []
    _dissect(np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1), blocks)
    particles = np.concatenate(blocks)
    return np.column_stack([2 * particles, 2 * particles + 1]).ravel()


def assemble(mesh: Mesh, cell_matrix: np.ndarray) -> GlobalSystem:
    """Scatter one 8x8 cell matrix into the global sparse matrix.

    Every cell of a uniform lattice shares the same matrix, so the data
    array is a tile; duplicate entries are summed on conversion, which
    restores full stiffness on shared edge bonds. The system carries the
    grid's nested-dissection order for the factorization.
    """
    cell_matrix = np.asarray(cell_matrix, dtype=float)
    if cell_matrix.shape != (8, 8):
        raise ValueError(f"cell matrix must be 8x8, got {cell_matrix.shape}")
    n_cells = mesh.cells.shape[0]
    dofs = np.empty((n_cells, 8), dtype=int)
    dofs[:, 0::2] = 2 * mesh.cells
    dofs[:, 1::2] = 2 * mesh.cells + 1
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    data = np.tile(cell_matrix.ravel(), n_cells)
    stiffness = scipy.sparse.coo_matrix(
        (data, (rows, cols)), shape=(mesh.n_dofs, mesh.n_dofs)
    ).tocsr()
    return GlobalSystem(
        stiffness=stiffness,
        forces=np.zeros(mesh.n_dofs),
        order=_nested_dissection(mesh.spec.nx, mesh.spec.ny),
    )


def _traction_profile(traction: EdgeTraction, coords: np.ndarray) -> np.ndarray:
    if traction.profile == UNIFORM:
        return np.full(coords.shape, traction.magnitude)
    half = 0.5 * (coords[-1] - coords[0])
    mid = 0.5 * (coords[-1] + coords[0])
    return traction.magnitude * (coords - mid) / half


def apply_loads(
    system: GlobalSystem, mesh: Mesh, loads: LoadSpec, thickness: float
) -> GlobalSystem:
    """Add lumped nodal forces for the given loads.

    Edge tractions are lumped by the trapezoidal rule: a node spanning two
    edge segments receives sigma * t * l, an end node sigma * t * l / 2,
    each evaluated at the nodal traction value. This consistent lumping is
    what makes affine analytical fields exactly representable.

    Args:
        system: assembled system; not mutated.
        mesh: lattice the loads refer to.
        loads: point forces and edge tractions.
        thickness: plate thickness t in m.

    Returns:
        New GlobalSystem sharing the stiffness and order, with updated
        forces.
    """
    if not (np.isfinite(thickness) and thickness > 0.0):
        raise ValueError(f"thickness must be positive and finite, got {thickness}")
    for node, _ in loads.point_forces:
        if not 0 <= node < mesh.n_particles:
            raise ValueError(f"point force on node {node} outside the lattice")
    forces = system.forces.copy()
    l = mesh.spec.cell_size
    for traction in loads.edge_tractions:
        nodes = mesh.edge_nodes(traction.edge)
        axis = 1 if traction.edge in ("left", "right") else 0
        coords = mesh.positions[nodes, axis]
        values = _traction_profile(traction, coords)
        weights = np.full(nodes.shape, l * thickness)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        direction = np.asarray(traction.direction, dtype=float)
        forces[2 * nodes] += weights * values * direction[0]
        forces[2 * nodes + 1] += weights * values * direction[1]
    for node, (fx, fy) in loads.point_forces:
        forces[2 * node] += fx
        forces[2 * node + 1] += fy
    return replace(system, forces=forces)


def apply_constraints(system: GlobalSystem, constraints: Constraints) -> ReducedSystem:
    """Eliminate constrained DOFs from the system.

    Rows and columns of constrained DOFs are removed; inhomogeneous
    values are moved to the right-hand side. The free DOFs keep the
    system's order, so the reduced matrix comes out already permuted for
    the factorization.
    """
    n = system.forces.shape[0]
    fixed = constraints.dofs
    if fixed.size and (fixed.min() < 0 or fixed.max() >= n):
        raise ValueError("constraint references a DOF outside the system")
    free = system.order[~np.isin(system.order, fixed)]
    rows = system.stiffness.tocsr()[free]
    matrix = rows[:, free].tocsr()
    rhs = system.forces[free]
    if fixed.size and np.any(constraints.values != 0.0):
        rhs = rhs - rows[:, fixed] @ constraints.values
    return ReducedSystem(
        matrix=matrix,
        rhs=rhs,
        free=free,
        fixed=fixed,
        fixed_values=constraints.values,
        n_dofs=n,
    )


def _pivot_inertia(factor: SuperLU) -> tuple[int, int, int] | None:
    # Sylvester's law: with one symmetric permutation, P A P^T = L D L^T
    # and the diagonal of U is D; any row interchange voids that
    if not np.array_equal(factor.perm_r, factor.perm_c):
        return None
    pivots = factor.U.diagonal()
    cutoff = 1e-12 * np.abs(pivots).max() if pivots.size else 0.0
    neg = int(np.sum(pivots < -cutoff))
    pos = int(np.sum(pivots > cutoff))
    return neg, pivots.size - neg - pos, pos


def solve(reduced: ReducedSystem, compute_inertia: bool = True) -> Solution:
    """Direct solve of the reduced system.

    One factorization, with diagonal pivots so that its pivot signs are the
    inertia. The matrix is factored in the order it comes in: a lattice's
    reduced DOFs are already in nested-dissection order (see ``assemble``).

    Args:
        reduced: system after constraint elimination.
        compute_inertia: also count the pivot signs; skip to avoid
            copying the factor when stability is known.

    Returns:
        Solution with the full displacement vector (prescribed DOFs
        re-inserted) and an indefiniteness flag.

    Raises:
        SingularSystemError: zero pivot during factorization, non-finite
            solution, or residual above 1e-10 times the load norm.
    """
    rhs_norm = float(np.linalg.norm(reduced.rhs))
    try:
        factor = splu(
            reduced.matrix.tocsc(),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # singular factorization
        raise SingularSystemError(f"stiffness matrix is singular: {exc}") from exc
    inertia = _pivot_inertia(factor) if compute_inertia else None
    u_free = factor.solve(reduced.rhs)
    if not np.all(np.isfinite(u_free)):
        raise SingularSystemError("stiffness matrix is singular: non-finite solution", inertia)
    residual = float(np.linalg.norm(reduced.matrix @ u_free - reduced.rhs))
    if residual > 1e-10 * rhs_norm:
        # one step of iterative refinement rescues marginal conditioning
        u_free = u_free + factor.solve(reduced.rhs - reduced.matrix @ u_free)
        residual = float(np.linalg.norm(reduced.matrix @ u_free - reduced.rhs))
        if residual > 1e-10 * rhs_norm:
            raise SingularSystemError(
                f"solve failed: residual {residual:.3e} exceeds tolerance "
                f"{1e-10 * rhs_norm:.3e} (near-singular or severely indefinite)",
                inertia,
            )
    u = np.zeros(reduced.n_dofs)
    u[reduced.free] = u_free
    if reduced.fixed.size:
        u[reduced.fixed] = reduced.fixed_values
    return Solution(
        u=u,
        residual=residual,
        inertia=inertia,
        indefinite=bool(inertia and inertia[0] > 0),
        factor_nnz=int(factor.nnz),
    )


def constrained_spectrum(reduced: ReducedSystem) -> np.ndarray:
    """Ascending eigenvalues of the reduced stiffness matrix."""
    return np.linalg.eigvalsh(reduced.matrix.toarray())
