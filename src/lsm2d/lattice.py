"""Rectangular particle lattices: assembly, loads, constraints, solve.

A lattice of nx by ny square cells has (nx+1)(ny+1) particles on a regular
grid. Each particle carries two degrees of freedom, ordered particle-major
with x before y, so particle p owns DOFs 2p and 2p+1. Cells are tiled so
every interior edge bond is shared by exactly two cells; the half-weight
the cell matrix assigns to edge bonds then accumulates to the full bond
stiffness, while boundary edges keep their single half contribution.

Every cell shares one 8x8 matrix, so every stiffness entry is a sum of
cell-matrix entries that the grid alone selects. A stencil, built in
closed form from nx and ny, holds the CSR pattern and, per stored entry,
its slot in a small value table that one cell matrix fills; assembly is a
single gather, with no COO triplets and no duplicate summing. Constraint
elimination works on the stencil too, so a sweep over materials and bond
models builds each mesh's reduced pattern once and only refills its values.

Dirichlet data is imposed by eliminating constrained DOFs (rows and
columns removed, right-hand side corrected), never by penalties, so the
spectrum of the reduced matrix is the physical constrained spectrum. The
free DOFs come out in geometric nested-dissection order: one row or column
of particles separates the grid, so the order follows from nx and ny alone,
and the reduced matrix is factored as given, with no further ordering. The
solver reports the inertia (negative pivot count) of the reduced matrix
because intentionally indefinite systems are part of the workflow: they
factorize and solve, but the result must carry an instability flag. A solve
without the inertia factors only the half-height blocks that the load
excites of a plate mirror-symmetric about its axis, supports included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

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
    ``mirror`` maps each DOF to its mirror image, if any (see ``assemble``).
    """

    stiffness: scipy.sparse.csr_matrix
    forces: np.ndarray
    order: np.ndarray
    mirror: np.ndarray | None = None


@dataclass(frozen=True)
class ReducedSystem:
    """Global system after constraint elimination.

    ``free`` maps reduced indices back to global DOFs, and ``mirror`` to
    those of their images if the supports are zero and mirror-symmetric
    too; ``fixed`` and ``fixed_values`` keep the eliminated data.
    """

    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    free: np.ndarray
    fixed: np.ndarray
    fixed_values: np.ndarray
    n_dofs: int
    mirror: np.ndarray | None = None


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
        factor_nnz: nnz(L+U) summed over the factors computed; their fill-in.
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


# corners of a cell in corner order, as (dx, dy) from its lower-left particle
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


@dataclass(frozen=True)
class Stencil:
    """Sparsity pattern of a matrix whose entries come from a value table.

    Stored entry k of the CSR matrix with this ``indptr`` and ``indices``
    holds ``values[slots[k]]``; ``fill`` builds that matrix for one table.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray
    shape: tuple[int, int]

    def fill(self, values: np.ndarray) -> scipy.sparse.csr_matrix:
        # the index arrays are copied so that no matrix shares them with the
        # stencil, which may fill many
        return scipy.sparse.csr_matrix(
            (values[self.slots], self.indices.copy(), self.indptr.copy()), shape=self.shape
        )

    def restrict(self, dofs: np.ndarray) -> "Stencil":
        """The block of rows and columns ``dofs``, renumbered in that order.

        scipy's fancy indexing carries the slots as the matrix data, so the
        block keeps the entry order that ``A[dofs][:, dofs]`` gives ``A``.
        """
        pattern = scipy.sparse.csr_matrix((self.slots, self.indices, self.indptr), shape=self.shape)
        block = pattern[dofs][:, dofs]
        return Stencil(block.indptr, block.indices, block.data, block.shape)


def _lattice_stencil(nx: int, ny: int) -> Stencil:
    """Stiffness pattern of an nx x ny lattice, in closed form.

    Row 2p + a couples particle p, component a, to both components of
    every particle within one step of it in x and y, in increasing order:
    per neighbouring particle row dy, one run of consecutive columns. An
    entry's value depends only on which cell corners p is (its role mask,
    bit I set when p is corner I of a cell), on dy, a, the column offset
    dx and the component b, so ``slots`` numbers these 16 x 3 x 2 x 3 x 2
    combinations, which ``stencil_values`` fills from a cell matrix. Along
    a run both the column and the slot step by one.
    """
    n_particles = (nx + 1) * (ny + 1)
    ix = np.tile(np.arange(nx + 1), ny + 1)
    iy = np.repeat(np.arange(ny + 1), nx + 1)
    mask = np.zeros(n_particles, dtype=np.int64)
    for role, (cx, cy) in enumerate(_CORNERS):
        # p is corner `role` of the cell whose lower-left particle is p - corner
        has_cell = (ix - cx >= 0) & (ix - cx < nx) & (iy - cy >= 0) & (iy - cy < ny)
        mask |= has_cell.astype(np.int64) << role
    dy = np.arange(-1, 2)
    qy = iy[:, None] + dy  # (particles, 3)
    first = np.maximum(ix - 1, 0)  # leftmost neighbour
    width = np.minimum(ix + 1, nx) - first + 1
    run = np.where((qy >= 0) & (qy <= ny), 2 * width[:, None], 0)
    col0 = 2 * (qy * (nx + 1) + first[:, None])
    slot0 = mask[:, None] * 36 + 12 * (dy + 1) + 2 * (first - ix + 1)[:, None]
    # runs indexed (p, a, dy): rows 2p and 2p + 1 share their columns
    shape = (n_particles, 2, 3)
    index_dtype = np.int32 if 36 * n_particles < 2**31 else np.int64
    lengths = np.broadcast_to(run[:, None, :], shape).ravel()
    col0 = np.broadcast_to(col0[:, None, :], shape).ravel().astype(index_dtype)
    slot0 = (slot0[:, None, :] + 6 * np.arange(2)[:, None]).ravel().astype(index_dtype)
    ends = np.cumsum(lengths)
    within = np.arange(ends[-1], dtype=index_dtype)
    within -= np.repeat((ends - lengths).astype(index_dtype), lengths)
    return Stencil(
        indptr=np.concatenate([[0], ends[2::3]]).astype(index_dtype),
        indices=np.repeat(col0, lengths) + within,
        slots=(np.repeat(slot0, lengths) + within).astype(np.uint16),
        shape=(2 * n_particles, 2 * n_particles),
    )


def stencil_values(cell_matrix: np.ndarray) -> np.ndarray:
    """Value table of a lattice stencil for one 8x8 cell matrix.

    Slot (mask, dy, a, dx, b) sums the (a, b) entry of the cell-matrix
    block of every corner pair (I, J) with I in the mask and J at offset
    (dx, dy) from I: the contribution of each cell around the particle.
    The table starts at -0.0, the additive identity, so a single
    contribution keeps its sign of zero.
    """
    cell_matrix = np.asarray(cell_matrix, dtype=float)
    if cell_matrix.shape != (8, 8):
        raise ValueError(f"cell matrix must be 8x8, got {cell_matrix.shape}")
    blocks = cell_matrix.reshape(4, 2, 4, 2)  # [I, a, J, b]
    values = np.full((16, 3, 2, 3, 2), -0.0)
    masks = np.arange(16)
    for role, (ax, ay) in enumerate(_CORNERS):
        with_role = masks[(masks >> role) & 1 == 1]
        for corner, (bx, by) in enumerate(_CORNERS):
            values[with_role, by - ay + 1, :, bx - ax + 1, :] += blocks[role, :, corner, :]
    return values.ravel()


def _grid_mirror(nx: int, ny: int) -> np.ndarray | None:
    """DOF map of the particle mirror (ix, iy) -> (ix, ny - iy); None for odd ny."""
    particles = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)[::-1].ravel()
    return None if ny % 2 else np.column_stack([2 * particles, 2 * particles + 1]).ravel()


def _mirror_symmetric(values: np.ndarray) -> bool:
    # a table's mirror image swaps lower and upper corner roles (mask bits
    # 0 <-> 3 and 1 <-> 2), flips dy and changes the sign of v components
    swapped = [int(f"{mask:04b}"[::-1], 2) for mask in range(16)]
    table, sign = values.reshape(16, 3, 2, 3, 2), np.array([1.0, -1.0])
    return np.array_equal(table[swapped][:, ::-1] * sign[:, None, None] * sign, table)


def assemble(mesh: Mesh, cell_matrix: np.ndarray) -> GlobalSystem:
    """Global sparse stiffness matrix of a lattice with one cell matrix.

    Every cell of a uniform lattice shares the same matrix, so each entry
    is a sum of cell-matrix entries fixed by the grid alone: the stencil
    gives the CSR pattern and, per entry, its slot in the value table, and
    one gather fills it. Interior edge bonds thereby receive both cells'
    half weights. The rows hold sorted, unique column indices, as a
    COO-to-CSR conversion would give. The system carries the grid's
    nested-dissection order for the factorization, and its mirror
    (ix, iy) -> (ix, ny - iy) if ny is even and the cell matrix allows it.
    """
    values = stencil_values(cell_matrix)
    nx, ny = mesh.spec.nx, mesh.spec.ny
    return GlobalSystem(
        stiffness=_lattice_stencil(nx, ny).fill(values),
        forces=np.zeros(mesh.n_dofs),
        order=_nested_dissection(nx, ny),
        mirror=_grid_mirror(nx, ny) if _mirror_symmetric(values) else None,
    )


def _traction_profile(traction: EdgeTraction, coords: np.ndarray) -> np.ndarray:
    if traction.profile == UNIFORM:
        return np.full(coords.shape, traction.magnitude)
    half = 0.5 * (coords[-1] - coords[0])
    mid = 0.5 * (coords[-1] + coords[0])
    return traction.magnitude * (coords - mid) / half


def load_vector(mesh: Mesh, loads: LoadSpec, thickness: float) -> np.ndarray:
    """Lumped nodal forces of the given loads, in N.

    Edge tractions are lumped by the trapezoidal rule: a node spanning two
    edge segments receives sigma * t * l, an end node sigma * t * l / 2,
    each evaluated at the nodal traction value. This consistent lumping is
    what makes affine analytical fields exactly representable.

    Args:
        mesh: lattice the loads refer to.
        loads: point forces and edge tractions.
        thickness: plate thickness t in m.
    """
    if not (np.isfinite(thickness) and thickness > 0.0):
        raise ValueError(f"thickness must be positive and finite, got {thickness}")
    for node, _ in loads.point_forces:
        if not 0 <= node < mesh.n_particles:
            raise ValueError(f"point force on node {node} outside the lattice")
    forces = np.zeros(mesh.n_dofs)
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
    return forces


def apply_loads(
    system: GlobalSystem, mesh: Mesh, loads: LoadSpec, thickness: float
) -> GlobalSystem:
    """Add the lumped nodal forces of the given loads (see ``load_vector``).

    Args:
        system: assembled system; not mutated.
        mesh: lattice the loads refer to.
        loads: point forces and edge tractions.
        thickness: plate thickness t in m.

    Returns:
        New GlobalSystem sharing the stiffness and order, with updated
        forces.
    """
    return replace(system, forces=system.forces + load_vector(mesh, loads, thickness))


def _free_dofs(order: np.ndarray, constraints: Constraints, n: int) -> np.ndarray:
    fixed = constraints.dofs
    if fixed.size and (fixed.min() < 0 or fixed.max() >= n):
        raise ValueError("constraint references a DOF outside the system")
    return order[~np.isin(order, fixed)]


def _reduced_mirror(mirror, free: np.ndarray, constraints: Constraints) -> np.ndarray | None:
    fixed = constraints.dofs
    if mirror is None or np.any(constraints.values) or not np.isin(mirror[fixed], fixed).all():
        return None
    position = np.empty(mirror.size, dtype=np.intp)
    position[free] = np.arange(free.size)
    return position[mirror[free]]


def apply_constraints(system: GlobalSystem, constraints: Constraints) -> ReducedSystem:
    """Eliminate constrained DOFs from the system.

    Rows and columns of constrained DOFs are removed; inhomogeneous
    values are moved to the right-hand side. The free DOFs keep the
    system's order, so the reduced matrix comes out already permuted for
    the factorization.
    """
    n = system.forces.shape[0]
    free = _free_dofs(system.order, constraints, n)
    rows = system.stiffness.tocsr()[free]
    matrix = rows[:, free].tocsr()
    rhs = system.forces[free]
    if constraints.dofs.size and np.any(constraints.values != 0.0):
        rhs = rhs - rows[:, constraints.dofs] @ constraints.values
    return ReducedSystem(
        matrix=matrix,
        rhs=rhs,
        free=free,
        fixed=constraints.dofs,
        fixed_values=constraints.values,
        n_dofs=n,
        mirror=_reduced_mirror(system.mirror, free, constraints),
    )


@dataclass(frozen=True)
class ReducedStencil:
    """A lattice's reduced system under homogeneous supports, without values.

    ``fill`` gives the ReducedSystem of one value table (see
    ``stencil_values``); every field but the matrix is shared.
    """

    matrix: Stencil
    rhs: np.ndarray
    free: np.ndarray
    fixed: np.ndarray
    fixed_values: np.ndarray
    n_dofs: int
    mirror: np.ndarray | None = None

    def fill(self, values: np.ndarray) -> ReducedSystem:
        return ReducedSystem(
            matrix=self.matrix.fill(values),
            rhs=self.rhs,
            free=self.free,
            fixed=self.fixed,
            fixed_values=self.fixed_values,
            n_dofs=self.n_dofs,
            mirror=self.mirror if _mirror_symmetric(values) else None,
        )


def reduce_stencil(mesh: Mesh, forces: np.ndarray, constraints: Constraints) -> ReducedStencil:
    """Constrained lattice system for any cell matrix, built once per mesh.

    ``reduce_stencil(mesh, forces, constraints).fill(stencil_values(cell))``
    equals ``apply_constraints`` of the assembled system with these forces,
    entry for entry, so a sweep over cell matrices pays for the pattern,
    the elimination and the nested-dissection order once. Prescribed
    displacements must be zero: nonzero ones would move stiffness values
    to the right-hand side, so they take ``apply_constraints``.
    """
    if forces.shape != (mesh.n_dofs,):
        raise ValueError(f"forces must have shape ({mesh.n_dofs},), got {forces.shape}")
    if np.any(constraints.values != 0.0):
        raise ValueError("reduce_stencil takes zero prescribed displacements only")
    nx, ny = mesh.spec.nx, mesh.spec.ny
    free = _free_dofs(_nested_dissection(nx, ny), constraints, mesh.n_dofs)
    return ReducedStencil(
        matrix=_lattice_stencil(nx, ny).restrict(free),
        rhs=forces[free],
        free=free,
        fixed=constraints.dofs,
        fixed_values=constraints.values,
        n_dofs=mesh.n_dofs,
        mirror=_reduced_mirror(_grid_mirror(nx, ny), free, constraints),
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


def _factor(matrix: scipy.sparse.spmatrix) -> SuperLU:
    try:
        return splu(
            matrix.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
        )
    except RuntimeError as exc:  # singular factorization
        raise SingularSystemError(f"stiffness matrix is singular: {exc}") from exc


def _mirror_solver(reduced: ReducedSystem) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """Solver through the mirror blocks that the right-hand side excites.

    A field of parity s = +-1 has u[m(i)] = s sigma_i u[i], sigma = -1 on y
    DOFs, so only x (s = 1) or y (s = -1) moves on the axis. Each cell lies
    in one half of the plate: the block is K on the lower and moving axis
    DOFs, axis-axis entries halved. A zero load factors both blocks, so
    that a singular matrix can still raise.
    """
    mirror, free = reduced.mirror, reduced.free
    axis = mirror == np.arange(mirror.size)
    blocks = []
    for s in (1.0, -1.0):
        parity = np.where(free % 2, -s, s)
        rows = np.flatnonzero((free[mirror] > free) | axis & (parity > 0))
        # zero on the axis, where the fold halves the load and the unfold adds nothing
        sign = np.where(axis, 0.0, parity)[rows]
        if not np.any(reduced.rhs) or np.any(reduced.rhs[rows] + sign * reduced.rhs[mirror[rows]]):
            block, on_axis = reduced.matrix[rows][:, rows], axis[rows]
            block.data[np.repeat(on_axis, np.diff(block.indptr)) & on_axis[block.indices]] *= 0.5
            blocks.append((rows, mirror[rows], sign, _factor(block)))

    def apply(rhs: np.ndarray) -> np.ndarray:
        u = np.zeros_like(rhs)
        for rows, image, sign, factor in blocks:
            y = factor.solve(0.5 * (rhs[rows] + sign * rhs[image]))
            u[rows] += y
            u[image] += sign * y
        return u

    return apply, sum(int(factor.nnz) for *_, factor in blocks)


def solve(reduced: ReducedSystem, compute_inertia: bool = True) -> Solution:
    """Direct solve of the reduced system.

    One factorization, with diagonal pivots so that its pivot signs are the
    inertia. The matrix is factored in the order it comes in: a lattice's
    reduced DOFs are already in nested-dissection order (see ``assemble``).
    Without the inertia, a system with a mirror factors instead only the
    half-height blocks its load excites: one, at under half the fill, for
    the odd loads of the bending and cantilever plates.

    Args:
        reduced: system after constraint elimination.
        compute_inertia: also count the pivot signs; skip when stability
            is known. A singular block the load does not excite then passes.

    Returns:
        Solution with the full displacement vector (prescribed DOFs
        re-inserted) and an indefiniteness flag.

    Raises:
        SingularSystemError: zero pivot during factorization, non-finite
            solution, or residual above 1e-10 times the load norm.
    """
    rhs_norm = float(np.linalg.norm(reduced.rhs))
    if compute_inertia or reduced.mirror is None:
        factor = _factor(reduced.matrix)
        apply, factor_nnz = factor.solve, int(factor.nnz)
        inertia = _pivot_inertia(factor) if compute_inertia else None
    else:
        (apply, factor_nnz), inertia = _mirror_solver(reduced), None
    u_free = apply(reduced.rhs)
    if not np.all(np.isfinite(u_free)):
        raise SingularSystemError("stiffness matrix is singular: non-finite solution", inertia)
    residual = float(np.linalg.norm(reduced.matrix @ u_free - reduced.rhs))
    if residual > 1e-10 * rhs_norm:
        # one step of iterative refinement rescues marginal conditioning
        u_free = u_free + apply(reduced.rhs - reduced.matrix @ u_free)
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
        factor_nnz=factor_nnz,
    )
