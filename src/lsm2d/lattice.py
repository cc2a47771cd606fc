"""Rectangular particle lattices: assembly, loads, constraints, solve.

A lattice of nx by ny square cells has (nx+1)(ny+1) particles on a regular
grid. Each particle carries two degrees of freedom, ordered particle-major
with x before y, so particle p owns DOFs 2p and 2p+1. Cells are tiled so
every interior edge bond is shared by exactly two cells; the half-weight
the cell matrix assigns to edge bonds then accumulates to the full bond
stiffness, while boundary edges keep their single half contribution.

Every cell shares one 8x8 matrix, so every stiffness entry is a sum of
cell-matrix entries that the grid alone selects. A slot pattern, built in
closed form from nx and ny, is a CSR matrix whose data give each stored
entry's slot in a small value table that one cell matrix fills; assembly is
a single gather, with no COO triplets and no duplicate summing.

Dirichlet data is imposed by eliminating constrained DOFs (rows and
columns removed, right-hand side corrected), never by penalties, so the
spectrum of the reduced matrix is the physical constrained spectrum. One
elimination does this, for any supports, and it runs on the slot pattern
(``reduce_stencil``): each value table then fills only the reduced matrix
and moves nonzero prescribed displacements to the right-hand side, so a
sweep over materials and bond models eliminates once per mesh, and no
solve gathers the global matrix. The free DOFs come out in geometric
nested-dissection order: one row or column of particles separates the
grid, so the order follows from nx and ny alone, and the reduced matrix
is factored as given, with no further ordering. The solver reports the
inertia (negative pivot count) of the reduced matrix because intentionally
indefinite systems are part of the workflow: they factorize and solve, but
the result must carry an instability flag. A plate mirror-symmetric about
its axis, supports included, splits into two half-height blocks. Each is a
half-plate, so in the order of its lines of particles across the shorter
side it is a narrow band, factored by LAPACK's band Cholesky: both blocks
for the inertia or a zero load, else only the blocks the load excites. A
system without a mirror, or with a block that is not positive definite, is
factored whole by the sparse LU as given. One rule reads the pivots of
whichever factorization ran: a zero among them raises, and their signs are
the inertia.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import SuperLU, splu

from .cell import _POSITIONS

EDGES = ("left", "right", "bottom", "top")

UNIFORM = "uniform"
LINEAR = "linear"


def _is_integer(value) -> bool:
    """True for Python and numpy integers; bools, floats and strings are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class SingularSystemError(RuntimeError):
    """Reduced system is singular or could not be solved to the required residual.

    A zero pivot, of the band factors or of the sparse LU, raises it (see
    ``solve``). ``inertia`` is read from the failed factorization's pivots;
    None if not requested, if the LU interchanged rows or if splu raised.
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
        if not (_is_integer(self.nx) and _is_integer(self.ny)):
            raise ValueError(f"nx and ny must be integers, got {self.nx!r} and {self.ny!r}")
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
            if not _is_integer(node):
                raise ValueError(f"point force node must be an integer, got {node!r}")
            if len(force) != 2 or not np.all(np.isfinite(force)):
                raise ValueError(f"point force on node {node} must be two finite values")


@dataclass(frozen=True)
class Constraints:
    """Prescribed DOF values (Dirichlet data), one entry per DOF.

    ``dofs`` is a 1-D integer array without repeats and ``values`` a finite
    array of the same shape.
    """

    dofs: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        dofs, values = np.asarray(self.dofs), np.asarray(self.values)
        if dofs.ndim != 1 or not np.issubdtype(dofs.dtype, np.integer):
            raise ValueError(f"constraint DOFs must be 1-D integers, got {dofs.dtype} {dofs.shape}")
        if values.shape != dofs.shape:
            raise ValueError(f"constraint values must have shape {dofs.shape}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("constraint values must be finite")
        if np.unique(dofs).size != dofs.size:
            raise ValueError("duplicate DOF in constraint set")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, float]]) -> "Constraints":
        pairs = list(pairs)
        for dof, _ in pairs:
            if not _is_integer(dof):
                raise ValueError(f"constraint DOF must be an integer, got {dof!r}")
        dofs = np.array([p[0] for p in pairs], dtype=int)
        values = np.array([p[1] for p in pairs], dtype=float)
        return Constraints(dofs=dofs, values=values)


def fix_nodes(nodes: Sequence[int], directions: str, value: float = 0.0) -> list[tuple[int, float]]:
    """Constraint pairs pinning the given particles.

    Args:
        nodes: particle indices, integers (not bools).
        directions: "x", "y", or "xy".
        value: prescribed displacement in m.
    """
    if directions not in ("x", "y", "xy"):
        raise ValueError(f"directions must be x, y or xy, got {directions!r}")
    pairs = []
    for node in nodes:
        if not _is_integer(node):
            raise ValueError(f"node must be an integer, got {node!r}")
        if "x" in directions:
            pairs.append((2 * int(node), value))
        if "y" in directions:
            pairs.append((2 * int(node) + 1, value))
    return pairs


@dataclass(frozen=True)
class GlobalSystem:
    """A lattice's stiffness, as the value table of its cell matrix, with its force vector.

    ``values`` is a ``stencil_values`` table; ``stiffness`` gathers the
    global sparse matrix from it on every access.
    """

    mesh: Mesh
    values: np.ndarray
    forces: np.ndarray

    @property
    def stiffness(self) -> scipy.sparse.csr_matrix:
        return _fill(_lattice_stencil(self.mesh.spec.nx, self.mesh.spec.ny), self.values)


@dataclass(frozen=True)
class ReducedSystem:
    """Global system after constraint elimination.

    ``free`` maps reduced indices back to global DOFs, and ``mirror`` to
    those of their images if the supports are zero and mirror-symmetric
    too; ``fixed`` and ``fixed_values`` keep the eliminated data. ``band``,
    set with the mirror and None without it, lists the reduced indices by
    lines of particles across the half-plate's shorter side (columns when
    2 nx >= ny, else rows), then along the line, then by component: the
    order in which a mirror block is a narrow band.
    """

    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    free: np.ndarray
    fixed: np.ndarray
    fixed_values: np.ndarray
    n_dofs: int
    mirror: np.ndarray | None = None
    band: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.mirror is None) != (self.band is None):
            raise ValueError("a reduced system carries its mirror and band order together")


@dataclass(frozen=True)
class Solution:
    """Displacement field with solver diagnostics.

    Attributes:
        u: full DOF vector in m, prescribed values re-inserted.
        residual: ||K u - rhs|| of the reduced solve, in N.
        inertia: (negative, zero, positive) pivot counts of the reduced
            matrix, or None when not computed or when the factor pivoted
            off the diagonal. A returned solution has no zero pivot among
            those read.
        indefinite: True when the reduced matrix has negative pivots.
        factor_nnz: values the factors computed store, summed: nnz(L+U) for
            a sparse LU, (half-bandwidth + 1) x size for a band Cholesky.
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
    cells = a[:, None] + _POSITIONS[:, 0] + (nx + 1) * _POSITIONS[:, 1]
    return Mesh(spec=spec, positions=positions, cells=cells)


def _dissect(rows: int, cols: int, width: int, orders: dict) -> np.ndarray:
    # module level on purpose: a recursive closure is a reference cycle,
    # which keeps its orders alive until the cyclic collector runs
    if (rows, cols) not in orders:
        if max(rows, cols) < 3:
            order = (np.arange(rows)[:, None] * width + np.arange(cols)).ravel()
        elif cols >= rows:
            half = cols // 2
            first = _dissect(rows, half, width, orders)
            second = _dissect(rows, cols - half - 1, width, orders) + (half + 1)
            order = np.concatenate([first, second, np.arange(rows) * width + half])
        else:
            half = rows // 2
            first = _dissect(half, cols, width, orders)
            second = _dissect(rows - half - 1, cols, width, orders) + (half + 1) * width
            order = np.concatenate([first, second, half * width + np.arange(cols)])
        orders[rows, cols] = order
    return orders[rows, cols]


def _nested_dissection(nx: int, ny: int) -> np.ndarray:
    """DOF order of an (nx+1) x (ny+1) particle grid by nested dissection.

    Every bond joins adjacent particle rows or columns, so one full row or
    column of particles separates the grid. Each block is split at the
    middle line of its longer side; the two halves are numbered first and
    the separator last, down to blocks whose sides hold fewer than 3
    particles. A particle's x and y DOFs stay adjacent. A block's order, from
    its lower-left particle, depends on its shape alone, and each level of
    the recursion has at most two shapes: each is ordered once.
    """
    particles = _dissect(ny + 1, nx + 1, nx + 1, {})
    return np.column_stack([2 * particles, 2 * particles + 1]).ravel()


def _lattice_stencil(nx: int, ny: int) -> scipy.sparse.csr_matrix:
    """Slot pattern of an nx x ny lattice's stiffness, in closed form.

    Row 2p + a couples particle p, component a, to both components of
    every particle within one step of it in x and y, in increasing order:
    per neighbouring particle row dy, one run of consecutive columns. An
    entry's value depends only on which cell corners p is (its role mask,
    bit I set when p is corner I of a cell), on dy, a, the column offset
    dx and the component b, so the pattern's data, its slots, number these
    16 x 3 x 2 x 3 x 2 combinations, which ``stencil_values`` fills from a
    cell matrix. Along a run both the column and the slot step by one.
    """
    n_particles = (nx + 1) * (ny + 1)
    ix = np.tile(np.arange(nx + 1), ny + 1)
    iy = np.repeat(np.arange(ny + 1), nx + 1)
    mask = np.zeros(n_particles, dtype=np.int64)
    for role, (cx, cy) in enumerate(_POSITIONS):
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
    indptr = np.concatenate([[0], ends[2::3]]).astype(index_dtype)
    # in place: an entry-sized temporary costs 9 MB at 512x128
    within = np.arange(ends[-1], dtype=index_dtype)
    within -= np.repeat((ends - lengths).astype(index_dtype), lengths)
    slots = np.repeat(slot0, lengths)
    slots += within
    slots = slots.astype(np.uint16)
    columns = np.repeat(col0, lengths)
    columns += within
    return scipy.sparse.csr_matrix((slots, columns, indptr), shape=(2 * n_particles, 2 * n_particles))


def _fill(pattern: scipy.sparse.csr_matrix, values: np.ndarray) -> scipy.sparse.csr_matrix:
    """The matrix of a slot pattern whose entry k holds ``values[pattern.data[k]]``."""
    # the index arrays are copied so that no matrix shares them with the
    # pattern, which may fill many
    return scipy.sparse.csr_matrix(
        (values[pattern.data], pattern.indices.copy(), pattern.indptr.copy()), shape=pattern.shape
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
    for role, (ax, ay) in enumerate(_POSITIONS):
        with_role = masks[(masks >> role) & 1 == 1]
        for corner, (bx, by) in enumerate(_POSITIONS):
            values[with_role, by - ay + 1, :, bx - ax + 1, :] += blocks[role, :, corner, :]
    return values.ravel()


def _line_order(nx: int, ny: int) -> np.ndarray:
    """DOF order by lines of particles across the half-plate's shorter side.

    Columns (ix slowest, then iy) when 2 nx >= ny, else rows (the natural
    order); a particle's x and y DOFs stay adjacent. A half-height block
    taken in this order has half-bandwidth 2 min(nx, ny // 2) + 5 at most.
    """
    particles = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)
    if 2 * nx >= ny:
        particles = particles.T
    particles = particles.ravel()
    return np.column_stack([2 * particles, 2 * particles + 1]).ravel()


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
    """Global stiffness of a lattice with one cell matrix, and zero forces.

    Every cell of a uniform lattice shares the same matrix, so each entry
    is a sum of cell-matrix entries fixed by the grid alone: the stencil
    gives the CSR pattern and, per entry, its slot in the value table, and
    one gather fills it. Interior edge bonds thereby receive both cells'
    half weights. The rows hold sorted, unique column indices, as a
    COO-to-CSR conversion would give. The system keeps the table alone:
    constraint elimination runs on the pattern and gathers only the
    reduced matrix (see ``apply_constraints``).
    """
    return GlobalSystem(mesh=mesh, values=stencil_values(cell_matrix), forces=np.zeros(mesh.n_dofs))


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
        New GlobalSystem sharing the mesh and values, with updated forces.

    Raises:
        ValueError: ``mesh`` is not the lattice of ``system``.
    """
    if mesh.spec != system.mesh.spec:
        raise ValueError(f"loads refer to {mesh.spec}, the system to {system.mesh.spec}")
    return replace(system, forces=system.forces + load_vector(mesh, loads, thickness))


def apply_constraints(system: GlobalSystem, constraints: Constraints) -> ReducedSystem:
    """Eliminate constrained DOFs from the system.

    Rows and columns of constrained DOFs are removed; inhomogeneous
    values are moved to the right-hand side. This is ``reduce_stencil``
    on the system's mesh and forces, filled with its value table.
    """
    return reduce_stencil(system.mesh, system.forces, constraints).fill(system.values)


@dataclass(frozen=True)
class ReducedStencil:
    """A lattice's reduced system without values.

    ``pattern`` is that system with a slot pattern for its matrix (see
    ``_lattice_stencil``); ``fill`` gives the ReducedSystem of one value
    table (see ``stencil_values``). ``coupling``, the slot pattern of the
    free rows and fixed columns, is kept for nonzero prescribed values
    only, which ``fill`` moves to the right-hand side.
    """

    pattern: ReducedSystem
    coupling: scipy.sparse.csr_matrix | None

    def fill(self, values: np.ndarray) -> ReducedSystem:
        rhs = self.pattern.rhs
        if self.coupling is not None:
            rhs = rhs - _fill(self.coupling, values) @ self.pattern.fixed_values
        symmetric = _mirror_symmetric(values)
        return replace(
            self.pattern,
            matrix=_fill(self.pattern.matrix, values),
            rhs=rhs,
            mirror=self.pattern.mirror if symmetric else None,
            band=self.pattern.band if symmetric else None,
        )


def reduce_stencil(mesh: Mesh, forces: np.ndarray, constraints: Constraints) -> ReducedStencil:
    """Constrained lattice system for any cell matrix, built once per mesh.

    The free DOFs come out in the grid's nested-dissection order, so the
    reduced matrix is already permuted for the factorization. scipy's fancy
    indexing carries the slot pattern's data and keeps the entry order that
    ``K[free][:, free]`` gives, so ``fill(stencil_values(cell))`` equals that
    slice of the assembled matrix entry for entry, and a sweep over cell
    matrices pays for the pattern, the elimination and the order once. The
    mirror survives zero supports that map onto themselves, and with it the
    band order of its blocks.
    """
    n, fixed, values = mesh.n_dofs, constraints.dofs, constraints.values
    if forces.shape != (n,):
        raise ValueError(f"forces must have shape ({n},), got {forces.shape}")
    if fixed.size and (fixed.min() < 0 or fixed.max() >= n):
        raise ValueError("constraint references a DOF outside the system")
    nx, ny = mesh.spec.nx, mesh.spec.ny
    order, mirror = _nested_dissection(nx, ny), _grid_mirror(nx, ny)
    free = order[~np.isin(order, fixed)]
    rows, coupling, band = _lattice_stencil(nx, ny)[free], None, None
    if np.any(values):
        coupling, mirror = rows[:, fixed], None
    elif mirror is not None and np.isin(mirror[fixed], fixed).all():
        position = np.full(mirror.size, -1, dtype=np.intp)
        position[free] = np.arange(free.size)
        mirror = position[mirror[free]]
        band = position[_line_order(nx, ny)]
        band = band[band >= 0]
    else:
        mirror = None
    pattern = ReducedSystem(
        matrix=rows[:, free].tocsr(),
        rhs=forces[free],
        free=free,
        fixed=fixed,
        fixed_values=values,
        n_dofs=n,
        mirror=mirror,
        band=band,
    )
    return ReducedStencil(pattern, coupling)


def _inertia(pivots: np.ndarray) -> tuple[int, int, int]:
    """(negative, zero, positive) counts of pivots; zero within 1e-12 of the largest |pivot|."""
    cutoff = 1e-12 * np.abs(pivots).max() if pivots.size else 0.0
    neg, pos = int(np.sum(pivots < -cutoff)), int(np.sum(pivots > cutoff))
    return neg, pivots.size - neg - pos, pos


def _factor(matrix: scipy.sparse.spmatrix) -> SuperLU:
    try:
        return splu(
            matrix.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
        )
    except RuntimeError as exc:  # singular factorization
        raise SingularSystemError(f"stiffness matrix is singular: {exc}") from exc


_BAND_CHUNK = 8192  # rows per step of _band_storage: blocks up to 128x32 take one


def _band_storage(matrix: scipy.sparse.csr_matrix, rows: np.ndarray, on_axis: np.ndarray):
    """LAPACK's upper band storage ab[u + i - j, j] = a[i, j] of a = matrix[rows][:, rows].

    Entries between two axis DOFs are halved. The half-bandwidth u comes
    from the pattern alone, read in chunks of ``_BAND_CHUNK`` rows. The
    matrix is symmetric to the bit, so row k's entries left of the diagonal
    are column k's above it: the block's rows, in chunks of the same size,
    fill the Fortran-ordered storage a run of columns at a time. No
    temporary outlives its chunk: at 512x128 this takes under 5 MiB beside
    the 67 MiB storage.
    """
    n, indptr = rows.size, matrix.indptr
    position = np.full(matrix.shape[1], n, dtype=matrix.indices.dtype)  # n: outside the block
    position[rows] = np.arange(n, dtype=position.dtype)
    u = 0
    for r0 in range(0, matrix.shape[0], _BAND_CHUNK):
        starts = indptr[r0 : r0 + _BAND_CHUNK + 1]
        # every row holds its diagonal, so no span is empty
        spans = np.take(position, matrix.indices[starts[0] : starts[-1]])
        leftmost = np.minimum.reduceat(spans, starts[:-1] - starts[0])
        k = position[r0 : r0 + _BAND_CHUNK]
        u = max(u, int(np.max(k - leftmost, where=k < n, initial=0)))
    ab = np.zeros((u + 1, n), order="F")
    flat = ab.ravel(order="K")  # ab[u + j - k, k] is flat[(u + 1) k + u + j - k]
    for k0 in range(0, n, _BAND_CHUNK):
        block = matrix[rows[k0 : k0 + _BAND_CHUNK]]
        k = np.arange(k0, k0 + block.shape[0], dtype=position.dtype).repeat(np.diff(block.indptr))
        j = np.take(position, block.indices)  # np.take casts int32 indices faster than []
        lower = j <= k  # drops the columns outside the block too
        k, j, data = k[lower], j[lower], block.data[lower]
        del block, lower
        data[on_axis[k] & on_axis[j]] *= 0.5
        flat[u * k.astype(np.intp) + (j + u)] = data
        del k, j, data  # freed before the next chunk is gathered
    return ab


def _mirror_solver(
    reduced: ReducedSystem, full: bool
) -> tuple[Callable[[np.ndarray], np.ndarray] | None, int, np.ndarray]:
    """Band Cholesky solver through the mirror blocks, with its pivots.

    A field of parity s = +-1 has u[m(i)] = s sigma_i u[i], sigma = -1 on y
    DOFs, so only x (s = 1) or y (s = -1) moves on the axis. Each cell lies
    in one half of the plate: the block is K on the lower and moving axis
    DOFs, axis-axis entries halved, and in ``band`` order it is a band
    matrix. Every block is factored, or only those the right-hand side
    excites. The solver, None when LAPACK meets a pivot that is not
    positive, comes with the values its factors store and the pivots (squared
    diagonals) of every factor completed; those of all blocks give the
    inertia, as the blocks together are congruent to the reduced matrix.
    """
    mirror, free, band = reduced.mirror, reduced.free, reduced.band
    axis = mirror == np.arange(mirror.size)
    blocks, stored, pivots = [], 0, np.empty(0)
    for s in (1.0, -1.0):
        parity = np.where(free % 2, -s, s)
        rows = band[((free[mirror] > free) | axis & (parity > 0))[band]]
        image = mirror[rows]
        # zero on the axis, where the fold halves the load and the unfold adds nothing
        sign = np.where(axis[rows], 0.0, parity[rows])
        if not (full or np.any(reduced.rhs[rows] + sign * reduced.rhs[image])):
            continue
        ab = _band_storage(reduced.matrix, rows, axis[rows])
        try:
            factor = cholesky_banded(ab, overwrite_ab=True, check_finite=False)
        except LinAlgError:
            return None, stored, pivots
        pivots = np.concatenate([pivots, factor[-1] ** 2])
        stored += factor.size
        solve_block = partial(cho_solve_banded, (factor, False), check_finite=False)
        blocks.append((rows, image, sign, solve_block))

    def apply(rhs: np.ndarray) -> np.ndarray:
        u = np.zeros_like(rhs)
        for rows, image, sign, solve_block in blocks:
            y = solve_block(0.5 * (rhs[rows] + sign * rhs[image]))
            u[rows] += y
            u[image] += sign * y
        return u

    return apply, stored, pivots


def solve(reduced: ReducedSystem, compute_inertia: bool = True) -> Solution:
    """Direct solve of the reduced system.

    A system with a mirror is factored on its half-height blocks by LAPACK's
    band Cholesky (``scipy.linalg.cholesky_banded``) in its ``band`` order,
    where each block is a narrow band: every block when the inertia is
    requested or the load is zero, else only the blocks the load excites
    (one, for the odd loads of the bending and cantilever plates). A system
    without a mirror, or one where LAPACK meets a pivot that is not positive
    (Born past its threshold), is factored whole by the sparse LU, with
    diagonal pivots, in the order it comes in: a lattice's reduced DOFs are
    already in nested-dissection order (see ``reduce_stencil``). One rule
    reads the pivots of whichever factor it made, band or LU: a zero pivot
    (see ``_inertia``) marks a rigid mode and raises, also under a zero
    load, and the signs are the inertia unless the LU interchanged rows.

    Args:
        reduced: system after constraint elimination.
        compute_inertia: also report the inertia; skip when stability is
            known. With a nonzero load the band path then factors only the
            blocks the load excites, and a singular block it does not excite
            passes.

    Returns:
        Solution with the full displacement vector (prescribed DOFs
        re-inserted) and an indefiniteness flag.

    Raises:
        SingularSystemError: zero pivot among those read, non-finite
            solution, or residual above 1e-10 times the load norm.
    """
    rhs_norm = float(np.linalg.norm(reduced.rhs))
    full = compute_inertia or not np.any(reduced.rhs)
    apply, pivots, signed = None, np.empty(0), compute_inertia
    if reduced.mirror is not None:
        apply, factor_nnz, pivots = _mirror_solver(reduced, full)
    if apply is None:
        factor = _factor(reduced.matrix)
        apply, factor_nnz = factor.solve, int(factor.nnz)
        # Sylvester's law: with one symmetric permutation, P A P^T = L D L^T
        # and the diagonal of U is D; a row interchange voids the signs only
        pivots = factor.U.diagonal()
        signed = signed and np.array_equal(factor.perm_r, factor.perm_c)
    counts = _inertia(pivots)
    inertia = counts if signed else None
    if counts[1]:
        raise SingularSystemError("stiffness matrix is singular: zero pivot", inertia)
    u_free = apply(reduced.rhs)
    if not np.all(np.isfinite(u_free)):
        raise SingularSystemError("stiffness matrix is singular: non-finite solution", inertia)
    r = reduced.rhs - reduced.matrix @ u_free
    residual = float(np.linalg.norm(r))
    if residual > 1e-10 * rhs_norm:
        # one step of iterative refinement rescues marginal conditioning
        u_free = u_free + apply(r)
        residual = float(np.linalg.norm(reduced.rhs - reduced.matrix @ u_free))
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
