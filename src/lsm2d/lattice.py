"""Rectangular particle lattices: assembly, loads, constraints, solve.

A lattice of nx by ny square cells has (nx+1)(ny+1) particles on a regular
grid. Each particle carries two degrees of freedom, ordered particle-major
with x before y, so particle p owns DOFs 2p and 2p+1. Cells are tiled so
every interior edge bond is shared by exactly two cells; the half-weight
the cell matrix assigns to edge bonds then accumulates to the full bond
stiffness, while boundary edges keep their single half contribution.

Every cell shares one 8x8 matrix, so every stiffness entry is a sum of
cell-matrix entries that the grid alone selects. A slot pattern, built in
closed form from nx, ny and the supports, is a CSR matrix whose data give
each stored entry's slot in a small value table that one cell matrix
fills; assembly is a single gather, with no COO triplets and no duplicate
summing.

Dirichlet data is imposed by eliminating constrained DOFs (rows and
columns removed, right-hand side corrected), never by penalties, so the
spectrum of the reduced matrix is the physical constrained spectrum. One
elimination does this, for any supports (``reduce_stencil``): the slot
pattern is built without the constrained rows and columns, in the order
the solver factors, so each value table then fills only the reduced matrix
and moves nonzero prescribed displacements to the right-hand side, a sweep
over materials and bond models eliminates once per mesh, and no solve
gathers the global matrix. The solver reports the inertia (negative
pivot count) of the reduced matrix because intentionally indefinite systems
are part of the workflow: they factorize and solve, but the result must
carry an instability flag. The free DOFs come out by lines of particles
across the shorter side of the block to be factored, in whose order it is a
narrow band. A plate mirror-symmetric about its axis, supports included,
splits into two half-height blocks; any other system is one block, its
whole reduced matrix. Each block is factored by LAPACK's band Cholesky, or
by a tiled LDL^T where it is not positive definite, either in place in the
block's band storage: every block for the inertia or a zero load, else
only the blocks the load excites, and only the factors of the blocks the
load excites are kept. One rule reads the pivots of the factors: a zero
among them raises, and their signs are the inertia.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse
from scipy.linalg.blas import dgemm, dsymm, dtrmv
from scipy.linalg.lapack import dpbtrf, dpbtrs, dsytrf, dsytrf_lwork, dsytri, dsytrs

from .cell import _POSITIONS

EDGES = ("left", "right", "bottom", "top")

UNIFORM = "uniform"
LINEAR = "linear"


def _is_integer(value) -> bool:
    """True for Python and numpy integers; bools, floats and strings are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class SingularSystemError(RuntimeError):
    """Reduced system is singular or could not be solved to the required residual.

    A zero pivot of the band factors raises it (see ``solve``), and so does
    a tiled LDL^T that meets an exactly zero pivot or a value that is not
    finite (see ``_band_ldlt``). ``inertia`` is read from the failed
    factorization's pivots; None if not requested or if a tiled LDL^T failed.
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
        object.__setattr__(self, "dofs", dofs)
        object.__setattr__(self, "values", values)

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
        return _fill(_slot_pattern(self.mesh.spec.nx, self.mesh.spec.ny)[0], self.values)


@dataclass(frozen=True)
class ReducedSystem:
    """Global system after constraint elimination.

    ``free`` maps reduced indices back to global DOFs, and ``mirror`` to
    those of their images if the supports are zero and mirror-symmetric
    too; ``fixed`` and ``fixed_values`` keep the eliminated data. A system
    built from a stencil lists its free DOFs by lines of particles across
    the shorter side of the block it is factored in (see ``reduce_stencil``).
    ``layouts`` maps a block's parity to its band layout, which indexes
    ``matrix.data`` and fills every band storage of the block (see
    ``solve``): the memo a ``ReducedStencil`` keeps, shared by every system
    its ``fill`` returns, as their matrices share its pattern. Those
    matrices are in scipy's canonical CSR order (sorted, duplicate-free
    rows), as their pattern is built, so the scipy calls that canonicalize
    a matrix in place, such as ``abs``, ``sum`` or
    ``scipy.sparse.linalg.norm``, move no entry.
    ``eliminate_zeros``, ``prune`` and writes to new positions do, and
    ``solve`` refuses a matrix so changed while it carries the memo (a
    write to an existing entry keeps its pattern). Without a memo (None) a
    solve builds the layouts it needs and keeps none.
    """

    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    free: np.ndarray
    fixed: np.ndarray
    fixed_values: np.ndarray
    n_dofs: int
    mirror: np.ndarray | None = None
    layouts: dict | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Solution:
    """Displacement field with solver diagnostics.

    Attributes:
        u: full DOF vector in m, prescribed values re-inserted.
        residual: ||K u - rhs|| of the reduced solve, in N.
        inertia: (negative, zero, positive) pivot counts of the reduced
            matrix, or None when not computed. A returned solution has no
            zero pivot among those read.
        indefinite: True when the reduced matrix has negative pivots.
        factor_nnz: values the band factors computed store, summed over
            every factor computed, one freed once its pivots were read
            included: (half-bandwidth + 1) x size for each, as both the
            band Cholesky and the tiled LDL^T factor the block's band
            storage in place.
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


def _slot_pattern(
    nx: int, ny: int, by_columns: bool = False, fixed: Sequence[int] = (), coupled: bool = False
) -> tuple[scipy.sparse.csr_matrix, np.ndarray, scipy.sparse.csr_matrix | None]:
    """Slot pattern of an nx x ny lattice's stiffness less the ``fixed`` DOFs, in closed form.

    The DOFs come by lines of particles: columns (ix slowest, then iy) if
    ``by_columns``, else rows (the natural order), a particle's x and y DOFs
    adjacent; the defaults give the global pattern. Row (p, a) couples
    particle p, component a, to both components of every particle within
    one step of it in x and y: 3 lines x 3 particles x 2 components, in
    increasing order. An entry's value depends only on which cell corners
    p is (its role mask, bit I set when p is corner I of a cell), on dy, a,
    dx and the component b, so the pattern's data, its slots, number these
    16 x 3 x 2 x 3 x 2 combinations, which ``stencil_values`` fills from a
    cell matrix. One mask drops the neighbours off the grid, the fixed rows
    and the fixed columns, and a running count of the free DOFs numbers the
    columns. That numbering keeps the order, so the rows come out sorted
    and duplicate-free, scipy's canonical CSR order, with nothing sorted.

    If ``coupled``, the same pass gives the free rows' entries in the fixed
    columns, numbered in ``fixed``'s order and in each row in the natural
    order of their DOFs, as slicing the global pattern ``[free][:, fixed]``
    gives them. Returns the pattern, the free DOFs in the order of its rows
    and that coupling (None unless ``coupled``).
    """
    grid = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)
    ix, iy = np.arange(nx + 1), np.arange(ny + 1)[:, None]
    mask = np.zeros(grid.shape, dtype=np.uint16)
    for role, (cx, cy) in enumerate(_POSITIONS):
        # p is corner `role` of the cell whose lower-left particle is p - corner
        has_cell = (ix >= cx) & (ix < nx + cx) & (iy >= cy) & (iy < ny + cy)
        mask |= has_cell.astype(np.uint16) << role
    # a row's 18 entries in increasing column order: line offset + 1,
    # offset along the line + 1, component b
    d_line, d_along, b = (a.ravel() for a in np.indices((3, 3, 2)))
    dx, dy = (d_line, d_along) if by_columns else (d_along, d_line)
    # an entry's slot, less its row's part 36 mask + 6 a; it increases with
    # the entry's natural order (dy, then dx, then b)
    template = (12 * dy + 2 * dx + b).astype(np.uint16)
    if by_columns:
        grid, mask = grid.T, mask.T
    lines, along = grid.shape
    n_particles = grid.size
    index_dtype = np.int32 if 36 * n_particles < 2**31 else np.int64
    dofs = (2 * grid[..., None] + np.arange(2)).reshape(n_particles, 2)
    fixed = np.asarray(fixed, dtype=np.intp)
    is_free = np.ones(2 * n_particles, dtype=bool)
    is_free[fixed] = False
    row_free = is_free[dofs]
    free = dofs[row_free]
    row_slot = (36 * mask).reshape(n_particles, 1) + 6 * np.arange(2, dtype=np.uint16)

    # each line DOF's column: its number among the free DOFs or, for the
    # coupling, -2 - its position in `fixed`, in a border of -1 off the grid
    number = np.full((lines + 2, along + 2, 2), -1, dtype=index_dtype)
    inside, line_free = number[1:-1, 1:-1], row_free.reshape(lines, along, 2)
    inside[line_free] = np.arange(free.size, dtype=index_dtype)
    if coupled:
        position = np.empty(is_free.size, dtype=index_dtype)
        position[fixed] = np.arange(-2, -2 - fixed.size, -1, dtype=index_dtype)
        inside[~line_free] = position[dofs[~row_free]]
    # each particle's 18 columns: the numbers of its neighbours' DOFs
    columns = np.empty((lines, along, 3, 3, 2), dtype=index_dtype)
    for i in range(3):
        for j in range(3):
            columns[:, :, i, j] = number[i : i + lines, j : j + along]
    columns = columns.reshape(n_particles, 1, 18)

    def gather(kept: np.ndarray, columns: np.ndarray, template: np.ndarray):
        # the CSR arrays of the entries `kept` (particle, a, entry) of the free rows
        indptr = np.zeros(free.size + 1, dtype=index_dtype)
        np.cumsum(kept.sum(axis=2, dtype=index_dtype)[row_free], out=indptr[1:])
        # the slots before the columns: their temporary is freed before the larger gather
        slots = (row_slot[:, :, None] + template)[kept]
        return slots, np.broadcast_to(columns, kept.shape)[kept], indptr

    coupling = None
    if coupled:  # first: its temporaries are freed before the pattern's
        # in each row the fixed columns come in the natural order of their DOFs
        natural = np.argsort(template)
        fixed_columns = columns[..., natural]
        kept = (fixed_columns < -1) & row_free[:, :, None]
        slots, indices, indptr = gather(kept, fixed_columns, template[natural])
        del fixed_columns, kept
        np.subtract(-2, indices, out=indices)
        coupling = scipy.sparse.csr_matrix((slots, indices, indptr), shape=(free.size, fixed.size))
    kept = (columns >= 0) & row_free[:, :, None]
    pattern = scipy.sparse.csr_matrix(gather(kept, columns, template), shape=(free.size, free.size))
    return pattern, free, coupling


def _fill(pattern: scipy.sparse.csr_matrix, values: np.ndarray) -> scipy.sparse.csr_matrix:
    """The matrix of a slot pattern whose entry k holds ``values[pattern.data[k]]``."""
    # the index arrays are copied so that no matrix shares them with the
    # pattern, which may fill many. Fancy indexing, not np.take: np.take
    # casts all the uint16 slots to intp first, 18 MiB at 512x128
    return scipy.sparse.csr_matrix(
        (values[pattern.data], pattern.indices.copy(), pattern.indptr.copy()), shape=pattern.shape
    )


def stencil_values(cell_matrix: np.ndarray) -> np.ndarray:
    """Value table of a lattice stencil for one 8x8 cell matrix.

    Slot (mask, dy, a, dx, b) sums the (a, b) entry of the cell-matrix
    block of every corner pair (I, J) with I in the mask and J at offset
    (dx, dy) from I: the contribution of each cell around the particle.
    The table starts at -0.0, the additive identity, so a single
    contribution keeps its sign of zero. A sum may overflow to inf (or
    inf - inf to NaN) without a warning: a slot the mesh never uses does no
    harm, and ``ReducedStencil.fill`` rejects a matrix that uses one.
    """
    cell_matrix = np.asarray(cell_matrix, dtype=float)
    if cell_matrix.shape != (8, 8):
        raise ValueError(f"cell matrix must be 8x8, got {cell_matrix.shape}")
    blocks = cell_matrix.reshape(4, 2, 4, 2)  # [I, a, J, b]
    values = np.full((16, 3, 2, 3, 2), -0.0)
    masks = np.arange(16)
    with np.errstate(over="ignore", invalid="ignore"):
        for role, (ax, ay) in enumerate(_POSITIONS):
            with_role = masks[(masks >> role) & 1 == 1]
            for corner, (bx, by) in enumerate(_POSITIONS):
                values[with_role, by - ay + 1, :, bx - ax + 1, :] += blocks[role, :, corner, :]
    return values.ravel()


def _grid_mirror(nx: int, ny: int) -> np.ndarray | None:
    """DOF map of the particle mirror (ix, iy) -> (ix, ny - iy); None for odd ny."""
    particles = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)[::-1].ravel()
    return None if ny % 2 else np.column_stack([2 * particles, 2 * particles + 1]).ravel()


# the mask of each role mask's mirror image: lower and upper corner roles
# swap, bits 0 <-> 3 and 1 <-> 2
_MIRRORED_MASKS = np.array([int(f"{mask:04b}"[::-1], 2) for mask in range(16)])
_V_SIGN = np.array([1.0, -1.0])


def _mirror_symmetric(values: np.ndarray) -> bool:
    # a table's mirror image swaps the role masks, flips dy and changes the
    # sign of v components
    table = values.reshape(16, 3, 2, 3, 2)
    image = table[_MIRRORED_MASKS][:, ::-1] * _V_SIGN[:, None, None] * _V_SIGN
    return np.array_equal(image, table)


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
    ``_slot_pattern``); ``fill`` gives the ReducedSystem of one value
    table (see ``stencil_values``). ``coupling``, the slot pattern of the
    free rows and fixed columns that the same pass builds, is kept for
    nonzero prescribed values only, which ``fill`` moves to the right-hand
    side. The pattern is built in scipy's canonical CSR order, so every
    matrix ``fill`` returns is in it too.
    ``pattern.layouts`` is the memo of its blocks' band layouts, which
    every system ``fill`` returns shares: a sweep over value tables builds
    each block's layout once, and each solve fills its band storage from
    that layout.
    """

    pattern: ReducedSystem
    coupling: scipy.sparse.csr_matrix | None

    def fill(self, values: np.ndarray) -> ReducedSystem:
        """The reduced system of the value table ``values``.

        Raises:
            ValueError: the filled matrix or right-hand side is not finite,
                as where a stiffness near the float maximum overflows in a
                slot the mesh uses (see ``stencil_values``).
        """
        rhs = self.pattern.rhs
        if self.coupling is not None:
            rhs = rhs - _fill(self.coupling, values) @ self.pattern.fixed_values
        matrix = _fill(self.pattern.matrix, values)
        if not (np.isfinite(matrix.data).all() and np.isfinite(rhs).all()):
            raise ValueError("reduced stiffness matrix or right-hand side is not finite (overflow)")
        return replace(
            self.pattern,
            matrix=matrix,
            rhs=rhs,
            mirror=self.pattern.mirror if _mirror_symmetric(values) else None,
        )


def reduce_stencil(mesh: Mesh, forces: np.ndarray, constraints: Constraints) -> ReducedStencil:
    """Constrained lattice system for any cell matrix, built once per mesh.

    The free DOFs come out by lines of particles across the shorter side of
    the half-plate if the mirror survives (zero supports that map onto
    themselves), else of the whole plate: columns (ix slowest) when nx is
    at least the block's height, else rows. Each block ``solve`` factors,
    the whole plate or a half-height mirror block, is then a narrow band,
    of half-bandwidth 2 min(nx, height) + 5 at most. The reduced slot
    pattern is built in that order and in scipy's canonical CSR order
    (``_slot_pattern``), so every matrix ``fill`` returns is canonical, and
    a sweep over cell matrices pays for the pattern, the elimination and
    the order once. ``forces`` is read as float64 and must be finite: a
    value that is not raises ``ValueError``, on a fixed DOF, whose row the
    elimination drops, too. With nonzero prescribed values the same pass
    builds the coupling (see ``ReducedStencil``).
    """
    n, fixed, values = mesh.n_dofs, constraints.dofs, constraints.values
    forces = np.asarray(forces, dtype=np.float64)
    if forces.shape != (n,):
        raise ValueError(f"forces must have shape ({n},), got {forces.shape}")
    bad = np.flatnonzero(~np.isfinite(forces))
    if bad.size:
        named = ", ".join(f"{forces[dof]} on DOF {dof}" for dof in bad[:4])
        raise ValueError(f"forces are not finite: {named}{', ...' if bad.size > 4 else ''}")
    if fixed.size and (fixed.min() < 0 or fixed.max() >= n):
        raise ValueError("constraint references a DOF outside the system")
    nx, ny = mesh.spec.nx, mesh.spec.ny
    mirror = _grid_mirror(nx, ny)
    if mirror is not None and (np.any(values) or not np.isin(mirror[fixed], fixed).all()):
        mirror = None
    height = ny if mirror is None else ny // 2
    matrix, free, coupling = _slot_pattern(nx, ny, nx >= height, fixed, coupled=bool(np.any(values)))
    if mirror is not None:
        position = np.full(n, -1, dtype=np.intp)
        position[free] = np.arange(free.size)
        mirror = position[mirror[free]]
    pattern = ReducedSystem(
        matrix=matrix,
        rhs=forces[free],
        free=free,
        fixed=fixed,
        fixed_values=values,
        n_dofs=n,
        mirror=mirror,
        layouts={},
    )
    return ReducedStencil(pattern, coupling)


def _inertia(pivots: np.ndarray) -> tuple[int, int, int]:
    """(negative, zero, positive) counts of pivots; zero within 1e-12 of the largest |pivot|."""
    cutoff = 1e-12 * np.abs(pivots).max() if pivots.size else 0.0
    neg, pos = int(np.sum(pivots < -cutoff)), int(np.sum(pivots > cutoff))
    return neg, pivots.size - neg - pos, pos


_BAND_CHUNK = 8192  # rows per step of _band_layout: blocks up to 128x32 take one


@dataclass(frozen=True)
class _BandLayout:
    """Where one block of a reduced matrix lies in LAPACK's lower band storage.

    ``rows`` are the block's reduced indices in band order, ``image`` their
    mirror images and ``sign`` (int8) the factor of an image's value in the
    folded field: 0 on the axis, else the parity of the DOF. Entry
    ``entry[i]`` of the matrix's data lands at ``flat[i]`` of the
    Fortran-ordered (u + 1, rows.size) storage, and the entries at
    ``halved``, between two axis DOFs, count half. In a block of axis DOFs
    alone (every system without a mirror) that is every entry, and
    ``halved`` is ``slice(None)``, the whole storage, not a copy of
    ``flat``. Every index depends on the pattern alone, so one layout serves
    every matrix of a stencil: those with ``nnz`` entries in canonical order.
    """

    rows: np.ndarray
    image: np.ndarray
    sign: np.ndarray
    u: int
    flat: np.ndarray
    entry: np.ndarray
    halved: np.ndarray | slice
    nnz: int

    def storage(self, data: np.ndarray) -> np.ndarray:
        """The block's band storage ab[i - j, j] = a[i, j] for the matrix data ``data``.

        Every band storage is filled here, the first one too: zeroed, one
        scatter of the values, the axis-axis entries halved, by a second
        scatter or, in a block of axis DOFs alone, one scale of the whole
        storage in place (its zero padding stays +0). At 512x128 it takes
        1 MiB beside the 67 MiB storage.
        """
        ab = np.zeros((self.u + 1, self.rows.size), order="F")
        return self._scatter(ab, data, self.rows.size)

    def refill(self, ab: np.ndarray, data: np.ndarray, columns: int) -> np.ndarray:
        """The storage ``ab``, its first ``columns`` columns filled again for ``data`` in place.

        Those columns are zeroed and then filled as ``storage`` fills them:
        ``flat`` and ``halved`` are sorted, so their entries are a prefix of
        each. The other columns must still hold what ``storage`` put there.
        """
        ab[:, :columns] = 0.0
        return self._scatter(ab, data, columns)

    def _scatter(self, ab: np.ndarray, data: np.ndarray, columns: int) -> np.ndarray:
        # the entries of the first `columns` columns, into their zeroed storage
        flat, end = ab.ravel(order="K"), (self.u + 1) * columns
        stop = int(np.searchsorted(self.flat, end))
        # about a chunk's entries at a time: the scatter copies its positions as intp
        step = 8 * _BAND_CHUNK
        for i in range(0, stop, step):
            j = min(i + step, stop)
            # np.take casts int32 indices faster than []
            flat[self.flat[i:j]] = np.take(data, self.entry[i:j])
        halved = self.halved
        if not isinstance(halved, slice):
            halved = halved[: np.searchsorted(halved, end)]
        flat[:end][halved] *= 0.5
        return ab


def _band_layout(
    matrix: scipy.sparse.csr_matrix, rows: np.ndarray, image: np.ndarray, sign: np.ndarray
) -> _BandLayout:
    """The band layout of the block ``matrix[rows][:, rows]``; it fills no storage.

    The matrix is symmetric to the bit, so row k's entries right of the
    diagonal are column k's below it. The block's rows, in chunks of
    ``_BAND_CHUNK``, give those entries and their columns j; the largest
    j - k is the half-bandwidth u. Then each chunk's flat positions in the
    Fortran-ordered storage follow, and its columns are freed. At 512x128
    this takes 5.4 MiB beside the layout's 4.7 MiB of positions.
    """
    n, indptr = rows.size, matrix.indptr
    position = np.full(matrix.shape[1], -1, dtype=matrix.indices.dtype)  # -1: outside the block
    position[rows] = np.arange(n, dtype=position.dtype)
    chunks = []
    for k0 in range(0, n, _BAND_CHUNK):
        chunk = rows[k0 : k0 + _BAND_CHUNK]
        starts, counts = indptr[chunk], indptr[chunk + 1] - indptr[chunk]
        # the chunk's CSR entries, row by row
        entry = np.arange(counts.sum(), dtype=indptr.dtype)
        entry += np.repeat(starts - (np.cumsum(counts) - counts), counts)
        k = np.arange(k0, k0 + chunk.size, dtype=position.dtype).repeat(counts)
        j = np.take(position, np.take(matrix.indices, entry))
        # drops the columns outside the block too; np.take outruns a boolean mask here
        right = np.flatnonzero(j >= k)
        chunks.append([np.take(a, right) for a in (entry, k, j)])
        del k, j, right  # freed before the next chunk is gathered
    u = max((int(np.max(j - k, initial=0)) for _, k, j in chunks), default=0)
    # ab[j - k, k] is element u k + j of the flat (u + 1, n) storage
    index = np.int32 if (u + 1) * n < 2**31 else np.int64
    # a block of axis DOFs alone halves every entry: its whole storage
    on_axis = None if np.all(sign == 0) else sign == 0
    flats, entries, halved = [], [], []
    for gathered in chunks:
        entry, k, j = gathered
        if on_axis is not None:
            both = np.take(on_axis, k) & np.take(on_axis, j)
        flat = k.astype(index, copy=False)  # in place where it can: k is not read again
        flat *= u
        flat += j
        gathered.clear()  # frees j
        del k, j
        if on_axis is not None:
            halved.append(flat[both])
        flats.append(flat)
        entries.append(entry)
    flat = np.concatenate(flats)
    del flats  # freed before the entries are joined
    entry = np.concatenate(entries)
    halved = slice(None) if on_axis is None else np.concatenate(halved)
    return _BandLayout(rows, image, sign, u, flat, entry, halved, matrix.nnz)


def _band_cholesky(ab: np.ndarray):
    """LAPACK's band Cholesky (``dpbtrf``) of the band in lower storage, in place.

    Returns the block's solver (``dpbtrs``), the values its factor stores and
    its pivots, the squared diagonal of the factor. Where ``dpbtrf`` meets a
    pivot that is not positive (info > 0) it returns instead how many leading
    columns of ``ab`` the attempt changed: eliminating column j changes
    columns j to j + u alone, and it stopped at column info - 1, so the first
    info + u columns hold every change.

    Raises:
        ValueError: ``dpbtrf`` reports an illegal argument (info < 0).
    """
    factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrf")
    if info:
        return min(info + ab.shape[0] - 1, ab.shape[1])
    return lambda rhs: dpbtrs(factor, rhs, lower=1)[0], factor.size, factor[0] ** 2


def _masked_product(
    coupling: np.ndarray, inside: np.ndarray, z: np.ndarray, trans: int = 0
) -> np.ndarray:
    """The product ``dtrmv`` forms in ``_band_ldlt``, for a coupling that is not a square triangle.

    Its entries ``inside`` the band are copied, the others zeroed, and the
    product runs with both tiles' rows reversed.
    """
    coupling = np.where(inside, coupling, 0.0)[::-1, ::-1]
    return coupling.T @ z if trans else coupling @ z


_LDLT_FAILED = "stiffness matrix is singular: zero pivot or a value that is not finite in its LDL^T"


def _band_ldlt(ab: np.ndarray):
    """Tiled LDL^T of the symmetric band matrix in LAPACK's lower band storage, in place.

    In tiles of b = u rows (u + 1 for u < 2, so that a 2x2 pivot fits a
    tile of a tridiagonal matrix) the band is block tridiagonal, diagonal
    tiles A_k and couplings C_k = a[tile k, tile k + 1]. Each S_k = A_k -
    C_{k-1}^T X_{k-1} is factored by Bunch-Kaufman (``dsytrf``, interchanges
    within the tile), so a = L D L^T with D the S_k. X_k = S_k^-1 C_k, formed
    from the tile's inverse (``dsytri``, ``dsymm``), serves only the next
    tile's Schur update, which runs in place (``dgemm``); the last tile has
    no coupling and forms none. Each tile's factor is written back over A_k's
    own positions, reversed: S_k's upper factor is the lower factor of J S_k
    J (J the reversal), which LAPACK's lower solve reads in place. The
    factor is then the band storage itself, (u + 1) n values as for a band
    Cholesky, and the solve, each tile's rows reversed, reads it in place:
    z_k+1 -= C_k^T S_k^-1 z_k forward and x_k = S_k^-1 (z_k - C_k x_k+1)
    backward, by ``dsytrs`` on the tile and ``dtrmv`` on a full tile's
    coupling, a triangle in the storage; only the last tile's coupling and
    those of u < 2 are copied. Returns the block's solver, the values its
    factor stores and its pivots (the eigenvalues of every 1x1 and 2x2 block
    of the tiles' D, whose signs by Sylvester's law are the band's inertia).
    No tile is checked for values that are not finite: one check after the
    last tile, over the whole band, catches what any tile let through, as
    each tile's S_k is formed from the X_k before it, and it runs before the
    2x2 pivots' eigenvalues are formed.

    Raises:
        SingularSystemError: ``dsytrf`` meets an exactly zero pivot (info >
            0), or the factor holds a value that is not finite; its
            ``inertia`` is None.
    """
    u, n = ab.shape[0] - 1, ab.shape[1]
    b, step = u + (u < 2), ab.itemsize
    # a[i, j] = ab[i - j, j] is element u j + i of the storage for j <= i <= j + u:
    # the view with strides (1, u) holds each tile's A_k in its lower triangle
    # and C_k^T, upper triangular, below it, both Fortran-ordered with leading
    # dimension u. Its entries outside the band, other storage, are masked or
    # not read
    band = np.ndarray((n, n), ab.dtype, ab.ravel(order="K"), 0, (step, u * step))
    lower, inside = np.tri(b, dtype=bool), np.tri(b, dtype=bool, k=u - b).T
    outside = ~inside.T  # C_k's entries outside the band
    lwork, tiles, ipivs = int(dsytrf_lwork(b)[0]), [], []
    diagonal, above = np.empty(n), np.zeros(n)
    for r0 in range(0, n, b):
        r1, r2 = min(r0 + b, n), min(r0 + 2 * b, n)
        tile, coupling = band[r0:r1, r0:r1], band[r1:r2, r0:r1]
        s = np.array(tile.T, order="F")  # its upper triangle is A_k
        if r0:
            s = dgemm(-1.0, c, x, 1.0, s, trans_a=1, overwrite_c=1)  # S_k -= C^T X, in place
        ldu, ipiv, info = dsytrf(s, lwork=lwork, overwrite_a=True)
        if info:
            raise SingularSystemError(_LDLT_FAILED)
        m = r1 - r0
        diagonal[r0:r1], above[r0 + 1 : r1] = ldu.diagonal(), ldu.diagonal(1)
        # S_k's upper factor, reversed, is the lower factor of J S_k J (J the
        # reversal), which LAPACK's lower solve reads in place over A_k
        np.copyto(tile, ldu[::-1, ::-1], where=lower[:m, :m])
        # C_k^T z and C_k z (trans), both tiles' rows reversed: a full tile's
        # coupling is a triangle in place, read backward (incx = -1)
        if coupling.shape == (u, u):
            product = partial(dtrmv, coupling, incx=-1)
        else:
            product = partial(_masked_product, coupling, inside[: r2 - r1, :m])
        tiles.append((r0, r1, r2, tile, product))
        ipivs.append(ipiv)
        if r2 > r1:
            c = coupling.T.copy(order="F")
            c[outside[:m, : r2 - r1]] = 0.0
            x = dsymm(1.0, dsytri(ldu, ipiv, overwrite_a=1)[0], c)
    if not all(np.isfinite(ab[:, j : j + _BAND_CHUNK]).all() for j in range(0, n, _BAND_CHUNK)):
        raise SingularSystemError(_LDLT_FAILED)
    ipiv = np.concatenate(ipivs)
    # from the last row upward, ipiv[k] < 0 closes the 2x2 block (k - 1, k)
    # that ldu[k - 1, k] couples: within a run of negatives, every other one
    # counting from its end
    index, single = np.arange(n), np.flatnonzero(ipiv > 0)
    run_end = np.append(single, n)[np.searchsorted(single, index)] - 1
    k = np.flatnonzero((ipiv < 0) & ((run_end - index) % 2 == 0))
    mean = 0.5 * (diagonal[k - 1] + diagonal[k])
    radius = np.hypot(0.5 * (diagonal[k - 1] - diagonal[k]), above[k])
    diagonal[k - 1], diagonal[k] = mean - radius, mean + radius
    # the solve runs with each tile's rows reversed, as its factor is: in a
    # tile of m rows from r0, row i is row r0 + m - 1 - (i - r0), and LAPACK's
    # 1-based interchange p is m + 1 - p
    start = index - index % b
    m = np.minimum(b, n - start)
    order = 2 * start + m - 1 - index
    ipiv = ipiv[order]
    ipiv = np.where(ipiv > 0, m + 1 - ipiv, -(m + 1) - ipiv).astype(np.int32)

    def apply(rhs: np.ndarray) -> np.ndarray:
        z = rhs[order]
        for r0, r1, r2, tile, product in tiles[:-1]:  # forward: z_k+1 -= C_k^T S_k^-1 z_k
            z[r1:r2] -= product(dsytrs(tile, ipiv[r0:r1], z[r0:r1], lower=1)[0])
        for r0, r1, r2, tile, product in reversed(tiles):  # x_k = S_k^-1 (z_k - C_k x_k+1)
            if r2 > r1:
                z[r0:r1] -= product(z[r1:r2], trans=1)
            dsytrs(tile, ipiv[r0:r1], z[r0:r1], lower=1, overwrite_b=1)
        return z[order]

    return apply, ab.size, diagonal


def _band_block(reduced: ReducedSystem, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, images and signs of the block of parity s (see ``_BandLayout``).

    s = 0 is the whole system, every DOF its own image on the axis of the
    identity mirror: the fold halves K and the load, and the unfold adds
    nothing.
    """
    n = reduced.free.size
    if not s:
        rows = np.arange(n)
        return rows, rows, np.zeros(n, np.int8)
    mirror, free = reduced.mirror, reduced.free
    axis = mirror == np.arange(n)
    parity = np.where(free % 2, -s, s).astype(np.int8)
    rows = np.flatnonzero((free[mirror] > free) | axis & (parity > 0))
    # zero on the axis, where the fold halves the load and the unfold adds nothing
    return rows, mirror[rows], np.where(axis[rows], 0, parity[rows]).astype(np.int8)


def _factor_block(layout: _BandLayout, data: np.ndarray):
    """The solver, factor size and pivots of a block, as ``_band_cholesky`` returns them.

    A band Cholesky factors the block's storage in place. Where LAPACK
    rejects it, the columns its attempt changed are filled again, and the
    tiled LDL^T (``_band_ldlt``) factors the same storage in place too, so
    either factor is the storage.
    """
    ab = layout.storage(data)
    factored = _band_cholesky(ab)
    if isinstance(factored, int):
        factored = _band_ldlt(layout.refill(ab, data, factored))
    return factored


def solve(reduced: ReducedSystem, compute_inertia: bool = True) -> Solution:
    """Direct solve of the reduced system.

    The system is factored in blocks, each a narrow band in the order its
    DOFs come in (see ``reduce_stencil``). With a mirror, a field of parity
    s = +-1 has u[m(i)] = s sigma_i u[i], sigma = -1 on y DOFs, so only x
    (s = 1) or y (s = -1) moves on the axis. Each cell lies in one half of
    the plate: the block of parity s is K on the lower and moving axis DOFs,
    axis-axis entries halved (see ``_band_block``), the load folds onto it
    and its solution unfolds onto its rows and their images. Every block is
    factored when the inertia is requested or the load is zero, else only
    those the load excites, and only the factors of the blocks the load
    excites (one, for the odd loads of the bending and cantilever plates)
    are kept and applied: a block factored for its pivots alone is freed
    before the next block is factored. Any other system is one block (s =
    0), its whole matrix. A block's band layout (``_BandLayout``) is built
    by the first solve that factors it and kept in ``reduced.layouts``;
    every band storage is filled from it. Its siblings share the memo, so
    a matrix with another entry count than the memo was built for, or out
    of canonical order, is refused, and the memo is not rebuilt. A positive
    definite block takes LAPACK's band Cholesky (``_band_cholesky``), any
    other, its storage filled again where the rejected attempt changed it,
    a tiled LDL^T with Bunch-Kaufman pivots inside each tile
    (``_band_ldlt``), whose verdict is final. Either factor overwrites the
    block's band storage. One rule reads the pivots of the factors (squared
    diagonals of a Cholesky factor, D's eigenvalues of an LDL^T): a zero
    pivot (see ``_inertia``) marks a rigid mode and raises, also under a
    zero load, and the signs are the inertia, as the blocks together are
    congruent to the reduced matrix. A residual above 1e-10 times the load
    norm takes one step of iterative refinement, on the blocks the load
    excites.

    Args:
        reduced: system after constraint elimination.
        compute_inertia: also report the inertia; skip when stability is
            known. With a nonzero load a system with a mirror then factors
            only the blocks the load excites, and a singular block it does
            not excite passes.

    Returns:
        Solution with the full displacement vector (prescribed DOFs
        re-inserted) and an indefiniteness flag.

    Raises:
        SingularSystemError: zero pivot among those read, an LDL^T that meets
            an exactly zero pivot or a value that is not finite, non-finite
            solution, or residual above 1e-10 times the load norm after the
            refinement.
        ValueError: the matrix does not fit the layouts in ``reduced.layouts``
            (``eliminate_zeros``, ``prune`` or a write to a new position
            changed its entries), or ``dpbtrf`` reports an illegal argument.
    """
    rhs, data, nnz = reduced.rhs, reduced.matrix.data, reduced.matrix.nnz
    layouts = {} if reduced.layouts is None else reduced.layouts
    # every layout of a memo was built for the one pattern its matrices share
    built = next(iter(layouts.values()), None)
    if built is not None and nnz != built.nnz:
        raise ValueError(
            f"reduced matrix has {nnz} entries, its band layouts index {built.nnz}: "
            "its pattern changed after the memo was built"
        )
    if reduced.layouts is not None and not reduced.matrix.has_canonical_format:
        raise ValueError("reduced matrix is not in the canonical CSR order its band layouts index")
    rhs_norm = float(np.linalg.norm(rhs))
    # every block for the inertia or a zero load, else the blocks the load excites
    full = compute_inertia or not np.any(rhs)
    blocks, factor_nnz, pivots = [], 0, np.empty(0)
    for s in (0,) if reduced.mirror is None else (1, -1):
        layout = layouts.get(s)
        if layout is None:
            rows, image, sign = _band_block(reduced, s)
        else:
            rows, image, sign = layout.rows, layout.image, layout.sign
        excited = np.any(rhs[rows] + sign * rhs[image])
        # an empty block (every DOF fixed) has nothing to factor
        if not (rows.size and (full or excited)):
            continue
        if layout is None:
            layout = layouts[s] = _band_layout(reduced.matrix, rows, image, sign)
        solve_block, size, block_pivots = _factor_block(layout, data)
        pivots, factor_nnz = np.concatenate([pivots, block_pivots]), factor_nnz + size
        if excited:
            blocks.append((rows, image, sign, solve_block))
        # a factor made for its pivots alone is freed before the next block's
        del solve_block

    def apply(b: np.ndarray) -> np.ndarray:
        # fold b onto each block, solve there, unfold onto the rows and their images
        x = np.zeros(b.shape)
        for rows, image, sign, solve_block in blocks:
            y = solve_block(0.5 * (b[rows] + sign * b[image]))
            x[rows] += y
            x[image] += sign * y
        return x

    counts = _inertia(pivots)
    inertia = counts if compute_inertia else None
    if counts[1]:
        raise SingularSystemError("stiffness matrix is singular: zero pivot", inertia)
    u_free = apply(rhs)
    if not np.all(np.isfinite(u_free)):
        raise SingularSystemError("stiffness matrix is singular: non-finite solution", inertia)
    r = rhs - reduced.matrix @ u_free
    residual = float(np.linalg.norm(r))
    if residual > 1e-10 * rhs_norm:
        # one step of iterative refinement rescues marginal conditioning
        u_free = u_free + apply(r)
        residual = float(np.linalg.norm(rhs - reduced.matrix @ u_free))
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
