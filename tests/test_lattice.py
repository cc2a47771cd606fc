"""Mesh, assembly, load lumping, constraint and solver tests."""

import collections
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.linalg import splu

import lsm2d
from lsm2d import (
    BORN,
    CANTILEVER,
    CASE_KINDS,
    LINEAR,
    MODIFIED,
    PLANE_STRAIN,
    PLANE_STRESS,
    PURE_SHEAR,
    REGIMES,
    UNIAXIAL,
    UNIFORM,
    Constraints,
    EdgeTraction,
    LatticeSpec,
    LoadSpec,
    Material,
    SingularSystemError,
    StiffnessSet,
    apply_constraints,
    apply_loads,
    assemble,
    build_mesh,
    calibrate,
    case_constraints,
    case_loads,
    case_mesh,
    cell_matrix,
    fix_nodes,
    load_vector,
    reduce_stencil,
    solve,
    stencil_values,
)
from lsm2d.lattice import _band_block, _band_layout, _band_ldlt, _grid_mirror, _inertia
from oracles import (
    constrained_spectrum,
    coo_assembly,
    eigenvalue_inertia,
    gathered_band_storage,
    sliced_reduction,
    whole_factor_solve,
)


def make_system(nx, ny, stiffness, cell_size=1.0, origin=(0.0, 0.0)):
    mesh = build_mesh(LatticeSpec(nx=nx, ny=ny, cell_size=cell_size, origin=origin))
    return mesh, assemble(mesh, cell_matrix(stiffness))


# no supports: the mirror of a reduced system is then that of the grid and the cell
UNSUPPORTED = Constraints.from_pairs([])


def born_set(kn1=2.0, ks1=1.0, kn2=3.0):
    return StiffnessSet(BORN, kn1, ks1, kn2)


def modified_set(kn1=2.0, ks1=1.0, kn2=3.0):
    return StiffnessSet(MODIFIED, kn1, ks1, kn2)


def loaded_case(kind, model, nu, regime, size):
    """Loaded global system of a benchmark case on one mesh, with its constraints."""
    case = lsm2d.make_case(kind, nu, mesh_sizes=(size,))
    material = dataclasses.replace(case.material, regime=regime)
    mesh = case_mesh(case, size)
    system = assemble(mesh, cell_matrix(calibrate(material, model)))
    system = apply_loads(system, mesh, case_loads(case), material.thickness)
    return system, case_constraints(case, mesh)


def case_system(kind, model, nu, regime):
    """Reduced system of a benchmark case on its smallest mesh (2x2 or 8x2)."""
    size = (2, 2) if kind in (UNIAXIAL, PURE_SHEAR) else (8, 2)
    return apply_constraints(*loaded_case(kind, model, nu, regime, size))


def natural_order(system, constraints):
    """The system reduced by zero supports, free DOFs in natural order, for the oracle factor."""
    assert not np.any(constraints.values)
    free = np.setdiff1d(np.arange(system.forces.size), constraints.dofs)
    return lsm2d.ReducedSystem(
        matrix=sliced_reduction(system.stiffness, free),
        rhs=system.forces[free],
        free=free,
        fixed=constraints.dofs,
        fixed_values=constraints.values,
        n_dofs=system.forces.size,
    )


def mmd_factor(reduced):
    """Oracle factor: SuperLU's minimum-degree ordering of A + A^T, diagonal pivots."""
    return splu(
        reduced.matrix.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def column_order(nx, ny, columns=True):
    """DOFs by columns of particles (ix slowest, then iy), or by rows, x before y."""
    particles = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)
    particles = (particles.T if columns else particles).ravel()
    return np.column_stack([2 * particles, 2 * particles + 1]).ravel()


class TestBuildMesh:
    def test_single_cell(self):
        mesh = build_mesh(LatticeSpec(1, 1, 0.5))
        assert mesh.n_particles == 4
        assert mesh.n_dofs == 8
        np.testing.assert_array_equal(mesh.cells, [[0, 1, 3, 2]])
        np.testing.assert_allclose(
            mesh.positions, [[0, 0], [0.5, 0], [0, 0.5], [0.5, 0.5]]
        )

    def test_two_by_one(self):
        mesh = build_mesh(LatticeSpec(2, 1, 1.0))
        assert mesh.n_particles == 6
        np.testing.assert_array_equal(mesh.cells, [[0, 1, 4, 3], [1, 2, 5, 4]])

    def test_grid_counts(self):
        mesh = build_mesh(LatticeSpec(8, 2, 0.0625))
        assert mesh.n_particles == 27
        assert mesh.cells.shape == (16, 4)

    def test_origin_offset(self):
        mesh = build_mesh(LatticeSpec(1, 1, 1.0, origin=(2.0, -3.0)))
        np.testing.assert_allclose(mesh.positions[0], [2.0, -3.0])
        np.testing.assert_allclose(mesh.positions[3], [3.0, -2.0])

    def test_node_index_layout(self):
        mesh = build_mesh(LatticeSpec(3, 2, 1.0))
        assert mesh.node_index(0, 0) == 0
        assert mesh.node_index(3, 0) == 3
        assert mesh.node_index(0, 1) == 4
        assert mesh.node_index(3, 2) == 11
        with pytest.raises(IndexError):
            mesh.node_index(4, 0)

    def test_edge_nodes_ordered(self):
        mesh = build_mesh(LatticeSpec(2, 2, 1.0))
        np.testing.assert_array_equal(mesh.edge_nodes("bottom"), [0, 1, 2])
        np.testing.assert_array_equal(mesh.edge_nodes("top"), [6, 7, 8])
        np.testing.assert_array_equal(mesh.edge_nodes("left"), [0, 3, 6])
        np.testing.assert_array_equal(mesh.edge_nodes("right"), [2, 5, 8])
        with pytest.raises(ValueError):
            mesh.edge_nodes("front")

    @pytest.mark.parametrize("nx,ny", [(1, 1), (8, 2), (64, 16)])
    def test_connectivity_matches_cell_formula(self, nx, ny):
        mesh = build_mesh(LatticeSpec(nx, ny, 1.0))
        lower_left = [iy * (nx + 1) + ix for iy in range(ny) for ix in range(nx)]
        cells = np.array([(a, a + 1, a + nx + 2, a + nx + 1) for a in lower_left])
        assert mesh.cells.dtype == cells.dtype
        np.testing.assert_array_equal(mesh.cells, cells)
        edges = {
            "left": [(0, iy) for iy in range(ny + 1)],
            "right": [(nx, iy) for iy in range(ny + 1)],
            "bottom": [(ix, 0) for ix in range(nx + 1)],
            "top": [(ix, ny) for ix in range(nx + 1)],
        }
        for edge, points in edges.items():
            nodes = np.array([mesh.node_index(ix, iy) for ix, iy in points])
            assert mesh.edge_nodes(edge).dtype == nodes.dtype
            np.testing.assert_array_equal(mesh.edge_nodes(edge), nodes)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(0, 1, 1.0)
        with pytest.raises(ValueError):
            LatticeSpec(1, 1, 0.0)
        assert LatticeSpec(1, 1, 0.5).particle_radius == 0.25

    @pytest.mark.parametrize("n", [2.5, 2.0, np.float64(2.0), True, "2"], ids=repr)
    def test_spec_rejects_non_integer_sizes(self, n):
        # 2.5 used to build a 12-particle mesh the stencil read as 10.5 particles
        with pytest.raises(ValueError, match="integer"):
            LatticeSpec(n, 2, 1.0)
        with pytest.raises(ValueError, match="integer"):
            LatticeSpec(2, n, 1.0)

    def test_spec_takes_numpy_integers(self):
        mesh = build_mesh(LatticeSpec(np.int64(2), np.int32(1), 1.0))
        assert mesh.n_particles == 6
        assert mesh.cells.shape == (2, 4)

    @pytest.mark.parametrize(
        "cell_size,origin",
        [(float("nan"), (0.0, 0.0)), (float("inf"), (0.0, 0.0)), (1.0, (float("nan"), 0.0))],
    )
    def test_spec_rejects_non_finite(self, cell_size, origin):
        with pytest.raises(ValueError):
            LatticeSpec(1, 1, cell_size, origin)


class TestAssemble:
    def test_single_cell_equals_cell_matrix(self):
        matrix = cell_matrix(born_set())
        _, system = make_system(1, 1, born_set())
        # cell corner order (A, B, C, D) maps to particles (0, 1, 3, 2)
        perm = np.array([0, 1, 2, 3, 6, 7, 4, 5])
        np.testing.assert_allclose(
            system.stiffness.toarray(), matrix[np.ix_(perm, perm)], atol=1e-15
        )

    def test_symmetric(self):
        _, system = make_system(3, 2, modified_set())
        diff = (system.stiffness - system.stiffness.T).toarray()
        assert np.abs(diff).max() <= 1e-14 * np.abs(system.stiffness.toarray()).max()

    def test_shared_edge_restores_full_normal_stiffness(self):
        # vertical bond 1-4 is shared by both cells of a 2x1 lattice; each
        # contributes -k_n1 / 2 to the v-v coupling
        kn1 = 2.0
        _, system = make_system(2, 1, born_set(kn1=kn1, ks1=0.0, kn2=0.0))
        K = system.stiffness.toarray()
        assert K[2 * 1 + 1, 2 * 4 + 1] == pytest.approx(-kn1)
        # boundary bond 0-3 belongs to one cell only
        assert K[2 * 0 + 1, 2 * 3 + 1] == pytest.approx(-0.5 * kn1)

    @pytest.mark.parametrize("stiffness", [born_set(), modified_set()])
    def test_translations_in_null_space(self, stiffness):
        mesh, system = make_system(3, 2, stiffness)
        K = system.stiffness
        scale = np.abs(K.toarray()).max()
        for direction in (0, 1):
            t = np.zeros(mesh.n_dofs)
            t[direction::2] = 1.0
            assert np.abs(K @ t).max() <= 1e-12 * scale

    def test_global_rotation_only_free_for_multibond(self):
        spec = LatticeSpec(4, 3, 0.25)
        mesh = build_mesh(spec)
        center = mesh.positions.mean(axis=0)
        rot = np.empty(mesh.n_dofs)
        rot[0::2] = -(mesh.positions[:, 1] - center[1])
        rot[1::2] = mesh.positions[:, 0] - center[0]

        for nu, expect_free in ((0.3, False), (1.0 / 3.0, True)):
            born = assemble(mesh, cell_matrix(calibrate(Material(2e11, nu, 0.01), BORN)))
            scale = np.abs(born.stiffness.toarray()).max() * np.linalg.norm(rot)
            residual = np.linalg.norm(born.stiffness @ rot)
            assert (residual <= 1e-9 * scale) == expect_free, nu

        mod = assemble(mesh, cell_matrix(calibrate(Material(2e11, 0.3, 0.01), MODIFIED)))
        scale = np.abs(mod.stiffness.toarray()).max() * np.linalg.norm(rot)
        assert np.linalg.norm(mod.stiffness @ rot) <= 1e-9 * scale

    def test_equals_coo_oracle(self):
        # a calibrated cell has the square's symmetry, so the entries summed
        # into one slot are equal up to sign and any summation order gives
        # the same bits; integer entries make the random cell's sums exact
        random = np.random.default_rng(7).integers(-1000, 1000, (8, 8)).astype(float)
        random += random.T
        # a slot fed by one cell keeps the sign of a -0.0 entry, as the COO sum does
        random[0, 7] = random[7, 0] = -0.0
        cells = [random] + [
            cell_matrix(calibrate(Material(2e11, nu, 0.01, regime), model))
            for regime in REGIMES
            for model in (BORN, MODIFIED)
            for nu in (0.3, 0.49)
        ]
        for nx in range(1, 13):
            for ny in range(1, 13):
                mesh = build_mesh(LatticeSpec(nx, ny, 0.1))
                for matrix in cells:
                    stiffness = assemble(mesh, matrix).stiffness
                    oracle = coo_assembly(mesh, matrix)
                    np.testing.assert_array_equal(stiffness.indptr, oracle.indptr)
                    np.testing.assert_array_equal(stiffness.indices, oracle.indices)
                    np.testing.assert_array_equal(
                        stiffness.data.view(np.uint64), oracle.data.view(np.uint64)
                    )

    def test_general_cell_equals_coo_oracle_up_to_summation_order(self, rng):
        # up to four entries meet in one slot; two orders of summing them
        # differ by at most 2 x 3 roundings of their magnitude sum
        matrix = rng.standard_normal((8, 8)) * 10.0 ** rng.uniform(-3, 3, (8, 8))
        matrix += matrix.T
        tol = 24 * np.finfo(float).eps * np.abs(matrix).max()
        for nx, ny in ((1, 1), (3, 2), (12, 12)):
            mesh = build_mesh(LatticeSpec(nx, ny, 0.1))
            stiffness = assemble(mesh, matrix).stiffness
            oracle = coo_assembly(mesh, matrix)
            np.testing.assert_array_equal(stiffness.indices, oracle.indices)
            np.testing.assert_allclose(stiffness.data, oracle.data, rtol=0.0, atol=tol)

    def test_assembly_deterministic(self):
        _, first = make_system(5, 4, modified_set())
        _, second = make_system(5, 4, modified_set())
        assert (first.stiffness != second.stiffness).nnz == 0

    def test_rejects_wrong_shape(self):
        mesh = build_mesh(LatticeSpec(1, 1, 1.0))
        with pytest.raises(ValueError):
            assemble(mesh, np.zeros((6, 6)))

    def test_forces_start_zero(self):
        mesh, system = make_system(2, 2, born_set())
        assert system.forces.shape == (mesh.n_dofs,)
        assert np.all(system.forces == 0.0)


class TestLineOrder:
    """The free DOFs come by lines across the shorter side of the block that is factored."""

    @pytest.mark.parametrize(
        "nx,ny,moved,columns",
        [
            (4, 3, False, True),  # odd ny: no mirror, the whole plate, nx >= ny
            (3, 7, False, False),  # the whole plate, nx < ny: rows
            (3, 4, False, True),  # the mirror: the half-plate, 2 nx >= ny
            (3, 4, True, False),  # a moved support drops the mirror: the whole plate
            (2, 8, False, False),  # the half-plate, 2 nx < ny
            (4, 4, True, True),  # a square plate: columns
        ],
    )
    def test_lines_cross_the_shorter_side_of_the_block(self, nx, ny, moved, columns):
        system = make_system(nx, ny, modified_set())[1]
        reduced = apply_constraints(system, Constraints.from_pairs([(0, 1e-6)] if moved else []))
        assert (reduced.mirror is None) == (moved or ny % 2 == 1)
        order = column_order(nx, ny, columns)
        np.testing.assert_array_equal(reduced.free, order[order != 0] if moved else order)

    def test_order_travels_to_the_reduced_system(self):
        mesh, system = make_system(5, 3, modified_set())
        loads = LoadSpec(point_forces=((7, (1.0, 2.0)),))
        loaded = apply_loads(system, mesh, loads, thickness=0.01)
        pairs = fix_nodes(mesh.edge_nodes("bottom"), "xy") + [(2 * 23, 0.5)]
        reduced = apply_constraints(loaded, Constraints.from_pairs(pairs))
        fixed = [dof for dof, _ in pairs]
        np.testing.assert_array_equal(
            reduced.free, [d for d in column_order(5, 3) if d not in fixed]
        )
        K = system.stiffness.toarray()
        np.testing.assert_array_equal(
            reduced.matrix.toarray(), K[np.ix_(reduced.free, reduced.free)]
        )
        np.testing.assert_array_equal(
            reduced.rhs, loaded.forces[reduced.free] - 0.5 * K[reduced.free, 2 * 23]
        )

    @pytest.mark.parametrize("nx,ny", [(2, 2), (8, 8), (16, 16), (16, 15), (5, 12), (12, 5)])
    def test_a_plate_without_a_mirror_is_one_narrow_band(self, nx, ny):
        system = make_system(nx, ny, modified_set())[1]
        pinned = Constraints.from_pairs([(0, 1e-6)])
        matrix = apply_constraints(system, pinned).matrix.tocoo()
        assert np.abs(matrix.row - matrix.col).max() <= 2 * min(nx, ny) + 5


class TestReducedStencil:
    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_matches_sliced_oracle(self, kind, rng):
        size = (4, 4) if kind in (UNIAXIAL, PURE_SHEAR) else (16, 4)
        case = lsm2d.make_case(kind, 0.3, mesh_sizes=(size,))
        mesh = case_mesh(case, size)
        supports = case_constraints(case, mesh)
        # the same supports with one of them moved: its value goes to the rhs
        moved = Constraints(supports.dofs, np.where(supports.dofs == supports.dofs[-1], 1e-6, 0.0))
        forces = load_vector(mesh, case_loads(case), case.material.thickness)
        fixed = set(supports.dofs.tolist())
        # every plate here is at least as wide as it is tall, so with or
        # without the mirror its free DOFs come by columns (rows: see
        # test_row_order_matches_sliced_oracle)
        free = np.array([dof for dof in column_order(*size) if dof not in fixed])
        matrices = [
            cell_matrix(calibrate(dataclasses.replace(case.material, regime=regime), model))
            for regime in REGIMES
            for model in (BORN, MODIFIED)
        ]
        # integer entries keep the COO oracle's sums exact; the table of this
        # cell is not mirror-symmetric, so fill must drop the mirror
        random_cell = rng.integers(-1000, 1000, (8, 8)).astype(float)
        matrices.append(random_cell + random_cell.T)
        for constraints in (supports, moved):
            stencil = reduce_stencil(mesh, forces, constraints)
            assert stencil.pattern.matrix.has_canonical_format
            for matrix in matrices:
                stiffness = coo_assembly(mesh, matrix)
                # the reduced matrix is the slice in scipy's canonical order
                oracle = sliced_reduction(stiffness, free).sorted_indices()
                rhs = forces[free] - stiffness[free][:, constraints.dofs] @ constraints.values
                system = apply_loads(assemble(mesh, matrix), mesh, case_loads(case), 0.01)
                np.testing.assert_array_equal(system.forces, forces)
                eliminated = apply_constraints(system, constraints)
                filled = stencil.fill(stencil_values(matrix))
                for reduced in (eliminated, filled):
                    assert reduced.matrix.has_canonical_format
                    np.testing.assert_array_equal(reduced.free, free)
                    np.testing.assert_array_equal(reduced.matrix.indptr, oracle.indptr)
                    np.testing.assert_array_equal(reduced.matrix.indices, oracle.indices)
                    np.testing.assert_array_equal(
                        reduced.matrix.data.view(np.uint64), oracle.data.view(np.uint64)
                    )
                    np.testing.assert_array_equal(reduced.rhs.view(np.uint64), rhs.view(np.uint64))
                np.testing.assert_equal(filled.mirror, eliminated.mirror)
                if constraints is moved:
                    assert filled.mirror is None
            assert filled.mirror is None

    @pytest.mark.parametrize(
        "nx,ny,pins,moved",
        [
            (2, 6, "left", False),  # the mirror: the half-plate, nx < ny / 2: rows
            (3, 8, "corners", False),  # the mirror, pins on the axis too: rows
            (2, 7, "left", False),  # odd ny: no mirror, the whole plate: rows
            (1, 1, "left", False),  # one cell: no mirror, nx >= ny: columns
            (2, 6, "middle", False),  # a whole line fixed, on the axis: rows
            (2, 6, "bottom", False),  # a whole line fixed, off the axis: no mirror
            (2, 6, "all", False),  # every DOF fixed: an empty system
            (3, 8, "left", True),  # a nonzero prescribed value: the coupling, rows
        ],
    )
    def test_row_order_matches_sliced_oracle(self, nx, ny, pins, moved, rng):
        mesh = build_mesh(LatticeSpec(nx, ny, 0.1))
        grid = np.arange(mesh.n_particles).reshape(ny + 1, nx + 1)
        nodes = {
            "left": grid[:, 0],
            "corners": [grid[0, 0], grid[ny, 0], grid[ny // 2, nx]],
            "middle": grid[ny // 2],
            "bottom": grid[0],
            "all": grid.ravel(),
        }[pins]
        supports = Constraints.from_pairs(fix_nodes([int(p) for p in nodes], "xy"))
        moved_value = np.where(supports.dofs == supports.dofs[-1], 1e-6, 0.0)
        constraints = Constraints(supports.dofs, moved_value if moved else supports.values)
        forces = rng.standard_normal(mesh.n_dofs)
        stencil = reduce_stencil(mesh, forces, constraints)
        fixed = set(constraints.dofs.tolist())
        # the oracle's mirror: particle (ix, iy) -> (ix, ny - iy), kept for
        # zero supports that map onto themselves
        image = np.column_stack([2 * grid[::-1].ravel(), 2 * grid[::-1].ravel() + 1]).ravel()
        symmetric = ny % 2 == 0 and not moved and fixed == set(image[constraints.dofs].tolist())
        height = ny // 2 if symmetric else ny
        order = column_order(nx, ny, nx >= height)
        free = np.array([dof for dof in order if dof not in fixed], dtype=int)
        np.testing.assert_array_equal(stencil.pattern.free, free)
        assert stencil.pattern.free.dtype == free.dtype
        if symmetric:
            position = {dof: k for k, dof in enumerate(free)}
            expected = [position[dof] for dof in image[free]]
            np.testing.assert_array_equal(stencil.pattern.mirror, expected)
        else:
            assert stencil.pattern.mirror is None
        assert (stencil.coupling is not None) == moved
        # integer entries keep the COO oracle's sums exact
        random_cell = rng.integers(-1000, 1000, (8, 8)).astype(float)
        random_cell += random_cell.T
        for matrix in (random_cell, cell_matrix(modified_set())):
            stiffness = coo_assembly(mesh, matrix)
            oracle = sliced_reduction(stiffness, free)
            assert oracle.has_canonical_format
            rhs = forces[free] - stiffness[free][:, constraints.dofs] @ constraints.values
            filled = stencil.fill(stencil_values(matrix))
            assert filled.matrix.has_canonical_format
            for name in ("indptr", "indices", "data"):
                ours, theirs = getattr(filled.matrix, name), getattr(oracle, name)
                assert ours.dtype == theirs.dtype, name
                assert ours.tobytes() == theirs.tobytes(), name
            assert filled.rhs.dtype == rhs.dtype and filled.rhs.tobytes() == rhs.tobytes()
            # the random cell is not mirror-symmetric, so fill drops the mirror
            mirrored = symmetric and matrix is not random_cell
            np.testing.assert_equal(filled.mirror, stencil.pattern.mirror if mirrored else None)

    def test_an_integer_load_solves_as_its_float_copy(self):
        case = lsm2d.make_case(CANTILEVER, 0.3, mesh_sizes=((16, 4),))
        mesh = case_mesh(case, (16, 4))
        supports = case_constraints(case, mesh)
        table = stencil_values(cell_matrix(calibrate(case.material, MODIFIED)))
        forces = np.zeros(mesh.n_dofs, np.int64)
        forces[1] = -1000
        expected = solve(reduce_stencil(mesh, forces.astype(float), supports).fill(table))
        reduced = reduce_stencil(mesh, forces, supports).fill(table)
        assert reduced.rhs.dtype == np.float64
        # a system built by hand may keep the integer load
        by_hand = dataclasses.replace(reduced, rhs=forces[reduced.free])
        for system in (reduced, by_hand):
            solution = solve(system)
            assert solution.u.dtype == np.float64
            assert solution.u.tobytes() == expected.u.tobytes()
            assert solution.residual == expected.residual

    def test_rejects_foreign_forces_and_dofs(self):
        mesh = build_mesh(LatticeSpec(3, 2, 1.0))
        pinned = Constraints.from_pairs(fix_nodes([0], "xy"))
        with pytest.raises(ValueError):
            reduce_stencil(mesh, np.zeros(mesh.n_dofs + 2), pinned)
        with pytest.raises(ValueError):
            reduce_stencil(mesh, np.zeros(mesh.n_dofs), Constraints.from_pairs([(mesh.n_dofs, 0.0)]))

    @pytest.mark.parametrize(
        "nx,ny,pins",
        [
            (3, 8, "left"),  # a whole fixed edge, nx < ny: rows
            (8, 3, "left"),  # the same edge, nx >= ny: columns
            (4, 4, "bottom x"),  # an edge fixed in x alone: columns
            (2, 7, "random"),  # random pins in random order: rows
            (7, 2, "random"),  # and columns
            (1, 1, "random"),  # one cell
        ],
    )
    def test_coupling_matches_the_sliced_oracle(self, nx, ny, pins, rng):
        # the free rows' entries in the fixed columns come from the pattern's
        # own pass, in fixed's order and each row's in the global order, as
        # slicing the global matrix gives them
        mesh = build_mesh(LatticeSpec(nx, ny, 0.1))
        grid = np.arange(mesh.n_particles).reshape(ny + 1, nx + 1)
        if pins == "random":
            dofs = rng.choice(mesh.n_dofs, size=max(2, mesh.n_dofs // 5), replace=False)
        else:
            dofs = {"left": (2 * grid[:, :1] + [0, 1]).ravel(), "bottom x": 2 * grid[0]}[pins]
        constraints = Constraints(dofs, rng.uniform(-1e-3, 1e-3, dofs.size))
        forces = rng.standard_normal(mesh.n_dofs)
        stencil = reduce_stencil(mesh, forces, constraints)
        assert stencil.coupling.shape == (stencil.pattern.free.size, dofs.size)
        random_cell = rng.integers(-1000, 1000, (8, 8)).astype(float)
        random_cell += random_cell.T
        for matrix in (random_cell, cell_matrix(modified_set())):
            stiffness = coo_assembly(mesh, matrix)
            free = stencil.pattern.free
            oracle = sliced_reduction(stiffness, free, dofs)
            coupling = lsm2d.lattice._fill(stencil.coupling, stencil_values(matrix))
            for name in ("indptr", "indices", "data"):
                ours, theirs = getattr(coupling, name), getattr(oracle, name)
                assert ours.dtype == theirs.dtype, name
                assert ours.tobytes() == theirs.tobytes(), name
            rhs = forces[free] - oracle @ constraints.values
            filled = stencil.fill(stencil_values(matrix))
            assert filled.rhs.dtype == rhs.dtype and filled.rhs.tobytes() == rhs.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_forces_are_rejected_where_they_act(self, value):
        # a bad force on a fixed DOF used to be dropped with its row, and one
        # on a free DOF to read as an overflow of the filled system
        mesh = build_mesh(LatticeSpec(3, 2, 1.0))
        pinned = Constraints.from_pairs(fix_nodes([0], "xy"))
        for dof in (1, mesh.n_dofs - 1):  # fixed, then free
            forces = np.zeros(mesh.n_dofs)
            forces[dof] = value
            with pytest.raises(ValueError, match=f"forces are not finite: {value} on DOF {dof}$"):
                reduce_stencil(mesh, forces, pinned)

    def test_fill_rejects_a_matrix_or_load_that_is_not_finite(self):
        # finite stiffnesses near the float maximum: the table's sums of
        # several cells overflow, silently, while single contributions stay
        # finite, and a plate of one cell uses only those
        material = Material(1e308, 0.3, 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = stencil_values(cell_matrix(calibrate(material, MODIFIED)))
        assert not np.isfinite(values).all()
        for nx, ny, finite in ((1, 1, True), (2, 2, False)):
            mesh = build_mesh(LatticeSpec(nx, ny, 1.0))
            pinned = Constraints.from_pairs(fix_nodes([0], "xy"))
            stencil = reduce_stencil(mesh, np.zeros(mesh.n_dofs), pinned)
            if finite:
                assert np.isfinite(stencil.fill(values).matrix.data).all()
            else:
                with pytest.raises(ValueError, match="not finite"):
                    stencil.fill(values)
        forces = np.zeros(mesh.n_dofs)
        forces[-1] = np.inf
        with pytest.raises(ValueError, match="not finite"):
            reduce_stencil(mesh, forces, pinned).fill(stencil_values(cell_matrix(born_set())))

    def test_filled_matrices_share_no_arrays(self):
        mesh = build_mesh(LatticeSpec(3, 2, 1.0))
        stencil = reduce_stencil(
            mesh, np.zeros(mesh.n_dofs), Constraints.from_pairs(fix_nodes([0], "xy"))
        )
        table = stencil_values(cell_matrix(born_set()))
        first, second = (stencil.fill(table).matrix for _ in range(2))
        expected = second.toarray()
        # an in-place change to one fill reaches neither its sibling nor the pattern
        for array in (first.data, first.indices, first.indptr):
            array[:] = 0
        assert second.has_canonical_format
        np.testing.assert_array_equal(second.toarray(), expected)
        third = stencil.fill(table).matrix
        assert third.has_canonical_format
        np.testing.assert_array_equal(third.toarray(), expected)


# scipy calls that put a matrix in canonical order in place, before they read it
CANONICALIZING = {
    "abs": abs,
    "max": lambda matrix: matrix.max(),
    "sum": lambda matrix: matrix.sum(),
    "count_nonzero": lambda matrix: matrix.count_nonzero(),
    "norm_inf": lambda matrix: scipy.sparse.linalg.norm(matrix, np.inf),
}


class TestCanonicalOrder:
    @pytest.mark.parametrize("call", sorted(CANONICALIZING))
    @pytest.mark.parametrize("kind,size", [(UNIAXIAL, (8, 8)), (CANTILEVER, (16, 4))])
    def test_canonicalizing_calls_leave_the_band_layouts_valid(self, kind, size, call):
        # the layouts a stencil memoizes index the matrix's data: a call
        # that sorted a fill in place would leave them pointing at other entries
        canonicalize = CANONICALIZING[call]
        case = lsm2d.make_case(kind, 0.3, mesh_sizes=(size,))
        mesh = case_mesh(case, size)
        forces = load_vector(mesh, case_loads(case), case.material.thickness)
        supports = case_constraints(case, mesh)
        modified, born = (
            stencil_values(cell_matrix(calibrate(case.material, model)))
            for model in (MODIFIED, BORN)
        )
        # solved again, a system returns the first solve's bytes
        reduced = reduce_stencil(mesh, forces, supports).fill(modified)
        first = solve(reduced).u
        canonicalize(reduced.matrix)
        assert solve(reduced).u.tobytes() == first.tobytes()
        # a sibling solves after a canonicalized system built the memo
        stencil = reduce_stencil(mesh, forces, supports)
        canonicalized = stencil.fill(modified)
        canonicalize(canonicalized.matrix)
        solve(canonicalized)
        sibling = stencil.fill(born)
        u = solve(sibling).u[sibling.free]
        residual = np.linalg.norm(sibling.rhs - sibling.matrix @ u)
        assert residual <= 1e-10 * np.linalg.norm(sibling.rhs)
        # under a zero load no residual would catch a wrong band: the inertia stays
        unloaded = reduce_stencil(mesh, np.zeros(mesh.n_dofs), supports).fill(modified)
        inertia = solve(unloaded).inertia
        assert inertia == (0, 0, unloaded.free.size)
        canonicalize(unloaded.matrix)
        assert solve(unloaded).inertia == inertia

    @staticmethod
    def born_cantilever():
        """Plane-strain Born at nu = 1/4 on 8x2, whose reduced matrix keeps explicit zeros."""
        case = lsm2d.make_case(CANTILEVER, 0.25, PLANE_STRAIN, mesh_sizes=((8, 2),))
        mesh = case_mesh(case, (8, 2))
        forces = load_vector(mesh, case_loads(case), case.material.thickness)
        stencil = reduce_stencil(mesh, forces, case_constraints(case, mesh))
        return stencil, stencil_values(cell_matrix(calibrate(case.material, BORN)))

    def test_a_changed_pattern_is_refused(self):
        stencil, values = self.born_cantilever()
        reduced = stencil.fill(values)
        solve(reduced)
        assert reduced.matrix.nnz == 616
        reduced.matrix.eliminate_zeros()
        assert reduced.matrix.nnz == 350
        with pytest.raises(ValueError, match="350 entries, its band layouts index 616"):
            solve(reduced)
        # a write to a new position adds an entry
        reduced = stencil.fill(values)
        dense = reduced.matrix.toarray()
        pattern = reduced.matrix.copy()
        pattern.data[:] = 1.0
        i, j = np.argwhere(pattern.toarray() == 0.0)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.sparse.SparseEfficiencyWarning)
            reduced.matrix[i, j] = reduced.matrix[j, i] = 0.0
        np.testing.assert_array_equal(reduced.matrix.toarray(), dense)
        with pytest.raises(ValueError, match="618 entries, its band layouts index 616"):
            solve(reduced)
        # the memo its siblings share is intact
        sibling = stencil.fill(values)
        u = solve(sibling).u[sibling.free]
        assert np.linalg.norm(sibling.rhs - sibling.matrix @ u) <= 1e-10 * np.linalg.norm(sibling.rhs)

    def test_an_unsorted_matrix_is_refused(self):
        stencil, values = self.born_cantilever()
        reduced = stencil.fill(values)
        matrix = reduced.matrix
        # the same matrix with its first row's entries reversed
        row = slice(matrix.indptr[0], matrix.indptr[1])
        matrix.indices[row], matrix.data[row] = matrix.indices[row][::-1], matrix.data[row][::-1]
        matrix.has_sorted_indices = False
        with pytest.raises(ValueError, match="canonical CSR order"):
            solve(reduced)

    def test_a_write_to_an_existing_entry_still_solves(self):
        # a square plate has no mirror, which a write to one entry would break
        case = lsm2d.make_case(UNIAXIAL, 0.25, PLANE_STRAIN, mesh_sizes=((4, 4),))
        mesh = case_mesh(case, (4, 4))
        forces = load_vector(mesh, case_loads(case), case.material.thickness)
        stencil = reduce_stencil(mesh, forces, case_constraints(case, mesh))
        reduced = stencil.fill(stencil_values(cell_matrix(calibrate(case.material, BORN))))
        assert reduced.mirror is None
        solve(reduced)
        nnz = reduced.matrix.nnz
        reduced.matrix[0, 0] *= 2.0
        reduced.matrix[0, 1] = reduced.matrix[1, 0] = 0.5 * reduced.matrix[0, 1]
        assert reduced.matrix.nnz == nnz
        without_memo = dataclasses.replace(reduced, matrix=reduced.matrix.copy(), layouts=None)
        expected = solve(without_memo)
        solution = solve(reduced)
        assert solution.u.tobytes() == expected.u.tobytes()
        assert solution.inertia == expected.inertia


class TestApplyLoads:
    def test_uniform_traction_trapezoidal_weights(self):
        mesh, system = make_system(2, 2, born_set(), cell_size=0.1)
        t, sigma = 0.01, 1e8
        loaded = apply_loads(
            system,
            mesh,
            LoadSpec(edge_tractions=(EdgeTraction("right", UNIFORM, sigma, (1.0, 0.0)),)),
            thickness=t,
        )
        nodes = mesh.edge_nodes("right")
        fx = loaded.forces[2 * nodes]
        np.testing.assert_allclose(fx, [5e4, 1e5, 5e4])
        assert loaded.forces.sum() == pytest.approx(sigma * t * 0.2)
        # original system untouched
        assert np.all(system.forces == 0.0)

    def test_linear_profile_antisymmetric(self):
        mesh, system = make_system(2, 2, born_set(), cell_size=0.1, origin=(0.0, -0.1))
        t, sigma = 0.01, 1e8
        loaded = apply_loads(
            system,
            mesh,
            LoadSpec(edge_tractions=(EdgeTraction("right", LINEAR, sigma, (1.0, 0.0)),)),
            thickness=t,
        )
        fx = loaded.forces[2 * mesh.edge_nodes("right")]
        half_weight = 0.1 * t * 0.5
        np.testing.assert_allclose(fx, [-sigma * half_weight, 0.0, sigma * half_weight])
        # a linear end traction carries zero resultant
        assert abs(loaded.forces.sum()) <= 1e-9 * sigma * t * 0.1

    def test_direction_vector_applies_to_both_dofs(self):
        mesh, system = make_system(1, 1, born_set(), cell_size=2.0)
        loaded = apply_loads(
            system,
            mesh,
            LoadSpec(edge_tractions=(EdgeTraction("top", UNIFORM, 10.0, (0.6, -0.8)),)),
            thickness=0.5,
        )
        nodes = mesh.edge_nodes("top")
        np.testing.assert_allclose(loaded.forces[2 * nodes], 0.6 * 10.0 * 0.5 * 1.0)
        np.testing.assert_allclose(loaded.forces[2 * nodes + 1], -0.8 * 10.0 * 0.5 * 1.0)

    def test_point_forces_accumulate(self):
        mesh, system = make_system(1, 1, born_set())
        loaded = apply_loads(
            system,
            mesh,
            LoadSpec(point_forces=((2, (3.0, -2.0)), (2, (1.0, 0.0)))),
            thickness=1.0,
        )
        assert loaded.forces[4] == pytest.approx(4.0)
        assert loaded.forces[5] == pytest.approx(-2.0)

    def test_thickness_validation(self):
        mesh, system = make_system(1, 1, born_set())
        with pytest.raises(ValueError):
            apply_loads(system, mesh, LoadSpec(), thickness=0.0)

    def test_traction_validation(self):
        with pytest.raises(ValueError):
            EdgeTraction("diagonal", UNIFORM, 1.0, (1.0, 0.0))
        with pytest.raises(ValueError):
            EdgeTraction("top", "quadratic", 1.0, (1.0, 0.0))
        with pytest.raises(ValueError):
            EdgeTraction("top", UNIFORM, float("nan"), (1.0, 0.0))

    def test_traction_direction_must_be_finite(self):
        with pytest.raises(ValueError):
            EdgeTraction("top", UNIFORM, 1.0, (float("nan"), 0.0))
        with pytest.raises(ValueError):
            EdgeTraction("top", UNIFORM, 1.0, (1.0, float("inf")))

    def test_point_forces_finite_and_on_the_lattice(self):
        with pytest.raises(ValueError):
            LoadSpec(point_forces=((0, (float("nan"), 0.0)),))
        mesh, system = make_system(1, 1, born_set())
        for node in (-1, mesh.n_particles):
            with pytest.raises(ValueError):
                apply_loads(system, mesh, LoadSpec(point_forces=((node, (1.0, 0.0)),)), 1.0)

    @pytest.mark.parametrize("node", [1.5, 1.0, np.float64(1.0), True, np.True_, "1"], ids=repr)
    def test_point_force_nodes_must_be_integers(self, node):
        # 1.5 used to raise numpy's IndexError in load_vector, True to load particle 1
        with pytest.raises(ValueError, match="integer"):
            LoadSpec(point_forces=((node, (1.0, 0.0)),))

    def test_point_force_nodes_take_numpy_integers(self):
        mesh = build_mesh(LatticeSpec(1, 1, 1.0))
        loads = LoadSpec(point_forces=((np.int64(1), (1.0, 0.0)), (np.int32(3), (0.0, 2.0))))
        np.testing.assert_array_equal(load_vector(mesh, loads, 1.0), [0, 0, 1, 0, 0, 0, 0, 2])

    def test_rejects_a_foreign_mesh(self):
        loads = LoadSpec(edge_tractions=(EdgeTraction("right", UNIFORM, 1.0, (1.0, 0.0)),))
        mesh, system = make_system(8, 2, born_set())
        # the transposed grid has as many particles, with another right edge
        with pytest.raises(ValueError, match="loads refer to"):
            apply_loads(system, build_mesh(LatticeSpec(2, 8, 1.0)), loads, 1.0)
        mesh, system = make_system(2, 2, born_set())
        with pytest.raises(ValueError, match="loads refer to"):
            apply_loads(system, build_mesh(LatticeSpec(2, 2, 0.5)), loads, 1.0)
        # an equal lattice built again is the system's own
        loaded = apply_loads(system, build_mesh(LatticeSpec(2, 2, 1.0)), loads, 1.0)
        np.testing.assert_array_equal(loaded.forces, load_vector(mesh, loads, 1.0))


class TestConstraints:
    def test_duplicate_dof_rejected(self):
        with pytest.raises(ValueError):
            Constraints.from_pairs([(0, 0.0), (0, 1.0)])

    def test_directly_built_duplicate_dof_rejected(self):
        # elimination would subtract the repeated DOF's coupling twice
        with pytest.raises(ValueError, match="duplicate"):
            Constraints(np.array([0, 1, 0]), np.array([0.1, 0.0, 0.1]))

    def test_values_of_another_shape_rejected(self):
        # a shorter array used to broadcast against the DOFs
        with pytest.raises(ValueError, match="shape"):
            Constraints(np.array([0, 1, 2]), np.array([0.1]))
        with pytest.raises(ValueError, match="shape"):
            Constraints(np.array([0, 1]), np.zeros((2, 1)))

    def test_non_finite_values_rejected(self):
        # NaN used to surface only later, as a singular stiffness matrix
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                Constraints(np.array([0, 1]), np.array([0.0, value]))
            with pytest.raises(ValueError, match="finite"):
                Constraints.from_pairs([(0, value)])

    def test_dofs_must_be_one_dimensional_integers(self):
        with pytest.raises(ValueError, match="integer"):
            Constraints(np.array([0.0, 1.0]), np.zeros(2))
        with pytest.raises(ValueError, match="integer"):
            Constraints(np.array([[0, 1]]), np.zeros((1, 2)))
        empty = Constraints.from_pairs([])
        assert empty.dofs.size == empty.values.size == 0

    @pytest.mark.parametrize("dof", [2.5, 2.0, np.float64(2.0), True, np.True_, "3"], ids=repr)
    def test_from_pairs_rejects_non_integer_dofs(self, dof):
        # these used to be truncated or parsed: 2.5 pinned DOF 2, True DOF 1, "3" DOF 3
        with pytest.raises(ValueError, match="integer"):
            Constraints.from_pairs([(0, 0.0), (dof, 0.0)])

    def test_from_pairs_takes_python_and_numpy_integers(self):
        constraints = Constraints.from_pairs([(3, 0.5), (np.int64(5), 0.0), (np.int32(0), 0.0)])
        np.testing.assert_array_equal(constraints.dofs, [3, 5, 0])
        np.testing.assert_array_equal(constraints.values, [0.5, 0.0, 0.0])

    def test_lists_reduce_and_solve_as_arrays(self):
        # a list used to pass the checks and fail later, in reduce_stencil
        case = lsm2d.make_case(CANTILEVER, 0.3, mesh_sizes=((8, 2),))
        mesh = case_mesh(case, (8, 2))
        supports = case_constraints(case, mesh)
        values = np.where(supports.dofs == supports.dofs[-1], 1e-6, 0.0)
        system = apply_loads(
            assemble(mesh, cell_matrix(calibrate(case.material, MODIFIED))),
            mesh, case_loads(case), case.material.thickness,
        )
        arrays = Constraints(supports.dofs, values)
        lists = Constraints(supports.dofs.tolist(), values.tolist())
        np.testing.assert_array_equal(lists.dofs, arrays.dofs)
        np.testing.assert_array_equal(lists.values, arrays.values)
        by_array, by_list = apply_constraints(system, arrays), apply_constraints(system, lists)
        np.testing.assert_array_equal(by_list.free, by_array.free)
        assert (by_list.matrix != by_array.matrix).nnz == 0
        np.testing.assert_array_equal(by_list.rhs, by_array.rhs)
        np.testing.assert_array_equal(solve(by_list).displacements, solve(by_array).displacements)

    def test_out_of_range_dof_rejected(self):
        mesh, system = make_system(1, 1, born_set())
        with pytest.raises(ValueError):
            apply_constraints(system, Constraints.from_pairs([(99, 0.0)]))

    def test_fix_nodes_directions(self):
        assert fix_nodes([3], "x") == [(6, 0.0)]
        assert fix_nodes([3], "y") == [(7, 0.0)]
        assert fix_nodes([3], "xy") == [(6, 0.0), (7, 0.0)]
        with pytest.raises(ValueError):
            fix_nodes([3], "z")

    @pytest.mark.parametrize("node", [1.7, 1.0, np.float64(1.0), True, np.True_, "1"], ids=repr)
    def test_fix_nodes_rejects_non_integer_nodes(self, node):
        # these used to be truncated: 1.7 and True pinned particle 1
        with pytest.raises(ValueError, match="integer"):
            fix_nodes([0, node], "xy")

    def test_elimination_shapes(self):
        mesh, system = make_system(2, 2, born_set())
        constraints = Constraints.from_pairs(fix_nodes(mesh.edge_nodes("bottom"), "xy"))
        reduced = apply_constraints(system, constraints)
        assert reduced.matrix.shape == (12, 12)
        assert reduced.free.size == 12
        assert reduced.fixed.size == 6
        assert reduced.n_dofs == 18

    @pytest.mark.parametrize("stiffness", [born_set(), modified_set()])
    def test_affine_dirichlet_patch(self, stiffness):
        # prescribing an affine field on the whole boundary must reproduce
        # it exactly at the interior node: constraint elimination moves the
        # prescribed values to the right-hand side with the correct sign
        mesh, system = make_system(2, 2, stiffness)
        grad = np.array([[0.3, -0.1], [0.2, 0.4]])
        target = mesh.positions @ grad.T
        boundary = sorted(set(range(9)) - {4})
        pairs = []
        for node in boundary:
            pairs.append((2 * node, target[node, 0]))
            pairs.append((2 * node + 1, target[node, 1]))
        reduced = apply_constraints(system, Constraints.from_pairs(pairs))
        solution = solve(reduced)
        np.testing.assert_allclose(
            solution.displacements[4], target[4], rtol=1e-12, atol=1e-15
        )


class TestSolve:
    def uniaxial_reduced(self, stiffness, nx=2, ny=2, sigma=1e8):
        mesh, system = make_system(nx, ny, stiffness, cell_size=0.1)
        loads = LoadSpec(edge_tractions=(EdgeTraction("right", UNIFORM, sigma, (1.0, 0.0)),))
        system = apply_loads(system, mesh, loads, thickness=0.01)
        pairs = fix_nodes(mesh.edge_nodes("left"), "x") + fix_nodes(
            mesh.edge_nodes("bottom"), "y"
        )
        return apply_constraints(system, Constraints.from_pairs(pairs))

    def test_zero_load_zero_displacement(self):
        mesh, system = make_system(2, 2, born_set())
        pairs = fix_nodes(mesh.edge_nodes("bottom"), "xy")
        reduced = apply_constraints(system, Constraints.from_pairs(pairs))
        solution = solve(reduced)
        assert np.all(solution.u == 0.0)
        assert not solution.indefinite

    def test_superposition(self, rng):
        stiffness = calibrate(Material(2e11, 0.3, 0.01), MODIFIED)
        mesh, system = make_system(3, 3, stiffness, cell_size=0.1)
        pairs = fix_nodes(mesh.edge_nodes("bottom"), "xy")
        constraints = Constraints.from_pairs(pairs)

        def solve_for(forces):
            loaded = dataclasses.replace(system, forces=forces)
            return solve(apply_constraints(loaded, constraints)).u

        f1 = rng.normal(size=mesh.n_dofs) * 1e5
        f2 = rng.normal(size=mesh.n_dofs) * 1e5
        u12 = solve_for(f1 + f2)
        u1, u2 = solve_for(f1), solve_for(f2)
        np.testing.assert_allclose(
            u12, u1 + u2, rtol=0.0, atol=1e-10 * np.abs(u12).max()
        )

    def test_doubling_stiffness_halves_displacement(self):
        u1 = solve(self.uniaxial_reduced(born_set(2.0, 1.0, 3.0))).u
        u2 = solve(self.uniaxial_reduced(born_set(4.0, 2.0, 6.0))).u
        np.testing.assert_allclose(u2, 0.5 * u1, rtol=1e-10, atol=1e-20)

    def test_residual_reported_small(self):
        solution = solve(self.uniaxial_reduced(born_set()))
        assert solution.residual <= 1e-10 * 1e8

    def test_inertia_positive_definite_case(self):
        reduced = self.uniaxial_reduced(calibrate(Material(2e11, 0.2, 0.01), BORN))
        solution = solve(reduced)
        neg, zero, pos = solution.inertia
        assert (neg, zero) == (0, 0)
        assert pos == reduced.matrix.shape[0]
        assert not solution.indefinite

    def test_inertia_skippable(self):
        solution = solve(self.uniaxial_reduced(born_set()), compute_inertia=False)
        assert solution.inertia is None
        assert not solution.indefinite

    def test_unconstrained_rigid_modes_raise(self):
        mesh, system = make_system(2, 2, born_set())
        forces = np.zeros(mesh.n_dofs)
        forces[0::2] = 1.0  # net thrust along the free translation
        system = dataclasses.replace(system, forces=forces)
        reduced = apply_constraints(system, Constraints.from_pairs([]))
        with pytest.raises(SingularSystemError) as info:
            solve(reduced)
        # the failure carries the inertia of its own factor: two free
        # translations (rotation costs the Born cell energy)
        assert info.value.inertia == (0, 2, 16)

    def test_indefinite_system_solves_with_flag(self):
        # Born model past its stability threshold: factorizable but
        # indefinite, and the solution must say so
        stiffness = calibrate(Material(2e11, 0.49, 0.01), BORN)
        mesh, system = make_system(2, 2, stiffness, cell_size=0.1)
        loads = LoadSpec(edge_tractions=(EdgeTraction("top", UNIFORM, 1e8, (1.0, 0.0)),))
        system = apply_loads(system, mesh, loads, thickness=0.01)
        reduced = apply_constraints(
            system, Constraints.from_pairs(fix_nodes(mesh.edge_nodes("bottom"), "xy"))
        )
        solution = solve(reduced)
        assert solution.indefinite
        assert solution.inertia[0] > 0
        assert eigenvalue_inertia(reduced.matrix)[0] == solution.inertia[0]

    @pytest.mark.parametrize("kind", CASE_KINDS)
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize(
        "model,nu",
        [(BORN, 0.2), (BORN, 0.45), (BORN, 0.49), (MODIFIED, 0.3), (MODIFIED, 0.49)],
    )
    def test_pivot_inertia_matches_eigenvalue_count(self, kind, regime, model, nu):
        reduced = case_system(kind, model, nu, regime)
        solution = solve(reduced)
        assert solution.inertia == eigenvalue_inertia(reduced.matrix)
        assert solution.indefinite == (solution.inertia[0] > 0)

    @pytest.mark.parametrize("ny,value", [(1, 0.0), (2, 0.0), (2, 1e-3)])
    def test_fully_constrained_plate_returns_its_prescribed_values(self, ny, value):
        # no free DOF: with a mirror (ny = 2, zero values) both blocks are empty
        mesh, system = make_system(1, ny, modified_set())
        pairs = [(dof, value) for dof in range(mesh.n_dofs)]
        reduced = apply_constraints(system, Constraints.from_pairs(pairs))
        assert (reduced.mirror is not None) == (ny == 2 and value == 0.0)
        solution = solve(reduced)
        assert np.all(solution.u == value)
        assert (solution.inertia, solution.factor_nnz) == ((0, 0, 0), 0)

    def test_zero_diagonal_reads_its_inertia(self):
        # band Cholesky rejects the zero diagonal; the tiled LDL^T takes the
        # leading 2x2 block as one pivot, and its signs are the inertia
        matrix = scipy.sparse.csr_matrix(
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        )
        reduced = lsm2d.ReducedSystem(
            matrix=matrix,
            rhs=np.array([1.0, 2.0, 3.0]),
            free=np.arange(3),
            fixed=np.array([], dtype=int),
            fixed_values=np.array([]),
            n_dofs=3,
        )
        assert eigenvalue_inertia(matrix) == (1, 0, 2)
        solution = solve(reduced)
        np.testing.assert_allclose(solution.u, [2.0, 1.0, 1.5], rtol=1e-15)
        assert solution.inertia == (1, 0, 2)
        assert solution.indefinite

    @pytest.mark.parametrize(
        "kind,counts",
        [
            (UNIAXIAL, [(3, 0, 9), (12, 0, 28), (42, 0, 102), (170, 0, 374)]),
            (PURE_SHEAR, [(3, 0, 9), (11, 0, 29), (43, 0, 101), (170, 0, 374)]),
        ],
    )
    def test_born_at_0_4_in_plane_strain_is_indefinite_not_singular(self, kind, counts):
        # k_n2 + k_s1 = 0 to 2e-16 of either. The square plates have no
        # mirror: the whole LU without interchanges grew its pivots 1e14 to
        # 1e15 past the largest entry and read them as zero on 2x2, 8x8 and
        # 16x16; the tiled LDL^T of the whole matrix reads the eigenvalues
        stiffness = calibrate(Material(2e11, 0.4, 0.01, PLANE_STRAIN), BORN)
        assert abs(stiffness.k_n2 + stiffness.k_s1) <= 2e-16 * stiffness.k_n2
        for n, expected in zip((2, 4, 8, 16), counts):
            reduced = apply_constraints(*loaded_case(kind, BORN, 0.4, PLANE_STRAIN, (n, n)))
            assert reduced.mirror is None
            assert eigenvalue_inertia(reduced.matrix) == expected
            solution = solve(reduced)
            assert solution.inertia == expected and solution.indefinite
            assert solution.residual <= 1e-10 * np.linalg.norm(reduced.rhs)

    @pytest.mark.parametrize("kind", CASE_KINDS)
    @pytest.mark.parametrize("regime,nu", [(PLANE_STRESS, 1.0 / 3.0), (PLANE_STRAIN, 0.25)])
    def test_born_at_threshold_is_positive_definite(self, kind, regime, nu):
        assert calibrate(Material(2e11, nu, 0.01, regime), BORN).k_s1 == 0.0
        reduced = case_system(kind, BORN, nu, regime)
        solution = solve(reduced)
        assert solution.inertia == (0, 0, reduced.matrix.shape[0])
        assert not solution.indefinite


class TestFactorOrdering:
    """The band factors against SuperLU's minimum-degree factor of the whole matrix."""

    @pytest.mark.parametrize("regime", REGIMES)
    def test_indefinite_born_matches_minimum_degree(self, regime):
        system, constraints = loaded_case(CANTILEVER, BORN, 0.45, regime, (64, 16))
        solution = solve(apply_constraints(system, constraints))
        natural = natural_order(system, constraints)
        factor = mmd_factor(natural)
        np.testing.assert_array_equal(factor.perm_r, factor.perm_c)
        pivots = factor.U.diagonal()
        cutoff = 1e-12 * np.abs(pivots).max()
        neg, pos = int(np.sum(pivots < -cutoff)), int(np.sum(pivots > cutoff))
        assert neg > 0
        assert solution.inertia == (neg, pivots.size - neg - pos, pos)
        u = np.zeros(natural.n_dofs)
        u[natural.free] = factor.solve(natural.rhs)
        np.testing.assert_allclose(solution.u, u, rtol=0.0, atol=1e-10 * np.abs(u).max())
        assert solution.factor_nnz >= natural.matrix.nnz


class TestMirrorSplit:
    """A solve with a mirror factors every block for the inertia, else those the load excites."""

    @pytest.mark.parametrize("nx,ny", [(1, 2), (3, 4), (8, 2), (5, 6)])
    def test_lattice_mirror(self, nx, ny):
        mesh, system = make_system(nx, ny, modified_set())
        mirror, dofs = _grid_mirror(nx, ny), np.arange(mesh.n_dofs)
        np.testing.assert_array_equal(mirror[mirror], dofs)
        # fixed points are exactly the DOFs of the axis row iy = ny / 2
        on_axis = np.repeat(mesh.positions[:, 1] == ny / 2, 2)
        np.testing.assert_array_equal(mirror == dofs, on_axis)
        # each image is the same component at the mirrored particle
        positions = np.repeat(mesh.positions, 2, axis=0)
        np.testing.assert_array_equal(mirror % 2, dofs % 2)
        np.testing.assert_array_equal(positions[mirror], positions * [1.0, -1.0] + [0.0, ny])
        # and the stiffness is symmetric under the signed mirror, entry for
        # entry: the mirror keeps u and flips v
        sign = scipy.sparse.diags(np.tile([1.0, -1.0], mesh.n_particles))
        image = sign @ system.stiffness[mirror][:, mirror] @ sign
        assert (image != system.stiffness).nnz == 0

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("model", lsm2d.MODELS)
    def test_calibrated_cells_are_mirror_symmetric(self, model, regime):
        mesh = build_mesh(LatticeSpec(2, 2, 1.0))
        for nu in np.linspace(0.0, 0.49, 50):
            cell = cell_matrix(calibrate(Material(2e11, nu, 0.01, regime), model))
            assert apply_constraints(assemble(mesh, cell), UNSUPPORTED).mirror is not None, nu

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize("model", lsm2d.MODELS)
    def test_reduced_mirror(self, kind, model):
        system, constraints = loaded_case(kind, model, 0.3, PLANE_STRESS, (16, 4))
        reduced = apply_constraints(system, constraints)
        mirror, free, grid = reduced.mirror, reduced.free, _grid_mirror(16, 4)
        np.testing.assert_array_equal(mirror[mirror], np.arange(free.size))
        np.testing.assert_array_equal(free[mirror], grid[free])
        axis = grid == np.arange(system.forces.size)
        np.testing.assert_array_equal(mirror == np.arange(free.size), axis[free])
        assert np.isin(grid[reduced.fixed], reduced.fixed).all()
        # the sweep's path carries the same mirror
        case = lsm2d.make_case(kind, 0.3, mesh_sizes=((16, 4),))
        mesh = case_mesh(case, (16, 4))
        stencil = reduce_stencil(mesh, system.forces, constraints)
        filled = stencil.fill(stencil_values(cell_matrix(calibrate(case.material, model))))
        np.testing.assert_array_equal(filled.mirror, mirror)

    def test_no_mirror(self, rng):
        for kind in (UNIAXIAL, PURE_SHEAR):
            system, constraints = loaded_case(kind, MODIFIED, 0.3, PLANE_STRESS, (2, 2))
            assert apply_constraints(system, UNSUPPORTED).mirror is not None
            assert apply_constraints(system, constraints).mirror is None
        system, constraints = loaded_case(CANTILEVER, MODIFIED, 0.3, PLANE_STRESS, (8, 2))
        moved = Constraints(constraints.dofs, np.where(constraints.dofs % 2, 0.0, 1e-6))
        assert apply_constraints(system, constraints).mirror is not None
        assert apply_constraints(system, moved).mirror is None
        assert apply_constraints(make_system(4, 3, modified_set())[1], UNSUPPORTED).mirror is None
        cell = rng.normal(size=(8, 8))
        cell = cell + cell.T
        mesh, system = make_system(4, 2, modified_set())
        assert apply_constraints(system, UNSUPPORTED).mirror is not None
        assert apply_constraints(assemble(mesh, cell), UNSUPPORTED).mirror is None
        pairs = fix_nodes(mesh.edge_nodes("left"), "xy")
        stencil = reduce_stencil(mesh, np.ones(mesh.n_dofs), Constraints.from_pairs(pairs))
        assert stencil.pattern.mirror is not None
        assert stencil.fill(stencil_values(cell)).mirror is None

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize(
        "model,nu",
        [(BORN, 0.0), (BORN, 0.3), (BORN, 0.45), (BORN, 0.49)]
        + [(MODIFIED, 0.0), (MODIFIED, 0.3), (MODIFIED, 0.49)],
    )
    def test_solve_matches_whole_factor(self, kind, regime, model, nu):
        # Born past its threshold is indefinite and must still solve
        past_threshold = model == BORN and nu > (1.0 / 3.0 if regime == PLANE_STRESS else 0.25)
        for size in ((8, 2), (32, 8), (128, 32)):
            reduced = apply_constraints(*loaded_case(kind, model, nu, regime, size))
            assert reduced.mirror is not None
            if (kind, model, nu, regime) == (CANTILEVER, MODIFIED, 0.49, PLANE_STRAIN) and (
                size == (128, 32)
            ):
                # nearly incompressible: the whole factor, refined once, also
                # misses the 1e-10 residual tolerance here (1.5e-10)
                for compute_inertia in (True, False):
                    with pytest.raises(SingularSystemError, match="residual"):
                        solve(reduced, compute_inertia=compute_inertia)
                continue
            u, factor_nnz = whole_factor_solve(reduced)
            for compute_inertia in (True, False):
                solution = solve(reduced, compute_inertia=compute_inertia)
                np.testing.assert_allclose(solution.u, u, rtol=0.0, atol=1e-10 * np.abs(u).max())
                assert solution.residual <= 1e-10 * np.linalg.norm(reduced.rhs)
                assert solution.indefinite == (compute_inertia and past_threshold)
            # the last solve, without the inertia: one block, by band
            # Cholesky or, past the threshold, by the tiled LDL^T
            assert solution.inertia is None
            assert solution.factor_nnz < 0.6 * factor_nnz

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize("model,nu", [(MODIFIED, 0.3), (BORN, 0.45)])
    def test_only_the_excited_block_is_solved(self, monkeypatch, kind, model, nu):
        # with the inertia on both blocks are factored for their pivots, but
        # the odd load folds onto the block of parity -1 alone, factored
        # second, and only its solver runs
        factored, solved = [], []

        def spy(factor):
            def call(ab):
                result = factor(ab)
                if isinstance(result, int):  # the columns of a rejected Cholesky
                    return result
                apply, size, pivots = result
                block = len(factored)
                factored.append(size)

                def counted(rhs):
                    solved.append(block)
                    return apply(rhs)

                return counted, size, pivots

            return call

        for name in ("_band_cholesky", "_band_ldlt"):
            monkeypatch.setattr(lsm2d.lattice, name, spy(getattr(lsm2d.lattice, name)))
        for size in ((8, 2), (16, 4), (32, 8)):
            reduced = apply_constraints(*loaded_case(kind, model, nu, PLANE_STRESS, size))
            factored.clear()
            solved.clear()
            solution = solve(reduced)
            assert len(factored) == 2 and solution.factor_nnz == sum(factored)
            assert solved and set(solved) == {1}
            assert solution.inertia == eigenvalue_inertia(reduced.matrix)
            u, _ = whole_factor_solve(reduced)
            np.testing.assert_allclose(solution.u, u, rtol=0.0, atol=1e-10 * np.abs(u).max())

    def test_random_load_excites_both_blocks(self, rng):
        reduced = apply_constraints(*loaded_case(CANTILEVER, MODIFIED, 0.3, PLANE_STRAIN, (32, 8)))
        odd = solve(reduced, compute_inertia=False)
        loaded = dataclasses.replace(reduced, rhs=rng.normal(size=reduced.rhs.size) * 1e5)
        solution = solve(loaded, compute_inertia=False)
        u, factor_nnz = whole_factor_solve(loaded)
        np.testing.assert_allclose(solution.u, u, rtol=0.0, atol=1e-10 * np.abs(u).max())
        assert solution.residual <= 1e-10 * np.linalg.norm(loaded.rhs)
        assert odd.factor_nnz < solution.factor_nnz < factor_nnz
        # a zero load factors both blocks too, so that a singular one can raise
        zero = dataclasses.replace(reduced, rhs=np.zeros_like(reduced.rhs))
        unloaded = solve(zero, compute_inertia=False)
        assert np.all(unloaded.u == 0.0)
        assert unloaded.factor_nnz == solution.factor_nnz

    @pytest.mark.parametrize("model", lsm2d.MODELS)
    @pytest.mark.parametrize("nx,ny", [(2, 2), (4, 2), (4, 4)])
    @pytest.mark.parametrize("load", ["x", "y", "random"])
    def test_unconstrained_lattices_raise(self, rng, model, nx, ny, load):
        mesh, system = make_system(nx, ny, StiffnessSet(model, 2.0, 1.0, 3.0))
        forces = np.zeros(mesh.n_dofs)
        if load == "random":
            forces = rng.normal(size=mesh.n_dofs)
        else:
            forces[int(load == "y") :: 2] = 1.0  # thrust along a free translation
        reduced = apply_constraints(
            dataclasses.replace(system, forces=forces), Constraints.from_pairs([])
        )
        assert reduced.mirror is not None
        with pytest.raises(SingularSystemError):
            solve(reduced, compute_inertia=False)


def block_rows(reduced, s):
    """Reduced indices of the mirror block of parity s, in the reduced order."""
    free, mirror = reduced.free, reduced.mirror
    axis = mirror == np.arange(free.size)
    return np.flatnonzero((free[mirror] > free) | axis & (np.where(free % 2, -s, s) > 0))


def block_layout(reduced, s):
    """The band layout of the mirror block of parity s."""
    return _band_layout(reduced.matrix, *_band_block(reduced, s))


class TestBandCholesky:
    """Positive definite blocks are factored by band Cholesky in the reduced order."""

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize("size", [(8, 2), (16, 4), (64, 16)])
    def test_band_is_the_column_order_of_the_free_dofs(self, kind, size):
        free = apply_constraints(*loaded_case(kind, MODIFIED, 0.3, PLANE_STRESS, size)).free
        # ix slowest, then iy, then the component
        particle, component = free // 2, free % 2
        ix, iy = particle % (size[0] + 1), particle // (size[0] + 1)
        key = (ix * (size[1] + 1) + iy) * 2 + component
        assert np.all(np.diff(key) > 0)

    def test_band_of_a_tall_plate_is_the_row_order(self):
        # 2 nx < ny: the half-plate's rows are its shorter lines
        reduced = apply_constraints(make_system(2, 8, modified_set())[1], UNSUPPORTED)
        np.testing.assert_array_equal(reduced.free, np.arange(reduced.n_dofs))

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize("size", [(8, 2), (32, 8), (64, 16)])
    def test_mirror_blocks_are_narrow_bands(self, kind, size):
        reduced = apply_constraints(*loaded_case(kind, MODIFIED, 0.3, PLANE_STRESS, size))
        for s in (1.0, -1.0):
            rows = block_rows(reduced, s)
            block = reduced.matrix[rows][:, rows].tocoo()
            assert np.abs(block.row - block.col).max() <= 2 * (size[1] // 2) + 5
        # the odd load's block is the one factored, and a band factor stores
        # its half-bandwidth plus one values per column
        rows = block_rows(reduced, -1.0)
        block = reduced.matrix[rows][:, rows].tocoo()
        solution = solve(reduced, compute_inertia=False)
        assert solution.factor_nnz == (np.abs(block.row - block.col).max() + 1) * rows.size

    @pytest.mark.parametrize("nx,ny", [(8, 8), (16, 32), (4, 16), (2, 16)])
    def test_blocks_of_square_and_tall_plates_are_narrow_bands(self, nx, ny):
        reduced = apply_constraints(make_system(nx, ny, modified_set())[1], UNSUPPORTED)
        for s in (1.0, -1.0):
            rows = block_rows(reduced, s)
            block = reduced.matrix[rows][:, rows].tocoo()
            assert np.abs(block.row - block.col).max() <= 2 * min(nx, ny // 2) + 5

    def test_band_is_none_without_a_mirror(self, rng):
        system, constraints = loaded_case(UNIAXIAL, MODIFIED, 0.3, PLANE_STRESS, (2, 2))
        assert apply_constraints(system, UNSUPPORTED).mirror is not None
        assert apply_constraints(system, constraints).mirror is None
        system, constraints = loaded_case(CANTILEVER, MODIFIED, 0.3, PLANE_STRESS, (8, 2))
        moved = Constraints(constraints.dofs, np.where(constraints.dofs % 2, 0.0, 1e-6))
        assert apply_constraints(system, moved).mirror is None
        assert apply_constraints(make_system(4, 3, modified_set())[1], UNSUPPORTED).mirror is None
        cell = rng.normal(size=(8, 8))
        mesh, system = make_system(4, 2, modified_set())
        assert apply_constraints(assemble(mesh, cell + cell.T), UNSUPPORTED).mirror is None

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize(
        "model,nu", [(MODIFIED, 0.3), (MODIFIED, 0.49), (BORN, 0.0), (BORN, 0.3)]
    )
    def test_positive_definite_blocks_match_the_whole_factor(self, kind, model, nu):
        reduced = apply_constraints(*loaded_case(kind, model, nu, PLANE_STRESS, (128, 32)))
        u, _ = whole_factor_solve(reduced)
        for compute_inertia, inertia in ((True, (0, 0, reduced.matrix.shape[0])), (False, None)):
            solution = solve(reduced, compute_inertia=compute_inertia)
            np.testing.assert_allclose(solution.u, u, rtol=0.0, atol=1e-10 * np.abs(u).max())
            assert solution.residual <= 1e-10 * np.linalg.norm(reduced.rhs)
            assert solution.inertia == inertia

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    def test_indefinite_blocks_match_the_whole_factor(self, kind):
        # LAPACK's band Cholesky rejects the blocks of Born past its threshold;
        # the tiled LDL^T factors them in the same band order
        reduced = apply_constraints(*loaded_case(kind, BORN, 0.45, PLANE_STRESS, (128, 32)))
        u, factor_nnz = whole_factor_solve(reduced)
        factor = mmd_factor(reduced)
        np.testing.assert_array_equal(factor.perm_r, factor.perm_c)  # the pivot signs are the inertia
        pivots = factor.U.diagonal()
        inertia = (int(np.sum(pivots < 0)), 0, int(np.sum(pivots > 0)))
        for compute_inertia, expected in ((True, inertia), (False, None)):
            solution = solve(reduced, compute_inertia=compute_inertia)
            np.testing.assert_allclose(solution.u, u, rtol=0.0, atol=1e-10 * np.abs(u).max())
            assert solution.residual <= 1e-10 * np.linalg.norm(reduced.rhs)
            assert solution.factor_nnz < factor_nnz
            assert solution.inertia == expected

    @pytest.mark.parametrize("model,nx,ny", [(BORN, 8, 8), (MODIFIED, 4, 2)])
    def test_singular_blocks_raise_from_their_band_pivots(self, model, nx, ny):
        # every block factors, and a rigid mode leaves a pivot near 1e-15 of the largest
        system = make_system(nx, ny, StiffnessSet(model, 2.0, 1.0, 3.0))[1]
        reduced = apply_constraints(system, UNSUPPORTED)
        for compute_inertia, inertia in ((True, eigenvalue_inertia(reduced.matrix)), (False, None)):
            with pytest.raises(SingularSystemError, match="zero pivot") as info:
                solve(reduced, compute_inertia=compute_inertia)
            assert info.value.inertia == inertia

    @pytest.mark.parametrize(
        "model,nx,ny", [(BORN, 2, 2), (BORN, 4, 2), (MODIFIED, 2, 2), (MODIFIED, 8, 8)]
    )
    def test_rejected_singular_blocks_raise_from_the_ldlt(self, monkeypatch, model, nx, ny):
        # LAPACK meets a pivot that is not positive in a block, and the
        # tiled LDL^T a zero one: its verdict is final, and its pivots give
        # the eigenvalue count
        mesh, system = make_system(nx, ny, StiffnessSet(model, 2.0, 1.0, 3.0))
        reduced = apply_constraints(system, UNSUPPORTED)
        factored = []

        def counted(ab):
            factored.append(ab.shape)
            return ldlt(ab)

        ldlt = lsm2d.lattice._band_ldlt
        monkeypatch.setattr(lsm2d.lattice, "_band_ldlt", counted)
        for compute_inertia, inertia in ((True, eigenvalue_inertia(reduced.matrix)), (False, None)):
            with pytest.raises(SingularSystemError, match="zero pivot") as info:
                solve(reduced, compute_inertia=compute_inertia)
            assert info.value.inertia == inertia
        assert factored

    @pytest.mark.parametrize("kind,size", [(UNIAXIAL, (4, 4)), (CANTILEVER, (16, 4))])
    def test_a_failed_ldlt_raises_where_it_fails(self, monkeypatch, kind, size):
        # Born at 0.45: dpbtrf rejects a block, and dsytrf that reports a
        # zero pivot leaves no solver and no inertia
        reduced = apply_constraints(*loaded_case(kind, BORN, 0.45, PLANE_STRESS, size))
        dsytrf = lsm2d.lattice.dsytrf
        monkeypatch.setattr(lsm2d.lattice, "dsytrf", lambda *a, **k: (*dsytrf(*a, **k)[:2], 1))
        for compute_inertia in (True, False):
            with pytest.raises(SingularSystemError, match="not finite in its LDL") as info:
                solve(reduced, compute_inertia=compute_inertia)
            assert info.value.inertia is None

    def test_an_illegal_argument_to_dpbtrf_raises_value_error(self, monkeypatch):
        reduced = apply_constraints(*loaded_case(CANTILEVER, MODIFIED, 0.3, PLANE_STRESS, (8, 2)))
        monkeypatch.setattr(lsm2d.lattice, "dpbtrf", lambda ab, **kwargs: (ab, -1))
        with pytest.raises(ValueError, match="argument 1 of dpbtrf"):
            solve(reduced)

    def test_the_rejected_band_is_freed_before_its_refill(self, monkeypatch):
        # one band storage is live at a time: the rejected band is filled
        # again in place, and the tiled LDL^T factors it in place. When the
        # LDL^T ran inside an exception handler, the traceback kept the
        # rejected band: 2.13 bands beside the factor
        reduced = apply_constraints(*loaded_case(CANTILEVER, BORN, 0.45, PLANE_STRESS, (256, 64)))
        solve(reduced, compute_inertia=False)  # builds the one layout the load needs
        [layout] = reduced.layouts.values()
        band = 8 * (layout.u + 1) * layout.rows.size
        factored = []

        def spied(ab):
            factored.append(ab.shape)
            return ldlt(ab)

        ldlt = lsm2d.lattice._band_ldlt
        monkeypatch.setattr(lsm2d.lattice, "_band_ldlt", spied)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solution = solve(reduced, compute_inertia=False)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # Cholesky rejected the block, and the LDL^T factored its storage
        assert factored == [(layout.u + 1, layout.rows.size)]
        assert 8 * solution.factor_nnz == band
        assert peak <= 1.25 * band

    def test_a_block_factored_for_its_pivots_alone_is_freed(self):
        # with the inertia on both blocks are factored, but the odd load
        # needs the second alone: the first's factor is freed before the
        # second is factored, and beside one factor one band storage is live
        reduced = apply_constraints(*loaded_case(CANTILEVER, BORN, 0.45, PLANE_STRESS, (256, 64)))
        kept = solve(reduced, compute_inertia=False).factor_nnz  # the excited block's factor
        solve(reduced)  # builds both layouts
        band = max(8 * (layout.u + 1) * layout.rows.size for layout in reduced.layouts.values())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solution = solve(reduced)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert solution.indefinite and solution.factor_nnz > 1.9 * kept
        assert peak - 8 * kept <= 1.5 * band

    @pytest.mark.parametrize("compute_inertia", [False, True])
    def test_an_indefinite_solve_peaks_near_one_band_storage(self, compute_inertia):
        # the tiled LDL^T's factor is the band storage it came from: the
        # solve holds about one band storage, where the tiles' factors and
        # couplings held 3.10 (3.13 with the inertia)
        reduced = apply_constraints(*loaded_case(CANTILEVER, BORN, 0.45, PLANE_STRESS, (256, 64)))
        solve(reduced)  # builds both layouts
        band = max(8 * (layout.u + 1) * layout.rows.size for layout in reduced.layouts.values())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solution = solve(reduced, compute_inertia=compute_inertia)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert solution.residual <= 1e-10 * np.linalg.norm(reduced.rhs)
        assert peak <= 1.3 * band

    def test_both_factors_store_the_band(self):
        # with the inertia both blocks are factored: band Cholesky for the
        # modified model, the tiled LDL^T for Born past its threshold, and
        # each stores (half-bandwidth + 1) x size values
        counts = {}
        for model, nu in ((MODIFIED, 0.3), (BORN, 0.45)):
            reduced = apply_constraints(*loaded_case(CANTILEVER, model, nu, PLANE_STRESS, (64, 16)))
            solution = solve(reduced)
            bands = sum((layout.u + 1) * layout.rows.size for layout in reduced.layouts.values())
            assert solution.factor_nnz == bands
            counts[model] = solution.factor_nnz, solution.inertia
        assert counts[MODIFIED][0] == counts[BORN][0]
        assert counts[MODIFIED][1][0] == 0 and counts[BORN][1] == (42, 0, 2134)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_a_rejected_band_is_refilled_where_cholesky_changed_it(self, monkeypatch, regime):
        # dpbtrf changes only the first info + u columns of a band it
        # rejects; filled again there, the storage is a fresh one to the bit.
        # u = 37 at 128x32 and 69 at 32x32 run LAPACK's blocked algorithm
        refills = []

        def checked(layout, ab, data, columns):
            refilled = refill(layout, ab, data, columns)
            fresh = layout.storage(data)
            assert refilled is ab and ab.flags.f_contiguous
            assert ab.tobytes(order="F") == fresh.tobytes(order="F")
            refills.append(columns / ab.shape[1])
            return refilled

        def counted(ab):
            result = cholesky(ab)
            rejected.append(isinstance(result, int))
            return result

        refill, cholesky = lsm2d.lattice._BandLayout.refill, lsm2d.lattice._band_cholesky
        rejected, fractions = [], []
        monkeypatch.setattr(lsm2d.lattice._BandLayout, "refill", checked)
        monkeypatch.setattr(lsm2d.lattice, "_band_cholesky", counted)
        cases = [(CANTILEVER, (16, 4)), (CANTILEVER, (128, 32)), (lsm2d.PURE_BENDING, (64, 16))]
        cases += [(lsm2d.PURE_BENDING, (128, 32)), (UNIAXIAL, (32, 32)), (PURE_SHEAR, (8, 8))]
        for kind, size in cases:
            system, constraints = loaded_case(kind, BORN, 0.45, regime, size)
            stencil = reduce_stencil(system.mesh, system.forces, constraints)
            for nu in (0.4, 0.45, 0.49):
                stiffness = calibrate(Material(2e11, nu, 0.01, regime), BORN)
                reduced = stencil.fill(stencil_values(cell_matrix(stiffness)))
                refills.clear()
                rejected.clear()
                assert solve(reduced).indefinite
                # every rejected block is refilled, and only its first columns
                assert len(refills) == sum(rejected) > 0, (kind, size, nu)
                fractions.extend(refills)
        # most are rejected within their first tenth
        assert np.median(fractions) < 0.1

    @pytest.mark.parametrize(
        "model,nu,nx,ny",
        [(BORN, None, 2, 2), (BORN, None, 4, 2), (BORN, None, 8, 8)]
        + [(MODIFIED, None, 4, 2), (MODIFIED, None, 8, 8)]
        # calibrated plane-stress cells: LAPACK rejects a block, its LDL^T
        # meets the zero, and so do the whole factor's pivots
        + [(BORN, 0.3, 8, 8), (MODIFIED, 0.3, 2, 2), (MODIFIED, 0.3, 4, 2)]
        + [(MODIFIED, 0.3, 4, 4), (MODIFIED, 0.3, 8, 8), (MODIFIED, 0.3, 32, 32)]
        # odd ny, no mirror: the whole matrix is one block
        + [(model, nu, nx, ny) for model in lsm2d.MODELS for nu in (None, 0.3)
           for nx, ny in [(3, 3), (16, 15)]]
        # the whole LU interchanged rows on these and read no inertia
        + [(MODIFIED, None, 2, 1), (BORN, 0.49, 3, 3)],
    )
    @pytest.mark.parametrize("compute_inertia", [True, False])
    def test_singular_block_raises_on_a_zero_load(self, model, nu, nx, ny, compute_inertia):
        # the residual of u = 0 is zero: a zero pivot must raise; nu None is the test cell
        if nu is None:
            stiffness = StiffnessSet(model, 2.0, 1.0, 3.0)
        else:
            stiffness = calibrate(Material(2e11, nu, 0.01), model)
        reduced = apply_constraints(make_system(nx, ny, stiffness)[1], UNSUPPORTED)
        with pytest.raises(SingularSystemError, match="singular"):
            solve(reduced, compute_inertia=compute_inertia)

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize("size", [(8, 2), (64, 16)], ids=["8x2", "64x16"])
    def test_born_past_its_plane_strain_threshold_at_a_third_is_indefinite(self, kind, size):
        # k_s1 < 0 at nu = 1/3 in plane strain. The matrix is indefinite, not
        # singular: min/max |eigenvalue| is 3.3e-4 on the 8x2 cantilever. The
        # whole LU without interchanges grows its pivots to 3e23 against
        # entries of 5e9, and read 1,526 of the 64x16 cantilever's as zero
        reduced = apply_constraints(*loaded_case(kind, BORN, 1.0 / 3.0, PLANE_STRAIN, size))
        solution = solve(reduced)
        assert solution.inertia == eigenvalue_inertia(reduced.matrix)
        assert solution.indefinite and solution.inertia[1] == 0
        assert solution.residual <= 1e-10 * np.linalg.norm(reduced.rhs)

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize("size", [(8, 2), (64, 16)], ids=["8x2", "64x16"])
    def test_born_at_a_third_solves_without_the_inertia(self, kind, size):
        # the load excites one block only, which the tiled LDL^T factors
        reduced = apply_constraints(*loaded_case(kind, BORN, 1.0 / 3.0, PLANE_STRAIN, size))
        u = solve(reduced).u
        solution = solve(reduced, compute_inertia=False)
        assert solution.inertia is None
        np.testing.assert_allclose(solution.u, u, rtol=0.0, atol=1e-10 * np.abs(u).max())

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize("size", [(256, 64), (512, 128)], ids=["256x64", "512x128"])
    def test_band_storage_matches_the_gathered_block(self, kind, size):
        # many chunks at 512x128; the dense check below cannot reach these sizes.
        # Both models' storages are filled from one layout, built for the first
        system, constraints = loaded_case(kind, MODIFIED, 0.3, PLANE_STRESS, size)
        stencil = reduce_stencil(system.mesh, system.forces, constraints)
        layouts = {}
        for model in lsm2d.MODELS:
            stiffness = calibrate(Material(2e11, 0.3, 0.01), model)
            reduced = stencil.fill(stencil_values(cell_matrix(stiffness)))
            axis = reduced.mirror == np.arange(reduced.free.size)
            for s in (1, -1):
                rows = block_rows(reduced, s)
                if s not in layouts:
                    layouts[s] = block_layout(reduced, s)
                ab = layouts[s].storage(reduced.matrix.data)
                np.testing.assert_array_equal(layouts[s].rows, rows)
                expected = gathered_band_storage(reduced.matrix, rows, axis[rows])
                assert ab.flags.f_contiguous and ab.shape == expected.shape
                assert np.array_equal(ab, expected)

    def test_a_block_without_a_mirror_is_halved_in_place(self):
        # every DOF is its own image on the axis: the layout keeps no
        # positions to halve, and one scale of the storage halves every entry
        reduced = apply_constraints(*loaded_case(UNIAXIAL, MODIFIED, 0.3, PLANE_STRAIN, (64, 64)))
        assert reduced.mirror is None
        n = reduced.free.size
        layout = _band_layout(reduced.matrix, *_band_block(reduced, 0))
        assert isinstance(layout.halved, slice) and layout.halved == slice(None)
        ab = layout.storage(reduced.matrix.data)
        expected = gathered_band_storage(reduced.matrix, np.arange(n), np.ones(n, bool))
        assert ab.flags.f_contiguous and ab.shape == expected.shape
        assert ab.tobytes(order="F") == expected.tobytes(order="F")

    def test_band_storage_takes_little_beyond_its_result(self):
        # numpy reports its buffers to tracemalloc; gathering the block's rows
        # at once peaked 12.5 MiB above the 67 MiB band
        reduced = apply_constraints(*loaded_case(CANTILEVER, MODIFIED, 0.3, PLANE_STRESS, (512, 128)))
        block = _band_block(reduced, -1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            layout = _band_layout(reduced.matrix, *block)
            build_peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ab = layout.storage(reduced.matrix.data)
            refill_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        built = sum(a.nbytes for a in (layout.flat, layout.entry, layout.halved))
        size = built + sum(a.nbytes for a in block)
        # the build keeps its layout, allocates no storage and takes little beside
        assert build_peak - built <= 0.1 * ab.nbytes
        assert size <= 0.1 * ab.nbytes
        assert refill_peak - ab.nbytes <= 0.1 * ab.nbytes

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize("model", lsm2d.MODELS)
    @pytest.mark.parametrize("size", [(8, 2), (64, 16)])
    def test_band_storage_holds_the_folded_block(self, kind, model, size):
        reduced = apply_constraints(*loaded_case(kind, model, 0.3, PLANE_STRESS, size))
        axis = reduced.mirror == np.arange(reduced.free.size)
        for s in (1, -1):
            rows = block_rows(reduced, s)
            block = reduced.matrix.toarray()[np.ix_(rows, rows)]
            block[np.ix_(axis[rows], axis[rows])] *= 0.5
            ab = block_layout(reduced, s).storage(reduced.matrix.data)
            u, n = ab.shape[0] - 1, rows.size
            assert ab.shape[1] == n and ab.flags.f_contiguous
            # ab[d, j] holds the entry (j + d, j) of the d-th subdiagonal
            assert np.any(np.diagonal(block, -u)) and not np.any(np.tril(block, -u - 1))
            for d in range(u + 1):
                np.testing.assert_array_equal(ab[d, : n - d], np.diagonal(block, -d))
                assert not np.any(ab[d, n - d :])

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER, UNIAXIAL, PURE_SHEAR])
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("size", [(8, 2), (16, 4), (32, 8), (64, 16)])
    def test_every_factored_storage_is_the_gathered_block(self, monkeypatch, kind, regime, size):
        # four systems share one stencil: the first solve builds each block's
        # layout, every solve fills its storage from it, and a block Cholesky
        # rejects (Born at 0.45, and at 0.3 in plane strain) is filled again
        # for the LDL^T. The square plates have no mirror: their one block is
        # the whole matrix, every entry halved
        if kind in (UNIAXIAL, PURE_SHEAR):
            size = (size[1], size[1])
        factored = []
        cholesky, ldlt = lsm2d.lattice.dpbtrf, lsm2d.lattice._band_ldlt

        def record(factor, name):
            def call(ab, **kwargs):
                factored.append((name, ab.copy(order="A")))
                return factor(ab, **kwargs)

            return call

        monkeypatch.setattr(lsm2d.lattice, "dpbtrf", record(cholesky, "cholesky"))
        monkeypatch.setattr(lsm2d.lattice, "_band_ldlt", record(ldlt, "ldlt"))
        system, constraints = loaded_case(kind, MODIFIED, 0.3, regime, size)
        stencil = reduce_stencil(system.mesh, system.forces, constraints)
        for model in lsm2d.MODELS:
            for nu in (0.3, 0.45):
                stiffness = calibrate(Material(2e11, nu, 0.01, regime), model)
                reduced = stencil.fill(stencil_values(cell_matrix(stiffness)))
                n = reduced.free.size
                assert (reduced.mirror is None) == (kind in (UNIAXIAL, PURE_SHEAR))
                # each block's rows and which of them are axis DOFs, in factoring order
                blocks = {0: (np.arange(n), np.ones(n, bool))}
                if reduced.mirror is not None:
                    axis = reduced.mirror == np.arange(n)
                    rows = {s: block_rows(reduced, s) for s in (1, -1)}
                    blocks = {s: (rows[s], axis[rows[s]]) for s in rows}
                factored.clear()
                solve(reduced)
                order = iter(blocks)
                for name, ab in factored:
                    # an LDL^T factors the block whose Cholesky failed just before
                    s = next(order) if name == "cholesky" else s
                    expected = gathered_band_storage(reduced.matrix, *blocks[s])
                    assert ab.flags.f_contiguous and np.array_equal(ab, expected), (model, nu, s)
                assert [name for name, _ in factored].count("cholesky") == len(blocks)
                past_threshold = model == BORN and (nu == 0.45 or regime == PLANE_STRAIN)
                assert ("ldlt" in dict(factored)) == past_threshold
        assert set(reduced.layouts) == set(blocks)

    def test_a_sweep_builds_each_block_layout_once_per_mesh(self, monkeypatch):
        built = []

        def counted(matrix, *block):
            built.append(matrix.shape[0])
            return build(matrix, *block)

        build = lsm2d.lattice._band_layout
        monkeypatch.setattr(lsm2d.lattice, "_band_layout", counted)
        nus = (0.0, 0.3, 0.49)
        runs = [(lsm2d.make_case(CANTILEVER, nu), model) for model in lsm2d.MODELS for nu in nus]
        sweep = lsm2d.sweep(runs)
        assert len(sweep.meshes) == len(lsm2d.SLENDER_MESHES)
        assert all(None not in solutions for solutions, _ in sweep.runs)
        # one build per block of each mesh's stencil, whose free DOF counts differ
        assert collections.Counter(built) == dict.fromkeys(set(built), 2)
        assert len(set(built)) == len(lsm2d.SLENDER_MESHES)

    def test_a_square_plate_sweep_builds_its_layout_once_per_mesh(self, monkeypatch):
        # no mirror: the whole matrix is one block, whose layout the stencil keeps too
        built = []

        def counted(matrix, *block):
            built.append(matrix.shape[0])
            return build(matrix, *block)

        build = lsm2d.lattice._band_layout
        monkeypatch.setattr(lsm2d.lattice, "_band_layout", counted)
        for kind in (UNIAXIAL, PURE_SHEAR):
            built.clear()
            nus = (0.0, 0.3, 0.49)
            sweep = lsm2d.sweep([(lsm2d.make_case(kind, nu), m) for m in lsm2d.MODELS for nu in nus])
            assert all(None not in solutions for solutions, _ in sweep.runs)
            # one build per mesh, whose free DOF counts differ
            assert len(built) == len(set(built)) == len(sweep.meshes)

    def test_a_system_without_a_memo_solves_alike(self):
        # Born at 0.45: Cholesky rejects both blocks, and the LDL^T factors refills
        reduced = apply_constraints(*loaded_case(CANTILEVER, BORN, 0.45, PLANE_STRESS, (16, 4)))
        by_hand = lsm2d.ReducedSystem(
            matrix=reduced.matrix,
            rhs=reduced.rhs,
            free=reduced.free,
            fixed=reduced.fixed,
            fixed_values=reduced.fixed_values,
            n_dofs=reduced.n_dofs,
            mirror=reduced.mirror,
        )
        for compute_inertia in (True, False, True):
            expected = solve(reduced, compute_inertia=compute_inertia)
            solution = solve(by_hand, compute_inertia=compute_inertia)
            assert np.array_equal(solution.u, expected.u)
            assert solution.inertia == expected.inertia
            assert solution.indefinite == expected.indefinite == compute_inertia
            assert solution.factor_nnz == expected.factor_nnz
        assert by_hand.layouts is None and set(reduced.layouts) == {1, -1}


def band_storage(dense):
    """LAPACK's lower band storage of a dense symmetric matrix, u its half-bandwidth."""
    n = dense.shape[0]
    return gathered_band_storage(scipy.sparse.csr_matrix(dense), np.arange(n), np.zeros(n, bool))


class TestBandLDLT:
    """The tiled LDL^T of a symmetric band matrix, in tiles of u rows (u + 1 below 2)."""

    @pytest.mark.parametrize(
        "u,zero_diagonal",
        [(0, False), (1, False), (3, False), (8, False), (2, True), (3, True), (8, True)],
    )
    def test_pivots_count_the_eigenvalues(self, rng, u, zero_diagonal):
        # a zero diagonal leaves Bunch-Kaufman 2x2 pivots in the first tile,
        # whose runs must be paired from their last row
        for n in (u + 1, 2 * u + 2, 10 * u + 4, 60):
            dense = rng.normal(size=(n, n))
            dense = np.triu(np.tril(dense + dense.T, u), -u)
            if zero_diagonal:
                np.fill_diagonal(dense, 0.0)
            ab = band_storage(dense)
            apply, stored, pivots = _band_ldlt(ab)
            assert _inertia(pivots) == eigenvalue_inertia(scipy.sparse.csr_matrix(dense)), n
            rhs = rng.normal(size=n)
            x = apply(rhs)
            backward = np.linalg.norm(dense @ x - rhs) / (np.linalg.norm(dense) * np.linalg.norm(x))
            assert backward <= 1e-12, n
            # the tiles' factors overwrite the band storage they came from,
            # which is then the whole factor, as a band Cholesky's
            assert stored == ab.size

    def test_an_exactly_zero_pivot_or_a_non_finite_value_raises(self):
        def raises(dense):
            with pytest.raises(SingularSystemError, match="not finite in its LDL") as info:
                _band_ldlt(band_storage(dense))
            return info.value.inertia is None

        dense = np.diag([2.0, 0.0, 3.0, 1.0]) + np.diag([0.0, 0.0, 1.0], 1)
        dense += np.triu(dense, 1).T
        assert raises(dense)
        # interchanges stay within a tile: a 2x2 pivot across the two tiles
        # leaves the first singular though the matrix (determinant -1) is not
        dense = np.diag([1.0, 0.0, 0.0, 1.0]) + np.diag([0.0, 1.0, 0.0], 1)
        dense += np.triu(dense, 1).T
        assert np.linalg.det(dense) == -1.0
        assert raises(dense)
        # within one tile it forms: a zero-diagonal tridiagonal matrix (determinant 1)
        dense = np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)
        assert np.linalg.det(dense) == 1.0
        assert _inertia(_band_ldlt(band_storage(dense))[2]) == (2, 0, 2)
        dense = np.eye(6)
        dense[0, 0] = np.inf
        assert raises(dense)


    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_coupling_in_a_middle_tile_raises(self, monkeypatch, value):
        # the LDL^T checks D and every X_k once, after its last tile: the
        # third coupling's bad value runs through the tiles after it and
        # must raise there without a RuntimeWarning
        reduced = apply_constraints(*loaded_case(CANTILEVER, BORN, 0.45, PLANE_STRESS, (16, 4)))
        calls = []

        def poisoned(*args, **kwargs):
            x = dsymm(*args, **kwargs)
            calls.append(x.shape)
            if len(calls) == 3:
                x[x.shape[0] // 2, 0] = value
            return x

        dsymm = lsm2d.lattice.dsymm
        monkeypatch.setattr(lsm2d.lattice, "dsymm", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="not finite in its LDL") as info:
                solve(reduced)
        assert info.value.inertia is None
        assert len(calls) >= 3


class TestConstrainedSpectrum:
    def test_size_matches_free_dofs(self):
        mesh, system = make_system(2, 2, born_set())
        reduced = apply_constraints(
            system, Constraints.from_pairs(fix_nodes(mesh.edge_nodes("bottom"), "xy"))
        )
        assert constrained_spectrum(reduced).shape == (12,)

    def test_positive_for_stable_model(self):
        stiffness = calibrate(Material(2e11, 0.49, 0.01), MODIFIED)
        mesh, system = make_system(1, 1, stiffness, cell_size=0.1)
        reduced = apply_constraints(
            system, Constraints.from_pairs(fix_nodes(mesh.edge_nodes("bottom"), "xy"))
        )
        assert constrained_spectrum(reduced).min() > 0.0
