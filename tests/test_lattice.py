"""Mesh, assembly, load lumping, constraint and solver tests."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
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
from lsm2d.lattice import _band_storage, _grid_mirror, _nested_dissection
from oracles import (
    constrained_spectrum,
    coo_assembly,
    eigenvalue_inertia,
    gathered_band_storage,
    recursive_dissection,
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


class TestNestedDissection:
    def test_four_by_one_grid(self):
        # 2 x 5 particles: the middle column (2, 7) separates the two 2 x 2
        # halves and is numbered last
        particles = [0, 1, 5, 6, 3, 4, 8, 9, 2, 7]
        expected = np.ravel([(2 * p, 2 * p + 1) for p in particles])
        np.testing.assert_array_equal(_nested_dissection(4, 1), expected)

    def test_order_is_a_permutation_with_paired_dofs(self):
        for nx in range(1, 41):
            for ny in range(1, 41):
                order = _nested_dissection(nx, ny)
                np.testing.assert_array_equal(np.sort(order), np.arange(2 * (nx + 1) * (ny + 1)))
                assert np.all(order[0::2] % 2 == 0)
                np.testing.assert_array_equal(order[1::2], order[0::2] + 1)
                # the first separator is the middle line across the longer side
                grid = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)
                if max(nx, ny) >= 2:
                    middle = grid[:, (nx + 1) // 2] if nx >= ny else grid[(ny + 1) // 2]
                    np.testing.assert_array_equal(order[-2 * middle.size :: 2], 2 * middle)

    @pytest.mark.parametrize(
        "sizes",
        [[(nx, ny) for nx in range(1, 41) for ny in range(1, 41)], [(256, 64), (512, 128)]],
        ids=["1..40", "large"],
    )
    def test_matches_the_recursive_oracle(self, sizes):
        # the order memoised by block shape is the recursion on grid views
        for nx, ny in sizes:
            np.testing.assert_array_equal(_nested_dissection(nx, ny), recursive_dissection(nx, ny))

    def test_order_travels_to_the_reduced_system(self):
        mesh, system = make_system(5, 3, modified_set())
        loads = LoadSpec(point_forces=((7, (1.0, 2.0)),))
        loaded = apply_loads(system, mesh, loads, thickness=0.01)
        pairs = fix_nodes(mesh.edge_nodes("bottom"), "xy") + [(2 * 23, 0.5)]
        reduced = apply_constraints(loaded, Constraints.from_pairs(pairs))
        fixed = [dof for dof, _ in pairs]
        order = _nested_dissection(5, 3)
        np.testing.assert_array_equal(reduced.free, [d for d in order if d not in fixed])
        K = system.stiffness.toarray()
        np.testing.assert_array_equal(
            reduced.matrix.toarray(), K[np.ix_(reduced.free, reduced.free)]
        )
        np.testing.assert_array_equal(
            reduced.rhs, loaded.forces[reduced.free] - 0.5 * K[reduced.free, 2 * 23]
        )


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
        free = np.array([dof for dof in _nested_dissection(*size) if dof not in fixed])
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
            for matrix in matrices:
                stiffness = coo_assembly(mesh, matrix)
                oracle = sliced_reduction(stiffness, free)
                rhs = forces[free] - stiffness[free][:, constraints.dofs] @ constraints.values
                system = apply_loads(assemble(mesh, matrix), mesh, case_loads(case), 0.01)
                np.testing.assert_array_equal(system.forces, forces)
                eliminated = apply_constraints(system, constraints)
                filled = stencil.fill(stencil_values(matrix))
                for reduced in (eliminated, filled):
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

    def test_rejects_foreign_forces_and_dofs(self):
        mesh = build_mesh(LatticeSpec(3, 2, 1.0))
        pinned = Constraints.from_pairs(fix_nodes([0], "xy"))
        with pytest.raises(ValueError):
            reduce_stencil(mesh, np.zeros(mesh.n_dofs + 2), pinned)
        with pytest.raises(ValueError):
            reduce_stencil(mesh, np.zeros(mesh.n_dofs), Constraints.from_pairs([(mesh.n_dofs, 0.0)]))

    def test_filled_matrices_share_no_arrays(self):
        mesh = build_mesh(LatticeSpec(3, 2, 1.0))
        stencil = reduce_stencil(
            mesh, np.zeros(mesh.n_dofs), Constraints.from_pairs(fix_nodes([0], "xy"))
        )
        first = stencil.fill(stencil_values(cell_matrix(born_set()))).matrix
        first.sort_indices()
        second = stencil.fill(stencil_values(cell_matrix(born_set()))).matrix
        assert not second.has_sorted_indices  # the stencil kept its own order
        np.testing.assert_array_equal(first.toarray(), second.toarray())


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

    def test_off_diagonal_pivot_reports_no_inertia(self):
        # SuperLU must swap rows to avoid the zero diagonal, so the pivot
        # signs (0, 0, 3) are not the inertia (1, 0, 2); solve, but say so
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
        assert solution.inertia is None
        assert not solution.indefinite

    @pytest.mark.parametrize("kind", CASE_KINDS)
    @pytest.mark.parametrize("regime,nu", [(PLANE_STRESS, 1.0 / 3.0), (PLANE_STRAIN, 0.25)])
    def test_born_at_threshold_is_positive_definite(self, kind, regime, nu):
        assert calibrate(Material(2e11, nu, 0.01, regime), BORN).k_s1 == 0.0
        reduced = case_system(kind, BORN, nu, regime)
        solution = solve(reduced)
        assert solution.inertia == (0, 0, reduced.matrix.shape[0])
        assert not solution.indefinite


class TestFactorOrdering:
    """The nested-dissection factor against SuperLU's minimum-degree one."""

    def test_less_fill_than_minimum_degree(self):
        # Born past its threshold takes the whole matrix, in nested-dissection order
        system, constraints = loaded_case(CANTILEVER, BORN, 0.45, PLANE_STRESS, (256, 64))
        solution = solve(apply_constraints(system, constraints))
        assert solution.indefinite
        natural = natural_order(system, constraints)
        assert solution.factor_nnz <= 0.9 * mmd_factor(natural).nnz
        # a positive definite plate without the inertia factors only the odd mirror block
        system, constraints = loaded_case(CANTILEVER, MODIFIED, 0.3, PLANE_STRESS, (256, 64))
        reduced = apply_constraints(system, constraints)
        odd = solve(reduced, compute_inertia=False)
        assert odd.factor_nnz < 0.6 * whole_factor_solve(reduced)[1]

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
            # the last solve, without the inertia
            assert solution.inertia is None
            if past_threshold:
                # LAPACK rejects a block: the whole matrix, as the oracle factors it
                assert solution.factor_nnz == factor_nnz
            else:
                assert solution.factor_nnz < 0.6 * factor_nnz

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
    """Reduced indices of the mirror block of parity s, in ``band`` order."""
    free, mirror = reduced.free, reduced.mirror
    axis = mirror == np.arange(free.size)
    in_block = (free[mirror] > free) | axis & (np.where(free % 2, -s, s) > 0)
    return reduced.band[in_block[reduced.band]]


def no_splu(*args, **kwargs):
    raise AssertionError("sparse LU called")


class TestBandCholesky:
    """Positive definite mirror blocks are factored by band Cholesky in ``band`` order."""

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize("size", [(8, 2), (16, 4), (64, 16)])
    def test_band_is_the_column_order_of_the_free_dofs(self, kind, size):
        reduced = apply_constraints(*loaded_case(kind, MODIFIED, 0.3, PLANE_STRESS, size))
        band, free = reduced.band, reduced.free
        np.testing.assert_array_equal(np.sort(band), np.arange(free.size))
        # ix slowest, then iy, then the component
        particle, component = free[band] // 2, free[band] % 2
        ix, iy = particle % (size[0] + 1), particle // (size[0] + 1)
        key = (ix * (size[1] + 1) + iy) * 2 + component
        assert np.all(np.diff(key) > 0)

    def test_band_of_a_tall_plate_is_the_row_order(self):
        # 2 nx < ny: the half-plate's rows are its shorter lines
        reduced = apply_constraints(make_system(2, 8, modified_set())[1], UNSUPPORTED)
        np.testing.assert_array_equal(reduced.free[reduced.band], np.sort(reduced.free))

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
        assert apply_constraints(system, UNSUPPORTED).band is not None
        assert apply_constraints(system, constraints).band is None
        system, constraints = loaded_case(CANTILEVER, MODIFIED, 0.3, PLANE_STRESS, (8, 2))
        moved = Constraints(constraints.dofs, np.where(constraints.dofs % 2, 0.0, 1e-6))
        assert apply_constraints(system, moved).band is None
        assert apply_constraints(make_system(4, 3, modified_set())[1], UNSUPPORTED).band is None
        cell = rng.normal(size=(8, 8))
        mesh, system = make_system(4, 2, modified_set())
        assert apply_constraints(assemble(mesh, cell + cell.T), UNSUPPORTED).band is None
        # and a system cannot carry one without the other
        reduced = apply_constraints(system, UNSUPPORTED)
        for field in ("mirror", "band"):
            with pytest.raises(ValueError, match="together"):
                dataclasses.replace(reduced, **{field: None})

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize(
        "model,nu", [(MODIFIED, 0.3), (MODIFIED, 0.49), (BORN, 0.0), (BORN, 0.3)]
    )
    def test_positive_definite_blocks_need_no_sparse_lu(self, monkeypatch, kind, model, nu):
        reduced = apply_constraints(*loaded_case(kind, model, nu, PLANE_STRESS, (128, 32)))
        u, _ = whole_factor_solve(reduced)

        monkeypatch.setattr(lsm2d.lattice, "splu", no_splu)
        for compute_inertia, inertia in ((True, (0, 0, reduced.matrix.shape[0])), (False, None)):
            solution = solve(reduced, compute_inertia=compute_inertia)
            np.testing.assert_allclose(solution.u, u, rtol=0.0, atol=1e-10 * np.abs(u).max())
            assert solution.residual <= 1e-10 * np.linalg.norm(reduced.rhs)
            assert solution.inertia == inertia

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    def test_indefinite_systems_take_the_whole_factor(self, monkeypatch, kind):
        reduced = apply_constraints(*loaded_case(kind, BORN, 0.45, PLANE_STRESS, (128, 32)))

        monkeypatch.setattr(lsm2d.lattice, "splu", no_splu)
        with pytest.raises(AssertionError, match="sparse LU called"):
            solve(reduced, compute_inertia=False)

    @pytest.mark.parametrize("model,nx,ny", [(BORN, 8, 8), (MODIFIED, 4, 2)])
    def test_singular_blocks_raise_from_their_band_pivots(self, monkeypatch, model, nx, ny):
        # every block factors, and a rigid mode leaves a pivot near 1e-15 of the largest
        system = make_system(nx, ny, StiffnessSet(model, 2.0, 1.0, 3.0))[1]
        reduced = apply_constraints(system, UNSUPPORTED)
        monkeypatch.setattr(lsm2d.lattice, "splu", no_splu)
        for compute_inertia, inertia in ((True, eigenvalue_inertia(reduced.matrix)), (False, None)):
            with pytest.raises(SingularSystemError, match="zero pivot") as info:
                solve(reduced, compute_inertia=compute_inertia)
            assert info.value.inertia == inertia

    @pytest.mark.parametrize(
        "model,nx,ny", [(BORN, 2, 2), (BORN, 4, 2), (MODIFIED, 2, 2), (MODIFIED, 8, 8)]
    )
    def test_rejected_singular_blocks_fall_back_to_sparse_lu(self, monkeypatch, model, nx, ny):
        # LAPACK meets a pivot that is not positive in a block
        mesh, system = make_system(nx, ny, StiffnessSet(model, 2.0, 1.0, 3.0))
        reduced = apply_constraints(system, UNSUPPORTED)
        monkeypatch.setattr(lsm2d.lattice, "splu", no_splu)
        with pytest.raises(AssertionError, match="sparse LU called"):
            solve(reduced, compute_inertia=False)

    @pytest.mark.parametrize(
        "model,nu,nx,ny",
        [(BORN, None, 2, 2), (BORN, None, 4, 2), (BORN, None, 8, 8)]
        + [(MODIFIED, None, 4, 2), (MODIFIED, None, 8, 8)]
        # calibrated plane-stress cells: LAPACK rejects a block, and the
        # whole factor's pivots hold the zero
        + [(BORN, 0.3, 8, 8), (MODIFIED, 0.3, 2, 2), (MODIFIED, 0.3, 4, 2)]
        + [(MODIFIED, 0.3, 4, 4), (MODIFIED, 0.3, 8, 8), (MODIFIED, 0.3, 32, 32)]
        # odd ny, no mirror: the whole factor alone
        + [(model, nu, nx, ny) for model in lsm2d.MODELS for nu in (None, 0.3)
           for nx, ny in [(3, 3), (16, 15)]]
        # the LU interchanges rows: no inertia, but its zero pivot still raises
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
    def test_born_past_its_plane_strain_threshold_at_a_third_is_singular(self, kind, size):
        # k_s1 < 0 at nu = 1/3 in plane strain: LAPACK rejects a block, and the
        # whole LU's pivots, spanning over 20 decades, hold zeros
        reduced = apply_constraints(*loaded_case(kind, BORN, 1.0 / 3.0, PLANE_STRAIN, size))
        with pytest.raises(SingularSystemError, match="zero pivot") as info:
            solve(reduced)
        assert info.value.inertia[1] > 0

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize("size", [(8, 2), (64, 16)], ids=["8x2", "64x16"])
    def test_born_at_a_third_raises_without_the_inertia(self, kind, size):
        # the load excites one block only, LAPACK rejects a block, and the
        # whole LU's zero pivots raise though the inertia is not requested
        reduced = apply_constraints(*loaded_case(kind, BORN, 1.0 / 3.0, PLANE_STRAIN, size))
        with pytest.raises(SingularSystemError, match="zero pivot") as info:
            solve(reduced, compute_inertia=False)
        assert info.value.inertia is None

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize("size", [(256, 64), (512, 128)], ids=["256x64", "512x128"])
    def test_band_storage_matches_the_gathered_block(self, kind, size):
        # many chunks at 512x128; the dense check below cannot reach these sizes
        system, constraints = loaded_case(kind, MODIFIED, 0.3, PLANE_STRESS, size)
        stencil = reduce_stencil(system.mesh, system.forces, constraints)
        for model in lsm2d.MODELS:
            stiffness = calibrate(Material(2e11, 0.3, 0.01), model)
            reduced = stencil.fill(stencil_values(cell_matrix(stiffness)))
            axis = reduced.mirror == np.arange(reduced.free.size)
            for s in (1.0, -1.0):
                rows = block_rows(reduced, s)
                ab = _band_storage(reduced.matrix, rows, axis[rows])
                expected = gathered_band_storage(reduced.matrix, rows, axis[rows])
                assert ab.flags.f_contiguous and ab.shape == expected.shape
                assert np.array_equal(ab, expected)

    def test_band_storage_takes_little_beyond_its_result(self):
        # numpy reports its buffers to tracemalloc; gathering the block's rows
        # at once peaked 12.5 MiB above the 67 MiB band
        reduced = apply_constraints(*loaded_case(CANTILEVER, MODIFIED, 0.3, PLANE_STRESS, (512, 128)))
        axis = reduced.mirror == np.arange(reduced.free.size)
        rows = block_rows(reduced, -1.0)
        on_axis = axis[rows]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ab = _band_storage(reduced.matrix, rows, on_axis)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak - ab.nbytes <= 0.1 * ab.nbytes

    @pytest.mark.parametrize("kind", [lsm2d.PURE_BENDING, CANTILEVER])
    @pytest.mark.parametrize("model", lsm2d.MODELS)
    @pytest.mark.parametrize("size", [(8, 2), (64, 16)])
    def test_band_storage_holds_the_folded_block(self, kind, model, size):
        reduced = apply_constraints(*loaded_case(kind, model, 0.3, PLANE_STRESS, size))
        axis = reduced.mirror == np.arange(reduced.free.size)
        for s in (1.0, -1.0):
            rows = block_rows(reduced, s)
            block = reduced.matrix.toarray()[np.ix_(rows, rows)]
            block[np.ix_(axis[rows], axis[rows])] *= 0.5
            ab = _band_storage(reduced.matrix, rows, axis[rows])
            u = ab.shape[0] - 1
            assert ab.shape[1] == rows.size and ab.flags.f_contiguous
            # ab[u - d, j] holds the entry (j - d, j) of the d-th superdiagonal
            assert np.any(np.diagonal(block, u)) and not np.any(np.triu(block, u + 1))
            for d in range(u + 1):
                np.testing.assert_array_equal(ab[u - d, d:], np.diagonal(block, d))
                assert not np.any(ab[u - d, :d])


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
