"""Invariants of the lattice system, checked over whole ranges of input.

Each property loops over every mesh of a small range, or over a seeded
sample where the input is continuous, rather than over a few fixed
points: the assembled stiffness is bitwise symmetric, the unconstrained
stiffness has exactly the rigid-body null space of its model, support
reactions balance the applied loads, affine fields are exact on lattices
of any cell size, placement and aspect ratio, and the inertia read from
the solve's factor is the eigenvalue count, also where the mirror blocks
of Born past its threshold take the tiled LDL^T over many tiles.
"""

import numpy as np
import pytest

from lsm2d import (
    BORN,
    CASE_KINDS,
    MODELS,
    MODIFIED,
    PLANE_STRAIN,
    PLANE_STRESS,
    PURE_SHEAR,
    REGIMES,
    UNIAXIAL,
    BenchmarkCase,
    LatticeSpec,
    Material,
    analytical_field,
    assemble,
    build_mesh,
    calibrate,
    case_constraints,
    case_loads,
    case_mesh,
    cell_matrix,
    load_vector,
    make_case,
    reduce_stencil,
    solve,
    stencil_values,
    sweep,
)
from oracles import eigenvalue_inertia

NUS = (0.0, 0.3, 0.49)
RIGID_MODES = {MODIFIED: 3, BORN: 2}


def calibrated_cell(model, nu, regime):
    stiffness = calibrate(Material(2e11, nu, 0.01, regime), model)
    assert stiffness.k_s1 != 0.0  # Born at a threshold releases more modes
    return cell_matrix(stiffness)


@pytest.mark.parametrize("model", MODELS)
def test_stiffness_is_bitwise_symmetric(model):
    cells = [calibrated_cell(model, nu, REGIMES[0]) for nu in NUS]
    for nx in range(1, 9):
        for ny in range(1, 9):
            mesh = build_mesh(LatticeSpec(nx, ny, 1.0))
            for cell in cells:
                stiffness = assemble(mesh, cell).stiffness
                assert (stiffness != stiffness.T).nnz == 0, (nx, ny)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("model", MODELS)
def test_unconstrained_null_space_is_the_rigid_modes(model, regime):
    # translations for both models; the multi-bond cell also releases the
    # rotation, which the Born cell's shear springs penalise
    cells = [calibrated_cell(model, nu, regime) for nu in NUS]
    for nx in range(1, 5):
        for ny in range(1, 5):
            mesh = build_mesh(LatticeSpec(nx, ny, 1.0))
            for nu, cell in zip(NUS, cells):
                eigenvalues = np.linalg.eigvalsh(assemble(mesh, cell).stiffness.toarray())
                zero = np.abs(eigenvalues) <= 1e-9 * np.abs(eigenvalues).max()
                assert zero.sum() == RIGID_MODES[model], (nx, ny, nu)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("kind", CASE_KINDS)
def test_reactions_balance_the_applied_loads(kind, regime):
    ladder = make_case(kind, 0.0).mesh_sizes[:2]
    runs = [
        (make_case(kind, nu, regime=regime, mesh_sizes=ladder), model)
        for model in MODELS
        for nu in NUS
    ]
    result = sweep(runs)
    for (case, model), (solutions, _) in zip(runs, result.runs):
        cell = cell_matrix(calibrate(case.material, model))
        for mesh, solution in zip(result.meshes, solutions):
            forces = load_vector(mesh, case_loads(case), case.material.thickness)
            fixed = case_constraints(case, mesh).dofs
            # K u = f + r: the reactions r vanish off the supports
            reactions = assemble(mesh, cell).stiffness @ solution.u - forces
            scale = np.abs(forces).sum()
            free = np.setdiff1d(np.arange(mesh.n_dofs), fixed)
            assert np.abs(reactions[free]).sum() <= 1e-9 * scale
            for axis in (0, 1):
                supports = fixed[fixed % 2 == axis]
                total = reactions[supports].sum() + forces[axis::2].sum()
                assert abs(total) <= 1e-9 * scale, (model, case.material.poisson_ratio, axis)


@pytest.mark.parametrize("regime", REGIMES)
def test_affine_fields_exact_on_random_lattices(rng, regime):
    # uniaxial tension is affine for both models, pure shear for the
    # multi-bond model only (the Born cell resists its rotation part)
    for _ in range(16):
        nx, ny = (int(n) for n in rng.integers(1, 7, size=2))
        cell_size = 10.0 ** rng.uniform(-3.0, 0.0)
        origin = tuple(rng.uniform(-1.0, 1.0, size=2))
        material = Material(2e11, rng.uniform(0.0, 0.49), 0.01, regime)
        mesh = build_mesh(LatticeSpec(nx, ny, cell_size, origin))
        for kind, models in ((UNIAXIAL, MODELS), (PURE_SHEAR, (MODIFIED,))):
            case = BenchmarkCase(kind, nx * cell_size, ny * cell_size, material, 1e8, ((nx, ny),))
            forces = load_vector(mesh, case_loads(case), material.thickness)
            stencil = reduce_stencil(mesh, forces, case_constraints(case, mesh))
            # the reference fields are written for a plate with its lower
            # left corner at the origin
            ua, va = analytical_field(case)(
                mesh.positions[:, 0] - origin[0], mesh.positions[:, 1] - origin[1]
            )
            reference = np.column_stack([ua, va])
            for model in models:
                values = stencil_values(cell_matrix(calibrate(material, model)))
                error = solve(stencil.fill(values)).displacements - reference
                subject = (kind, model, nx, ny, cell_size, origin, material.poisson_ratio)
                assert np.linalg.norm(error) <= 1e-9 * np.linalg.norm(reference), subject


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("model", MODELS)
def test_factor_inertia_is_the_eigenvalue_count(rng, model, regime):
    # Sylvester's law: the pivot signs of the solve's own factor count the
    # negative, zero and positive eigenvalues, under every support set
    indefinite = 0
    for _ in range(10):
        nx, ny = (int(n) for n in rng.integers(1, 7, size=2))
        material = Material(2e11, rng.uniform(0.0, 0.49), 0.01, regime)
        mesh = build_mesh(LatticeSpec(nx, ny, 0.01))
        values = stencil_values(cell_matrix(calibrate(material, model)))
        for kind in CASE_KINDS:
            case = BenchmarkCase(kind, nx * 0.01, ny * 0.01, material, 1e8, ((nx, ny),))
            forces = rng.normal(size=mesh.n_dofs)
            reduced = reduce_stencil(mesh, forces, case_constraints(case, mesh)).fill(values)
            subject = (kind, nx, ny, material.poisson_ratio)
            inertia = solve(reduced).inertia
            assert inertia == eigenvalue_inertia(reduced.matrix), subject
            indefinite += inertia[0] > 0
    # the sample reaches past the Born thresholds; the multi-bond cell stays definite
    assert (indefinite > 0) == (model == BORN)


@pytest.mark.parametrize("regime", REGIMES)
def test_tiled_inertia_is_the_eigenvalue_count(rng, regime):
    # Born past its threshold: LAPACK's band Cholesky rejects the blocks, and
    # the tiled LDL^T factors each in tiles of half-bandwidth rows, its 1x1
    # and 2x2 pivots counting the eigenvalues over every tile. The mirror
    # plates split into two blocks, 5 rows a tile on 8x2 to 24 on 32x8; the
    # square plates are one block, the whole matrix, 11 or 12 a tile on 4x4
    # to 35 or 36 on 16x16. These are past their own thresholds from 0.39
    # (plane stress) and 0.29 (plane strain), and in plane strain nu = 0.4,
    # where k_n2 + k_s1 = 0, is drawn exactly
    threshold = 1.0 / 3.0 if regime == PLANE_STRESS else 0.25
    square_threshold = 0.39 if regime == PLANE_STRESS else 0.29
    for nx in (8, 16, 24, 32):
        for kind in CASE_KINDS:
            square = kind in (UNIAXIAL, PURE_SHEAR)
            size = (nx // 2, nx // 2) if square else (nx, nx // 4)
            nus = list(rng.uniform(square_threshold if square else threshold + 0.01, 0.499, size=2))
            if square and regime == PLANE_STRAIN:
                nus.append(0.4)
            for nu in nus:
                case = make_case(kind, nu, regime=regime, mesh_sizes=(size,))
                mesh = case_mesh(case, size)
                forces = load_vector(mesh, case_loads(case), case.material.thickness)
                values = stencil_values(cell_matrix(calibrate(case.material, BORN)))
                reduced = reduce_stencil(mesh, forces, case_constraints(case, mesh)).fill(values)
                assert (reduced.mirror is None) == square
                solution = solve(reduced)
                subject = (kind, size, nu)
                assert solution.inertia == eigenvalue_inertia(reduced.matrix), subject
                assert solution.indefinite, subject
