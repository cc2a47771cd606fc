"""Acceptance gate: one test per published claim, at its stated tolerance.

Each test re-derives its expected values from first principles (closed
forms in the stiffnesses, per-bond energies, continuum elasticity) so a
pass means the implementation agrees with independent ground truth, not
with itself. Budgeted runtimes are asserted where the claim includes one.
"""

import dataclasses
import time

import numpy as np
import pytest

from lsm2d import (
    BORN,
    CANTILEVER,
    MODIFIED,
    MODELS,
    PLANE_STRAIN,
    PLANE_STRESS,
    PURE_BENDING,
    PURE_SHEAR,
    REGIMES,
    UNIAXIAL,
    Constraints,
    Gradient2D,
    Material,
    StiffnessSet,
    affine_energy,
    anisotropy_factor,
    apply_constraints,
    assemble,
    calibrate,
    case_constraints,
    case_mesh,
    cell_matrix,
    continuum_tensor,
    corner_displacements,
    eigen_analysis,
    elasticity_tensor,
    make_case,
    quadratic_energy,
    run_case,
)
from oracles import (
    born_cell_energy,
    closed_form_eigenvalues,
    constrained_spectrum,
    fd_hessian,
    multibond_cell_energy,
)

NU_GRID = tuple(round(0.05 * i, 2) for i in range(10)) + (0.49,)
BENCH_NUS = (0.0, 0.3, 0.49)


def random_sets(seed, model, count=10):
    rng = np.random.default_rng(seed)
    return [
        StiffnessSet(
            model=model,
            k_n1=float(rng.uniform(0.5, 3.0)),
            k_s1=float(rng.uniform(-1.0, 2.0)),
            k_n2=float(rng.uniform(0.5, 3.0)),
        )
        for _ in range(count)
    ]


def test_criterion_1_uniaxial_gauge_displacements_match_published_values():
    started = time.perf_counter()
    worst = 0.0
    for model in MODELS:
        for nu in BENCH_NUS:
            case = make_case(UNIAXIAL, nu)
            solutions, report = run_case(case, model)
            for solution, row in zip(solutions, report.mesh_errors):
                assert not row.failed
                mesh = case_mesh(case, row.mesh_size)
                d = solution.displacements
                u_right = d[mesh.edge_nodes("right"), 0]
                v_top = d[mesh.edge_nodes("top"), 1]
                # 0.1 mm edge extension; -nu * 0.1 mm top contraction
                err_u = np.abs(u_right - 1.0e-4).max() / 1.0e-4
                err_v = np.abs(v_top - (-nu * 1.0e-4)).max() / 1.0e-4
                worst = max(worst, err_u, err_v, row.rel_l2)
                assert err_u <= 1e-9, (model, nu, row.mesh_size)
                assert err_v <= 1e-9, (model, nu, row.mesh_size)
                assert row.rel_l2 <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.3f}s"
    print(f"criterion 1 PASS: worst relative error {worst:.3e}, {elapsed:.3f}s")


def test_criterion_2_cell_spectrum_matches_closed_forms():
    started = time.perf_counter()
    worst = 0.0

    def check(stiffness):
        nonlocal worst
        report = eigen_analysis(cell_matrix(stiffness))
        expected = closed_form_eigenvalues(
            stiffness.model, stiffness.k_n1, stiffness.k_s1, stiffness.k_n2
        )
        scale = max(abs(v) for v in expected.values())
        for label, value in expected.items():
            err = abs(report.classification[label] - value) / scale
            worst = max(worst, err)
            assert err <= 1e-9, (stiffness, label)

    for model in MODELS:
        for stiffness in random_sets(913247, model):
            check(stiffness)
        for regime in REGIMES:
            for nu in NU_GRID:
                check(calibrate(Material(2e11, nu, 0.01, regime), model))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.3f}s"
    print(f"criterion 2 PASS: worst relative error {worst:.3e}, {elapsed:.3f}s")


def test_criterion_3_rigid_mode_budget_and_stability_threshold():
    # multi-bond cell: exactly three zero eigenvalues at every nu
    for regime in REGIMES:
        for nu in NU_GRID:
            stiffness = calibrate(Material(2e11, nu, 0.01, regime), MODIFIED)
            eigenvalues = eigen_analysis(cell_matrix(stiffness)).eigenvalues
            cutoff = 1e-9 * np.abs(eigenvalues).max()
            assert int(np.sum(np.abs(eigenvalues) <= cutoff)) == 3, (regime, nu)
            assert int(np.sum(eigenvalues > cutoff)) == 5, (regime, nu)

    # Born rotation eigenvalue changes sign at nu = 1/3 (plane stress)
    # and nu = 1/4 (plane strain); locate the crossing by bisection
    def rotation(nu, regime):
        stiffness = calibrate(Material(2e11, nu, 0.01, regime), BORN)
        return eigen_analysis(cell_matrix(stiffness)).classification["rotation"]

    for regime, bracket, root in (
        (PLANE_STRESS, (0.2, 0.45), 1.0 / 3.0),
        (PLANE_STRAIN, (0.1, 0.4), 0.25),
    ):
        lo, hi = bracket
        assert rotation(lo, regime) > 0.0 and rotation(hi, regime) < 0.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if rotation(mid, regime) > 0.0:
                lo = mid
            else:
                hi = mid
        found = 0.5 * (lo + hi)
        assert abs(found - root) <= 1e-10, (regime, found)
    print("criterion 3 PASS: three rigid modes, thresholds 1/3 and 1/4 located")


def test_criterion_4_affine_energy_equivalence():
    rng = np.random.default_rng(52113)
    worst = 0.0
    for model in MODELS:
        for _ in range(1000):
            stiffness = StiffnessSet(
                model=model,
                k_n1=float(rng.uniform(0.5, 3.0)),
                k_s1=float(rng.uniform(-1.0, 2.0)),
                k_n2=float(rng.uniform(0.5, 3.0)),
            )
            grad = Gradient2D(*rng.uniform(-1.0, 1.0, size=4))
            l = float(rng.uniform(0.5, 2.0))
            closed = affine_energy(stiffness, grad, l)
            direct = quadratic_energy(
                cell_matrix(stiffness), corner_displacements(grad, l)
            )
            scale = max(
                abs(closed),
                (stiffness.k_n1 + abs(stiffness.k_s1) + stiffness.k_n2) * l * l,
            )
            err = abs(closed - direct) / scale
            worst = max(worst, err)
            assert err <= 1e-9
    print(f"criterion 4 PASS: 1000 gradients per model, worst error {worst:.3e}")


def test_criterion_5_calibration_round_trip_and_isotropy():
    worst = 0.0
    for regime in REGIMES:
        for model in MODELS:
            for nu in NU_GRID:
                material = Material(2e11, nu, 0.01, regime)
                stiffness = calibrate(material, model)
                lattice_tensor = elasticity_tensor(stiffness, material.thickness)
                target = continuum_tensor(material)
                for got, want in (
                    (lattice_tensor.c1, target.c1),
                    (lattice_tensor.c2, target.c2),
                    (lattice_tensor.c3, target.c3),
                ):
                    err = abs(got - want) / target.c1
                    worst = max(worst, err)
                    assert err <= 1e-12, (regime, model, nu)
                iso = abs(anisotropy_factor(stiffness) - 1.0)
                worst = max(worst, iso)
                assert iso <= 1e-12, (regime, model, nu)
    print(f"criterion 5 PASS: worst deviation {worst:.3e}")


def test_criterion_6_shear_separates_the_models():
    # multi-bond model: exact at every particle on every mesh
    for nu in BENCH_NUS:
        case = make_case(PURE_SHEAR, nu)
        scale = case.load * case.length / case.material.shear_modulus
        _, report = run_case(case, MODIFIED)
        for row in report.mesh_errors:
            assert not row.failed and not row.indefinite
            assert row.max_abs <= 1e-9 * scale, (nu, row.mesh_size)

    # Born model: visibly wrong already at nu = 0.3
    _, report = run_case(make_case(PURE_SHEAR, 0.3), BORN)
    for row in report.mesh_errors:
        assert row.rel_l2 > 1e-3, row.mesh_size

    # Born single-cell constrained spectrum turns indefinite past nu = 0.4
    def smallest_eigenvalue(nu):
        case = make_case(PURE_SHEAR, nu, mesh_sizes=((1, 1),))
        mesh = case_mesh(case, (1, 1))
        stiffness = calibrate(case.material, BORN)
        system = assemble(mesh, cell_matrix(stiffness))
        reduced = apply_constraints(system, case_constraints(case, mesh))
        return float(constrained_spectrum(reduced).min())

    for nu in (0.3, 0.35, 0.39):
        assert smallest_eigenvalue(nu) > 0.0, nu
    for nu in (0.41, 0.45, 0.49):
        assert smallest_eigenvalue(nu) < 0.0, nu
    print("criterion 6 PASS: shear exact for multi-bond, Born unstable past 0.4")


def test_criterion_7_bending_and_cantilever_convergence():
    started = time.perf_counter()
    cases = {"bending": PURE_BENDING, "cantilever": CANTILEVER}

    # multi-bond model converges monotonically with finest error <= 5%
    for name, kind in cases.items():
        for nu in BENCH_NUS:
            study = run_case(make_case(kind, nu), MODIFIED)[1]
            assert study.strictly_decreasing, (name, nu)
            finest = study.errors("axis_v")[-1]
            assert finest <= 0.05, (name, nu, finest)
            assert study.errors("edge_u")[-1] <= 0.05, (name, nu)

    # Born model stalls far from the solution where it is stable
    for name, kind in cases.items():
        for nu in (0.0, 0.3):
            study = run_case(make_case(kind, nu), BORN)[1]
            errors = study.errors("axis_v")
            assert min(errors) > 0.1, (name, nu, errors)

    # and is flagged indefinite in its unstable regime
    for name, kind in cases.items():
        _, report = run_case(make_case(kind, 0.49), BORN)
        for row in report.mesh_errors:
            assert row.indefinite or row.failed, (name, row.mesh_size)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.3f}s"
    print(f"criterion 7 PASS: {elapsed:.1f}s")


def test_criterion_8_matrices_match_per_bond_energy_hessians():
    worst = 0.0
    for model, energy in ((BORN, born_cell_energy), (MODIFIED, multibond_cell_energy)):
        for stiffness in random_sets(771992, model):
            kn1, ks1, kn2 = stiffness.k_n1, stiffness.k_s1, stiffness.k_n2
            oracle = fd_hessian(lambda u: energy(u, kn1, ks1, kn2))
            matrix = cell_matrix(stiffness)
            scale = np.abs(oracle).max()
            err = np.abs(matrix - oracle).max() / scale
            worst = max(worst, err)
            assert err <= 1e-6, stiffness
    print(f"criterion 8 PASS: worst relative deviation {worst:.3e}")


def test_criterion_9_both_regimes_exact_and_convergent():
    def in_regime(case, regime):
        return dataclasses.replace(
            case, material=dataclasses.replace(case.material, regime=regime)
        )

    worst = 0.0
    for regime in REGIMES:
        for nu in BENCH_NUS:
            # affine fields: exact at every particle on every mesh
            for kind, models in ((UNIAXIAL, MODELS), (PURE_SHEAR, (MODIFIED,))):
                for model in models:
                    _, report = run_case(in_regime(make_case(kind, nu), regime), model)
                    for row in report.mesh_errors:
                        worst = max(worst, row.rel_l2)
                        assert row.rel_l2 <= 1e-9, (regime, kind, model, nu)
    # quadratic and cubic fields: monotone refinement in plane strain too
    for kind in (PURE_BENDING, CANTILEVER):
        for nu in BENCH_NUS:
            study = run_case(in_regime(make_case(kind, nu), PLANE_STRAIN), MODIFIED)[1]
            assert study.strictly_decreasing, (kind, nu)
    print(f"criterion 9 PASS: affine worst {worst:.3e} in both regimes")
