"""Benchmark case definitions, analytical fields, and convergence behavior.

The cantilever reference field is validated here against continuum
mechanics directly: traction-free faces, zero normal stress on the loaded
end, correct shear resultant, and weak (integral) clamp conditions. A
plausible misprint of the field, an extra bare linear term in u, fails
those checks, so the oracle pins down the implemented form.
"""

import numpy as np
import pytest

from lsm2d import (
    BORN,
    CANTILEVER,
    MODIFIED,
    PLANE_STRAIN,
    PLANE_STRESS,
    PURE_BENDING,
    PURE_SHEAR,
    SLENDER_MESHES,
    UNIAXIAL,
    BenchmarkCase,
    ErrorReport,
    Constraints,
    Material,
    SingularSystemError,
    analytical_field,
    calibrate,
    case_constraints,
    case_loads,
    case_mesh,
    cell_matrix,
    load_vector,
    make_case,
    moment_to_linear_traction,
    reduce_stencil,
    run_case,
    solve,
    stencil_values,
    sweep,
)
from lsm2d.benchmarks import _relative_l2
from oracles import plane_stress_field_stresses


class TestAnalyticalFields:
    def test_uniaxial_gauge_displacements(self):
        # documented plate response: 0.1 mm extension at the loaded edge,
        # nu * 0.1 mm lateral contraction at the top
        for nu, v_top in ((0.0, 0.0), (0.3, -0.03e-3), (0.49, -0.049e-3)):
            field = analytical_field(make_case(UNIAXIAL, nu))
            u, v = field(np.array([0.2]), np.array([0.2]))
            assert u[0] == pytest.approx(0.1e-3, rel=1e-12)
            assert v[0] == pytest.approx(v_top, rel=1e-12, abs=1e-15)

    def test_shear_field(self):
        case = make_case(PURE_SHEAR, 0.3)
        field = analytical_field(case)
        u, v = field(np.array([0.05, 0.2]), np.array([0.1, 0.2]))
        G = case.material.shear_modulus
        np.testing.assert_allclose(u, [1e8 * 0.1 / G, 1e8 * 0.2 / G], rtol=1e-12)
        np.testing.assert_array_equal(v, [0.0, 0.0])

    def test_bending_midspan_deflection(self):
        case = make_case(PURE_BENDING, 0.3)
        field = analytical_field(case)
        E = case.material.young_modulus
        inertia = case.material.thickness * case.height**3 / 12.0
        _, v = field(np.array([0.25]), np.array([0.0]))
        assert v[0] == pytest.approx(-case.load * case.length**2 / (8 * E * inertia), rel=1e-12)
        # midline is inextensible: u vanishes on y = 0
        u, _ = field(np.array([0.1, 0.4]), np.array([0.0, 0.0]))
        np.testing.assert_array_equal(u, [0.0, 0.0])

    def test_moment_traction_conversion(self):
        sigma0 = moment_to_linear_traction(2604.17, 0.0625, 0.01)
        assert sigma0 == pytest.approx(1e8, rel=1e-4)
        # quadratic in the half height
        assert moment_to_linear_traction(1.0, 0.2, 0.1) == pytest.approx(
            4.0 * moment_to_linear_traction(1.0, 0.4, 0.1), rel=1e-12
        )
        with pytest.raises(ValueError):
            moment_to_linear_traction(1.0, 0.0, 0.1)


class TestCantileverFieldOracle:
    def setup_method(self):
        self.case = make_case(CANTILEVER, 0.3)
        self.field = analytical_field(self.case)
        self.E = self.case.material.young_modulus
        self.nu = self.case.material.poisson_ratio
        self.F = self.case.load
        self.a = self.case.length
        self.b = self.case.half_height
        # Gauss-Legendre nodes integrate the polynomial field exactly
        nodes, weights = np.polynomial.legendre.leggauss(12)
        self.y = nodes * self.b
        self.w = weights * self.b

    def variant_field(self):
        # same field with an extra bare linear term in u, a plausible
        # misreading of the displacement solution
        extra = 3.0 * self.F * self.a**2 / (4.0 * self.E * self.b**3)

        def field(x, y):
            u, v = self.field(x, y)
            return u - extra * np.asarray(y, dtype=float), v

        return field

    def section_shear(self, field, x):
        _, _, s_xy = plane_stress_field_stresses(
            field, self.E, self.nu, np.full_like(self.y, x), self.y
        )
        return float((self.w * s_xy).sum())

    def test_faces_traction_free(self):
        for x in (0.0, 0.2, self.a):
            for y_face in (-self.b, self.b):
                _, s_yy, s_xy = plane_stress_field_stresses(
                    self.field, self.E, self.nu, np.array([x]), np.array([y_face])
                )
                assert abs(s_xy[0]) <= 1e-4 * 1e8
                assert abs(s_yy[0]) <= 1e-4 * 1e8

    def test_loaded_end_free_of_normal_stress(self):
        s_xx, _, _ = plane_stress_field_stresses(
            self.field, self.E, self.nu, np.zeros_like(self.y), self.y
        )
        assert np.abs(s_xx).max() <= 1e-4 * 1e8

    def test_shear_resultant_carries_load(self):
        for x in (0.0, 0.25, self.a):
            assert self.section_shear(self.field, x) == pytest.approx(self.F, rel=1e-6)

    def test_weak_clamp_conditions(self):
        u, v = self.field(np.full_like(self.y, self.a), self.y)
        # the moment integral is the condition that fixes the y-linear
        # coefficient; compare against the magnitude a wrong coefficient
        # would produce
        moment_scale = self.F * self.a**2 / (2.0 * self.E)
        assert abs(float((self.w * self.y * u).sum())) <= 1e-9 * moment_scale
        assert abs(float((self.w * u).sum())) <= 1e-9 * np.abs(u).max() * self.b
        assert abs(float((self.w * v).sum())) <= 1e-9 * np.abs(v).max() * self.b

    def test_variant_field_fails_the_oracle(self):
        variant = self.variant_field()
        # constant parasitic shear on the faces
        _, _, s_xy = plane_stress_field_stresses(
            variant, self.E, self.nu, np.array([0.1]), np.array([self.b])
        )
        assert abs(s_xy[0]) > 1e6
        # rotation condition at the clamped end picks up -F a^2 / (2 E)
        u, _ = variant(np.full_like(self.y, self.a), self.y)
        moment = float((self.w * self.y * u).sum())
        assert moment == pytest.approx(-self.F * self.a**2 / (2.0 * self.E), rel=1e-3)

    def test_lattice_agrees_with_field_not_variant(self):
        case = make_case(CANTILEVER, 0.3, mesh_sizes=((64, 16),))
        solutions, _ = run_case(case, MODIFIED)
        mesh = case_mesh(case, (64, 16))
        num = solutions[0].displacements
        ua, va = self.field(mesh.positions[:, 0], mesh.positions[:, 1])
        ref = np.column_stack([ua, va])
        uv, vv = self.variant_field()(mesh.positions[:, 0], mesh.positions[:, 1])
        var = np.column_stack([uv, vv])
        err_field = np.linalg.norm(num - ref) / np.linalg.norm(ref)
        err_variant = np.linalg.norm(num - var) / np.linalg.norm(var)
        assert err_field < 0.05
        assert err_variant > 0.15


class TestCaseSetup:
    def test_case_validation(self):
        with pytest.raises(ValueError):
            BenchmarkCase("torsion", 1.0, 1.0, Material(1.0, 0.3, 1.0), 1.0, ((1, 1),))
        with pytest.raises(ValueError):
            BenchmarkCase(UNIAXIAL, 0.0, 1.0, Material(1.0, 0.3, 1.0), 1.0, ((1, 1),))
        with pytest.raises(ValueError):
            BenchmarkCase(UNIAXIAL, 1.0, 1.0, Material(1.0, 0.3, 1.0), 1.0, ())
        with pytest.raises(ValueError):
            make_case("torsion", 0.3)
        assert make_case(PURE_BENDING, 0.3).half_height == pytest.approx(0.0625)

    @pytest.mark.parametrize(
        "size",
        [(0, 2), (8, 0), (-8, 2), (8.0, 2), (8, 2.5), (True, 2), ("8", 2), (8,), (8, 2, 1)],
        ids=repr,
    )
    def test_mesh_sizes_must_be_positive_integer_pairs(self, size):
        # (0, 2) used to raise ZeroDivisionError in run_case, (8.0, 2) IndexError
        with pytest.raises(ValueError, match="mesh sizes"):
            make_case(CANTILEVER, 0.3, mesh_sizes=((8, 2), size))

    def test_mesh_sizes_take_numpy_integers(self):
        case = make_case(CANTILEVER, 0.3, mesh_sizes=((np.int64(8), np.int32(2)),))
        assert case_mesh(case, case.mesh_sizes[0]).n_particles == 27

    @pytest.mark.parametrize("side", [float("nan"), float("inf"), -1.0])
    def test_plate_size_must_be_positive_and_finite(self, side):
        # a NaN length used to surface later, as non-square cells
        material = Material(1.0, 0.3, 1.0)
        with pytest.raises(ValueError, match="finite"):
            BenchmarkCase(UNIAXIAL, side, 1.0, material, 1.0, ((1, 1),))
        with pytest.raises(ValueError, match="finite"):
            BenchmarkCase(UNIAXIAL, 1.0, side, material, 1.0, ((1, 1),))

    def test_make_case_builds_either_regime(self):
        case = make_case(CANTILEVER, 0.3, regime=PLANE_STRAIN, thickness=0.02)
        assert case.material == Material(2e11, 0.3, 0.02, PLANE_STRAIN)
        assert make_case(CANTILEVER, 0.3).material.regime == PLANE_STRESS
        assert (case.length, case.height, case.load, case.mesh_sizes) == (
            0.5, 0.125, 1.25e7, SLENDER_MESHES
        )

    def test_mesh_geometry(self):
        mesh = case_mesh(make_case(UNIAXIAL, 0.3), (4, 4))
        assert mesh.spec.cell_size == pytest.approx(0.05)
        assert mesh.spec.origin == (0.0, 0.0)
        mesh = case_mesh(make_case(PURE_BENDING, 0.3), (8, 2))
        assert mesh.spec.cell_size == pytest.approx(0.0625)
        assert mesh.spec.origin == (0.0, -0.0625)
        assert mesh.positions[:, 1].min() == pytest.approx(-0.0625)

    def test_mesh_rejections(self):
        with pytest.raises(ValueError):
            case_mesh(make_case(UNIAXIAL, 0.3), (2, 1))  # non-square cells
        with pytest.raises(ValueError):
            case_mesh(make_case(PURE_BENDING, 0.3), (4, 1))  # axis support needs even ny
        with pytest.raises(ValueError):
            case_mesh(make_case(CANTILEVER, 0.3), (4, 1))

    def test_constraint_counts(self):
        case = make_case(UNIAXIAL, 0.3)
        mesh = case_mesh(case, (4, 4))
        assert case_constraints(case, mesh).dofs.size == 10
        case = make_case(PURE_SHEAR, 0.3)
        assert case_constraints(case, case_mesh(case, (4, 4))).dofs.size == 10
        case = make_case(PURE_BENDING, 0.3)
        assert case_constraints(case, case_mesh(case, (8, 2))).dofs.size == 3
        case = make_case(CANTILEVER, 0.3)
        assert case_constraints(case, case_mesh(case, (8, 2))).dofs.size == 6

    def test_load_specs(self):
        tractions = case_loads(make_case(PURE_BENDING, 0.3)).edge_tractions
        assert {t.edge for t in tractions} == {"left", "right"}
        assert all(t.profile == "linear" for t in tractions)
        assert all(t.direction == (1.0, 0.0) for t in tractions)
        right = next(t for t in tractions if t.edge == "right")
        assert right.magnitude == pytest.approx(-1e8, rel=1e-4)

        (traction,) = case_loads(make_case(CANTILEVER, 0.3)).edge_tractions
        assert traction.edge == "left"
        assert traction.direction == (0.0, -1.0)
        assert traction.magnitude == pytest.approx(1e8, rel=1e-12)


class TestSweep:
    def test_runs_equal_run_case(self):
        meshes = ((8, 2), (16, 4))
        runs = [
            (make_case(CANTILEVER, nu, regime=regime, mesh_sizes=meshes), model)
            for regime in (PLANE_STRESS, PLANE_STRAIN)
            for model in (BORN, MODIFIED)
            for nu in (0.0, 0.45)
        ]
        result = sweep(runs)
        assert [(m.spec.nx, m.spec.ny) for m in result.meshes] == list(meshes)
        for mesh, size in zip(result.meshes, meshes):
            np.testing.assert_array_equal(mesh.positions, case_mesh(runs[0][0], size).positions)
        for (case, model), (solutions, report) in zip(runs, result.runs):
            expected_solutions, expected = run_case(case, model)
            assert report == expected
            for solution, other in zip(solutions, expected_solutions):
                np.testing.assert_array_equal(solution.u, other.u)

    def test_cases_must_share_the_plate(self):
        with pytest.raises(ValueError):
            sweep(
                [(make_case(UNIAXIAL, 0.3), BORN), (make_case(UNIAXIAL, 0.3, thickness=0.02), BORN)]
            )
        with pytest.raises(ValueError):
            sweep([(make_case(UNIAXIAL, 0.3), BORN), (make_case(PURE_SHEAR, 0.3), BORN)])
        assert sweep([]).runs == ()


@pytest.mark.parametrize("power", [-1000, -600, 600, 1000])
def test_relative_l2_keeps_its_bits_under_any_power_of_two(rng, power):
    # squared, these values overflow or underflow; scaled back first, they do not
    ref = rng.normal(size=(50, 2))
    num = ref + 1e-3 * rng.normal(size=ref.shape)
    expected = _relative_l2(num, ref)
    assert _relative_l2(np.ldexp(num, power), np.ldexp(ref, power)) == expected
    assert _relative_l2(np.zeros(3), np.zeros(3)) == 0.0


@pytest.mark.parametrize("kind", [PURE_BENDING, CANTILEVER])
@pytest.mark.parametrize("regime", [PLANE_STRESS, PLANE_STRAIN])
def test_errors_hold_at_a_young_modulus_near_the_float_maximum(kind, regime):
    # 2E and 4E overflow at E = 1e308: the reference scales E's products instead
    meshes = ((8, 2), (16, 4))
    default, huge = (
        run_case(make_case(kind, 0.3, regime, young_modulus=E, mesh_sizes=meshes), MODIFIED)[1]
        for E in (2e11, 1e308)
    )
    np.testing.assert_allclose(huge.errors(), default.errors(), rtol=1e-9)


class TestAffineExactness:
    @pytest.mark.parametrize("model", [BORN, MODIFIED])
    def test_uniaxial_exact_at_every_particle(self, model):
        case = make_case(UNIAXIAL, 0.3, mesh_sizes=((2, 2), (5, 5)))
        _, report = run_case(case, model)
        for row in report.mesh_errors:
            assert row.rel_l2 <= 1e-9
            assert row.max_abs <= 1e-9 * 1e-4
            assert not row.failed and not row.indefinite

    def test_shear_exact_for_multibond_only(self):
        case = make_case(PURE_SHEAR, 0.3, mesh_sizes=((4, 4),))
        _, report = run_case(case, MODIFIED)
        assert report.mesh_errors[0].rel_l2 <= 1e-9
        _, report = run_case(case, BORN)
        assert report.mesh_errors[0].rel_l2 > 1e-3

    def test_born_shear_response_too_stiff(self):
        # rotation penalty absorbs part of the load: deflections short
        case = make_case(PURE_SHEAR, 0.0, mesh_sizes=((8, 8),))
        solutions, _ = run_case(case, BORN)
        mesh = case_mesh(case, (8, 8))
        top = mesh.edge_nodes("top")
        ua, _ = analytical_field(case)(mesh.positions[:, 0], mesh.positions[:, 1])
        num = solutions[0].displacements[top, 0]
        assert np.abs(num).max() < 0.75 * np.abs(ua[top]).max()


class TestConvergence:
    def test_multibond_bending_converges(self):
        for nu in (0.0, 0.3):
            study = run_case(make_case(PURE_BENDING, nu), MODIFIED)[1]
            assert study.strictly_decreasing, nu
            assert study.errors("axis_v")[-1] <= 0.05
            assert study.errors("edge_u")[-1] <= 0.05

    def test_multibond_cantilever_converges(self):
        study = run_case(make_case(CANTILEVER, 0.3), MODIFIED)[1]
        assert study.strictly_decreasing
        assert study.errors("axis_v")[-1] <= 0.05

    def test_plane_strain_locks_toward_the_incompressible_limit(self):
        # the paper's range 0 <= nu < 0.5 holds in plane stress on every
        # mesh, and in plane strain only once h is small against 1 - 2 nu
        nus, meshes = (0.3, 0.45, 0.49, 0.499, 0.4999), ((16, 4), (32, 8), (64, 16), (128, 32))
        errors = {}
        for regime in (PLANE_STRESS, PLANE_STRAIN):
            runs = [
                (make_case(PURE_BENDING, nu, regime=regime, mesh_sizes=meshes), MODIFIED)
                for nu in nus
            ]
            for nu, (_, report) in zip(nus, sweep(runs).runs):
                assert not any(row.failed for row in report.mesh_errors), (regime, nu)
                errors[regime, nu] = np.array([row.rel_l2 for row in report.mesh_errors])
        # plane stress: nearer the limit, smaller errors (3.4e-5 against 0.050 at 16x4)
        assert np.all(errors[PLANE_STRESS, 0.4999] < errors[PLANE_STRESS, 0.3])
        # plane strain at 128x32: 3.7e-4, 5.2e-3, 0.034, 0.27, 0.79
        finest = [errors[PLANE_STRAIN, nu][-1] for nu in nus]
        assert np.all(np.diff(finest) > 0), finest
        # and second order returns once the mesh resolves 1 - 2 nu (1.86)
        coarse, fine = errors[PLANE_STRAIN, 0.49][-2:]
        assert np.log2(coarse / fine) >= 1.8

    def test_reference_clamped_cantilever_converges_at_second_order(self):
        # the physical clamp fixes the right edge, the reference field only
        # weakly: prescribed to the reference's (u, v), the edge leaves no
        # floor, and the observed order from 64x16 to 256x64 stays near 2
        # (1.83 to 2.01)
        for regime, nu in ((PLANE_STRESS, 0.3), (PLANE_STRAIN, 0.3), (PLANE_STRAIN, 0.49)):
            errors = []
            for size in ((64, 16), (128, 32), (256, 64)):
                case = make_case(CANTILEVER, nu, regime=regime, mesh_sizes=(size,))
                mesh = case_mesh(case, size)
                ua, va = analytical_field(case)(mesh.positions[:, 0], mesh.positions[:, 1])
                right = mesh.edge_nodes("right")
                clamp = Constraints(
                    np.column_stack([2 * right, 2 * right + 1]).ravel(),
                    np.column_stack([ua[right], va[right]]).ravel(),
                )
                forces = load_vector(mesh, case_loads(case), case.material.thickness)
                table = stencil_values(cell_matrix(calibrate(case.material, MODIFIED)))
                reduced = reduce_stencil(mesh, forces, clamp).fill(table)
                u = solve(reduced, compute_inertia=False).displacements
                errors.append(_relative_l2(u, np.column_stack([ua, va])))
            orders = np.log2(np.array(errors[:-1]) / errors[1:])
            assert np.all(orders >= 1.8), (regime, nu, orders)

    def test_born_bending_stalls(self):
        study = run_case(make_case(PURE_BENDING, 0.0), BORN)[1]
        assert not study.strictly_decreasing
        assert min(study.errors("axis_v")) > 0.5

    def test_born_cantilever_softens_with_poisson_ratio(self):
        stiff = run_case(make_case(CANTILEVER, 0.0), BORN)[1]
        softer = run_case(make_case(CANTILEVER, 0.3), BORN)[1]
        assert softer.errors("axis_v")[-1] < stiff.errors("axis_v")[-1]
        assert min(softer.errors("axis_v")) > 0.5  # still nowhere near converged

    def test_born_unstable_regime_flagged(self):
        _, report = run_case(make_case(PURE_BENDING, 0.49, mesh_sizes=((8, 2), (16, 4))), BORN)
        for row in report.mesh_errors:
            assert row.indefinite
            assert row.inertia[0] > 0

    def test_verdict_past_the_dense_size_limit(self):
        # 33,280 free DOFs: a dense copy would take 8.9 GB, the factor does not
        size = (256, 64)
        _, stable = run_case(make_case(CANTILEVER, 0.3, mesh_sizes=(size,)), MODIFIED)
        _, unstable = run_case(make_case(CANTILEVER, 0.45, mesh_sizes=(size,)), BORN)
        assert stable.mesh_errors[0].inertia == (0, 0, 33280)
        assert not stable.mesh_errors[0].indefinite
        assert unstable.mesh_errors[0].inertia[0] > 0
        assert unstable.mesh_errors[0].indefinite

    def test_failed_mesh_reports_the_inertia_of_its_own_factor(self, monkeypatch):
        def failing_solve(reduced, compute_inertia=True):
            raise SingularSystemError("injected failure", (2, 0, 10))

        monkeypatch.setattr("lsm2d.lattice.solve", failing_solve)
        solutions, report = run_case(make_case(UNIAXIAL, 0.3, mesh_sizes=((2, 2),)), MODIFIED)
        row = report.mesh_errors[0]
        assert solutions == [None]
        assert row.failed and row.failure == "injected failure"
        assert row.inertia == (2, 0, 10)
        assert row.indefinite

    def test_bending_supports_exact(self):
        case = make_case(PURE_BENDING, 0.3, mesh_sizes=((16, 4),))
        solutions, _ = run_case(case, MODIFIED)
        mesh = case_mesh(case, (16, 4))
        d = solutions[0].displacements
        assert d[mesh.node_index(0, 2), 1] == 0.0
        assert d[mesh.node_index(16, 2), 1] == 0.0
        assert d[mesh.node_index(8, 2), 0] == 0.0

    def test_report_metadata(self):
        case = make_case(PURE_BENDING, 0.3, mesh_sizes=((8, 2),))
        _, report = run_case(case, MODIFIED)
        assert report.kind == PURE_BENDING
        assert report.model == MODIFIED
        assert report.poisson_ratio == 0.3
        assert report.mesh_errors[0].mesh_size == (8, 2)
        assert set(report.mesh_errors[0].profile_errors) == {"edge_u", "axis_v"}

    def test_profile_keys_absent_for_square_plates(self):
        case = make_case(UNIAXIAL, 0.3, mesh_sizes=((2, 2),))
        _, report = run_case(case, MODIFIED)
        assert report.mesh_errors[0].profile_errors == {}
        study = ErrorReport(UNIAXIAL, MODIFIED, 0.3, report.mesh_errors)
        assert np.isnan(study.errors("axis_v")[0])

    def test_strictly_decreasing_semantics(self):
        from lsm2d import MeshError

        def row(size, rel, profile):
            return MeshError(size, rel, rel, profile, None, False)

        down = ErrorReport(
            PURE_BENDING,
            MODIFIED,
            0.3,
            (row((8, 2), 0.4, {"axis_v": 0.3}), row((16, 4), 0.2, {"axis_v": 0.1})),
        )
        assert down.strictly_decreasing
        flat = ErrorReport(
            PURE_BENDING,
            MODIFIED,
            0.3,
            (row((8, 2), 0.4, {"axis_v": 0.3}), row((16, 4), 0.2, {"axis_v": 0.3})),
        )
        assert not flat.strictly_decreasing
        failed = ErrorReport(
            PURE_BENDING,
            MODIFIED,
            0.3,
            (row((8, 2), 0.4, {"axis_v": 0.3}), row((16, 4), float("nan"), {})),
        )
        assert not failed.strictly_decreasing

    def test_default_mesh_ladder(self):
        assert make_case(CANTILEVER, 0.3).mesh_sizes == SLENDER_MESHES
        assert make_case(PURE_SHEAR, 0.3).mesh_sizes == ((2, 2), (4, 4), (8, 8), (16, 16))
