"""Cell matrix, affine energy, homogenized tensor and spectral tests.

The cell matrices summed from bond bases are checked against Hessians of
independently summed per-bond energies and, bit for bit, against the
five-entry closed forms (tests/oracles.py), so the bases never validate
themselves. Eigenvalue checks compare against the analytical spectrum
expressed in stiffnesses. The eigenform labels come from the package's own
assignment, which must pick the columns scipy's linear_sum_assignment picks.
"""

import warnings

import numpy as np
import pytest

from lsm2d import cell as cell_module
from lsm2d import (
    BORN,
    INDEFINITE,
    MODIFIED,
    MODELS,
    PLANE_STRAIN,
    REGIMES,
    POSITIVE_DEFINITE_ON_DEFORMATIONS,
    SEMIDEFINITE_DEGENERATE,
    CANONICAL_MODES,
    EIGENFORMS,
    Gradient2D,
    Material,
    StiffnessSet,
    affine_energy,
    anisotropy_factor,
    calibrate,
    cell_matrix,
    corner_displacements,
    definiteness,
    eigen_analysis,
    elasticity_tensor,
    quadratic_energy,
)
from oracles import (
    affine_corner_displacements,
    born_cell_energy,
    closed_form_anisotropy,
    closed_form_cell_matrix,
    closed_form_eigenvalues,
    closed_form_tensor,
    fd_hessian,
    multibond_cell_energy,
)


def random_stiffness(rng, model):
    # negative shear stiffness is a physical regime, keep it in the pool
    return StiffnessSet(
        model=model,
        k_n1=float(rng.uniform(0.5, 3.0)),
        k_s1=float(rng.uniform(-1.0, 2.0)),
        k_n2=float(rng.uniform(0.5, 3.0)),
    )


def oracle_energy(stiffness):
    kn1, ks1, kn2 = stiffness.k_n1, stiffness.k_s1, stiffness.k_n2
    if stiffness.model == BORN:
        return lambda u: born_cell_energy(u, kn1, ks1, kn2)
    return lambda u: multibond_cell_energy(u, kn1, ks1, kn2)


def oracle_hessian(stiffness):
    return fd_hessian(oracle_energy(stiffness))


def reference_sets(rng, nu_grid):
    """(stiffness set, thickness): the calibrated sweep in both regimes, then random sets."""
    sets = []
    for regime in REGIMES:
        for nu in nu_grid + (1.0 / 3.0,):
            for young_modulus, thickness in ((2e11, 0.01), (3.0, 1.0), (7e9, 2.5)):
                material = Material(young_modulus, nu, thickness, regime)
                sets += [(calibrate(material, model), thickness) for model in MODELS]
    for model in MODELS:
        sets += [(random_stiffness(rng, model), float(rng.uniform(0.1, 2.0))) for _ in range(500)]
    return sets


class TestMatrixConstruction:
    @pytest.mark.parametrize("model", MODELS)
    def test_matches_per_bond_energy_hessian(self, rng, model):
        for _ in range(10):
            ks = random_stiffness(rng, model)
            matrix = cell_matrix(ks)
            oracle = oracle_hessian(ks)
            scale = np.abs(oracle).max()
            np.testing.assert_allclose(matrix, oracle, rtol=0.0, atol=1e-6 * scale)

    def test_born_entry_pattern(self):
        # equal stiffnesses make four of the five entries collapse
        m = cell_matrix(StiffnessSet(BORN, 2.0, 2.0, 2.0))
        assert m[0, 0] == pytest.approx(4.0)
        assert m[1, 0] == pytest.approx(0.0)
        assert m[2, 0] == pytest.approx(-1.0)
        assert m[4, 0] == pytest.approx(-2.0)
        assert m[6, 0] == pytest.approx(-1.0)
        assert m[3, 1] == pytest.approx(-1.0)

    def test_modified_entry_pattern(self):
        m = cell_matrix(StiffnessSet(MODIFIED, 2.0, 4.0, 2.0))
        assert m[0, 0] == pytest.approx(6.0)
        assert m[2, 0] == pytest.approx(-3.0)
        assert m[2, 1] == pytest.approx(3.0)
        assert m[3, 0] == pytest.approx(-3.0)
        assert m[4, 0] == pytest.approx(-3.0)
        assert m[7, 0] == pytest.approx(3.0)

    @pytest.mark.parametrize("model", MODELS)
    def test_symmetry(self, rng, model):
        for _ in range(5):
            m = cell_matrix(random_stiffness(rng, model))
            np.testing.assert_array_equal(m, m.T)

    def test_models_coincide_without_shear_springs(self):
        born = cell_matrix(StiffnessSet(BORN, 1.7, 0.0, 0.9))
        mod = cell_matrix(StiffnessSet(MODIFIED, 1.7, 0.0, 0.9))
        np.testing.assert_allclose(born, mod, rtol=0.0, atol=1e-15)

    def test_zero_stiffness_gives_zero_matrix(self):
        m = cell_matrix(StiffnessSet(BORN, 0.0, 0.0, 0.0))
        assert np.all(m == 0.0)


class TestClosedForms:
    """The bond bases reproduce the five-entry tables and the tensor formulas exactly."""

    def test_cell_matrix_equals_closed_form_tables(self, rng, nu_grid):
        for ks, _ in reference_sets(rng, nu_grid):
            table = closed_form_cell_matrix(ks.model, ks.k_n1, ks.k_s1, ks.k_n2)
            # array_equal counts -0.0 and 0.0 as equal
            assert np.array_equal(cell_matrix(ks), table), ks

    def test_tensor_and_anisotropy_bit_identical(self, rng, nu_grid):
        for ks, thickness in reference_sets(rng, nu_grid):
            c = elasticity_tensor(ks, thickness)
            expected = closed_form_tensor(ks.model, ks.k_n1, ks.k_s1, ks.k_n2, thickness)
            assert (c.c1, c.c2, c.c3) == expected, ks
            expected = closed_form_anisotropy(ks.model, ks.k_n1, ks.k_s1, ks.k_n2)
            assert anisotropy_factor(ks) == expected, ks


class TestHomogenizedTensor:
    """elasticity_tensor and anisotropy_factor against per-bond oracle energies."""

    @pytest.mark.parametrize("model", MODELS)
    def test_matches_oracle_energy_density(self, rng, model):
        for _ in range(200):
            ks = random_stiffness(rng, model)
            thickness = float(rng.uniform(0.1, 2.0))
            l = float(rng.uniform(0.5, 2.0))
            energy = oracle_energy(ks)

            def density(e_xx, e_xy, e_yx, e_yy):
                u = affine_corner_displacements(e_xx, e_xy, e_yx, e_yy, l)
                return energy(u) / (l * l * thickness)

            # W = 1/2 (c1 e_xx^2 + 2 c2 e_xx e_yy + c1 e_yy^2 + c3 gamma^2)
            c1 = 2.0 * density(1.0, 0.0, 0.0, 0.0)
            c2 = density(1.0, 0.0, 0.0, 1.0) - c1
            c3 = 2.0 * density(0.0, 0.5, 0.5, 0.0)
            scale = (ks.k_n1 + abs(ks.k_s1) + ks.k_n2) / thickness
            got = elasticity_tensor(ks, thickness)
            assert got.c1 == pytest.approx(c1, abs=1e-12 * scale)
            assert got.c2 == pytest.approx(c2, abs=1e-12 * scale)
            assert got.c3 == pytest.approx(c3, abs=1e-12 * scale)
            assert 2.0 * density(0.0, 0.0, 0.0, 1.0) == pytest.approx(c1, abs=1e-12 * scale)
            # cross-multiplied, so a near-zero c1 - c2 does not amplify rounding
            factor = anisotropy_factor(ks)
            assert factor * (c1 - c2) == pytest.approx(
                2.0 * c3, abs=1e-12 * scale * max(1.0, abs(factor))
            )


class TestNullSpaces:
    @pytest.mark.parametrize("model", MODELS)
    def test_translations_cost_nothing(self, rng, model):
        for _ in range(5):
            m = cell_matrix(random_stiffness(rng, model))
            scale = np.abs(m).max()
            for label in ("trans_x", "trans_y"):
                residual = np.abs(m @ CANONICAL_MODES[label]).max()
                assert residual <= 1e-14 * scale

    def test_rotation_free_only_in_multibond_model(self, rng):
        rot = CANONICAL_MODES["rotation"]
        for _ in range(5):
            kn1 = float(rng.uniform(0.5, 3.0))
            ks1 = float(rng.uniform(0.5, 2.0))
            kn2 = float(rng.uniform(0.5, 3.0))
            mod = cell_matrix(StiffnessSet(MODIFIED, kn1, ks1, kn2))
            assert np.abs(mod @ rot).max() <= 1e-14 * np.abs(mod).max()
            born = cell_matrix(StiffnessSet(BORN, kn1, ks1, kn2))
            # rotation is an exact eigenvector with eigenvalue 3 k_s1
            np.testing.assert_allclose(born @ rot, 3.0 * ks1 * rot, rtol=1e-12)


class TestAffineEnergy:
    def test_corner_displacements_follow_gradient(self):
        u = corner_displacements(Gradient2D(1.0, 0.0, 0.0, 0.0), cell_size=2.0)
        np.testing.assert_allclose(u, [0, 0, 2, 0, 2, 0, 0, 0], atol=1e-15)
        u = corner_displacements(Gradient2D(0.0, 0.5, 0.0, 0.0), cell_size=1.0)
        np.testing.assert_allclose(u, [0, 0, 0, 0, 0.5, 0, 0.5, 0], atol=1e-15)

    @pytest.mark.parametrize("model", MODELS)
    def test_matches_quadratic_form(self, rng, model):
        for _ in range(200):
            ks = random_stiffness(rng, model)
            matrix = cell_matrix(ks)
            grad = Gradient2D(*rng.uniform(-1.0, 1.0, size=4))
            l = float(rng.uniform(0.5, 2.0))
            direct = quadratic_energy(matrix, corner_displacements(grad, l))
            closed = affine_energy(ks, grad, l)
            scale = (ks.k_n1 + abs(ks.k_s1) + ks.k_n2) * l * l
            assert abs(direct - closed) <= 1e-9 * max(abs(closed), scale)

    def test_rigid_rotation_energies(self):
        omega, l = 0.3, 1.7
        rot = Gradient2D(0.0, -omega, omega, 0.0)
        born = StiffnessSet(BORN, 1.3, 0.8, 2.1)
        assert affine_energy(born, rot, l) == pytest.approx(
            3.0 * 0.8 * l * l * omega * omega, rel=1e-12
        )
        mod = StiffnessSet(MODIFIED, 1.3, 0.8, 2.1)
        assert affine_energy(mod, rot, l) == pytest.approx(0.0, abs=1e-18)

    def test_zero_gradient_zero_energy(self):
        ks = StiffnessSet(BORN, 1.0, 1.0, 1.0)
        assert affine_energy(ks, Gradient2D(0, 0, 0, 0), 1.0) == 0.0

    def test_cell_size_must_be_positive(self):
        ks = StiffnessSet(BORN, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            affine_energy(ks, Gradient2D(1, 0, 0, 1), 0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_cell_size_rejected(self, value):
        ks = StiffnessSet(BORN, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            affine_energy(ks, Gradient2D(1, 0, 0, 1), value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_gradient_rejected(self, value):
        ks = StiffnessSet(MODIFIED, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            affine_energy(ks, Gradient2D(1, value, 0, 1), 1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_corner_displacements_reject_non_finite_gradient(self, value):
        with pytest.raises(ValueError, match="gradient"):
            corner_displacements(Gradient2D(1.0, 0.0, value, 1.0), 1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_corner_displacements_reject_bad_cell_size(self, value):
        with pytest.raises(ValueError, match="cell_size"):
            corner_displacements(Gradient2D(1.0, 0.0, 0.0, 1.0), value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_quadratic_energy_rejects_non_finite_displacements(self, value):
        u = np.ones(8)
        u[3] = value
        with pytest.raises(ValueError, match="finite"):
            quadratic_energy(cell_matrix(StiffnessSet(BORN, 1.0, 1.0, 1.0)), u)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_quadratic_energy_rejects_non_finite_matrix(self, value):
        matrix = cell_matrix(StiffnessSet(MODIFIED, 1.0, 1.0, 1.0))
        matrix[2, 5] = value
        with pytest.raises(ValueError, match="finite"):
            quadratic_energy(matrix, np.ones(8))

    @pytest.mark.parametrize(
        "matrix_shape,u_shape", [((8, 8), (6,)), ((8, 8), (8, 1)), ((6, 6), (6,)), ((8, 6), (8,))]
    )
    def test_quadratic_energy_rejects_wrong_shapes(self, matrix_shape, u_shape):
        with pytest.raises(ValueError, match="shape"):
            quadratic_energy(np.eye(*matrix_shape), np.ones(u_shape))

    def test_oracle_displacements_agree_with_package(self):
        # guards the shared convention between test oracle and package
        grad = Gradient2D(0.3, -0.2, 0.7, 0.1)
        np.testing.assert_allclose(
            corner_displacements(grad, 1.3),
            affine_corner_displacements(0.3, -0.2, 0.7, 0.1, 1.3),
            atol=1e-15,
        )


class TestEigenAnalysis:
    @pytest.mark.parametrize("model", MODELS)
    def test_closed_form_spectrum_random_sets(self, rng, model):
        for _ in range(10):
            ks = random_stiffness(rng, model)
            report = eigen_analysis(cell_matrix(ks))
            expected = closed_form_eigenvalues(model, ks.k_n1, ks.k_s1, ks.k_n2)
            scale = max(abs(v) for v in expected.values())
            for label in EIGENFORMS:
                assert report.classification[label] == pytest.approx(
                    expected[label], abs=1e-9 * scale
                ), label

    @pytest.mark.parametrize("model", MODELS)
    def test_closed_form_spectrum_calibrated_sets(self, nu_grid, model):
        for nu in nu_grid:
            ks = calibrate(Material(2e11, nu, 0.01), model)
            report = eigen_analysis(cell_matrix(ks))
            expected = closed_form_eigenvalues(model, ks.k_n1, ks.k_s1, ks.k_n2)
            scale = max(abs(v) for v in expected.values())
            for label in EIGENFORMS:
                assert report.classification[label] == pytest.approx(
                    expected[label], abs=1e-9 * scale
                ), (label, nu)
            assert report.resolved

    def test_every_label_assigned_once(self, rng):
        report = eigen_analysis(cell_matrix(random_stiffness(rng, BORN)))
        assert set(report.classification) == set(EIGENFORMS)
        assert sorted(report.mode_columns.values()) == list(range(8))

    def test_bending_pair_degenerate(self, rng):
        ks = random_stiffness(rng, MODIFIED)
        report = eigen_analysis(cell_matrix(ks))
        assert report.classification["bending_1"] == pytest.approx(
            report.classification["bending_2"], rel=1e-12
        )

    def test_eigenvectors_orthonormal(self, rng):
        report = eigen_analysis(cell_matrix(random_stiffness(rng, BORN)))
        gram = report.eigenvectors.T @ report.eigenvectors
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)

    def test_zero_matrix_spectrum(self):
        report = eigen_analysis(np.zeros((8, 8)))
        np.testing.assert_array_equal(report.eigenvalues, np.zeros(8))
        assert all(v == 0.0 for v in report.classification.values())

    def test_unrelated_matrix_flagged_unresolved(self):
        report = eigen_analysis(np.diag(np.arange(1.0, 9.0)))
        assert not report.resolved

    def test_input_validation(self):
        with pytest.raises(ValueError):
            eigen_analysis(np.zeros((6, 6)))
        bad = np.zeros((8, 8))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            eigen_analysis(bad)

    def test_nan_matrix_rejected_as_non_finite(self):
        bad = np.eye(8)
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            eigen_analysis(bad)

    def test_inf_matrix_rejected_without_warning(self):
        bad = np.eye(8)
        bad[3, 3] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                eigen_analysis(bad)


def scipy_columns(cost):
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    assert list(rows) == list(range(len(cost)))
    return [int(c) for c in cols]


@pytest.fixture
def recorded_costs(monkeypatch):
    """Every cost matrix eigen_analysis hands to its assignment, with the columns chosen."""
    calls = []
    assign = cell_module._assign

    def recording(cost):
        cols = assign(cost)
        calls.append((cost.copy(), cols))
        return cols

    monkeypatch.setattr(cell_module, "_assign", recording)
    return calls


class TestAssignment:
    """The in-house assignment picks scipy's columns, ties included."""

    @pytest.mark.parametrize("kind", ["uniform", "small_integers", "sparse_binary"])
    def test_matches_scipy_on_random_costs(self, rng, kind):
        for _ in range(3500):
            if kind == "uniform":
                cost = rng.uniform(-1.0, 1.0, size=(8, 8))
            elif kind == "small_integers":
                cost = rng.integers(0, 4, size=(8, 8)).astype(float)
            else:
                cost = (rng.random((8, 8)) < 0.3).astype(float)
            assert cell_module._assign(cost) == scipy_columns(cost), cost

    def test_constant_cost_gives_identity(self):
        # every pairing is optimal; scipy's tie rule picks the identity
        assert cell_module._assign(np.zeros((8, 8))) == list(range(8))

    def test_matches_scipy_on_calibrated_cells(self, nu_grid, recorded_costs):
        for regime in REGIMES:
            for nu in nu_grid + (0.25, 1.0 / 3.0):
                for young_modulus in (1.0, 2e11):
                    for model in MODELS:
                        ks = calibrate(Material(young_modulus, nu, 0.01, regime), model)
                        eigen_analysis(cell_matrix(ks))
        assert len(recorded_costs) == 2 * len(nu_grid + (0.25, 1.0 / 3.0)) * 2 * 2
        for cost, cols in recorded_costs:
            assert cols == scipy_columns(cost), cost

    def test_matches_scipy_on_random_stiffness_sets(self, rng, recorded_costs):
        for _ in range(600):
            for model in MODELS:
                eigen_analysis(cell_matrix(random_stiffness(rng, model)))
        assert len(recorded_costs) == 1200
        for cost, cols in recorded_costs:
            assert cols == scipy_columns(cost), cost


class TestDefiniteness:
    def test_multibond_has_three_rigid_modes_everywhere(self, nu_grid):
        for nu in nu_grid:
            ks = calibrate(Material(2e11, nu, 0.01), MODIFIED)
            report = eigen_analysis(cell_matrix(ks))
            assert definiteness(report) == POSITIVE_DEFINITE_ON_DEFORMATIONS
            scale = np.abs(report.eigenvalues).max()
            n_zero = int(np.sum(np.abs(report.eigenvalues) <= 1e-9 * scale))
            assert n_zero == 3, nu

    def test_born_below_threshold_two_rigid_modes(self):
        ks = calibrate(Material(2e11, 0.2, 0.01), BORN)
        report = eigen_analysis(cell_matrix(ks))
        assert definiteness(report) == POSITIVE_DEFINITE_ON_DEFORMATIONS
        scale = np.abs(report.eigenvalues).max()
        assert int(np.sum(np.abs(report.eigenvalues) <= 1e-9 * scale)) == 2

    def test_born_above_threshold_indefinite(self):
        ks = calibrate(Material(2e11, 0.4, 0.01), BORN)
        report = eigen_analysis(cell_matrix(ks))
        assert definiteness(report) == INDEFINITE
        assert report.classification["rotation"] < 0.0

    def test_born_at_threshold_releases_rotation(self):
        ks = calibrate(Material(2e11, 1.0 / 3.0, 0.01), BORN)
        report = eigen_analysis(cell_matrix(ks))
        assert definiteness(report) == POSITIVE_DEFINITE_ON_DEFORMATIONS

    def test_extra_zero_modes_degenerate(self):
        # no edge normal springs: bending and one shear mode go soft
        report = eigen_analysis(cell_matrix(StiffnessSet(BORN, 0.0, 0.0, 1.0)))
        assert definiteness(report) == SEMIDEFINITE_DEGENERATE

    def test_zero_matrix_degenerate(self):
        assert definiteness(eigen_analysis(np.zeros((8, 8)))) == SEMIDEFINITE_DEGENERATE

    def test_zero_tol_validation(self, rng):
        report = eigen_analysis(cell_matrix(random_stiffness(rng, BORN)))
        with pytest.raises(ValueError):
            definiteness(report, zero_tol=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_zero_tol_rejected(self, rng, value):
        report = eigen_analysis(cell_matrix(random_stiffness(rng, BORN)))
        with pytest.raises(ValueError):
            definiteness(report, zero_tol=value)


def rotation_eigenvalue(nu: float, regime: str) -> float:
    ks = calibrate(Material(2e11, nu, 0.01, regime), BORN)
    report = eigen_analysis(cell_matrix(ks))
    return report.classification["rotation"]


class TestRotationStabilityThreshold:
    @pytest.mark.parametrize(
        "regime,bracket,root",
        [
            ("plane_stress", (0.2, 0.45), 1.0 / 3.0),
            (PLANE_STRAIN, (0.1, 0.4), 0.25),
        ],
    )
    def test_sign_change_located_by_bisection(self, regime, bracket, root):
        lo, hi = bracket
        assert rotation_eigenvalue(lo, regime) > 0.0
        assert rotation_eigenvalue(hi, regime) < 0.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if rotation_eigenvalue(mid, regime) > 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - root) <= 1e-10
