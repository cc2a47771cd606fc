"""Calibration and continuum-matching tests.

The calibrated stiffnesses must reproduce the isotropic plane elasticity
tensor exactly, so most checks here are round trips against values
derived straight from (E, nu) rather than against stored constants.
"""

import numpy as np
import pytest

from lsm2d import (
    BORN,
    MODIFIED,
    MODELS,
    PLANE_STRAIN,
    PLANE_STRESS,
    REGIMES,
    ElasticityTensor2D,
    Material,
    StiffnessSet,
    anisotropy_factor,
    calibrate,
    continuum_tensor,
    elasticity_tensor,
)
from oracles import plane_strain_components, plane_stress_components


def material(nu, regime=PLANE_STRESS, E=2.0e11, t=0.01):
    return Material(young_modulus=E, poisson_ratio=nu, thickness=t, regime=regime)


class TestMaterialValidation:
    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            Material(young_modulus=0.0, poisson_ratio=0.3, thickness=0.01)
        with pytest.raises(ValueError):
            Material(young_modulus=-1.0, poisson_ratio=0.3, thickness=0.01)

    def test_rejects_nonpositive_thickness(self):
        with pytest.raises(ValueError):
            Material(young_modulus=1.0, poisson_ratio=0.3, thickness=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_modulus_and_thickness(self, value):
        with pytest.raises(ValueError):
            Material(young_modulus=value, poisson_ratio=0.3, thickness=1.0)
        with pytest.raises(ValueError):
            Material(young_modulus=1.0, poisson_ratio=0.3, thickness=value)

    def test_rejects_poisson_ratio_outside_range(self):
        with pytest.raises(ValueError):
            Material(young_modulus=1.0, poisson_ratio=-0.01, thickness=1.0)
        with pytest.raises(ValueError):
            Material(young_modulus=1.0, poisson_ratio=0.5, thickness=1.0)

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            Material(young_modulus=1.0, poisson_ratio=0.3, thickness=1.0, regime="3d")

    def test_boundary_poisson_ratios_accepted(self):
        material(0.0)
        material(0.49999)

    def test_shear_modulus(self):
        m = material(0.3, E=2.0e11)
        assert m.shear_modulus == pytest.approx(2.0e11 / 2.6, rel=1e-15)


class TestCalibration:
    def test_unit_case_plane_stress(self):
        m = material(0.0, E=3.0, t=1.0)
        born = calibrate(m, BORN)
        assert born.k_n1 == pytest.approx(1.0, rel=1e-15)
        assert born.k_s1 == pytest.approx(1.0, rel=1e-15)
        assert born.k_n2 == pytest.approx(1.0, rel=1e-15)
        mod = calibrate(m, MODIFIED)
        assert mod.k_s1 == pytest.approx(0.5, rel=1e-15)

    def test_edge_shear_vanishes_at_one_third_plane_stress(self):
        m = material(1.0 / 3.0)
        for model in MODELS:
            assert calibrate(m, model).k_s1 == pytest.approx(0.0, abs=1e-25)

    def test_edge_shear_vanishes_at_one_quarter_plane_strain(self):
        m = material(0.25, regime=PLANE_STRAIN)
        for model in MODELS:
            assert calibrate(m, model).k_s1 == pytest.approx(0.0, abs=1e-25)

    @pytest.mark.parametrize(
        "regime,threshold", [(PLANE_STRESS, 1.0 / 3.0), (PLANE_STRAIN, 0.25)]
    )
    def test_edge_shear_sign_flips_at_threshold(self, regime, threshold):
        below = calibrate(material(threshold - 0.05, regime=regime), BORN)
        above = calibrate(material(threshold + 0.05, regime=regime), BORN)
        assert below.k_s1 > 0.0 and not below.negative_shear
        assert above.k_s1 < 0.0 and above.negative_shear

    def test_normal_stiffnesses_positive_everywhere(self, nu_grid):
        for regime in REGIMES:
            for nu in nu_grid:
                for model in MODELS:
                    ks = calibrate(material(nu, regime=regime), model)
                    assert ks.k_n1 > 0.0
                    assert ks.k_n2 > 0.0

    def test_models_share_normal_stiffnesses(self, nu_grid):
        for regime in REGIMES:
            for nu in nu_grid:
                born = calibrate(material(nu, regime=regime), BORN)
                mod = calibrate(material(nu, regime=regime), MODIFIED)
                assert mod.k_n1 == pytest.approx(born.k_n1, rel=1e-14)
                assert mod.k_n2 == pytest.approx(born.k_n2, rel=1e-14)
                # coupled shear springs carry half the Born shear stiffness
                assert mod.k_s1 == pytest.approx(0.5 * born.k_s1, rel=1e-14, abs=1e-20)

    @pytest.mark.parametrize("field", ["k_n1", "k_s1", "k_n2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_stiffness_set_rejects_non_finite(self, field, value):
        values = {"k_n1": 1.0, "k_s1": 1.0, "k_n2": 1.0, field: value}
        with pytest.raises(ValueError):
            StiffnessSet(model=MODIFIED, **values)

    def test_set_carries_model_tag(self):
        assert calibrate(material(0.3), BORN).model == BORN
        assert calibrate(material(0.3), MODIFIED).model == MODIFIED

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            calibrate(material(0.3), "bond-based")


class TestContinuumRoundTrip:
    def test_plane_stress_tensor_recovered(self, nu_grid):
        for model in MODELS:
            for nu in nu_grid:
                m = material(nu)
                c = elasticity_tensor(calibrate(m, model), m.thickness)
                c11, c12, c33 = plane_stress_components(m.young_modulus, nu)
                assert c.c1 == pytest.approx(c11, rel=1e-12)
                assert c.c2 == pytest.approx(c12, rel=1e-12, abs=1e-12 * c11)
                assert c.c3 == pytest.approx(c33, rel=1e-12)

    def test_plane_strain_tensor_recovered(self, nu_grid):
        for model in MODELS:
            for nu in nu_grid:
                m = material(nu, regime=PLANE_STRAIN)
                c = elasticity_tensor(calibrate(m, model), m.thickness)
                c11, c12, c33 = plane_strain_components(m.young_modulus, nu)
                assert c.c1 == pytest.approx(c11, rel=1e-12)
                assert c.c2 == pytest.approx(c12, rel=1e-12, abs=1e-12 * c11)
                assert c.c3 == pytest.approx(c33, rel=1e-12)

    def test_calibrated_sets_are_isotropic(self, nu_grid):
        for regime in REGIMES:
            for model in MODELS:
                for nu in nu_grid:
                    ks = calibrate(material(nu, regime=regime), model)
                    assert anisotropy_factor(ks) == pytest.approx(1.0, rel=1e-12)

    def test_matches_continuum_tensor_helper(self):
        m = material(0.3)
        c = continuum_tensor(m)
        c11, c12, c33 = plane_stress_components(m.young_modulus, 0.3)
        assert (c.c1, c.c2, c.c3) == pytest.approx((c11, c12, c33), rel=1e-14)


class TestElasticityTensor:
    def test_modified_component_map(self):
        ks = StiffnessSet(model=MODIFIED, k_n1=1.0, k_s1=0.5, k_n2=1.0)
        c = elasticity_tensor(ks, thickness=1.0)
        assert (c.c1, c.c2, c.c3) == pytest.approx((3.0, 0.0, 1.5), abs=1e-15)

    def test_born_component_map(self):
        ks = StiffnessSet(model=BORN, k_n1=2.0, k_s1=1.0, k_n2=3.0)
        c = elasticity_tensor(ks, thickness=0.5)
        assert c.c1 == pytest.approx((2.0 + 1.0 + 3.0) / 0.5, rel=1e-15)
        assert c.c2 == pytest.approx((3.0 - 1.0) / 0.5, rel=1e-15)
        assert c.c3 == pytest.approx((3.0 + 0.5) / 0.5, rel=1e-15)

    def test_thickness_must_be_positive(self):
        ks = StiffnessSet(model=BORN, k_n1=1.0, k_s1=1.0, k_n2=1.0)
        with pytest.raises(ValueError):
            elasticity_tensor(ks, thickness=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_thickness_rejected(self, value):
        ks = StiffnessSet(model=BORN, k_n1=1.0, k_s1=1.0, k_n2=1.0)
        with pytest.raises(ValueError):
            elasticity_tensor(ks, thickness=value)

    def test_positive_definite_property(self):
        assert ElasticityTensor2D(c1=3.0, c2=0.0, c3=1.5).positive_definite
        assert not ElasticityTensor2D(c1=1.0, c2=2.0, c3=1.0).positive_definite
        assert not ElasticityTensor2D(c1=1.0, c2=0.0, c3=-0.1).positive_definite


class TestAnisotropyFactor:
    def test_equal_springs_born(self):
        ks = StiffnessSet(model=BORN, k_n1=1.0, k_s1=1.0, k_n2=1.0)
        assert anisotropy_factor(ks) == pytest.approx(1.0, rel=1e-15)

    def test_square_net_without_diagonals_or_shear(self):
        ks = StiffnessSet(model=MODIFIED, k_n1=1.0, k_s1=0.0, k_n2=0.0)
        assert anisotropy_factor(ks) == pytest.approx(0.0, abs=1e-15)

    def test_zero_denominator_rejected(self):
        ks = StiffnessSet(model=MODIFIED, k_n1=0.0, k_s1=0.0, k_n2=1.0)
        with pytest.raises(ValueError):
            anisotropy_factor(ks)
