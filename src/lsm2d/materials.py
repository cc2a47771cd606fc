"""Macroscopic elastic constants and their mapping to bond stiffnesses.

A square four-particle cell carries three spring stiffnesses: normal and
shear springs on the edge bonds (k_n1, k_s1) and a normal spring on the
diagonals (k_n2; the diagonal shear springs reuse k_s1 because all bonds
in the same shear plane share one stiffness). Calibration inverts, in
closed form, the homogenized elasticity tensor that ``cell`` derives from
the bond geometry, so the cell reproduces an isotropic material with
Young's modulus E and Poisson's ratio nu under plane stress or plane
strain.

The two bond models share the normal stiffnesses; the multi-bond
(modified) model needs only half the shear stiffness of the classical
Born model. The shear stiffness changes sign at nu = 1/3 (plane stress)
or nu = 1/4 (plane strain), which is the root of the Born model's
instability beyond those values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

BORN = "born"
MODIFIED = "modified"
MODELS = (BORN, MODIFIED)

PLANE_STRESS = "plane_stress"
PLANE_STRAIN = "plane_strain"
REGIMES = (PLANE_STRESS, PLANE_STRAIN)


@dataclass(frozen=True)
class Material:
    """Isotropic elastic description of a thin plate.

    Attributes:
        young_modulus: Young's modulus E in Pa.
        poisson_ratio: Poisson's ratio nu, restricted to 0 <= nu < 0.5.
        thickness: out-of-plane thickness t in m.
        regime: "plane_stress" or "plane_strain".
    """

    young_modulus: float
    poisson_ratio: float
    thickness: float
    regime: str = PLANE_STRESS

    def __post_init__(self) -> None:
        # a subnormal value has lost precision already, and its products underflow
        if not (math.isfinite(self.young_modulus) and self.young_modulus >= sys.float_info.min):
            raise ValueError(
                f"young_modulus must be positive, normal and finite, got {self.young_modulus}"
            )
        if not (math.isfinite(self.thickness) and self.thickness >= sys.float_info.min):
            raise ValueError(
                f"thickness must be positive, normal and finite, got {self.thickness}"
            )
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError(
                f"poisson_ratio must lie in [0, 0.5), got {self.poisson_ratio}"
            )
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")

    @property
    def shear_modulus(self) -> float:
        """G = E / (2 (1 + nu)), identical in both regimes."""
        return self.young_modulus / (2.0 * (1.0 + self.poisson_ratio))


@dataclass(frozen=True)
class StiffnessSet:
    """Spring stiffnesses of one square cell, tagged with the bond model.

    Attributes:
        model: "born" or "modified".
        k_n1: edge-bond normal stiffness in N/m.
        k_s1: shear stiffness (edges and diagonals) in N/m; may be negative.
        k_n2: diagonal-bond normal stiffness in N/m.

    All three stiffnesses must be finite.
    """

    model: str
    k_n1: float
    k_s1: float
    k_n2: float

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        for name in ("k_n1", "k_s1", "k_n2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def negative_shear(self) -> bool:
        """Advisory flag: a negative shear stiffness signals the unstable
        regime of the Born model (nu beyond 1/3 or 1/4)."""
        return self.k_s1 < 0.0


@dataclass(frozen=True)
class ElasticityTensor2D:
    """Three independent components of the plane elasticity matrix in Pa.

    Represents [[c1, c2, 0], [c2, c1, 0], [0, 0, c3]] acting on the
    engineering strain vector (e_xx, e_yy, gamma_xy).
    """

    c1: float
    c2: float
    c3: float

    @property
    def positive_definite(self) -> bool:
        return self.c1 > abs(self.c2) and self.c3 > 0.0


def calibrate(material: Material, model: str) -> StiffnessSet:
    """Closed-form stiffnesses reproducing the material with the given model.

    Args:
        material: target isotropic material.
        model: "born" or "modified".

    Returns:
        StiffnessSet whose homogenized tensor matches ``continuum_tensor``
        and whose anisotropy factor is exactly 1.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    E = material.young_modulus
    nu = material.poisson_ratio
    t = material.thickness
    Et = E * t
    if material.regime == PLANE_STRESS:
        denom = (1.0 + nu) * (1.0 - nu)
        k_n1 = Et * (1.0 + 3.0 * nu) / (3.0 * denom)
        k_s1 = Et * (1.0 - 3.0 * nu) / (3.0 * denom)
        k_n2 = Et / (3.0 * denom)
    else:
        denom = (1.0 + nu) * (1.0 - 2.0 * nu)
        k_n1 = Et * (1.0 + 2.0 * nu) / (3.0 * denom)
        k_s1 = Et * (1.0 - 4.0 * nu) / (3.0 * denom)
        k_n2 = Et * (1.0 - nu) / (3.0 * denom)
    if model == MODIFIED:
        # multi-bond coupling doubles the shear energy per unit strain,
        # so half the spring stiffness recovers the same G
        k_s1 *= 0.5
    return StiffnessSet(model=model, k_n1=k_n1, k_s1=k_s1, k_n2=k_n2)


def continuum_tensor(material: Material) -> ElasticityTensor2D:
    """Plane-stress or plane-strain elasticity matrix of the material."""
    E = material.young_modulus
    nu = material.poisson_ratio
    G = material.shear_modulus
    if material.regime == PLANE_STRESS:
        f = E / (1.0 - nu * nu)
        return ElasticityTensor2D(c1=f, c2=nu * f, c3=G)
    f = E / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return ElasticityTensor2D(c1=f * (1.0 - nu), c2=f * nu, c3=G)
