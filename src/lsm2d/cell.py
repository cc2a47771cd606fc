"""Stiffness matrices and spectral analysis of the square four-particle cell.

The cell has corners A (lower left), B (lower right), C (upper right),
D (upper left) and the fixed displacement ordering

    [u_A, v_A, u_B, v_B, u_C, v_C, u_D, v_D].

Edge bonds (length l) enter with contribution factor 1/2 because the
tiling shares them between two cells; diagonals (length sqrt(2) l) belong
to one cell and enter with factor 1. Both 8x8 matrices are assembled from
five closed-form entries; the per-bond energy route exists in the test
suite as an independent oracle.

The classical Born cell stores energy under rigid rotation (its shear
springs penalise any change of bond orientation), so rotation appears as
a spurious stiff mode with eigenvalue 3 k_s1. The multi-bond cell couples
the shear of adjacent edge bonds (and of the two diagonals), which cancels
the rotation contribution exactly: its matrix annihilates the rotation
mode for every stiffness set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .materials import BORN, MODIFIED, StiffnessSet

DOF_ORDER = ("u_A", "v_A", "u_B", "v_B", "u_C", "v_C", "u_D", "v_D")

EIGENFORMS = (
    "trans_x",
    "trans_y",
    "rotation",
    "bending_1",
    "bending_2",
    "shear_1",
    "shear_2",
    "volumetric",
)

POSITIVE_DEFINITE_ON_DEFORMATIONS = "positive_definite_on_deformations"
SEMIDEFINITE_DEGENERATE = "semidefinite_degenerate"
INDEFINITE = "indefinite"

# Corner coordinates of a unit cell centered on the origin, in A, B, C, D
# order. Used only to generate canonical mode shapes; the matrices do not
# depend on absolute positions.
_CORNERS = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])


def _normalized(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def _affine_mode(e_xx: float, e_xy: float, e_yx: float, e_yy: float) -> np.ndarray:
    u = np.empty(8)
    u[0::2] = e_xx * _CORNERS[:, 0] + e_xy * _CORNERS[:, 1]
    u[1::2] = e_yx * _CORNERS[:, 0] + e_yy * _CORNERS[:, 1]
    return _normalized(u)


# Canonical orthonormal eigenform shapes. These are exact eigenvectors of
# both cell matrices for every stiffness set, which makes classification a
# projection problem. Bending modes alternate corner displacements along
# one axis; the two shear shapes are the symmetric (e_xy = e_yx) and
# deviatoric (e_xx = -e_yy) strain patterns.
CANONICAL_MODES: dict[str, np.ndarray] = {
    "trans_x": _normalized(np.array([1.0, 0, 1, 0, 1, 0, 1, 0])),
    "trans_y": _normalized(np.array([0.0, 1, 0, 1, 0, 1, 0, 1])),
    "rotation": _affine_mode(0.0, -1.0, 1.0, 0.0),
    "bending_1": _normalized(np.array([1.0, 0, -1, 0, 1, 0, -1, 0])),
    "bending_2": _normalized(np.array([0.0, 1, 0, -1, 0, 1, 0, -1])),
    "shear_1": _affine_mode(0.0, 1.0, 1.0, 0.0),
    "shear_2": _affine_mode(1.0, 0.0, 0.0, -1.0),
    "volumetric": _affine_mode(1.0, 0.0, 0.0, 1.0),
}


@dataclass(frozen=True)
class Gradient2D:
    """Displacement gradient with independent off-diagonal components.

    e_xy and e_yx are not symmetrized; their antisymmetric part is a rigid
    rotation, which is exactly what distinguishes the two bond models.
    """

    e_xx: float
    e_xy: float
    e_yx: float
    e_yy: float


@dataclass(frozen=True)
class EigenReport:
    """Full spectrum of a cell matrix with labeled eigenforms.

    Attributes:
        eigenvalues: the 8 eigenvalues, ascending, in N/m.
        eigenvectors: matching orthonormal eigenvectors as columns.
        classification: eigenform label -> eigenvalue, each label once.
        mode_columns: eigenform label -> column index into eigenvectors.
        resolved: False when some label could not be matched cleanly to
            an eigenspace (projection quality below threshold).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    classification: dict[str, float]
    mode_columns: dict[str, int]
    resolved: bool


def _symmetric_from_lower(rows: list[list[float]]) -> np.ndarray:
    mat = np.zeros((8, 8))
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            mat[i, j] = value
            mat[j, i] = value
    return mat


def born_matrix(stiffness: StiffnessSet) -> np.ndarray:
    """8x8 stiffness matrix of the Born cell.

    Args:
        stiffness: must carry model tag "born".

    Returns:
        Symmetric ndarray in N/m, DOF order ``DOF_ORDER``.
    """
    if stiffness.model != BORN:
        raise ValueError(f"expected a born stiffness set, got {stiffness.model!r}")
    kn1, ks1, kn2 = stiffness.k_n1, stiffness.k_s1, stiffness.k_n2
    k1 = 0.5 * kn1 + 0.5 * kn2 + ks1
    k2 = 0.5 * kn2 - 0.5 * ks1
    k3 = -0.5 * kn1
    k4 = -0.5 * kn2 - 0.5 * ks1
    k5 = -0.5 * ks1
    return _symmetric_from_lower(
        [
            [k1],
            [k2, k1],
            [k3, 0.0, k1],
            [0.0, k5, -k2, k1],
            [k4, -k2, k5, 0.0, k1],
            [-k2, k4, 0.0, k3, k2, k1],
            [k5, 0.0, k4, k2, k3, 0.0, k1],
            [0.0, k3, k2, k4, 0.0, k5, -k2, k1],
        ]
    )


def modified_matrix(stiffness: StiffnessSet) -> np.ndarray:
    """8x8 stiffness matrix of the multi-bond cell.

    Args:
        stiffness: must carry model tag "modified".

    Returns:
        Symmetric ndarray in N/m, DOF order ``DOF_ORDER``. Annihilates
        the rotation mode for every stiffness set.
    """
    if stiffness.model != MODIFIED:
        raise ValueError(f"expected a modified stiffness set, got {stiffness.model!r}")
    kn1, ks1, kn2 = stiffness.k_n1, stiffness.k_s1, stiffness.k_n2
    k1 = 0.5 * kn1 + 0.5 * kn2 + ks1
    k2 = 0.5 * kn2 - 0.25 * ks1
    k3 = -0.5 * kn1 - 0.5 * ks1
    k4 = -0.75 * ks1
    k5 = -0.5 * kn2 - 0.5 * ks1
    return _symmetric_from_lower(
        [
            [k1],
            [k2, k1],
            [k3, -k4, k1],
            [k4, 0.0, -k2, k1],
            [k5, -k2, 0.0, -k4, k1],
            [-k2, k5, k4, k3, k2, k1],
            [0.0, k4, k5, k2, k3, -k4, k1],
            [-k4, k3, k2, k5, k4, 0.0, -k2, k1],
        ]
    )


def cell_matrix(stiffness: StiffnessSet) -> np.ndarray:
    """Dispatch to the matrix builder matching the stiffness model tag."""
    if stiffness.model == BORN:
        return born_matrix(stiffness)
    return modified_matrix(stiffness)


def corner_displacements(grad: Gradient2D, cell_size: float) -> np.ndarray:
    """Displacements induced at the four corners by an affine field.

    u_x = e_xx x + e_xy y and u_y = e_yx x + e_yy y evaluated at the
    corners of a cell with edge length ``cell_size``. The origin drops
    out of every energy expression, so it is fixed at corner A.
    """
    xy = _CORNERS * cell_size + 0.5 * cell_size
    u = np.empty(8)
    u[0::2] = grad.e_xx * xy[:, 0] + grad.e_xy * xy[:, 1]
    u[1::2] = grad.e_yx * xy[:, 0] + grad.e_yy * xy[:, 1]
    return u


def affine_energy(stiffness: StiffnessSet, grad: Gradient2D, cell_size: float) -> float:
    """Cell strain energy under an affine displacement field, in J.

    Evaluates the closed-form energy of the tagged model directly in
    gradient components. For the Born model the first-neighbour part is
    quadratic in all four components separately; the multi-bond model
    replaces the shear part by the symmetric combination (e_xy + e_yx)^2,
    so a pure rotation (e_xy = -e_yx) stores nothing.

    Args:
        stiffness: cell stiffnesses with model tag.
        grad: displacement gradient.
        cell_size: edge length l in m, positive.
    """
    if cell_size <= 0.0:
        raise ValueError(f"cell_size must be positive, got {cell_size}")
    kn1, ks1, kn2 = stiffness.k_n1, stiffness.k_s1, stiffness.k_n2
    exx, exy, eyx, eyy = grad.e_xx, grad.e_xy, grad.e_yx, grad.e_yy
    l2 = cell_size * cell_size
    # normal stretch of the two diagonals, identical in both models
    diag_a = 0.5 * (exx + exy + eyx + eyy)
    diag_b = 0.5 * (exx - exy - eyx + eyy)
    normal = 0.5 * kn1 * l2 * (exx * exx + eyy * eyy) + kn2 * l2 * (
        diag_a * diag_a + diag_b * diag_b
    )
    if stiffness.model == MODIFIED:
        shear_edges = 0.5 * ks1 * l2 * (exy + eyx) ** 2
        shear_diag = ks1 * l2 * (eyy - exx) ** 2
    else:
        shear_edges = 0.5 * ks1 * l2 * (exy * exy + eyx * eyx)
        sd_a = 0.5 * (eyx - exy - exx + eyy)
        sd_b = 0.5 * (exx - exy + eyx - eyy)
        shear_diag = ks1 * l2 * (sd_a * sd_a + sd_b * sd_b)
    return normal + shear_edges + shear_diag


def quadratic_energy(matrix: np.ndarray, u: np.ndarray) -> float:
    """Energy 1/2 u^T K u of a displacement vector, in J."""
    u = np.asarray(u, dtype=float)
    return 0.5 * float(u @ matrix @ u)


def eigen_analysis(matrix: np.ndarray) -> EigenReport:
    """Full symmetric eigendecomposition with eigenform labels.

    Each canonical mode is matched to a computed eigenvector by maximum
    squared overlap, one label per eigenpair. Inside a repeated eigenvalue
    the individual pairing is arbitrary (the subspace is classified as a
    whole); the reported eigenvalue is unaffected.

    Args:
        matrix: symmetric 8x8 cell matrix.

    Returns:
        EigenReport; ``resolved`` is False when a label's projection onto
        the eigenspace of its assigned eigenvalue falls below 0.9.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {matrix.shape}")
    if not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(matrix).max())):
        raise ValueError("cell matrix must be symmetric")
    # imported here, not at module level: scipy.optimize pulls in scipy.fft,
    # scipy.special and scipy.spatial, and no solve path needs any of them,
    # so only a caller of this function pays for loading them
    from scipy.optimize import linear_sum_assignment

    eigenvalues, eigenvectors = np.linalg.eigh(matrix)

    labels = list(CANONICAL_MODES)
    overlap = np.empty((len(labels), 8))
    for row, label in enumerate(labels):
        overlap[row] = (CANONICAL_MODES[label] @ eigenvectors) ** 2
    rows, cols = linear_sum_assignment(-overlap)

    scale = max(np.abs(eigenvalues).max(), 1.0)
    classification: dict[str, float] = {}
    mode_columns: dict[str, int] = {}
    resolved = True
    for row, col in zip(rows, cols):
        label = labels[row]
        classification[label] = float(eigenvalues[col])
        mode_columns[label] = int(col)
        # projection quality over the whole (possibly repeated) eigenspace
        cluster = np.abs(eigenvalues - eigenvalues[col]) <= 1e-8 * scale
        if overlap[row, cluster].sum() < 0.9:
            resolved = False
    return EigenReport(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        classification=classification,
        mode_columns=mode_columns,
        resolved=resolved,
    )


def definiteness(report: EigenReport, zero_tol: float = 1e-9) -> str:
    """Stability class of a cell matrix from its labeled spectrum.

    Eigenvalues with magnitude below ``zero_tol`` times the largest one
    count as zero. The matrix is positive definite on deformations when
    the zeros are exactly the rigid modes: both translations, plus the
    rotation when the model (or a vanishing shear stiffness) releases it.

    Args:
        report: labeled spectrum from ``eigen_analysis``.
        zero_tol: relative zero threshold, positive.

    Returns:
        One of POSITIVE_DEFINITE_ON_DEFORMATIONS, SEMIDEFINITE_DEGENERATE,
        INDEFINITE.
    """
    if zero_tol <= 0.0:
        raise ValueError(f"zero_tol must be positive, got {zero_tol}")
    scale = float(np.abs(report.eigenvalues).max())
    if scale == 0.0:
        return SEMIDEFINITE_DEGENERATE
    cutoff = zero_tol * scale
    if np.any(report.eigenvalues < -cutoff):
        return INDEFINITE
    zero_labels = {
        label for label, value in report.classification.items() if abs(value) <= cutoff
    }
    if zero_labels in ({"trans_x", "trans_y"}, {"trans_x", "trans_y", "rotation"}):
        return POSITIVE_DEFINITE_ON_DEFORMATIONS
    return SEMIDEFINITE_DEGENERATE
