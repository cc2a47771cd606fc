"""Bond geometry, stiffness matrices and spectral analysis of the square cell.

The cell has corners A (lower left), B (lower right), C (upper right),
D (upper left) and the fixed displacement ordering

    [u_A, v_A, u_B, v_B, u_C, v_C, u_D, v_D].

Four 8x8 basis matrices are summed once from the integer bond vectors:
N1 from the normal springs of the four edges, N2 from those of the two
diagonals, S_born from an independent shear spring on every bond, and
S_modified from the multi-bond shear, which couples the slips of
consecutive edges and of the two diagonals. A stiffness set's cell matrix
is k_n1 N1 + k_n2 N2 + k_s1 S, with S the shear basis of its model; that
is the only place where the two bond models differ. Projected onto a
displacement gradient, the same bases give the affine cell energy and the
homogenized elasticity tensor. Every basis entry is an exact dyadic
rational; the per-bond energies and the closed forms in the test suite
are independent oracles for them.

The classical Born cell stores energy under rigid rotation (its shear
springs penalise any change of bond orientation), so rotation appears as
a spurious stiff mode with eigenvalue 3 k_s1. The multi-bond cell couples
the shear of adjacent edge bonds (and of the two diagonals), which cancels
the rotation contribution exactly: its matrix annihilates the rotation
mode for every stiffness set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import BORN, MODIFIED, ElasticityTensor2D, StiffnessSet

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

# Corner positions in units of the edge length, in A, B, C, D order.
_POSITIONS = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
# The same corners centered on the origin, for the canonical mode shapes.
_CORNERS = _POSITIONS - 0.5


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


def _check_affine(grad: Gradient2D, cell_size: float) -> np.ndarray:
    """The gradient components (e_xx, e_xy, e_yx, e_yy), once both inputs are valid."""
    if not (math.isfinite(cell_size) and cell_size > 0.0):
        raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
    g = np.array([grad.e_xx, grad.e_xy, grad.e_yx, grad.e_yy], dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError(f"gradient components must be finite, got {grad}")
    return g


def corner_displacements(grad: Gradient2D, cell_size: float) -> np.ndarray:
    """Displacements induced at the four corners by an affine field.

    u_x = e_xx x + e_xy y and u_y = e_yx x + e_yy y evaluated at the
    corners of a cell with edge length ``cell_size``. The origin drops
    out of every energy expression, so it is fixed at corner A.

    Args:
        grad: displacement gradient, finite.
        cell_size: edge length l in m, positive and finite.
    """
    _check_affine(grad, cell_size)
    xy = _POSITIONS * cell_size
    u = np.empty(8)
    u[0::2] = grad.e_xx * xy[:, 0] + grad.e_xy * xy[:, 1]
    u[1::2] = grad.e_yx * xy[:, 0] + grad.e_yy * xy[:, 1]
    return u


# Edge bonds in order around the cell, so consecutive edges share a corner,
# and the two diagonals; corner indices into _POSITIONS.
_EDGES = ((0, 1), (1, 2), (2, 3), (3, 0))
_DIAGONALS = ((0, 2), (1, 3))

# B: the corner displacements of a unit cell per unit gradient component,
# one column each for e_xx, e_xy, e_yx and e_yy
_GRADIENT_TO_CORNERS = np.column_stack(
    [corner_displacements(Gradient2D(*unit), 1.0) for unit in np.eye(4)]
)


def _bond(p: int, q: int, shear: bool = False) -> np.ndarray:
    """Integer row r with r . u = d . (u_q - u_p), d the bond vector x_q - x_p.

    With ``shear``, d is turned to (-d_y, d_x) and r . u measures the slip.
    Divided by |d|, r . u is the bond's normal stretch or shear slip.
    """
    d = _POSITIONS[q] - _POSITIONS[p]
    if shear:
        d = np.array([-d[1], d[0]])
    row = np.zeros(8)
    row[2 * q : 2 * q + 2] = d
    row[2 * p : 2 * p + 2] = -d
    return row


@dataclass(frozen=True)
class _Basis:
    cell: np.ndarray  # 8x8 Hessian of the basis's unit springs
    gradient: np.ndarray  # B^T cell B, the 4x4 energy matrix of a unit cell
    moduli: np.ndarray  # (c1, c2, c3, c1 - c2) per unit stiffness and thickness


def _basis(terms) -> _Basis:
    """Basis of unit springs with energy 1/2 sum w (r . u)^2 over (w, r) terms."""
    # integer rows, dyadic weights: every entry and sum is exact; + 0.0
    # turns the negative zeros of the products into positive ones
    cell = sum(w * np.outer(r, r) for w, r in terms) + 0.0
    h = _GRADIENT_TO_CORNERS.T @ cell @ _GRADIENT_TO_CORNERS
    # a unit cell stores 1/2 g^T h g: c1 and c2 are the e_xx^2 and e_xx e_yy
    # coefficients, c3 that of gamma^2 under e_xy = e_yx = gamma / 2
    c1, c2 = h[0, 0], h[0, 3]
    c3 = 0.25 * (h[1, 1] + 2.0 * h[1, 2] + h[2, 2])
    return _Basis(cell, h, np.array([c1, c2, c3, c1 - c2]))


# Each weight folds in 1/|d|^2 (1 for an edge, 2 for a diagonal). An edge
# counts half, since the tiling shares it between two cells; a pair of
# consecutive edges, which spans two half edges, counts a quarter.
_EDGE_SHEAR = [_bond(p, q, shear=True) for p, q in _EDGES]
_DIAGONAL_SHEAR = [_bond(p, q, shear=True) for p, q in _DIAGONALS]
_N1 = _basis((0.5, _bond(p, q)) for p, q in _EDGES)
_N2 = _basis((0.5, _bond(p, q)) for p, q in _DIAGONALS)
_SHEAR = {
    BORN: _basis((0.5, r) for r in _EDGE_SHEAR + _DIAGONAL_SHEAR),
    MODIFIED: _basis(
        [(0.25, _EDGE_SHEAR[i] - _EDGE_SHEAR[i - 1]) for i in range(4)]
        + [(0.5, _DIAGONAL_SHEAR[0] - _DIAGONAL_SHEAR[1])]
    ),
}

# The sums below run in the order of the closed forms in tests/oracles.py,
# which their values equal bit for bit: a stiffness times an exact basis
# entry is exact, so only the order of the additions can round differently.


def cell_matrix(stiffness: StiffnessSet) -> np.ndarray:
    """8x8 stiffness matrix of the cell: k_n1 N1 + k_n2 N2 + k_s1 S.

    S is the shear basis of the stiffness set's model.

    Returns:
        Symmetric ndarray in N/m, DOF order ``DOF_ORDER``. For the
        modified model it annihilates the rotation mode for every
        stiffness set.
    """
    n1, n2, s = _N1.cell, _N2.cell, _SHEAR[stiffness.model].cell
    return stiffness.k_n1 * n1 + stiffness.k_n2 * n2 + stiffness.k_s1 * s


def affine_energy(stiffness: StiffnessSet, grad: Gradient2D, cell_size: float) -> float:
    """Cell strain energy under an affine displacement field, in J.

    Evaluates 1/2 l^2 g^T H g in the gradient components
    g = (e_xx, e_xy, e_yx, e_yy), with H the cell's bases projected onto
    gradients. The multi-bond shear basis sees e_xy and e_yx only through
    their sum, so a pure rotation (e_xy = -e_yx) stores nothing.

    Args:
        stiffness: cell stiffnesses with model tag.
        grad: displacement gradient, finite.
        cell_size: edge length l in m, positive and finite.
    """
    g = _check_affine(grad, cell_size)
    n1, n2, s = _N1.gradient, _N2.gradient, _SHEAR[stiffness.model].gradient
    h = stiffness.k_n1 * n1 + stiffness.k_n2 * n2 + stiffness.k_s1 * s
    return 0.5 * cell_size * cell_size * float(g @ h @ g)


def _moduli(stiffness: StiffnessSet) -> np.ndarray:
    """(c1, c2, c3, c1 - c2) of the tiled lattice times the thickness, in N/m."""
    n1, n2, s = _N1.moduli, _N2.moduli, _SHEAR[stiffness.model].moduli
    return stiffness.k_n1 * n1 + stiffness.k_s1 * s + stiffness.k_n2 * n2


def elasticity_tensor(stiffness: StiffnessSet, thickness: float) -> ElasticityTensor2D:
    """Homogenized elasticity tensor of the tiled lattice.

    The cell energy density divides by the cell volume l^2 t; the l^2
    cancels against the bond-length factors, leaving stiffness / t.

    Args:
        stiffness: cell stiffnesses with their model tag.
        thickness: plate thickness t in m, positive and finite.

    Returns:
        ElasticityTensor2D in Pa.
    """
    if not (math.isfinite(thickness) and thickness > 0.0):
        raise ValueError(f"thickness must be positive and finite, got {thickness}")
    c1, c2, c3, _ = _moduli(stiffness) / thickness
    return ElasticityTensor2D(c1=float(c1), c2=float(c2), c3=float(c3))


def anisotropy_factor(stiffness: StiffnessSet) -> float:
    """Ratio 2 c3 / (c1 - c2) of the homogenized tensor.

    Equals 1 exactly when the lattice responds isotropically; calibrated
    sets satisfy this by construction.

    Raises:
        ValueError: for a degenerate set, where c1 - c2 vanishes.
    """
    _, _, c3, spread = _moduli(stiffness)
    if spread == 0.0:
        raise ValueError("degenerate stiffness set: c1 - c2 vanishes")
    return float(2.0 * c3 / spread)


def quadratic_energy(matrix: np.ndarray, u: np.ndarray) -> float:
    """Energy 1/2 u^T K u of a displacement vector, in J.

    Args:
        matrix: finite 8x8 cell matrix.
        u: finite corner displacements, 8 entries in ``DOF_ORDER``.
    """
    matrix = _cell_array(matrix)
    u = np.asarray(u, dtype=float)
    if u.shape != (8,):
        raise ValueError(f"expected 8 displacements, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("displacements must be finite")
    return 0.5 * float(u @ matrix @ u)


def _cell_array(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as a float array, once it is 8x8 and finite."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("cell matrix must be finite")
    return matrix


def _assign(cost: np.ndarray) -> list[int]:
    """Column of each row in a minimum-cost assignment of a square cost matrix.

    Shortest augmenting paths (Crouse 2016, IEEE TAES 52(4)) with the order
    and tie rule of scipy's linear_sum_assignment, so that the two pick the
    same columns among tied optima too: rows are augmented in order; the
    remaining columns are scanned from the highest index down, and a chosen
    one is replaced by the last; a path cost changes only on a strict
    improvement; a tie for the lowest cost goes to an unassigned column.
    Every sum is formed in scipy's order, so rounding agrees too.
    """
    c = cost.tolist()
    n = len(c)
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        shortest = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        rows, cols = [], []  # the rows and columns the path search visits
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            rows.append(i)
            index, lowest = -1, math.inf
            ci, ui = c[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                sj = shortest[j]
                if r < sj:
                    path[j], shortest[j], sj = i, r, r
                if sj < lowest or (sj == lowest and row4col[j] < 0):
                    index, lowest = it, sj
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update, then flip the path's edges
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def eigen_analysis(matrix: np.ndarray) -> EigenReport:
    """Full symmetric eigendecomposition with eigenform labels.

    Each canonical mode is matched to a computed eigenvector by maximum
    total squared overlap, one label per eigenpair. The matching is the
    shortest-augmenting-path assignment of Crouse (2016), with the tie
    rule of scipy's linear_sum_assignment: labels are placed in
    ``EIGENFORMS`` order, and a tie goes to a free eigenvector, scanned
    from the highest column down. Inside a repeated eigenvalue the
    individual pairing is arbitrary (the subspace is classified as a
    whole); the reported eigenvalue is unaffected.

    Args:
        matrix: symmetric, finite 8x8 cell matrix.

    Returns:
        EigenReport; ``resolved`` is False when a label's projection onto
        the eigenspace of its assigned eigenvalue falls below 0.9.
    """
    matrix = _cell_array(matrix)
    if not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(matrix).max())):
        raise ValueError("cell matrix must be symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)

    labels = list(CANONICAL_MODES)
    overlap = np.empty((len(labels), 8))
    for row, label in enumerate(labels):
        overlap[row] = (CANONICAL_MODES[label] @ eigenvectors) ** 2
    cols = _assign(-overlap)

    scale = max(np.abs(eigenvalues).max(), 1.0)
    classification: dict[str, float] = {}
    mode_columns: dict[str, int] = {}
    resolved = True
    for row, col in enumerate(cols):
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
        zero_tol: relative zero threshold, positive and finite.

    Returns:
        One of POSITIVE_DEFINITE_ON_DEFORMATIONS, SEMIDEFINITE_DEGENERATE,
        INDEFINITE.
    """
    if not (math.isfinite(zero_tol) and zero_tol > 0.0):
        raise ValueError(f"zero_tol must be positive and finite, got {zero_tol}")
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
