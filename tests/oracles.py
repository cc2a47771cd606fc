"""Independent reference implementations used as test oracles.

Everything here is derived directly from bond geometry and continuum
elasticity, or written out in closed form, never from the package's
basis matrices, so agreement between the two is meaningful. The cell
energies below sum individual bond energies in displacement space:

* Born cell: four edge bonds (each shared with a neighbouring cell,
  weight 1/2) and two diagonals (weight 1), each carrying a normal and a
  shear spring.
* Multi-bond cell: four corner bond pairs whose shear measures are
  coupled into one square (weight 1/4: each pair spans two half-weight
  edges), plus the coupled diagonal pair (weight 1).

A bond at angle theta measures normal stretch n . (u_B - u_A) and shear
slip s . (u_B - u_A) with n = (cos t, sin t), s = (-sin t, cos t).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import splu

# corner order A, B, C, D; DOF order [u_A, v_A, ..., u_D, v_D]
_CORNER_INDEX = {"A": 0, "B": 1, "C": 2, "D": 3}

_EDGE_BONDS = (("A", "B", 0.0), ("B", "C", 90.0), ("C", "D", 180.0), ("D", "A", 270.0))
_DIAGONALS = (("A", "C", 45.0), ("B", "D", 135.0))
# corner triples in cycle order: legs (P, Q) then (Q, R)
_BOND_PAIRS = (
    ("D", "A", "B", 270.0, 0.0),
    ("A", "B", "C", 0.0, 90.0),
    ("B", "C", "D", 90.0, 180.0),
    ("C", "D", "A", 180.0, 270.0),
)


def _delta(u: np.ndarray, p: str, q: str) -> np.ndarray:
    i, j = _CORNER_INDEX[p], _CORNER_INDEX[q]
    return u[2 * j : 2 * j + 2] - u[2 * i : 2 * i + 2]


def _normal(theta_deg: float, d: np.ndarray) -> float:
    t = np.radians(theta_deg)
    return float(np.cos(t) * d[0] + np.sin(t) * d[1])


def _shear(theta_deg: float, d: np.ndarray) -> float:
    t = np.radians(theta_deg)
    return float(np.cos(t) * d[1] - np.sin(t) * d[0])


def born_cell_energy(u: np.ndarray, k_n1: float, k_s1: float, k_n2: float) -> float:
    """Born cell energy as a plain sum of per-bond spring energies."""
    u = np.asarray(u, dtype=float)
    energy = 0.0
    for p, q, theta in _EDGE_BONDS:
        d = _delta(u, p, q)
        energy += 0.5 * (
            0.5 * k_n1 * _normal(theta, d) ** 2 + 0.5 * k_s1 * _shear(theta, d) ** 2
        )
    for p, q, theta in _DIAGONALS:
        d = _delta(u, p, q)
        energy += 0.5 * k_n2 * _normal(theta, d) ** 2 + 0.5 * k_s1 * _shear(theta, d) ** 2
    return energy


def multibond_cell_energy(u: np.ndarray, k_n1: float, k_s1: float, k_n2: float) -> float:
    """Multi-bond cell energy: coupled shear measures, same normal springs."""
    u = np.asarray(u, dtype=float)
    energy = 0.0
    for p, q, r, t1, t2 in _BOND_PAIRS:
        d1 = _delta(u, p, q)
        d2 = _delta(u, q, r)
        normal = 0.5 * k_n1 * (_normal(t1, d1) ** 2 + _normal(t2, d2) ** 2)
        shear = 0.5 * k_s1 * (_shear(t2, d2) - _shear(t1, d1)) ** 2
        energy += 0.25 * (normal + shear)
    d_ac = _delta(u, "A", "C")
    d_bd = _delta(u, "B", "D")
    energy += 0.5 * k_n2 * (_normal(45.0, d_ac) ** 2 + _normal(135.0, d_bd) ** 2)
    energy += 0.5 * k_s1 * (_shear(45.0, d_ac) - _shear(135.0, d_bd)) ** 2
    return energy


def fd_hessian(func, n: int = 8, step: float = 1e-6) -> np.ndarray:
    """Central-difference Hessian of a scalar function of an n-vector."""
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            upp = np.zeros(n)
            upp[i] += step
            upp[j] += step
            upm = np.zeros(n)
            upm[i] += step
            upm[j] -= step
            ump = -upm
            umm = -upp
            hess[i, j] = (func(upp) - func(upm) - func(ump) + func(umm)) / (
                4.0 * step * step
            )
    return hess


def affine_corner_displacements(
    e_xx: float, e_xy: float, e_yx: float, e_yy: float, cell_size: float
) -> np.ndarray:
    """Displacements of corners (0,0), (l,0), (l,l), (0,l) under a gradient."""
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) * cell_size
    u = np.empty(8)
    u[0::2] = e_xx * corners[:, 0] + e_xy * corners[:, 1]
    u[1::2] = e_yx * corners[:, 0] + e_yy * corners[:, 1]
    return u


def closed_form_eigenvalues(model: str, k_n1: float, k_s1: float, k_n2: float) -> dict:
    """Analytical cell eigenvalues per eigenform label."""
    common = {
        "trans_x": 0.0,
        "trans_y": 0.0,
        "bending_1": k_n1 + k_s1,
        "bending_2": k_n1 + k_s1,
        "volumetric": k_n1 + 2.0 * k_n2,
    }
    if model == "born":
        common.update(
            rotation=3.0 * k_s1,
            shear_1=2.0 * k_n2 + k_s1,
            shear_2=k_n1 + 2.0 * k_s1,
        )
    else:
        common.update(
            rotation=0.0,
            shear_1=2.0 * k_n2 + 2.0 * k_s1,
            shear_2=k_n1 + 4.0 * k_s1,
        )
    return common


def _symmetric_from_lower(rows: list[list[float]]) -> np.ndarray:
    mat = np.zeros((8, 8))
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            mat[i, j] = value
            mat[j, i] = value
    return mat


def closed_form_cell_matrix(model: str, k_n1: float, k_s1: float, k_n2: float) -> np.ndarray:
    """8x8 cell matrix from the five closed-form entries of each model.

    The package sums the same matrix from its bond bases; the two agree
    bit for bit (signed zeros aside).
    """
    kn1, ks1, kn2 = k_n1, k_s1, k_n2
    if model == "born":
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


def closed_form_tensor(
    model: str, k_n1: float, k_s1: float, k_n2: float, thickness: float
) -> tuple[float, float, float]:
    """(c1, c2, c3) of the tiled lattice in closed form, in Pa."""
    kn1, ks1, kn2 = k_n1, k_s1, k_n2
    if model == "born":
        c1 = (kn1 + ks1 + kn2) / thickness
        c2 = (kn2 - ks1) / thickness
        c3 = (kn2 + 0.5 * ks1) / thickness
    else:
        c1 = (kn1 + 2.0 * ks1 + kn2) / thickness
        c2 = (kn2 - 2.0 * ks1) / thickness
        c3 = (kn2 + ks1) / thickness
    return c1, c2, c3


def closed_form_anisotropy(model: str, k_n1: float, k_s1: float, k_n2: float) -> float:
    """2 c3 / (c1 - c2) in closed form; the denominator must not vanish."""
    kn1, ks1, kn2 = k_n1, k_s1, k_n2
    if model == "born":
        return (2.0 * kn2 + ks1) / (kn1 + 2.0 * ks1)
    return (2.0 * kn2 + 2.0 * ks1) / (kn1 + 4.0 * ks1)


def plane_stress_components(E: float, nu: float) -> tuple[float, float, float]:
    f = E / (1.0 - nu * nu)
    return f, nu * f, E / (2.0 * (1.0 + nu))


def plane_strain_components(E: float, nu: float) -> tuple[float, float, float]:
    f = E / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return f * (1.0 - nu), f * nu, E / (2.0 * (1.0 + nu))


def plane_stress_field_stresses(field, E: float, nu: float, x, y, step: float = 1e-7):
    """Stresses of a displacement field via finite-difference strains.

    Returns (sigma_xx, sigma_yy, sigma_xy) under plane stress.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ux_p, _ = field(x + step, y)
    ux_m, _ = field(x - step, y)
    uy_p, vy_p = field(x, y + step)
    uy_m, vy_m = field(x, y - step)
    _, vx_p = field(x + step, y)
    _, vx_m = field(x - step, y)
    e_xx = (ux_p - ux_m) / (2.0 * step)
    e_yy = (vy_p - vy_m) / (2.0 * step)
    gamma = (uy_p - uy_m) / (2.0 * step) + (vx_p - vx_m) / (2.0 * step)
    f = E / (1.0 - nu * nu)
    sigma_xx = f * (e_xx + nu * e_yy)
    sigma_yy = f * (e_yy + nu * e_xx)
    sigma_xy = E / (2.0 * (1.0 + nu)) * gamma
    return sigma_xx, sigma_yy, sigma_xy


def eigenvalue_inertia(matrix) -> tuple[int, int, int]:
    """(negative, zero, positive) eigenvalue counts of a sparse symmetric matrix.

    Dense symmetric eigensolve, independent of any factorization; the
    zero band is 1e-12 of the largest |eigenvalue|.
    """
    eigenvalues = np.linalg.eigvalsh(matrix.toarray())
    cutoff = 1e-12 * np.abs(eigenvalues).max() if eigenvalues.size else 0.0
    neg = int(np.sum(eigenvalues < -cutoff))
    pos = int(np.sum(eigenvalues > cutoff))
    return neg, eigenvalues.size - neg - pos, pos


def constrained_spectrum(reduced) -> np.ndarray:
    """Ascending eigenvalues of a reduced stiffness matrix, by a dense eigensolve."""
    return np.linalg.eigvalsh(reduced.matrix.toarray())


def whole_factor_solve(reduced) -> tuple[np.ndarray, int]:
    """Full displacement vector of a reduced system from one factor of its whole matrix.

    SuperLU in its own minimum-degree order of A + A^T, with diagonal pivots
    (a symmetric permutation), and one step of iterative refinement.
    Returns the displacements and nnz(L+U).
    """
    factor = splu(
        reduced.matrix.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    x = factor.solve(reduced.rhs)
    x += factor.solve(reduced.rhs - reduced.matrix @ x)
    u = np.zeros(reduced.n_dofs)
    u[reduced.free] = x
    u[reduced.fixed] = reduced.fixed_values
    return u, int(factor.nnz)


def coo_assembly(mesh, cell_matrix) -> scipy.sparse.csr_matrix:
    """Global stiffness as a COO sum: every cell's 64 entries, duplicates summed.

    The tiled cell matrix is scattered to each cell's DOFs and converted to
    CSR, which sorts each row and sums the entries of shared bonds. scipy
    leaves the order in which it sums duplicates to its sort, so two sums
    agree to the bit only where that order cannot matter.
    """
    n_cells = mesh.cells.shape[0]
    dofs = np.empty((n_cells, 8), dtype=int)
    dofs[:, 0::2] = 2 * mesh.cells
    dofs[:, 1::2] = 2 * mesh.cells + 1
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    data = np.tile(np.asarray(cell_matrix, dtype=float).ravel(), n_cells)
    return scipy.sparse.coo_matrix(
        (data, (rows, cols)), shape=(mesh.n_dofs, mesh.n_dofs)
    ).tocsr()


def sliced_reduction(stiffness, free: np.ndarray, columns=None) -> scipy.sparse.csr_matrix:
    """K[free][:, columns] by scipy's fancy indexing, rows and columns in the given order.

    ``columns`` defaults to ``free``; the fixed DOFs give the coupling that
    moves prescribed values to the right-hand side.
    """
    return stiffness.tocsr()[free][:, free if columns is None else columns].tocsr()


def field_rows(mesh, solution, field) -> np.ndarray:
    """A field CSV's rows as one float table, formatted per run by ``write_csv``.

    Columns particle, x, y, u, v, u_analytical, v_analytical; "%.17g" prints
    the particle index as an integer.
    """
    ua, va = field(mesh.positions[:, 0], mesh.positions[:, 1])
    return np.column_stack(
        [np.arange(mesh.n_particles), mesh.positions, solution.displacements, ua, va]
    )


def csv_cell(value) -> str:
    """Text of one CSV value, formatted on its own."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def gathered_band_storage(matrix, rows: np.ndarray, on_axis: np.ndarray) -> np.ndarray:
    """LAPACK's lower band storage ab[i - j, j] = a[i, j] of a = matrix[rows][:, rows].

    Entries between two axis DOFs are halved. Gathers the block's rows at
    once by scipy's fancy indexing and scatters their lower triangle.
    """
    block = matrix[rows]
    position = np.full(matrix.shape[1], -1, dtype=block.indices.dtype)
    position[rows] = np.arange(rows.size, dtype=block.indices.dtype)
    col = position[block.indices]
    row = np.repeat(np.arange(rows.size, dtype=block.indices.dtype), np.diff(block.indptr))
    lower = (col >= 0) & (col <= row)  # the columns outside the block read -1
    row, col, data = row[lower], col[lower], block.data[lower]
    del block, lower  # freed before the band storage is allocated
    data[on_axis[row] & on_axis[col]] *= 0.5
    u = int((row - col).max())
    ab = np.zeros((u + 1, rows.size), order="F")
    ab[row - col, col] = data
    return ab
