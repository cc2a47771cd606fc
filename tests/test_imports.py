"""What importing and running lsm2d loads.

Importing scipy.optimize also loads scipy.fft, scipy.special and
scipy.spatial, which cost a quarter of a second and about 17 MiB, and no
lsm2d path needs any of them: the package, its CLI, every solve path and
the eigenform labelling (``eigen_analysis``, ``lsm2d eigen --case``) load
only numpy, scipy.sparse and the scipy.linalg whose band Cholesky and LDL^T
factor every system. No path loads scipy.sparse.linalg either, which would
add 14-29 ms of import beside those. Each check runs in a fresh interpreter,
since this one has imported everything the suite touches.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from lsm2d import EIGENFORMS, MODELS, Material, calibrate
from oracles import closed_form_eigenvalues

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import lsm2d, lsm2d.cli

def unused():
    return {name: name in sys.modules for name in ("scipy.optimize", "scipy.sparse.linalg")}

loaded = {"import": unused()}
case = lsm2d.make_case(lsm2d.CANTILEVER, 0.45, mesh_sizes=((8, 2),))
for model in lsm2d.MODELS:
    lsm2d.run_case(case, model)
loaded["run_case"] = unused()
mesh = lsm2d.case_mesh(case, (8, 2))
stencil = lsm2d.reduce_stencil(
    mesh,
    lsm2d.load_vector(mesh, lsm2d.case_loads(case), case.material.thickness),
    lsm2d.case_constraints(case, mesh),
)
cell = lsm2d.cell_matrix(lsm2d.calibrate(case.material, lsm2d.MODIFIED))
lsm2d.solve(stencil.fill(lsm2d.stencil_values(cell)), compute_inertia=False)
loaded["mirror_solve"] = unused()
square = lsm2d.make_case(lsm2d.UNIAXIAL, 0.3, mesh_sizes=((4, 4),))
lsm2d.run_case(square, lsm2d.MODIFIED)
loaded["square_solve"] = unused()
spectra = {}
for model in lsm2d.MODELS:
    stiffness = lsm2d.calibrate(lsm2d.Material(2e11, 0.3, 0.01), model)
    spectra[model] = lsm2d.eigen_analysis(lsm2d.cell_matrix(stiffness)).classification
loaded["eigen_analysis"] = unused()
exit_code = lsm2d.cli.main(["eigen", "--case", "cantilever", "--out", sys.argv[2]])
loaded["eigen_command"] = unused()
print(json.dumps({"loaded": loaded, "spectra": spectra, "exit_code": exit_code}))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("eigen_cantilever")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), str(out)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout)


UNLOADED = {"scipy.optimize": False, "scipy.sparse.linalg": False}


def test_import_and_solve_leave_scipy_optimize_unloaded(probe):
    assert probe["loaded"]["import"] == UNLOADED
    assert probe["loaded"]["run_case"] == UNLOADED
    # the band factors of the mirror blocks and of a plate without a
    # mirror come from scipy.linalg
    assert probe["loaded"]["mirror_solve"] == UNLOADED
    assert probe["loaded"]["square_solve"] == UNLOADED


def test_eigen_leaves_scipy_optimize_unloaded_and_labels_modes(probe):
    assert probe["loaded"]["eigen_analysis"] == UNLOADED
    assert probe["exit_code"] == 0
    assert probe["loaded"]["eigen_command"] == UNLOADED
    for model in MODELS:
        ks = calibrate(Material(2e11, 0.3, 0.01), model)
        expected = closed_form_eigenvalues(model, ks.k_n1, ks.k_s1, ks.k_n2)
        scale = max(abs(v) for v in expected.values())
        classification = probe["spectra"][model]
        for label in EIGENFORMS:
            assert classification[label] == pytest.approx(expected[label], abs=1e-9 * scale)
