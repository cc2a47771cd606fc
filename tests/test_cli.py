"""CLI behavior: subcommands, config handling, exit codes, CSV format.

CSV outputs must be byte-deterministic, so several tests compare whole
files across repeated runs instead of parsed values.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from lsm2d import (
    MODELS,
    MODIFIED,
    PURE_BENDING,
    UNIAXIAL,
    LatticeSpec,
    Material,
    SingularSystemError,
    apply_constraints,
    assemble,
    build_mesh,
    calibrate,
    case_constraints,
    cell_matrix,
    make_case,
    run_case,
)
from lsm2d import cell as cell_module
from lsm2d import lattice as lattice_module
from lsm2d.cli import CASE_NAMES, REGIME_NAMES, main, read_field_csv, write_csv
from oracles import constrained_spectrum, csv_cell


def read_table(path):
    lines = [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestCalibrateCommand:
    def test_unit_material_golden_rows(self, tmp_path):
        assert main(["calibrate", "--out", str(tmp_path), "--E", "3", "--thickness", "1", "--nu", "0"]) == 0
        header, rows = read_table(tmp_path / "calibration.csv")
        assert header == ["model", "regime", "nu", "k_n1", "k_s1", "k_n2", "anisotropy", "c1", "c2", "c3"]
        by_model = {row["model"]: row for row in rows}
        assert set(by_model) == {"born", "modified"}
        for key in ("k_n1", "k_s1", "k_n2", "anisotropy"):
            assert float(by_model["born"][key]) == pytest.approx(1.0, rel=1e-15)
        assert float(by_model["modified"]["k_s1"]) == pytest.approx(0.5, rel=1e-15)
        assert float(by_model["modified"]["c3"]) == pytest.approx(1.5, rel=1e-12)

    def test_shear_stiffness_vanishes_at_thresholds(self, tmp_path):
        assert main(["calibrate", "--out", str(tmp_path), "--nu", "0.3333333333333333"]) == 0
        _, rows = read_table(tmp_path / "calibration.csv")
        for row in rows:
            assert abs(float(row["k_s1"])) <= 1e-6 * float(row["k_n1"])

        strain_dir = tmp_path / "strain"
        assert main(["calibrate", "--out", str(strain_dir), "--regime", "strain", "--nu", "0.25"]) == 0
        _, rows = read_table(strain_dir / "calibration.csv")
        for row in rows:
            assert row["regime"] == "plane_strain"
            assert abs(float(row["k_s1"])) <= 1e-12 * float(row["k_n1"])

    def test_model_flag_restricts_rows(self, tmp_path):
        assert main(["calibrate", "--out", str(tmp_path), "--model", "born", "--nu", "0.1,0.2"]) == 0
        _, rows = read_table(tmp_path / "calibration.csv")
        assert [row["model"] for row in rows] == ["born", "born"]

    def test_empty_sweep_writes_header_only(self, tmp_path):
        assert main(["calibrate", "--out", str(tmp_path), "--nu", ""]) == 0
        header, rows = read_table(tmp_path / "calibration.csv")
        assert header[0] == "model"
        assert rows == []

    def test_manifest_block(self, tmp_path):
        assert main(["calibrate", "--out", str(tmp_path), "--nu", "0.3"]) == 0
        text = (tmp_path / "calibration.csv").read_text(encoding="utf-8")
        assert text.startswith("# tool=lsm2d")
        assert "# nu=0.3\n" in text
        assert "\r" not in text
        assert (tmp_path / "run_manifest.json").exists()


class TestEigenCommand:
    def test_rotation_eigenvalue_sign_flip(self, tmp_path):
        assert main(["eigen", "--out", str(tmp_path), "--nu", "0.2,0.4"]) == 0
        _, rows = read_table(tmp_path / "eigenvalues.csv")
        values = {
            (row["model"], float(row["nu"])): float(row["lambda_rotation"])
            for row in rows
        }
        # normalized by E t: 3 k_s1 / (E t)
        assert values[("born", 0.2)] == pytest.approx(0.416666666667, rel=1e-9)
        assert values[("born", 0.4)] == pytest.approx(-0.238095238095, rel=1e-9)
        assert abs(values[("modified", 0.2)]) <= 1e-12
        assert abs(values[("modified", 0.4)]) <= 1e-12

    def test_translations_zero_and_ordering(self, tmp_path):
        assert main(["eigen", "--out", str(tmp_path), "--nu", "0.3"]) == 0
        header, rows = read_table(tmp_path / "eigenvalues.csv")
        assert header[3:5] == ["lambda_trans_x", "lambda_trans_y"]
        for row in rows:
            assert abs(float(row["lambda_trans_x"])) <= 1e-12
            assert abs(float(row["lambda_trans_y"])) <= 1e-12

    @pytest.mark.parametrize("case", ["uniaxial", "shear", "bending", "cantilever"])
    def test_constrained_spectrum_with_case(self, tmp_path, case):
        assert main(
            ["eigen", "--out", str(tmp_path), "--case", case, "--nu", "0.35,0.49"]
        ) == 0
        _, rows = read_table(tmp_path / "constrained_spectrum.csv")
        smallest = {
            (row["model"], float(row["nu"])): float(row["lambda_1"]) for row in rows
        }
        assert smallest[("born", 0.35)] > 0.0
        # the roller-supported uniaxial cell keeps Born stable at 0.49
        assert (smallest[("born", 0.49)] < 0.0) == (case != "uniaxial")
        assert smallest[("modified", 0.49)] > 0.0

    @pytest.mark.parametrize("regime", sorted(REGIME_NAMES))
    @pytest.mark.parametrize("case", sorted(CASE_NAMES))
    def test_constrained_spectrum_equals_assembled_route(self, tmp_path, case, regime):
        # the oracle assembles and constrains the 1x1 lattice; the command
        # takes the constrained block straight from the cell matrix
        nus = (0.0, 0.25, 1.0 / 3.0, 0.45, 0.49)
        assert main(
            [
                "eigen",
                "--out", str(tmp_path),
                "--case", case,
                "--regime", regime,
                "--nu", ",".join(repr(nu) for nu in nus),
            ]
        ) == 0
        _, rows = read_table(tmp_path / "constrained_spectrum.csv")
        plate = make_case(CASE_NAMES[case], 0.0)
        mesh = build_mesh(LatticeSpec(1, 1, cell_size=plate.height))
        constraints = case_constraints(plate, mesh)
        expected = []
        for model in MODELS:
            for nu in nus:
                material = Material(2e11, nu, 0.01, REGIME_NAMES[regime])
                system = assemble(mesh, cell_matrix(calibrate(material, model)))
                values = constrained_spectrum(apply_constraints(system, constraints)) / 2e9
                expected.append([model, REGIME_NAMES[regime], csv_cell(nu)] + [csv_cell(v) for v in values])
        assert [list(row.values()) for row in rows] == expected

    @pytest.mark.parametrize("regime", sorted(REGIME_NAMES))
    def test_tables_unchanged_under_scipy_assignment(self, tmp_path, monkeypatch, regime):
        # the eigenform labels decide the column of each eigenvalue, so the
        # package's assignment must write the bytes scipy's would
        from scipy.optimize import linear_sum_assignment

        def run(out):
            for extra in ([], ["--case", "cantilever"]):
                target = out / "_".join(["eigen"] + extra[1:])
                assert main(["eigen", "--out", str(target), "--regime", regime] + extra) == 0

        shipped, reference = tmp_path / "shipped", tmp_path / "scipy"
        run(shipped)
        calls = []

        def scipy_assign(cost):
            calls.append(cost)
            return [int(c) for c in linear_sum_assignment(cost)[1]]

        monkeypatch.setattr(cell_module, "_assign", scipy_assign)
        run(reference)
        assert calls
        for name in ("eigen/eigenvalues.csv", "eigen_cantilever/eigenvalues.csv",
                     "eigen_cantilever/constrained_spectrum.csv"):
            assert (shipped / name).read_bytes() == (reference / name).read_bytes(), name


class TestBenchmarkCommand:
    def test_uniaxial_field_gauge_values(self, tmp_path):
        code = main(
            [
                "benchmark",
                "--out", str(tmp_path),
                "--case", "uniaxial",
                "--model", "modified",
                "--nu", "0.3",
                "--mesh", "4x4",
            ]
        )
        assert code == 0
        field = read_field_csv(tmp_path / "field_uniaxial_modified_nu0.3_4x4.csv")
        corner = (field["x"] == 0.2) & (field["y"] == 0.2)
        assert field["u"][corner][0] == pytest.approx(1.0e-4, rel=1e-9)
        assert field["v"][corner][0] == pytest.approx(-3.0e-5, rel=1e-9)
        np.testing.assert_allclose(field["u"], field["u_analytical"], atol=1e-13 * 1.0)

        _, rows = read_table(tmp_path / "errors_uniaxial.csv")
        assert len(rows) == 1
        assert float(rows[0]["rel_l2"]) <= 1e-9
        assert rows[0]["indefinite"] == "false"
        assert rows[0]["failed"] == "false"

    def test_field_round_trip_is_exact(self, tmp_path):
        assert main(
            [
                "benchmark",
                "--out", str(tmp_path),
                "--case", "uniaxial",
                "--model", "modified",
                "--nu", "0.3",
                "--mesh", "4x4",
            ]
        ) == 0
        field = read_field_csv(tmp_path / "field_uniaxial_modified_nu0.3_4x4.csv")
        case = make_case(UNIAXIAL, 0.3, mesh_sizes=((4, 4),))
        solutions, _ = run_case(case, MODIFIED)
        assert np.array_equal(field["u"], solutions[0].displacements[:, 0])
        assert np.array_equal(field["v"], solutions[0].displacements[:, 1])

    def test_byte_determinism(self, tmp_path):
        args = ["--case", "shear", "--nu", "0,0.49", "--mesh", "2x2,4x4"]
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["benchmark", "--out", str(first)] + args) == 0
        assert main(["benchmark", "--out", str(second)] + args) == 0
        names = sorted(p.name for p in first.glob("*.csv"))
        assert names == sorted(p.name for p in second.glob("*.csv"))
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_convergence_table_only(self, tmp_path):
        assert main(
            [
                "convergence",
                "--out", str(tmp_path),
                "--case", "bending",
                "--model", "modified",
                "--nu", "0.3",
                "--mesh", "8x2,16x4",
            ]
        ) == 0
        _, rows = read_table(tmp_path / "convergence_bending.csv")
        assert len(rows) == 2
        assert float(rows[1]["axis_v"]) < float(rows[0]["axis_v"])
        assert not list(tmp_path.glob("field_*.csv"))

    def test_born_unstable_flagged_not_failed(self, tmp_path):
        assert main(
            [
                "convergence",
                "--out", str(tmp_path),
                "--case", "bending",
                "--model", "born",
                "--nu", "0.49",
                "--mesh", "8x2",
            ]
        ) == 0
        _, rows = read_table(tmp_path / "convergence_bending.csv")
        assert rows[0]["indefinite"] == "true"
        assert int(rows[0]["negative_pivots"]) > 0
        assert rows[0]["failed"] == "false"

    def test_solver_failure_exits_3_and_is_recorded(self, tmp_path, monkeypatch, capsys):
        def broken_solve(reduced, compute_inertia=True):
            raise SingularSystemError("injected failure")

        monkeypatch.setattr("lsm2d.lattice.solve", broken_solve)
        code = main(
            [
                "convergence",
                "--out", str(tmp_path),
                "--case", "uniaxial",
                "--model", "modified",
                "--nu", "0.3",
                "--mesh", "2x2",
            ]
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        _, rows = read_table(tmp_path / "convergence_uniaxial.csv")
        assert rows[0]["failed"] == "true"
        assert rows[0]["rel_l2"] == "nan"

    def test_zero_pivot_exits_3_with_the_inertia(self, tmp_path, capsys):
        # plane-strain Born at nu = 1/3 is past its threshold and singular
        code = main(
            [
                "convergence",
                "--out", str(tmp_path),
                "--case", "cantilever",
                "--regime", "strain",
                "--model", "born",
                "--nu", "0.3333333333333333",
                "--mesh", "8x2",
            ]
        )
        assert code == 3
        assert "zero pivot" in capsys.readouterr().err
        _, rows = read_table(tmp_path / "convergence_cantilever.csv")
        assert (rows[0]["failed"], rows[0]["inertia_source"]) == ("true", "factor")
        assert (rows[0]["negative_pivots"], rows[0]["indefinite"]) == ("2", "true")

    def test_inertia_source_column(self, tmp_path, monkeypatch):
        def convergence(out, model, nu):
            return main(
                [
                    "convergence",
                    "--out", str(out),
                    "--case", "bending",
                    "--model", model,
                    "--nu", nu,
                    "--mesh", "8x2",
                ]
            )

        assert convergence(tmp_path / "factor", "born", "0.49") == 0
        header, rows = read_table(tmp_path / "factor" / "convergence_bending.csv")
        assert header[-1] == "inertia_source"
        assert rows[0]["inertia_source"] == "factor"
        assert int(rows[0]["negative_pivots"]) > 0

        # an unstable Born row whose inertia is not known must not pass
        # for a verified-stable one: a row interchange voids the pivot signs
        class Interchanged:
            def __init__(self, factor):
                self.factor, self.perm_r = factor, np.roll(factor.perm_c, 1)

            def __getattr__(self, name):
                return getattr(self.factor, name)

        splu = lattice_module.splu
        monkeypatch.setattr(lattice_module, "splu", lambda *a, **k: Interchanged(splu(*a, **k)))
        assert convergence(tmp_path / "none", "born", "0.49") == 0
        _, rows = read_table(tmp_path / "none" / "convergence_bending.csv")
        assert (rows[0]["negative_pivots"], rows[0]["indefinite"]) == ("0", "false")
        assert (rows[0]["failed"], rows[0]["inertia_source"]) == ("false", "unknown")

    def test_inertia_source_unknown_when_splu_raises(self, tmp_path, monkeypatch):
        def broken_splu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr("lsm2d.lattice.splu", broken_splu)
        assert main(
            [
                "benchmark",
                "--out", str(tmp_path),
                "--case", "uniaxial",
                "--model", "modified",
                "--nu", "0.3",
                "--mesh", "2x2",
            ]
        ) == 3
        _, rows = read_table(tmp_path / "errors_uniaxial.csv")
        assert int(rows[0]["negative_pivots"]) == 0
        assert (rows[0]["failed"], rows[0]["inertia_source"]) == ("true", "unknown")


class TestSweep:
    @pytest.mark.parametrize("regime", sorted(REGIME_NAMES))
    def test_error_rows_equal_a_run_case_loop(self, tmp_path, regime):
        nus, meshes = (0.3, 0.45), ((8, 2), (16, 4))
        assert main(
            [
                "benchmark",
                "--out", str(tmp_path),
                "--case", "bending",
                "--regime", regime,
                "--nu", "0.3,0.45",
                "--mesh", "8x2,16x4",
            ]
        ) == 0
        _, rows = read_table(tmp_path / "errors_bending.csv")
        expected, fields = [], []
        for model in MODELS:
            for nu in nus:
                case = make_case(PURE_BENDING, nu, regime=REGIME_NAMES[regime], mesh_sizes=meshes)
                _, report = run_case(case, model)
                for error in report.mesh_errors:
                    nx, ny = error.mesh_size
                    values = (
                        model, nu, nx, ny, error.rel_l2, error.max_abs,
                        error.profile_errors["edge_u"], error.profile_errors["axis_v"],
                        error.inertia[0], error.indefinite, error.failed,
                    )
                    expected.append([csv_cell(v) for v in values])
                    fields.append(f"field_bending_{model}_nu{nu:g}_{nx}x{ny}.csv")
        columns = (
            "model", "nu", "nx", "ny", "rel_l2", "max_abs", "edge_u", "axis_v",
            "negative_pivots", "indefinite", "failed",
        )
        assert [[row[c] for c in columns] for row in rows] == expected
        manifest = json.loads((tmp_path / "run_manifest.json").read_text(encoding="utf-8"))
        assert manifest["files"] == fields + ["errors_bending.csv"]

    @pytest.mark.parametrize("command", ["benchmark", "convergence"])
    def test_manifest_reports_stage_timings(self, tmp_path, command):
        assert main(
            [command, "--out", str(tmp_path), "--case", "shear", "--nu", "0.3", "--mesh", "2x2,4x4"]
        ) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text(encoding="utf-8"))
        timings = manifest["timings"]
        assert set(timings) == {"mesh", "pattern", "values", "solve", "errors", "csv"}
        assert all(math.isfinite(value) and value >= 0.0 for value in timings.values())


class TestCsvFormat:
    SPECIALS = (float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 1.0 / 3.0)
    # a column led by a float but holding values "%.17g" would misprint
    MIXED = (0.5, True, 10**17, np.float64(2.5), np.int64(-4), np.bool_(True), -0.0)

    def expected_text(self, manifest, header, rows):
        lines = [f"# {key}={csv_cell(value)}" for key, value in manifest.items()]
        lines.append(",".join(header))
        lines += [",".join(csv_cell(value) for value in row) for row in rows]
        return "\n".join(lines) + "\n"

    def test_table_matches_per_value_oracle(self, tmp_path):
        header = ["name", "x", "x64", "i64", "i", "flag", "b", "mixed"]
        rows = [
            (
                f"case{i}",
                special,
                np.float64(special),
                np.int64(i - 3),
                i,
                np.bool_(i % 2),
                i % 3 == 0,
                mixed,
            )
            for i, (special, mixed) in enumerate(zip(self.SPECIALS, self.MIXED))
        ]
        manifest = {"E": 2e11, "flag": True, "case": "shear"}
        write_csv(tmp_path / "table.csv", manifest, header, rows)
        text = (tmp_path / "table.csv").read_text(encoding="utf-8")
        assert text == self.expected_text(manifest, header, rows)

    def test_float_array_matches_per_value_oracle(self, tmp_path):
        array = np.array([self.SPECIALS, self.SPECIALS[::-1], np.arange(7.0)])
        header = [f"c{i}" for i in range(7)]
        write_csv(tmp_path / "array.csv", {}, header, array)
        text = (tmp_path / "array.csv").read_text(encoding="utf-8")
        assert text == self.expected_text({}, header, array.tolist())
        write_csv(tmp_path / "empty.csv", {}, header, np.empty((0, 7)))
        assert (tmp_path / "empty.csv").read_text(encoding="utf-8") == ",".join(header) + "\n"


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# unit material\n"
            "material.E = 3.0\n"
            "material.t = 1.0\n"
            "run.model = born\n"
            "run.nu = 0  # single point\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_table(out / "calibration.csv")
        assert len(rows) == 1
        assert rows[0]["model"] == "born"
        assert float(rows[0]["k_n1"]) == pytest.approx(1.0, rel=1e-15)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("run.nu = 0\nrun.model = born\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(
            ["calibrate", "--config", str(cfg), "--out", str(out), "--nu", "0.3", "--model", "modified"]
        ) == 0
        _, rows = read_table(out / "calibration.csv")
        assert [(row["model"], float(row["nu"])) for row in rows] == [("modified", 0.3)]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("material.density = 7800\n", encoding="utf-8")
        assert main(["calibrate", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n", encoding="utf-8")
        assert main(["calibrate", "--config", str(cfg)]) == 2

    def test_missing_config_rejected(self, tmp_path):
        assert main(["calibrate", "--config", str(tmp_path / "nope.cfg")]) == 2


class TestExitCodes:
    def test_usage_errors(self, tmp_path):
        assert main(["benchmark", "--out", str(tmp_path)]) == 2  # no case
        assert main(["calibrate", "--nu", "0.6"]) == 2
        assert main(["calibrate", "--nu", "abc"]) == 2
        assert main(["benchmark", "--case", "uniaxial", "--mesh", "3"]) == 2
        assert main(["benchmark", "--case", "uniaxial", "--mesh", "0x2"]) == 2
        assert main(["calibrate", "--E", "-5"]) == 2

    @pytest.mark.parametrize(
        "argv", [["--E", "nan"], ["--E", "inf"], ["--thickness", "nan"], ["--thickness", "inf"]]
    )
    def test_non_finite_flags_rejected(self, tmp_path, argv):
        assert main(["calibrate", "--out", str(tmp_path)] + argv) == 2
        assert not (tmp_path / "calibration.csv").exists()

    def test_non_finite_config_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("material.E = nan\n", encoding="utf-8")
        assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "calibration.csv").exists()

    def test_incompatible_mesh_is_usage_error(self, tmp_path):
        code = main(
            ["benchmark", "--out", str(tmp_path), "--case", "bending", "--mesh", "9x3"]
        )
        assert code == 2

    @pytest.mark.parametrize("mesh", ["8x2,8x2", "8x2,16x4,8X2"])
    def test_repeated_mesh_rejected(self, tmp_path, mesh):
        argv = ["benchmark", "--out", str(tmp_path), "--case", "cantilever", "--mesh", mesh]
        assert main(argv) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["benchmark", "calibrate"])
    def test_repeated_nu_rejected(self, tmp_path, command):
        argv = [command, "--out", str(tmp_path), "--nu", "0.3,0.30"]
        if command == "benchmark":
            argv += ["--case", "cantilever", "--mesh", "8x2"]
        assert main(argv) == 2
        assert not list(tmp_path.iterdir())

    def test_argparse_level_errors(self):
        assert main(["frobnicate"]) == 2
        assert main(["benchmark", "--case", "torsion"]) == 2

    def test_io_failure(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        code = main(["calibrate", "--nu", "0.3", "--out", str(blocker / "sub")])
        assert code == 4
        assert "i/o failure" in capsys.readouterr().err

    def test_nested_out_dir_created(self, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        assert main(["calibrate", "--nu", "0.3", "--out", str(out)]) == 0
        assert (out / "calibration.csv").exists()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lsm2d.cli", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("lsm2d ")
