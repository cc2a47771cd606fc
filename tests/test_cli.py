"""CLI behavior: subcommands, config handling, exit codes, CSV format.

CSV outputs must be byte-deterministic, so several tests compare whole
files across repeated runs instead of parsed values.
"""

import argparse
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from lsm2d import (
    CANONICAL_MODES,
    EIGENFORMS,
    MODELS,
    MODIFIED,
    PURE_BENDING,
    PURE_SHEAR,
    UNIAXIAL,
    Constraints,
    LatticeSpec,
    Material,
    SingularSystemError,
    apply_constraints,
    assemble,
    analytical_field,
    build_mesh,
    calibrate,
    case_constraints,
    case_mesh,
    cell_matrix,
    make_case,
    run_case,
)
from lsm2d import cli
from lsm2d import lattice as lattice_module
from lsm2d.cli import CASE_NAMES, REGIME_NAMES, main, write_csv
from oracles import constrained_spectrum, csv_cell, field_rows


def read_table(path):
    lines = [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def read_field(path):
    header, rows = read_table(path)
    return {name: np.array([float(row[name]) for row in rows]) for name in header}


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
    def test_each_eigenvalue_lands_in_its_mode_column(self, tmp_path, regime):
        # a column holds the Rayleigh quotient of its canonical mode, and
        # each row is the cell's spectrum with every eigenvalue used once
        nus = (0.0, 0.25, 1.0 / 3.0, 0.45, 0.49)
        assert main(
            [
                "eigen",
                "--out", str(tmp_path),
                "--regime", regime,
                "--nu", ",".join(repr(nu) for nu in nus),
            ]
        ) == 0
        _, rows = read_table(tmp_path / "eigenvalues.csv")
        assert len(rows) == len(MODELS) * len(nus)
        for row in rows:
            nu = float(row["nu"])
            matrix = cell_matrix(
                calibrate(Material(2e11, nu, 0.01, REGIME_NAMES[regime]), row["model"])
            )
            values = np.array([float(row[f"lambda_{name}"]) for name in EIGENFORMS])
            spectrum = np.linalg.eigvalsh(matrix) / 2e9
            scale = np.abs(spectrum).max()
            quotients = np.array(
                [CANONICAL_MODES[name] @ matrix @ CANONICAL_MODES[name] for name in EIGENFORMS]
            ) / 2e9
            np.testing.assert_allclose(values, quotients, rtol=0.0, atol=1e-14 * scale)
            np.testing.assert_allclose(np.sort(values), spectrum, rtol=0.0, atol=1e-12 * scale)


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
        field = read_field(tmp_path / "field_uniaxial_modified_nu0.3_4x4.csv")
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
        field = read_field(tmp_path / "field_uniaxial_modified_nu0.3_4x4.csv")
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

    def test_zero_pivot_exits_3_with_the_inertia(self, tmp_path, monkeypatch, capsys):
        # without its supports the Born nu = 0.45 plate keeps its two rigid
        # translations: the tiled LDL^T meets a zero pivot among those it
        # reads, and the row records their inertia
        monkeypatch.setattr(
            "lsm2d.benchmarks.case_constraints", lambda case, mesh: Constraints.from_pairs([])
        )
        code = main(
            [
                "convergence",
                "--out", str(tmp_path),
                "--case", "cantilever",
                "--model", "born",
                "--nu", "0.45",
                "--mesh", "8x2",
            ]
        )
        assert code == 3
        assert "zero pivot" in capsys.readouterr().err
        _, rows = read_table(tmp_path / "convergence_cantilever.csv")
        assert (rows[0]["failed"], rows[0]["inertia_source"]) == ("true", "factor")
        # the unsupported plate's eigenvalues: (5, 2, 47)
        assert (rows[0]["negative_pivots"], rows[0]["indefinite"]) == ("5", "true")

    def test_born_at_a_third_in_plane_strain_is_flagged_not_failed(self, tmp_path):
        # indefinite, not singular: the whole LU read zero pivots in its
        # element growth, the tiled LDL^T reads the eigenvalue count (9, 0, 39)
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
        assert code == 0
        _, rows = read_table(tmp_path / "convergence_cantilever.csv")
        assert (rows[0]["failed"], rows[0]["inertia_source"]) == ("false", "factor")
        assert (rows[0]["negative_pivots"], rows[0]["indefinite"]) == ("9", "true")

    def test_inertia_source_column(self, tmp_path, monkeypatch):
        def convergence(out, case, model, nu, mesh):
            return main(
                [
                    "convergence",
                    "--out", str(out),
                    "--case", case,
                    "--model", model,
                    "--nu", nu,
                    "--mesh", mesh,
                ]
            )

        assert convergence(tmp_path / "factor", "bending", "born", "0.49", "8x2") == 0
        header, rows = read_table(tmp_path / "factor" / "convergence_bending.csv")
        assert header[-1] == "inertia_source"
        assert rows[0]["inertia_source"] == "factor"
        assert int(rows[0]["negative_pivots"]) > 0

        # an unstable Born row whose inertia is not known must not pass for a
        # verified-stable one: a tiled LDL^T that fails leaves no inertia. The
        # uniaxial plate is one block, which band Cholesky rejects (its
        # inertia is (1, 0, 11) on 2x2), and dsytrf here reports a zero pivot
        dsytrf = lattice_module.dsytrf
        monkeypatch.setattr(lattice_module, "dsytrf", lambda *a, **k: (*dsytrf(*a, **k)[:2], 1))
        assert convergence(tmp_path / "none", "uniaxial", "born", "0.49", "2x2") == 3
        _, rows = read_table(tmp_path / "none" / "convergence_uniaxial.csv")
        assert (rows[0]["negative_pivots"], rows[0]["indefinite"]) == ("0", "false")
        assert (rows[0]["failed"], rows[0]["inertia_source"]) == ("true", "unknown")

    def test_inertia_source_unknown_when_the_ldlt_fails(self, tmp_path, monkeypatch):
        # LAPACK reports both failures: dpbtrf a pivot that is not positive,
        # dsytrf a zero pivot
        dsytrf = lattice_module.dsytrf
        monkeypatch.setattr(lattice_module, "dpbtrf", lambda ab, **kwargs: (ab, 1))
        monkeypatch.setattr(lattice_module, "dsytrf", lambda *a, **k: (*dsytrf(*a, **k)[:2], 1))
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

    # the bending plate's u_analytical holds -0; the shear plate, one block
    # without a mirror, has v_analytical 0 throughout
    @pytest.mark.parametrize(
        "name,kind,meshes",
        [("bending", PURE_BENDING, "8x2,16x4"), ("shear", PURE_SHEAR, "2x2,4x4")],
    )
    def test_field_files_equal_the_per_run_formatter(self, tmp_path, name, kind, meshes):
        out = tmp_path / "cli"
        argv = ["benchmark", "--out", str(out), "--case", name, "--nu", "0.3,0.45"]
        assert main(argv + ["--mesh", meshes]) == 0
        sizes = tuple(tuple(int(n) for n in size.split("x")) for size in meshes.split(","))
        columns = {"u_analytical": set(), "v_analytical": set()}
        for model in MODELS:
            for nu in (0.3, 0.45):
                case = make_case(kind, nu, mesh_sizes=sizes)
                solutions, _ = run_case(case, model)
                for (nx, ny), solution in zip(sizes, solutions):
                    path = out / f"field_{name}_{model}_nu{nu:g}_{nx}x{ny}.csv"
                    text = path.read_text(encoding="utf-8")
                    comments = [line[2:] for line in text.splitlines() if line.startswith("# ")]
                    manifest = dict(line.split("=", 1) for line in comments)
                    header, rows = read_table(path)
                    for column, values in columns.items():
                        values.update(row[column] for row in rows)
                    oracle = tmp_path / "oracle.csv"
                    mesh = case_mesh(case, (nx, ny))
                    table = field_rows(mesh, solution, analytical_field(case))
                    write_csv(oracle, manifest, header, table)
                    assert path.read_bytes() == oracle.read_bytes(), path.name
        assert len(list(out.glob("field_*.csv"))) == len(MODELS) * 2 * len(sizes)
        if kind == PURE_BENDING:
            assert "-0" in columns["u_analytical"]
        else:
            assert columns["v_analytical"] == {"0"}

    @pytest.mark.parametrize("E", ["1e-200", "1e200"])
    def test_error_columns_hold_for_any_modulus(self, tmp_path, E):
        # the displacements scale as 1 / E: their squares once overflowed to
        # nan at 1e-200 and underflowed to an error of 0 at 1e200
        argv = ["benchmark", "--case", "cantilever", "--model", "modified", "--nu", "0.3"]
        argv += ["--mesh", "8x2,16x4"]
        assert main(argv + ["--out", str(tmp_path / "default")]) == 0
        assert main(argv + ["--E", E, "--out", str(tmp_path / "scaled")]) == 0
        _, expected = read_table(tmp_path / "default" / "errors_cantilever.csv")
        _, rows = read_table(tmp_path / "scaled" / "errors_cantilever.csv")
        for row, reference in zip(rows, expected):
            for column in ("rel_l2", "edge_u", "axis_v"):
                assert float(row[column]) == pytest.approx(float(reference[column]), rel=1e-9)

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

    def test_empty_config_path_rejected(self, tmp_path, capsys):
        # an empty path names no file: a usage error, not a run on the defaults
        assert main(["calibrate", "--config", "", "--nu", "0.3", "--out", str(tmp_path)]) == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    # all 8 keys, each with a value that a flag in the tests below changes
    FULL_CONFIG = (
        "material.E = 3e9\nmaterial.t = 0.02\nrun.model = born\nrun.regime = strain\n"
        "run.nu = 0.2\nrun.case = bending\nrun.mesh = 16x4\nrun.out = {out}\n"
    )

    @pytest.mark.parametrize(
        "flag, value, field, recorded",
        [
            ("--E", "5e9", "E", 5e9),
            ("--thickness", "0.03", "thickness", 0.03),
            ("--model", "modified", "models", ["modified"]),
            ("--regime", "stress", "regime", "plane_stress"),
            ("--nu", "0.3", "nu", [0.3]),
            ("--case", "cantilever", "case", "cantilever"),
            ("--mesh", "8x2", "meshes", [[8, 2]]),
            ("--out", None, None, None),
        ],
    )
    def test_each_key_is_overridden_by_its_flag(self, tmp_path, flag, value, field, recorded):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.FULL_CONFIG.format(out=tmp_path / "file"), encoding="utf-8")
        assert main(["convergence", "--config", str(cfg)]) == 0
        # every flagged run overrides run.out too, so that the two runs write apart
        argv = ["--config", str(cfg), "--out", str(tmp_path / "flag")]
        assert main(["convergence"] + argv + ([flag, value] if value else [])) == 0
        from_file, from_flag = (
            json.loads((tmp_path / name / "run_manifest.json").read_text(encoding="utf-8"))
            for name in ("file", "flag")
        )
        for manifest in (from_file, from_flag):
            for unrecorded in ("files", "written_at", "timings"):
                del manifest[unrecorded]
        read = {"E": 3e9, "thickness": 0.02, "models": ["born"], "regime": "plane_strain",
                "nu": [0.2], "case": "bending", "meshes": [[16, 4]]}
        assert {key: from_file[key] for key in read} == read
        if field is not None:
            assert from_file[field] != recorded
            from_file[field] = recorded
        assert from_flag == from_file

    @pytest.mark.parametrize(
        "command, line, code",
        [
            ("calibrate", "run.case = cantilever", 0),
            ("calibrate", "run.mesh = 8x2", 0),
            ("eigen", "run.mesh = 8x2", 0),
            ("calibrate", "run.case = torsion", 2),
            ("calibrate", "run.mesh = 3", 2),
            ("eigen", "run.mesh = 3", 2),
        ],
    )
    def test_key_the_command_takes_no_flag_for_is_checked_then_ignored(
        self, tmp_path, capsys, command, line, code
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"run.nu = 0.3\n{line}\n", encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "cfg")]) == code
        if code:
            assert f"run.cfg:2: {line.split()[0]}" in capsys.readouterr().err
            assert not (tmp_path / "cfg").exists()
            return
        assert main([command, "--nu", "0.3", "--out", str(tmp_path / "flags")]) == 0
        names = sorted(path.name for path in (tmp_path / "flags").glob("*.csv"))
        assert names == sorted(path.name for path in (tmp_path / "cfg").glob("*.csv"))
        for name in names:
            assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()

    def test_value_starting_with_a_dash_is_a_value(self, tmp_path, monkeypatch):
        # as two tokens, "--out" "-results", argparse would read an option
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("run.nu = 0.3\nrun.out = -results\n", encoding="utf-8")
        assert main(["calibrate", "--config", str(cfg)]) == 0
        assert (tmp_path / "-results" / "calibration.csv").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("material.E = 0", "argument --E: must be positive and finite, got 0.0"),
            ("material.t = nan", "argument --thickness: must be positive and finite, got nan"),
            ("run.model = both", "argument --model: invalid choice: 'both'"),
            ("run.regime = plane", "argument --regime: invalid choice: 'plane'"),
            # read as the value of --nu, not as an option that leaves --nu without one
            ("run.nu = -0.1", "argument --nu: nu must lie in [0, 0.5), got -0.1"),
            ("run.case = torsion", "argument --case: invalid choice: 'torsion'"),
            ("run.mesh = 3", "argument --mesh: invalid mesh '3', expected <nx>x<ny>"),
            # any text names a directory, so a bad one fails as I/O (exit 4)
            ("run.out = {blocker}/sub", "i/o failure"),
        ],
    )
    def test_invalid_value_of_each_key_writes_no_csv(self, tmp_path, capsys, line, message):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        valid = "run.case = cantilever\nrun.mesh = 8x2\nrun.nu = 0.3\nrun.out = {out}\n"
        text = (valid + line + "\n").format(out=tmp_path / "out", blocker=blocker)
        cfg.write_text(text, encoding="utf-8")
        assert main(["convergence", "--config", str(cfg)]) == (4 if "run.out" in line else 2)
        assert message in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))


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

    # subnormal: --E 1e-320 once failed to solve (exit 3), --thickness 1e-320
    # solved to the wrong error
    @pytest.mark.parametrize("argv", [["--E", "1e-320"], ["--thickness", "1e-320"]])
    def test_subnormal_material_rejected(self, tmp_path, argv, capsys):
        base = ["benchmark", "--case", "cantilever", "--model", "modified", "--nu", "0.3"]
        assert main(base + ["--mesh", "8x2", "--out", str(tmp_path)] + argv) == 2
        assert "normal" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_non_finite_config_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("material.E = nan\n", encoding="utf-8")
        assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "calibration.csv").exists()

    # E, t and the stiffnesses are finite, but a particle's sum of cell
    # contributions overflows to inf
    OVERFLOW = ["--model", "modified", "--nu", "0.3", "--thickness", "0.9"]

    def test_a_stiffness_that_overflows_is_a_usage_error(self, tmp_path, capsys):
        # the filled matrix is not finite: no solve may read it as singular
        argv = ["convergence", "--case", "uniaxial", "--mesh", "2x2", "--E", "1e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + self.OVERFLOW + ["--out", str(tmp_path)]) == 2
        assert "not finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_an_overflow_names_its_run(self, tmp_path, capsys):
        argv = ["convergence", "--case", "uniaxial", "--mesh", "2x2", "--E", "1e308"]
        assert main(argv + self.OVERFLOW + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: uniaxial modified nu=0.3 mesh 2x2: reduced stiffness matrix or "
            "right-hand side is not finite (overflow)\n"
        )
        assert not list(tmp_path.glob("*.csv"))

    def test_a_sum_the_plate_does_not_use_may_overflow(self, tmp_path):
        # the eigen command's one-cell plate takes single contributions only:
        # its spectrum is the default modulus's
        spectra = {}
        for E in ("1e308", "2e11"):
            out = tmp_path / E
            argv = ["eigen", "--case", "cantilever", "--E", E, "--out", str(out)]
            assert main(argv + self.OVERFLOW) == 0
            _, [row] = read_table(out / "constrained_spectrum.csv")
            spectra[E] = [float(row[f"lambda_{i}"]) for i in range(1, 5)]
        np.testing.assert_allclose(spectra["1e308"], spectra["2e11"], rtol=1e-12)

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

    # field files are named by format(nu, "g"): 0.3000001 would overwrite 0.3's
    @pytest.mark.parametrize("nus", ["0.3,0.30", "0.3,0.3000001"])
    @pytest.mark.parametrize("command", ["benchmark", "calibrate"])
    def test_repeated_nu_rejected(self, tmp_path, command, nus):
        argv = [command, "--out", str(tmp_path), "--nu", nus]
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


def test_main_builds_one_parser_per_process(monkeypatch, tmp_path):
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert main(["calibrate", "--nu", "0.3", "--out", str(tmp_path)]) == 0
    assert built.count("lsm2d") == 1


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lsm2d.cli", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("lsm2d ")
