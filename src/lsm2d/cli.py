"""Command-line interface and deterministic CSV serialization.

Subcommands:

* ``calibrate``: stiffnesses, anisotropy factor and homogenized tensor
  components over a Poisson-ratio sweep.
* ``eigen``: cell eigenvalues (normalized by E t) over the sweep, and the
  constrained single-cell spectrum when a benchmark case is named.
* ``benchmark``: per-mesh displacement fields next to the analytical
  solution, plus an error and stability table.
* ``convergence``: the error table alone.

Runs are configured by flags, which argparse alone reads and checks. A
flat key=value config file (``material.E=2e11``) stands for the flags its
keys name (``CONFIG_FLAGS``), parsed before the command line's, so flags
win; a key whose flag the command does not take is checked, then ignored.
All CSV output is byte-deterministic: fixed column order, 17 significant
digits, LF line endings, and a leading '#' comment block describing the
inputs. Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, benchmarks, lattice
from .cell import EIGENFORMS, anisotropy_factor, cell_matrix, eigen_analysis, elasticity_tensor
from .materials import MODELS, PLANE_STRAIN, PLANE_STRESS, Material, calibrate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

DEFAULT_NU_SWEEP = tuple(round(0.05 * i, 2) for i in range(10)) + (0.49,)
DEFAULT_BENCH_NUS = (0.0, 0.3, 0.49)

CASE_NAMES = {
    "uniaxial": benchmarks.UNIAXIAL,
    "shear": benchmarks.PURE_SHEAR,
    "bending": benchmarks.PURE_BENDING,
    "cantilever": benchmarks.CANTILEVER,
}
REGIME_NAMES = {"stress": PLANE_STRESS, "strain": PLANE_STRAIN}

# each config-file key and the flag it stands for
CONFIG_FLAGS = {
    "material.E": "--E",
    "material.t": "--thickness",
    "run.model": "--model",
    "run.regime": "--regime",
    "run.nu": "--nu",
    "run.case": "--case",
    "run.mesh": "--mesh",
    "run.out": "--out",
}


class UsageError(argparse.ArgumentTypeError):
    """Invalid configuration or arguments; from a flag's type, argparse reports it."""


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one CLI run."""

    command: str
    models: tuple[str, ...]
    regime: str
    nus: tuple[float, ...]
    case: str | None
    meshes: tuple[tuple[int, int], ...] | None
    out: Path
    young_modulus: float
    thickness: float


def _format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def _format_table(rows) -> str:
    # one printf-style operation over the whole table; a column of floats
    # takes "%.17g", which prints what format(v, ".17g") prints, and any
    # other column is formatted value by value
    columns = [list(column) for column in zip(*rows)]
    specs, cells = [], []
    for column in columns:
        if all(issubclass(kind, float) for kind in set(map(type, column))):
            specs.append("%.17g")
            cells.append(column)
        else:
            specs.append("%s")
            cells.append([_format_value(v) for v in column])
    n_rows = len(columns[0]) if columns else 0
    line = ",".join(specs) + "\n"
    return (line * n_rows) % tuple(itertools.chain.from_iterable(zip(*cells)))


def write_csv(path: Path, manifest: dict, header: list[str], rows) -> None:
    """Write a deterministic CSV with a '#' manifest block.

    ``rows`` is a sequence of tuples, a 2-D array, or the rows' text,
    formatted already. Floats are written with 17 significant digits,
    booleans as true/false and anything else with ``str``.
    """
    if not isinstance(rows, str):
        rows = _format_table(rows.tolist() if isinstance(rows, np.ndarray) else rows)
    with open(path, "w", newline="\n", encoding="utf-8") as handle:
        for key, value in manifest.items():
            handle.write(f"# {key}={_format_value(value)}\n")
        handle.write(",".join(header) + "\n")
        handle.write(rows)


def load_config_file(path: Path, command: str) -> list[str]:
    """The flags that a flat key=value config file stands for.

    '#' starts a comment and unknown keys are rejected. A key whose flag
    ``command`` does not take is checked, then left out.
    """
    flags = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_FLAGS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        flag = CONFIG_FLAGS[key]
        if flag in _flags(command):
            # as "--flag=value", a value that starts with "-" is not read as an option
            flags.append(f"{flag}={value}")
        else:  # checked as the flag it names, then left out
            check = argparse.ArgumentParser(prog=f"{path}:{lineno}: {key}", add_help=False)
            check.add_argument(flag, **_flags("benchmark")[flag])
            check.parse_args([f"{flag}={value}"])
    return flags


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise UsageError(f"invalid number {text!r}") from exc
    if not (math.isfinite(value) and value > 0.0):
        raise UsageError(f"must be positive and finite, got {value}")
    return value


def _parse_nus(text: str) -> tuple[float, ...]:
    try:
        nus = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise UsageError(f"invalid nu list {text!r}") from exc
    for nu in nus:
        if not 0.0 <= nu < 0.5:
            raise UsageError(f"nu must lie in [0, 0.5), got {nu}")
    # a field file is named by format(nu, "g"), and -0 is the same nu as 0
    if len({format(abs(nu), "g") for nu in nus}) != len(nus):
        raise UsageError(f"repeated nu in {text!r} (equal at 6 significant digits)")
    return nus


def _parse_meshes(text: str) -> tuple[tuple[int, int], ...]:
    meshes = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.lower().split("x")
        if len(parts) != 2:
            raise UsageError(f"invalid mesh {token!r}, expected <nx>x<ny>")
        try:
            nx, ny = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise UsageError(f"invalid mesh {token!r}") from exc
        if nx < 1 or ny < 1:
            raise UsageError(f"mesh sizes must be positive, got {token!r}")
        meshes.append((nx, ny))
    if not meshes:
        raise UsageError("empty mesh list")
    if len(set(meshes)) != len(meshes):
        raise UsageError(f"repeated mesh in {text!r}")
    return tuple(meshes)


def _flags(command: str) -> dict[str, dict]:
    """The flags ``command`` takes, each with its argparse settings."""
    runs_plates = command in ("benchmark", "convergence")
    # a default that is a string would go through ``type`` once more
    nus = DEFAULT_BENCH_NUS if runs_plates else DEFAULT_NU_SWEEP
    flags = {
        "--model": dict(choices=MODELS),
        "--regime": dict(choices=sorted(REGIME_NAMES), default="stress"),
        "--nu": dict(type=_parse_nus, default=nus, help="comma-separated Poisson ratios"),
        "--out": dict(type=Path, default=Path("."), help="output directory"),
        "--config": dict(help="key=value config file"),
        "--E": dict(type=_positive, default=2e11, help="Young's modulus in Pa"),
        "--thickness": dict(type=_positive, default=0.01, help="plate thickness in m"),
    }
    if command != "calibrate":
        spectrum = "also emit the constrained single-cell spectrum of this case"
        flags["--case"] = dict(choices=sorted(CASE_NAMES), help=None if runs_plates else spectrum)
    if runs_plates:
        flags["--mesh"] = dict(type=_parse_meshes, help="comma-separated <nx>x<ny> sizes")
    return flags


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared: ``main`` reuses it."""
    parser = argparse.ArgumentParser(prog="lsm2d", description="2D lattice spring solver")
    parser.add_argument("--version", action="version", version=f"lsm2d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        for flag, settings in _flags(name).items():
            cmd.add_argument(flag, **settings)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Map parsed flags to a run; argparse has checked each value."""
    case = getattr(args, "case", None)
    if args.command in ("benchmark", "convergence") and case is None:
        raise UsageError(f"{args.command} requires --case")
    return RunConfig(
        command=args.command,
        models=(args.model,) if args.model else MODELS,
        regime=REGIME_NAMES[args.regime],
        nus=args.nu,
        case=case,
        meshes=getattr(args, "mesh", None),
        out=args.out,
        young_modulus=args.E,
        thickness=args.thickness,
    )


def _base_manifest(config: RunConfig) -> dict:
    return {
        "tool": f"lsm2d {__version__}",
        "command": config.command,
        "models": "+".join(config.models),
        "regime": config.regime,
        "E": config.young_modulus,
        "t": config.thickness,
        "nu": ",".join(format(nu, "g") for nu in config.nus),
    }


def _write_run_manifest(
    config: RunConfig, files: list[str], timings: dict[str, float] | None = None
) -> None:
    """Write run_manifest.json; ``timings`` are seconds per stage, if measured."""
    payload = {
        "tool": "lsm2d",
        "version": __version__,
        "command": config.command,
        "models": list(config.models),
        "regime": config.regime,
        "nu": list(config.nus),
        "case": config.case,
        "meshes": [list(m) for m in config.meshes] if config.meshes else None,
        "E": config.young_modulus,
        "thickness": config.thickness,
        "files": files,
        "written_at": datetime.now(timezone.utc).isoformat(),
    }
    if timings is not None:
        payload["timings"] = timings
    with open(config.out / "run_manifest.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def cmd_calibrate(config: RunConfig) -> int:
    header = ["model", "regime", "nu", "k_n1", "k_s1", "k_n2", "anisotropy", "c1", "c2", "c3"]
    rows = []
    for model in config.models:
        for nu in config.nus:
            material = Material(config.young_modulus, nu, config.thickness, config.regime)
            stiffness = calibrate(material, model)
            tensor = elasticity_tensor(stiffness, config.thickness)
            rows.append(
                (
                    model,
                    config.regime,
                    nu,
                    stiffness.k_n1,
                    stiffness.k_s1,
                    stiffness.k_n2,
                    anisotropy_factor(stiffness),
                    tensor.c1,
                    tensor.c2,
                    tensor.c3,
                )
            )
    write_csv(config.out / "calibration.csv", _base_manifest(config), header, rows)
    _write_run_manifest(config, ["calibration.csv"])
    return EXIT_OK


def cmd_eigen(config: RunConfig) -> int:
    scale = config.young_modulus * config.thickness
    header = ["model", "regime", "nu"] + [f"lambda_{name}" for name in EIGENFORMS]
    rows = []
    for model in config.models:
        for nu in config.nus:
            material = Material(config.young_modulus, nu, config.thickness, config.regime)
            stiffness = calibrate(material, model)
            report = eigen_analysis(cell_matrix(stiffness))
            rows.append(
                (model, config.regime, nu)
                + tuple(report.classification[name] / scale for name in EIGENFORMS)
            )
    write_csv(config.out / "eigenvalues.csv", _base_manifest(config), header, rows)
    files = ["eigenvalues.csv"]

    if config.case is not None:
        # the plate's height and supports do not depend on the material
        case = benchmarks.make_case(CASE_NAMES[config.case], 0.0)
        # one square cell as tall as the plate; case_mesh would demand
        # the plate's own aspect ratio and mesh parity
        mesh = lattice.build_mesh(lattice.LatticeSpec(1, 1, cell_size=case.height))
        stencil = lattice.reduce_stencil(
            mesh, np.zeros(mesh.n_dofs), benchmarks.case_constraints(case, mesh)
        )
        spectra = []
        for model in config.models:
            for nu in config.nus:
                material = Material(config.young_modulus, nu, config.thickness, config.regime)
                cell = cell_matrix(calibrate(material, model))
                block = stencil.fill(lattice.stencil_values(cell)).matrix.toarray()
                values = np.linalg.eigvalsh(block) / scale
                spectra.append((model, config.regime, nu) + tuple(values))
        n_eigs = len(spectra[0]) - 3 if spectra else 0
        spec_header = ["model", "regime", "nu"] + [
            f"lambda_{i + 1}" for i in range(n_eigs)
        ]
        manifest = _base_manifest(config)
        manifest["constraints"] = config.case
        write_csv(config.out / "constrained_spectrum.csv", manifest, spec_header, spectra)
        files.append("constrained_spectrum.csv")
    _write_run_manifest(config, files)
    return EXIT_OK


def _field_name(config: RunConfig, model: str, nu: float, mesh: lattice.Mesh) -> str:
    return f"field_{config.case}_{model}_nu{nu:g}_{mesh.spec.nx}x{mesh.spec.ny}.csv"


def _format_columns(*columns: np.ndarray) -> list[str]:
    # each row's "%.17g" values, as _format_table prints a float column; a
    # float particle index prints as an integer
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * table.shape[1])
    return ((line + "\n") * table.shape[0] % tuple(table.ravel().tolist())).splitlines()


def _write_fields(
    config: RunConfig, runs: list[tuple[benchmarks.BenchmarkCase, str]], sweep: benchmarks.Sweep
) -> None:
    """Write every solved run's field CSV, formatting shared columns once.

    particle, x and y depend on the mesh alone, u_analytical and
    v_analytical on the mesh and nu, u and v on the run: each group is
    formatted once and the lines join the three, as ``write_csv`` would
    print the whole table. One mesh's strings are held at a time.
    """
    for m, mesh in enumerate(sweep.meshes):
        points = _format_columns(np.arange(mesh.n_particles, dtype=float), mesh.positions)
        analytical: dict[float, list[str]] = {}
        for (case, model), (solutions, _) in zip(runs, sweep.runs):
            if solutions[m] is None:
                continue
            nu = case.material.poisson_ratio
            if nu not in analytical:
                field = benchmarks.analytical_field(case)
                analytical[nu] = _format_columns(*field(mesh.positions[:, 0], mesh.positions[:, 1]))
            displacements = _format_columns(solutions[m].displacements)
            manifest = _base_manifest(config)
            manifest.update(
                {
                    "case": config.case,
                    "model": model,
                    "nu": format(nu, "g"),
                    "mesh": f"{mesh.spec.nx}x{mesh.spec.ny}",
                    "load": case.load,
                }
            )
            rows = zip(points, displacements, analytical[nu])
            write_csv(
                config.out / _field_name(config, model, nu, mesh),
                manifest,
                ["particle", "x", "y", "u", "v", "u_analytical", "v_analytical"],
                "".join([f"{p},{d},{a}\n" for p, d, a in rows]),
            )


def cmd_benchmark(config: RunConfig) -> int:
    """``benchmark`` and ``convergence``: only ``benchmark`` writes the fields."""
    write_fields = config.command == "benchmark"
    kind = CASE_NAMES[config.case]
    error_header = [
        "model", "regime", "case", "nu", "nx", "ny", "rel_l2", "max_abs", "edge_u", "axis_v",
        "negative_pivots", "indefinite", "failed", "inertia_source",
    ]
    runs = [
        (
            benchmarks.make_case(
                kind,
                nu,
                regime=config.regime,
                young_modulus=config.young_modulus,
                thickness=config.thickness,
                mesh_sizes=config.meshes,
            ),
            model,
        )
        for model in config.models
        for nu in config.nus
    ]
    sweep = benchmarks.sweep(runs)
    start = time.perf_counter()
    error_rows = []
    files = []
    failures: list[str] = []
    for (case, model), (solutions, report) in zip(runs, sweep.runs):
        nu = case.material.poisson_ratio
        for mesh, solution, mesh_error in zip(sweep.meshes, solutions, report.mesh_errors):
            nx, ny = mesh_error.mesh_size
            profile = mesh_error.profile_errors
            error_rows.append(
                (
                    model,
                    config.regime,
                    config.case,
                    nu,
                    nx,
                    ny,
                    mesh_error.rel_l2,
                    mesh_error.max_abs,
                    profile.get("edge_u", float("nan")),
                    profile.get("axis_v", float("nan")),
                    mesh_error.inertia[0] if mesh_error.inertia else 0,
                    mesh_error.indefinite,
                    mesh_error.failed,
                    # without it an unknown inertia reads as 0 negative pivots
                    "unknown" if mesh_error.inertia is None else "factor",
                )
            )
            if mesh_error.failed:
                failures.append(
                    f"{config.case} {model} nu={nu:g} mesh {nx}x{ny}: {mesh_error.failure}"
                )
            if write_fields and solution is not None:
                files.append(_field_name(config, model, nu, mesh))
    if write_fields:
        _write_fields(config, runs, sweep)
    table = "errors" if write_fields else "convergence"
    table_name = f"{table}_{config.case}.csv"
    manifest = _base_manifest(config)
    manifest["case"] = config.case
    write_csv(config.out / table_name, manifest, error_header, error_rows)
    files.append(table_name)
    timings = dict(sweep.timings, csv=time.perf_counter() - start)
    _write_run_manifest(config, files, timings)
    if failures:
        for failure in failures:
            print(f"numerical failure: {failure}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


COMMANDS = {
    "calibrate": cmd_calibrate,
    "eigen": cmd_eigen,
    "benchmark": cmd_benchmark,
    "convergence": cmd_benchmark,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # the file's flags go first, so a flag on the command line wins
            file_flags = load_config_file(Path(args.config), args.command)
            args = parser.parse_args([argv[0], *file_flags, *argv[1:]])
        config = resolve_config(args)
        config.out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[config.command](config)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except lattice.SingularSystemError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
