"""Configuration resolution, experiment drivers, CSV contracts, CLI exits."""

import csv
import json
import math
import os

import numpy as np
import pytest

from cmclab import functionals as fn
from cmclab import metrics as mt
from cmclab.errors import ConfigError, DomainError, GeometryError
from cmclab.harness import cli, experiments
from cmclab.harness.config import SCHEMA, load_config
from cmclab.harness.experiments import (AUDIT_COLUMNS, EXPAND_COLUMNS,
                                        FOLIATE_COLUMNS, SCAN_COLUMNS, _fmt,
                                        run_expand, run_foliate, run_scan,
                                        write_csv)
from cmclab.harness.verify import run_verify
from cmclab.solver import SolveReport, FoliationTrace
from cmclab.sphere import SphereGraph, quadrature_grid

SIXTEEN_PI = 16.0 * math.pi

# a low degree keeps the experiment tests fast
SMALL = {"grid.L": "8"}


def cfg(**overrides):
    flags = dict(SMALL)
    flags.update(overrides)
    return load_config(environ={}, flag_overrides=flags)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- configuration resolution ---

def test_defaults_applied():
    config = load_config(environ={})
    assert config["metric.kind"] == "schwarzschild"
    assert config["metric.mass"] == 1.0
    assert config["grid.L"] == 24
    assert config["scan.lambdas"] == (4.0, 8.0, 16.0, 32.0)
    assert config["expand.modes"] == ((2, 0), (3, 0), (4, 2))
    assert config["workers"] == 1


def test_file_layer(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "metric.kind = euclidean   # trailing comment\n"
        "metric.mass = 0\n"
        "grid.L = 8\n"
        "scan.lambdas = 4, 8\n"
    )
    config = load_config(str(path), environ={})
    assert config["metric.kind"] == "euclidean"
    assert config["metric.mass"] == 0.0
    assert config["grid.L"] == 8
    assert config["scan.lambdas"] == (4.0, 8.0)


def test_env_overrides_file_and_flags_override_env(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("grid.L = 8\nseed = 1\n")
    env = {"CMCLAB_GRID__L": "10", "CMCLAB_FOLIATE__N_LEAVES": "5",
           "PATH": "/usr/bin"}
    config = load_config(str(path), environ=env)
    assert config["grid.L"] == 10
    assert config["foliate.n_leaves"] == 5
    assert config["seed"] == 1
    config = load_config(str(path), environ=env,
                         flag_overrides={"grid.L": "12"})
    assert config["grid.L"] == 12


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("grid.M = 3\n")
    with pytest.raises(ConfigError, match="grid.M"):
        load_config(str(path), environ={})
    with pytest.raises(ConfigError, match="cmclab_typo|typo"):
        load_config(environ={"CMCLAB_TYPO": "1"})
    with pytest.raises(ConfigError, match="nope"):
        load_config(environ={}, flag_overrides={"nope": "1"})


def test_malformed_values_name_the_field(tmp_path):
    with pytest.raises(ConfigError, match="grid.L"):
        cfg(**{"grid.L": "banana"})
    with pytest.raises(ConfigError, match="scan.lambdas"):
        cfg(**{"scan.lambdas": "4,x"})
    with pytest.raises(ConfigError, match="expand.modes"):
        cfg(**{"expand.modes": "2"})
    with pytest.raises(ConfigError, match="scan.xis"):
        cfg(**{"scan.xis": "1,2"})
    path = tmp_path / "run.cfg"
    path.write_text("grid.L 8\n")
    with pytest.raises(ConfigError, match=":1:"):
        load_config(str(path), environ={})


def test_model_validation():
    with pytest.raises(ConfigError, match="metric.kind"):
        cfg(**{"metric.kind": "schwarzchild"})
    with pytest.raises(ConfigError, match="metric.mass"):
        cfg(**{"metric.mass": "-1"})
    with pytest.raises(ConfigError, match="metric.perturbation"):
        cfg(**{"metric.kind": "perturbed"})
    config = cfg(**{"metric.kind": "perturbed",
                    "metric.perturbation": "2,0.4,1,2,z^2; 3,-0.1,3,3,1"})
    model = config.model()
    assert model.kind == mt.PERTURBED
    t0, t1 = model.perturbation.terms
    assert (t0.power, t0.amplitude, t0.i, t0.j) == (2, 0.4, 0, 1)
    assert t0.profile == ((1.0, (0, 0, 2)),)
    assert (t1.power, t1.i, t1.j) == (3, 2, 2)
    assert t1.profile == ((1.0, (0, 0, 0)),)


def test_profile_parser():
    assert cfg(**{"metric.kind": "perturbed",
                  "metric.perturbation": "2,0.1,1,1,x^2*z"}
               ).model().perturbation.terms[0].profile == ((1.0, (2, 0, 1)),)
    with pytest.raises(ConfigError, match="profile"):
        cfg(**{"metric.kind": "perturbed", "metric.perturbation": "2,0.1,1,1,q"})


def test_grid_follows_degree():
    # every L <= 30 shares the default grid; above it the grid grows with L
    for L in (2, 8, 24, 30):
        assert cfg(**{"grid.L": str(L)}).grid() is quadrature_grid(32, 64)
    for L in (31, 48):
        assert cfg(**{"grid.L": str(L)}).grid() is quadrature_grid(L + 2,
                                                                   2 * L + 3)
    with pytest.raises(ConfigError, match="grid.L"):
        cfg(**{"grid.L": "1"})


def test_scan_offset_and_worker_guards():
    with pytest.raises(ConfigError, match="scan.xis"):
        cfg(**{"scan.xis": "0.5,0,0"})
    with pytest.raises(ConfigError, match="workers"):
        cfg(workers="0")


# --- tabular formatting ---

def test_float_cells_are_shortest_round_trip():
    rng = np.random.default_rng(42)
    for x in rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50):
        cell = _fmt(float(x))
        assert float(cell) == x
        assert repr(float(cell)) == cell
    assert _fmt(float("nan")) == "nan"
    assert _fmt(True) == "true"
    assert _fmt(False) == "false"
    assert _fmt(np.float64(1.0) / 3.0) == "0.3333333333333333"
    assert _fmt(np.int64(7)) == "7"


def test_csv_parse_reemit_byte_identity(tmp_path):
    rows = [(0, 0.1, float("nan"), True, "tag"),
            (1, 1.0 / 3.0, 2.0**-40, False, "")]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_csv(str(first), ("i", "x", "y", "flag", "note"), rows)
    parsed = []
    with open(first, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rec in reader:
            parsed.append((int(rec[0]), float(rec[1]), float(rec[2]),
                           rec[3] == "true", rec[4]))
    write_csv(str(second), ("i", "x", "y", "flag", "note"), parsed)
    assert first.read_bytes() == second.read_bytes()
    assert b"\r" not in first.read_bytes()


# --- foliate driver ---

def foliate_cfg(**overrides):
    flags = {"metric.kind": "schwarzschild", "metric.mass": "1.0",
             "foliate.H_start": "0.27", "foliate.H_end": "0.18",
             "foliate.n_leaves": "3"}
    flags.update(overrides)
    return cfg(**flags)


def test_run_foliate_schwarzschild(tmp_path):
    out = tmp_path / "out"
    status, messages = run_foliate(foliate_cfg(), str(out))
    assert status == 0
    assert messages == []
    rows = read_rows(out / "foliate.csv")
    assert len(rows) == 3
    assert tuple(rows[0]) == FOLIATE_COLUMNS
    for k, row in enumerate(rows):
        assert int(row["leaf"]) == k
        assert row["converged"] == "true"
        assert row["stable"] == "true"
        assert float(row["hawking"]) == pytest.approx(1.0, abs=1e-6)
        assert float(row["final_residual"]) <= 1e-9
    radii = [float(r["r_area"]) for r in rows]
    assert radii == sorted(radii)
    payload = json.loads((out / "foliate.json").read_text())
    assert payload["status"] == 0
    assert payload["truncated"] is False
    assert len(payload["leaves"]) == 3
    assert payload["metric"]["kind"] == "schwarzschild"


def test_run_foliate_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_foliate(foliate_cfg(), str(a))
    run_foliate(foliate_cfg(), str(b))
    assert (a / "foliate.csv").read_bytes() == (b / "foliate.csv").read_bytes()
    assert (a / "foliate.json").read_bytes() == (b / "foliate.json").read_bytes()


def test_run_foliate_rejects_flat_or_massless(tmp_path):
    with pytest.raises(ConfigError):
        run_foliate(foliate_cfg(**{"metric.kind": "euclidean",
                                   "metric.mass": "0"}), str(tmp_path / "o"))
    with pytest.raises(ConfigError):
        run_foliate(foliate_cfg(**{"metric.mass": "0"}), str(tmp_path / "o"))


def test_run_foliate_reports_unstable_truncation(tmp_path):
    # strong negative sigma_zz flips the constrained eigenvalue on leaf 0
    config = cfg(**{"metric.kind": "perturbed", "metric.mass": "0.1",
                    "metric.perturbation": "2,-1.0,3,3,1",
                    "foliate.H_start": "0.384", "foliate.H_end": "0.351",
                    "foliate.n_leaves": "2", "solve.tolerance": "1e-7"})
    out = tmp_path / "out"
    status, messages = run_foliate(config, str(out))
    assert status == 1
    assert any("is unstable" in msg for msg in messages)
    assert read_rows(out / "foliate.csv") == []
    payload = json.loads((out / "foliate.json").read_text())
    assert payload["status"] == 1
    assert payload["truncated"] is True


def test_run_foliate_names_defect_trend_violation(tmp_path, monkeypatch):
    # synthetic trace: fabricated H_targets make area*H^2 move away from
    # 16 pi between leaves 0 and 1, so only the reporting logic is under test
    config = cfg(**{"metric.kind": "perturbed", "metric.mass": "1.0",
                    "metric.perturbation": "2,0.2,3,3,1"})
    model = config.model()
    leaves = []
    for radius, defect in ((5.0, 0.0), (5.5, 4.0)):
        area = 4.0 * math.pi * radius**2
        leaves.append(SolveReport(
            converged=True, iterations=1, final_residual=0.0,
            surface=SphereGraph.round_sphere(radius, L=8),
            H_target=math.sqrt((SIXTEEN_PI + defect) / area),
            stability_eigenvalue=0.1, stable=True))
    fake = FoliationTrace(leaves=leaves, metric=model,
                          volumes=[520.0, 700.0])
    monkeypatch.setattr(experiments, "trace_foliation",
                        lambda *args, **kwargs: fake)
    status, messages = run_foliate(config, str(tmp_path / "out"))
    assert status == 1
    assert any("between leaves 0 and 1" in msg for msg in messages)


def test_run_foliate_names_nesting_violation(tmp_path, monkeypatch):
    config = foliate_cfg()
    leaf = SolveReport(converged=True, iterations=1, final_residual=0.0,
                       surface=SphereGraph.round_sphere(5.0, L=8),
                       H_target=0.4, stability_eigenvalue=0.1, stable=True)
    fake = FoliationTrace(leaves=[leaf, leaf], metric=config.model(),
                          volumes=[520.0, 519.0], nested_ok=False)
    monkeypatch.setattr(experiments, "trace_foliation",
                        lambda *args, **kwargs: fake)
    status, messages = run_foliate(config, str(tmp_path / "out"))
    assert status == 1
    assert any("nesting violation" in msg for msg in messages)


# --- scan driver ---

def scan_cfg(**overrides):
    flags = {"scan.lambdas": "4,16", "scan.xis": "2,0,0;0,2.5,0"}
    flags.update(overrides)
    return cfg(**flags)


def test_run_scan_rows_and_schema(tmp_path):
    out = tmp_path / "out"
    status, messages = run_scan(scan_cfg(), str(out))
    assert status == 0
    assert messages == []
    rows = read_rows(out / "scan.csv")
    assert len(rows) == 4
    assert tuple(rows[0]) == SCAN_COLUMNS
    # lambda-major, xi-minor ordering
    assert [float(r["lambda"]) for r in rows] == [4.0, 4.0, 16.0, 16.0]
    assert [float(r["xi_norm"]) for r in rows] == [2.0, 2.5, 2.0, 2.5]
    for row in rows:
        assert row["flagged"] == "false"
        assert float(row["lambda2_flux"]) > 0.0
        assert float(row["divergence_residual"]) == pytest.approx(0.0, abs=1e-9)
        assert all(cell != "" for cell in row.values() if cell is not None)


def test_run_scan_byte_identical_across_workers(tmp_path):
    config1 = scan_cfg(**{"scan.shape_pull": "0.05", "workers": "1"})
    config2 = scan_cfg(**{"scan.shape_pull": "0.05", "workers": "2"})
    a, b = tmp_path / "a", tmp_path / "b"
    run_scan(config1, str(a))
    run_scan(config2, str(b))
    assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()
    rows = read_rows(a / "scan.csv")
    # shaped surfaces have tracefree energy, so gamma is defined
    assert all(r["gamma_defined"] == "true" for r in rows)
    assert all(np.isfinite(float(r["gamma"])) for r in rows)


def test_run_scan_flags_surfaces_near_the_origin(tmp_path):
    out = tmp_path / "out"
    status, messages = run_scan(scan_cfg(**{"scan.xis": "1.4,0,0"}), str(out))
    assert status == 0
    assert messages and "flagged rows: 0" in messages[0]
    rows = read_rows(out / "scan.csv")
    near, far = rows[0], rows[1]
    # lambda = 4, |xi| = 1.4 puts the surface 1.6 from the origin: still
    # evaluable, but inside the excluded ball of radius 2
    assert near["flagged"] == "true"
    assert near["flag_reason"] == "inside_B2"
    assert float(near["r0"]) == pytest.approx(1.6, abs=1e-9)
    assert np.isfinite(float(near["area"]))
    assert near["gamma"] == "nan"
    assert near["error_total"] == "nan"
    assert near["gamma_defined"] == "false"
    assert far["flagged"] == "false"
    assert far["flag_reason"] == "none"
    assert far["error_total"] != "nan"


def test_run_scan_unevaluable_surface_is_all_nan(tmp_path):
    # 0.8 from the origin: inside the unit ball where the metric is undefined
    out = tmp_path / "out"
    status, _ = run_scan(scan_cfg(**{"scan.lambdas": "4",
                                     "scan.xis": "1.2,0,0"}), str(out))
    assert status == 0
    (row,) = read_rows(out / "scan.csv")
    assert row["flagged"] == "true"
    assert row["flag_reason"] == "inside_B2"
    assert float(row["r0"]) == pytest.approx(0.8, abs=1e-9)
    assert row["area"] == "nan"
    assert row["flux"] == "nan"
    assert row["lambda2_flux"] == "nan"
    assert row["solve_converged"] == "false"


def test_run_scan_gates_on_the_model_domain_radius(tmp_path):
    # mass 4 excludes |x| <= 2: the surface 1.2 from the origin is flagged
    # without touching the metric instead of aborting the scan
    out = tmp_path / "small"
    status, _ = run_scan(scan_cfg(**{"metric.mass": "4", "scan.lambdas": "1.2",
                                     "scan.xis": "2,0,0"}), str(out))
    assert status == 0
    (row,) = read_rows(out / "scan.csv")
    assert row["flagged"] == "true"
    assert row["flag_reason"] == "inside_B2"
    assert float(row["r0"]) == pytest.approx(1.2, abs=1e-9)
    assert row["area"] == "nan"

    # mass 8 excludes |x| <= 4: outside B2 but still not evaluable
    out = tmp_path / "core"
    run_scan(scan_cfg(**{"metric.mass": "8", "scan.lambdas": "3,16",
                         "scan.xis": "2,0,0"}), str(out))
    core, far = read_rows(out / "scan.csv")
    assert core["flag_reason"] == "domain"
    assert float(core["r0"]) == pytest.approx(3.0, abs=1e-9)
    assert core["area"] == "nan"
    assert core["error_total"] == "nan"
    assert far["flagged"] == "false"
    assert np.isfinite(float(far["error_total"]))


@pytest.mark.parametrize("error, reason", [
    (DomainError("point inside the core"), "domain"),
    (GeometryError("degenerate normal"), "geometry"),
])
def test_run_scan_isolates_a_failing_row(tmp_path, monkeypatch, error, reason):
    original = experiments.build_geometry

    def failing_for_lambda_16(graph, model, grid):
        if graph.scale == 16.0:
            raise error
        return original(graph, model, grid)

    monkeypatch.setattr(experiments, "build_geometry", failing_for_lambda_16)
    out = tmp_path / "out"
    status, messages = run_scan(scan_cfg(**{"scan.xis": "2,0,0"}), str(out))
    assert status == 0
    assert messages == ["flagged rows: 1"]
    ok, bad = read_rows(out / "scan.csv")
    assert ok["flagged"] == "false"
    assert np.isfinite(float(ok["error_total"]))
    assert bad["flagged"] == "true"
    assert bad["flag_reason"] == reason
    assert float(bad["r0"]) == pytest.approx(16.0, abs=1e-9)
    for key in ("area", "lambda2_flux", "gamma", "error_total"):
        assert bad[key] == "nan"
    assert bad["solve_converged"] == "false"


def test_run_scan_zero_mass_kills_favorable_term(tmp_path):
    out = tmp_path / "out"
    run_scan(scan_cfg(**{"metric.mass": "0"}), str(out))
    for row in read_rows(out / "scan.csv"):
        assert float(row["term_favorable"]) == 0.0
        assert float(row["flux"]) > 0.0


def test_run_scan_solve_branch_euclidean(tmp_path):
    # flat background: the translated round sphere is already CMC at its
    # mean curvature, so the optional solve converges immediately
    out = tmp_path / "out"
    config = scan_cfg(**{"metric.kind": "euclidean", "metric.mass": "0",
                         "scan.lambdas": "4", "scan.xis": "3,0,0",
                         "scan.solve": "true"})
    run_scan(config, str(out))
    (row,) = read_rows(out / "scan.csv")
    assert row["solve_converged"] == "true"
    assert int(row["solve_iterations"]) == 0
    assert float(row["solve_residual"]) <= 1e-9
    assert np.isfinite(float(row["stability_eigenvalue"]))


def test_run_scan_solve_branch_records_nonconvergence(tmp_path):
    # no exact CMC sphere sits at the translated position for positive mass;
    # the row must record that as evidence, not crash
    out = tmp_path / "out"
    config = scan_cfg(**{"scan.lambdas": "4", "scan.xis": "3,0,0",
                         "scan.solve": "true", "solve.max_iterations": "10"})
    run_scan(config, str(out))
    (row,) = read_rows(out / "scan.csv")
    assert row["solve_converged"] == "false"
    assert 1 <= int(row["solve_iterations"]) <= 10
    assert np.isfinite(float(row["solve_residual"]))
    assert row["stability_eigenvalue"] == "nan"
    assert row["stable"] == "false"


# --- expand driver ---

def test_run_expand_modes_and_skips(tmp_path):
    out = tmp_path / "out"
    config = cfg(**{"expand.modes": "2,0;1,1;3,0"})
    status, messages = run_expand(config, str(out))
    assert status == 0
    assert any("(1,1) skipped" in msg for msg in messages)
    rows = read_rows(out / "expand.csv")
    assert tuple(rows[0]) == EXPAND_COLUMNS
    by_mode = {(int(r["l"]), int(r["m"])): r for r in rows}
    assert by_mode[(2, 0)]["skipped"] == "false"
    assert float(by_mode[(2, 0)]["qform"]) == pytest.approx(4.0, rel=1e-6)
    assert float(by_mode[(2, 0)]["alpha"]) == pytest.approx(0.5, abs=2e-3)
    assert float(by_mode[(2, 0)]["remainder_order"]) >= 2.8
    assert by_mode[(1, 1)]["skipped"] == "true"
    assert by_mode[(1, 1)]["alpha"] == "nan"
    assert float(by_mode[(3, 0)]["qform"]) == pytest.approx(10.0, rel=1e-6)


def test_run_expand_epsilon_guards(tmp_path):
    with pytest.raises(ConfigError, match="at least 4"):
        run_expand(cfg(**{"expand.epsilons": "1e-3,1e-2,1e-1"}),
                   str(tmp_path / "o"))
    with pytest.raises(ConfigError, match="positive"):
        run_expand(cfg(**{"expand.epsilons": "1e-3,-1e-2,1e-2,1e-1"}),
                   str(tmp_path / "o"))


# --- verification battery ---

@pytest.fixture(scope="module")
def verify_report():
    return run_verify()


def test_verify_battery_passes(verify_report):
    assert verify_report["suite"] == "cmclab-verify"
    assert verify_report["failures"] == []
    assert len(verify_report["checks"]) >= 30


def test_verify_check_schema(verify_report):
    names = [c["name"] for c in verify_report["checks"]]
    assert len(names) == len(set(names))
    for check in verify_report["checks"]:
        assert set(check) == {"name", "value", "bound", "passed"}
        assert np.isfinite(check["value"])
        assert check["value"] <= check["bound"]


@pytest.mark.parametrize("seed", [2, 23])
def test_run_verify_reports_instead_of_raising(seed):
    # the raw serialization fixture of these seeds exceeds the C1 bound
    report = run_verify(load_config(environ={}, flag_overrides={"seed": str(seed)}))
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["graph_serialization_roundtrip"]["passed"]
    assert checks["graph_serialization_roundtrip"]["value"] == 0.0
    assert not [name for name in checks if name.endswith("_layer")]
    assert report["failures"] == []


def test_run_verify_records_a_raising_layer(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise GeometryError("injected")

    monkeypatch.setattr(fn, "flux_integral", broken)
    report = run_verify()
    names = [c["name"] for c in report["checks"]]
    entry = report["checks"][names.index("functional_layer")]
    assert entry["passed"] is False
    assert math.isnan(entry["value"])
    assert entry["error"] == "GeometryError: injected"
    assert report["failures"] == ["functional_layer"]
    assert "curvature_ratio_corpus" in names     # ran before the raise
    assert "divergence_outlying" not in names    # never ran, never passed
    assert "model_serialization_roundtrip" in names   # later layers still run
    assert cli.main(["verify", "--out", str(tmp_path)]) == 1
    assert "FAIL functional_layer" in capsys.readouterr().out
    assert "GeometryError: injected" in (tmp_path / "verify.json").read_text()


# --- command line ---

def test_cli_verify_exit_zero(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["verify", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "0 failures" in captured.out
    payload = json.loads((out / "verify.json").read_text())
    assert payload["failures"] == []


def test_cli_config_errors_exit_two(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    assert cli.main(["foliate", "--out", out, "--set", "grid.L=24",
                     "--set", "grid.n_theta=16"]) == 2
    assert "unknown configuration key 'grid.n_theta'" in capsys.readouterr().err
    with monkeypatch.context() as env:
        env.setenv("CMCLAB_GRID__N_THETA", "16")
        assert cli.main(["scan", "--out", out]) == 2
    assert "unknown configuration key 'grid.n_theta'" in capsys.readouterr().err
    assert cli.main(["foliate", "--out", out, "--set", "metric.kind=euclidean",
                     "--set", "metric.mass=0"]) == 2
    assert cli.main(["scan", "--out", out, "--set", "metric.mass=-1"]) == 2
    assert cli.main(["scan", "--out", out, "--set", "grid.L"]) == 2
    assert cli.main(["expand", "--out", out,
                     "--set", "expand.epsilons=1e-3,1e-2,1e-1"]) == 2
    assert cli.main(["scan", "--out", out,
                     "--set", "solve.jacobian=exact"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "unknown configuration key 'solve.jacobian'" in err


def test_cli_scan_smoke(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["scan", "--out", str(out), "--workers", "1",
                     "--set", "scan.lambdas=4", "--set", "scan.xis=2,0,0",
                     "--set", "grid.L=8"])
    assert code == 0
    assert (out / "scan.csv").exists()
    assert "status 0" in capsys.readouterr().out


def test_cli_scan_degree_above_default_grid(tmp_path):
    # L = 32 exceeds the (32, 64) grid's capacity 31; the grid follows L
    out = tmp_path / "out"
    assert cli.main(["scan", "--out", str(out), "--set", "grid.L=32",
                     "--set", "scan.lambdas=4", "--set", "scan.xis=2,0,0"]) == 0
    (row,) = read_rows(out / "scan.csv")
    assert float(row["r0"]) == pytest.approx(4.0 * (2.0 - 1.0), rel=1e-12)


def test_cli_seed_flag_changes_corpus(tmp_path):
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        cli.main(["scan", "--out", str(out), "--seed", seed,
                  "--set", "scan.lambdas=4", "--set", "scan.xis=2,0,0",
                  "--set", "scan.shape_pull=0.05", "--set", "grid.L=8"])
        outs.append((out / "scan.csv").read_bytes())
    assert outs[0] != outs[1]
