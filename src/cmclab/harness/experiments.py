"""Experiment drivers: foliate, scan, expand.

All tabular output uses shortest-round-trip float formatting (repr), fixed
column orders, and deterministic row order, so identical configurations
produce byte-identical files regardless of worker count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from multiprocessing import Pool

import numpy as np

from .. import functionals as fn
from .. import metrics as mt
from ..errors import CmclabError, ConfigError, DomainError
from ..geometry import build_geometry
from ..solver import solve_cmc, trace_foliation
from ..sphere import SphereGraph, corpus_graph, lm_index, n_coeffs, working_grid
from .config import ExperimentConfig

FOLIATE_COLUMNS = (
    "leaf", "H_target", "converged", "stable", "iterations", "final_residual",
    "stability_eigenvalue", "r_area", "area_H2", "hawking", "cy_margin",
    "dlm_ratio", "area", "willmore", "cy_lhs", "cy_rhs", "dlm_lambda",
    "minkowski_deficit", "flux", "r0", "H_mean", "volume", "scale",
)

AUDIT_COLUMNS = (
    "gamma", "gamma_defined", "coeff_tracefree", "tracefree_energy_flat",
    "term_tracefree", "term_favorable", "error_x5", "error_h2_x3",
    "error_Htf_x2", "error_H_x3", "error_H2_x2", "error_total",
    "divergence_residual",
)

SCAN_COLUMNS = (
    "row", "lambda", "xi_x", "xi_y", "xi_z", "xi_norm", "flagged",
    "flag_reason", "r0_H", "lambda2_flux",
) + fn.FunctionalReport.FIELDS + AUDIT_COLUMNS + (
    "solve_converged", "solve_iterations", "solve_residual",
    "stability_eigenvalue", "stable",
)

# audit and solve cells of a row that is flagged or cannot be evaluated
_BLANK_AUDIT = tuple(False if key == "gamma_defined" else float("nan")
                     for key in AUDIT_COLUMNS)
_BLANK_SOLVE = (False, 0, float("nan"), float("nan"), False)

EXPAND_COLUMNS = (
    "l", "m", "skipped", "qform", "alpha", "remainder_order",
    "sharp_ratio", "min_epsilon",
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def run_foliate(config: ExperimentConfig, out_dir: str) -> tuple[int, list[str]]:
    """Trace the foliation and emit per-leaf functional rows.

    Status 1 when the trace truncates or (for perturbed models) the
    area-H^2 defect fails to decrease strictly along the trace.
    """
    model = config.model()
    if model.kind == mt.EUCLIDEAN or model.mass <= 0.0:
        raise ConfigError("metric.kind/metric.mass: foliation requires a "
                          "schwarzschild or perturbed model with positive mass")
    grid = config.grid()
    opts = config.solver_options()
    trace = trace_foliation(
        model, config["foliate.H_start"], config["foliate.H_end"],
        config["foliate.n_leaves"], L=config["grid.L"], opts=opts)

    messages: list[str] = []
    status = 0
    rows = []
    defects = []
    for k, leaf in enumerate(trace.leaves):
        cache = build_geometry(leaf.surface, model, grid)
        report = fn.build_report(cache)
        area_H2 = report.area * leaf.H_target**2
        defects.append(abs(area_H2 - fn.SIXTEEN_PI))
        rows.append((
            k, leaf.H_target, leaf.converged, leaf.stable, leaf.iterations,
            leaf.final_residual, leaf.stability_eigenvalue,
            math.sqrt(report.area / fn.FOUR_PI), area_H2, report.hawking,
            report.cy_rhs - report.cy_lhs, report.dlm_ratio, report.area,
            report.willmore, report.cy_lhs, report.cy_rhs, report.dlm_lambda,
            report.minkowski_deficit, report.flux, report.r0, report.H_mean,
            trace.volumes[k], leaf.surface.scale,
        ))
    if trace.truncated:
        status = 1
        messages.append(f"trace truncated: {trace.diagnostic}")
    if not trace.nested_ok:
        status = 1
        messages.append("nesting violation: enclosed volume not increasing")
    if model.kind == mt.PERTURBED:
        for k in range(1, len(defects)):
            if defects[k] >= defects[k - 1]:
                status = 1
                messages.append(
                    f"area-H^2 defect not decreasing between leaves {k-1} and "
                    f"{k}: {defects[k-1]!r} -> {defects[k]!r}")
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "foliate.csv"), FOLIATE_COLUMNS, rows)
    payload = trace.to_json_dict()
    payload["status"] = status
    payload["messages"] = messages
    write_json(os.path.join(out_dir, "foliate.json"), payload)
    return status, messages


_WORKER: dict = {}


def _scan_init(config: ExperimentConfig) -> None:
    _WORKER["config"] = config
    _WORKER["model"] = config.model()
    _WORKER["grid"] = config.grid()


def _scan_surface(config: ExperimentConfig, row: int, lam: float, xi) -> SphereGraph:
    center = np.array(xi, dtype=float) * lam
    pull = config["scan.shape_pull"]
    if pull > 0.0:
        return corpus_graph(seed=(config["seed"], row), L=config["grid.L"],
                            l_band=(2, 4), c1_target=pull, scale=lam,
                            center=center)
    return SphereGraph(center, lam, config["grid.L"],
                       np.zeros(n_coeffs(config["grid.L"])))


def _scan_cells(config: ExperimentConfig, model, grid, surface: SphereGraph,
                lam: float, flagged: bool) -> tuple:
    """(report, r0_H, lambda2_flux, audit, solve) cells of an evaluable row."""
    cache = build_geometry(surface, model, grid)
    report = fn.build_report(cache)
    report_vals = [getattr(report, name) for name in fn.FunctionalReport.FIELDS]
    audit_vals = _BLANK_AUDIT
    solve_vals = _BLANK_SOLVE
    if not flagged:
        ledger = fn.big_inequality_audit(cache, config["scan.tau"],
                                         config["scan.delta"])
        audit_vals = tuple(ledger[key] for key in AUDIT_COLUMNS)
        if config["scan.solve"]:
            solved = solve_cmc(surface, model, report.H_mean,
                               config.solver_options())
            solve_vals = (solved.converged, solved.iterations,
                          solved.final_residual,
                          solved.stability_eigenvalue, solved.stable)
    return (report_vals, report.r0 * report.H_mean, lam**2 * report.flux,
            audit_vals, solve_vals)


def _scan_row(task) -> tuple:
    row, lam, xi = task
    config = _WORKER["config"]
    model = _WORKER["model"]
    grid = _WORKER["grid"]
    surface = _scan_surface(config, row, lam, xi)
    xi_norm = float(np.linalg.norm(xi))
    # flag from chart geometry alone: the metric cannot even be evaluated on
    # surfaces that reach into the unit ball or the model's |x| <= m/2 core
    r0 = surface.r0()
    domain_radius = max(1.0, 0.5 * model.mass)
    flagged = False
    reason = "none"
    if surface.encloses_origin():
        flagged, reason = True, "enclosing"
    elif r0 <= 2.0:
        flagged, reason = True, "inside_B2"
    elif r0 <= domain_radius:
        flagged, reason = True, "domain"
    nan = float("nan")
    report_vals = [nan] * len(fn.FunctionalReport.FIELDS)
    # the chart distance is known even when the metric report is not
    report_vals[fn.FunctionalReport.FIELDS.index("r0")] = r0
    cells = (report_vals, nan, nan, _BLANK_AUDIT, _BLANK_SOLVE)
    if r0 > domain_radius:
        # one failing row is labelled and left blank instead of ending the scan
        try:
            cells = _scan_cells(config, model, grid, surface, lam, flagged)
        except DomainError:
            flagged, reason = True, "domain"
        except CmclabError:
            flagged, reason = True, "geometry"
    report_vals, r0_H, lambda2_flux, audit_vals, solve_vals = cells
    return (
        (row, lam, xi[0], xi[1], xi[2], xi_norm, flagged, reason,
         r0_H, lambda2_flux)
        + tuple(report_vals) + audit_vals + solve_vals
    )


def run_scan(config: ExperimentConfig, out_dir: str) -> tuple[int, list[str]]:
    """Audit the outlying family over all (lambda, xi) pairs."""
    tasks = []
    row = 0
    for lam in config["scan.lambdas"]:
        for xi in config["scan.xis"]:
            tasks.append((row, lam, xi))
            row += 1
    workers = config["workers"]
    if workers > 1:
        with Pool(processes=workers, initializer=_scan_init,
                  initargs=(config,)) as pool:
            rows = pool.map(_scan_row, tasks)
    else:
        _scan_init(config)
        rows = [_scan_row(task) for task in tasks]
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "scan.csv"), SCAN_COLUMNS, rows)
    flagged = [str(r[0]) for r in rows if r[6]]
    messages = []
    if flagged:
        messages.append("flagged rows: " + ", ".join(flagged))
    return 0, messages


def run_expand(config: ExperimentConfig, out_dir: str) -> tuple[int, list[str]]:
    """Per-mode deficit expansion fits plus the sharp-limit ratio column."""
    epsilons = config["expand.epsilons"]
    if len(epsilons) < 4:
        raise ConfigError(
            f"expand.epsilons: the fit needs at least 4 points, "
            f"got {len(epsilons)}")
    if any(e <= 0 for e in epsilons):
        raise ConfigError("expand.epsilons: all values must be positive")
    model = mt.euclidean_model()
    eps_min = min(epsilons)
    rows = []
    messages = []
    for l, m in config["expand.modes"]:
        if l <= 1:
            rows.append((l, m, True, 0.0, float("nan"), float("nan"),
                         float("nan"), eps_min))
            messages.append(f"mode ({l},{m}) skipped: zero quadratic form")
            continue
        alpha, order = fn.taylor_prefactor_fit((l, m), epsilons)
        L = max(l, 2)
        coeffs = np.zeros(n_coeffs(L))
        coeffs[lm_index(l, m)] = 1.0
        qform = fn.minkowski_quadratic_form(coeffs, L)
        cache = build_geometry(SphereGraph(np.zeros(3), 1.0, L, coeffs * eps_min),
                               model, working_grid(L))
        deficit = fn.minkowski_deficit(cache)
        tf = cache.integrate_bar(cache.tf2_bar)
        sharp = max(0.0, -deficit) / tf if tf > 0 else float("nan")
        rows.append((l, m, False, qform, alpha, order, sharp, eps_min))
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "expand.csv"), EXPAND_COLUMNS, rows)
    return 0, messages
