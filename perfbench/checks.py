"""Output checks made from outside the program.

Each function reads what a CLI call wrote (or, for conditional honouring,
the stack it returned) and raises ``CheckFailed`` with a reason when the
output is wrong.  The package's own functions serve only as oracles:
``core.observe`` for the record projection and ``ThicknessModel.all_terms``
for the log-likelihood.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from stratasim import core, mcmc
from stratasim.likelihood import LayerParams

LOGLIK_TOL = 1e-6


class CheckFailed(Exception):
    pass


def _require(ok: bool, reason: str):
    if not ok:
        raise CheckFailed(reason)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_configurations(path) -> dict[int, dict[str, np.ndarray]]:
    """{iteration: {borehole_id: thickness vector}} from configurations.csv."""
    acc: dict[int, dict[str, list]] = {}
    for row in _rows(path):
        vec = acc.setdefault(int(row["iteration"]), {}).setdefault(row["borehole_id"], [])
        _require(int(row["layer_index"]) == len(vec), f"{path}: layer index gap")
        vec.append(float(row["thickness_m"]))
    return {it: {b: np.array(v) for b, v in per.items()} for it, per in acc.items()}


def read_samples(path, groups):
    """[(iteration, params_by_group, loglik)] from samples.csv."""
    out = []
    for row in _rows(path):
        params = {
            g: LayerParams(*(float(row[f"{k}_{g}"]) for k in ("p", "mu", "beta", "alpha", "nu")))
            for g in groups
        }
        out.append((int(row["iteration"]), params, float(row["loglik"])))
    return out


def fit_projects(out_dir, boreholes, parent):
    """Every stored configuration projects to its borehole's records."""
    configs = read_configurations(Path(out_dir) / "configurations.csv")
    _require(bool(configs), "configurations.csv is empty")
    for it, per in configs.items():
        _require(set(per) == {b.id for b in boreholes}, f"iteration {it}: borehole set differs")
        for b in boreholes:
            cfg = core.AugmentedConfiguration(b.id, per[b.id])
            _require(core.observe(cfg, parent) == list(b.records),
                     f"iteration {it}: {b.id} does not project to its records")


def fit_loglik(out_dir, boreholes, parent):
    """all_terms on the most-likely stored sample reproduces its loglik."""
    model = mcmc.ThicknessModel(boreholes, parent, tie_by_facies=True)
    rows = read_samples(Path(out_dir) / "samples.csv", model.groups)
    _require(bool(rows), "samples.csv is empty")
    it, params, loglik = max(rows, key=lambda r: r[2])  # earliest on ties
    configs = read_configurations(Path(out_dir) / "configurations.csv")[it]
    ordered = [core.AugmentedConfiguration(b.id, configs[b.id]) for b in boreholes]
    fresh = float(np.sum(model.all_terms(ordered, params)))
    _require(abs(fresh - loglik) <= LOGLIK_TOL,
             f"iteration {it}: recomputed loglik {fresh!r} != stored {loglik!r}")


def read_diagnostics(path) -> dict[tuple[str, str], tuple[int, int, int]]:
    return {
        (r["section"], r["name"]): (int(r["accepted"]), int(r["proposed"]), int(r["infeasible"]))
        for r in _rows(path)
    }


def fit_counters(out_dir, n_iter, n_groups, n_boreholes):
    """Proposal counters add up to the sweep and move schedule."""
    diag = read_diagnostics(Path(out_dir) / "diagnostics.csv")
    params = [c for (sec, _), c in diag.items() if sec == "parameter"]
    moves = [c for (sec, _), c in diag.items() if sec == "move"]
    _require(len(params) == 4 and len(moves) == 3, "diagnostics.csv rows missing")
    _require(sum(c[1] for c in params) == n_iter * n_groups * 4,
             "parameter proposals != n_iter * groups * 4")
    _require(sum(c[1] + c[2] for c in moves) == n_iter * n_boreholes,
             "move draws != n_iter * n_boreholes")
    _require(all(0 <= c[0] <= c[1] for c in params + moves), "accepted > proposed")


def _floats(values, what):
    arr = np.array([float(v) for v in values])
    _require(bool(np.all(np.isfinite(arr))), f"{what}: non-finite value")
    return arr


def grid_files(out_dir, n_nodes, n_layers) -> np.ndarray:
    """raster.csv and surfaces.txt parse back; returns thickness (M, N)."""
    rows = _rows(Path(out_dir) / "raster.csv")
    _require(len(rows) == n_nodes * n_layers,
             f"raster.csv has {len(rows)} rows, expected {n_nodes * n_layers}")
    raster = _floats((r["thickness_m"] for r in rows), "raster.csv").reshape(n_nodes, n_layers).T
    lines = (Path(out_dir) / "surfaces.txt").read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    _require(len(body) == n_layers, f"surfaces.txt has {len(body)} layer lines")
    grid = np.array([_floats(ln.split(), "surfaces.txt") for ln in body])
    _require(grid.shape == (n_layers, n_nodes), "surfaces.txt has the wrong width")
    _require(np.array_equal(grid, raster), "raster.csv and surfaces.txt disagree")
    return raster


def transect_files(out_dir, n_stations, n_layers) -> np.ndarray:
    """polylines.csv and section.csv parse back; returns boundaries (M+1, S)."""
    rows = _rows(Path(out_dir) / "polylines.csv")
    _require(len(rows) == (n_layers + 1) * n_stations,
             f"polylines.csv has {len(rows)} rows, expected {(n_layers + 1) * n_stations}")
    bounds = _floats((r["depth_m"] for r in rows), "polylines.csv").reshape(n_layers + 1, n_stations)
    section = _rows(Path(out_dir) / "section.csv")
    bottom = bounds[-1].max()
    expected = int(np.sum(np.diff(bounds, axis=0) > 0)) + int(np.sum(bottom > bounds[-1]))
    _require(len(section) == expected,
             f"section.csv has {len(section)} rows, expected {expected}")
    tops = _floats((r["top_m"] for r in section), "section.csv")
    lows = _floats((r["bottom_m"] for r in section), "section.csv")
    _require(bool(np.all(lows > tops)), "section.csv interval with bottom <= top")
    return bounds


def nonnegative_stack(thickness):
    """Thicknesses finite and >= 0, so depth surfaces are nondecreasing."""
    _require(bool(np.all(np.isfinite(thickness))), "non-finite thickness")
    _require(bool(np.all(thickness >= 0)), "negative thickness")
    surfaces = np.cumsum(np.vstack([np.zeros(thickness.shape[1]), thickness]), axis=0)
    _require(bool(np.all(np.diff(surfaces, axis=0) >= 0)), "depth surfaces decrease")


def nondecreasing_boundaries(bounds):
    _require(bool(np.all(np.diff(bounds, axis=0) >= 0)), "polyline depths decrease")


def honours_boreholes(stack, configs, locations, raster=None):
    """Every borehole thickness is reproduced exactly at its node.

    A borehole sits on the nearest grid node within half a cell; otherwise
    its exact location was appended after the grid nodes.  ``raster``, when
    given, is the written grid and must agree at every node a borehole sits on.
    """
    n_grid = stack.grid.n_nodes
    grid_pts = stack.points[:n_grid]
    for cfg, loc in zip(configs, np.asarray(locations, dtype=float)):
        d = np.linalg.norm(grid_pts - loc, axis=1)
        k = int(np.argmin(d))
        if d[k] > stack.grid.spacing / 2.0:
            extra = np.nonzero(np.all(stack.points[n_grid:] == loc, axis=1))[0]
            _require(extra.size == 1, f"{cfg.borehole_id}: no simulation point")
            k = n_grid + int(extra[0])
        _require(np.array_equal(stack.thickness[:, k], cfg.thicknesses),
                 f"{cfg.borehole_id}: conditioning thickness not honoured")
        if raster is not None and k < n_grid:
            _require(np.array_equal(raster[:, k], cfg.thicknesses),
                     f"{cfg.borehole_id}: written raster differs at its node")

