"""Brute-force oracles that the tests compare the package against."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import truncnorm

from stratasim import fieldsim, gaussnum, likelihood
from stratasim.core import (
    AugmentedConfiguration,
    ParentSequence,
    apply_move,
    enumerate_moves,
    snap_thickness,
)
from stratasim.errors import DegenerateRegionError
from stratasim.mcmc import PosteriorSample


def compatible_supports(
    obs_facies: Sequence[str], parent: ParentSequence
) -> set[frozenset[int]]:
    """Brute-force set of support patterns compatible with an observed sequence.

    A subset S of parent layers is compatible iff merging consecutive
    same-facies runs of S (in parent order) reproduces the observed facies
    list.  Intended for small parents (exponential in len(parent)).
    """
    M = len(parent)
    obs = list(obs_facies)
    out = set()
    for mask in range(1 << M):
        sel = [j for j in range(M) if mask >> j & 1]
        merged = []
        for j in sel:
            c = parent.layers[j]
            if not merged or merged[-1] != c:
                merged.append(c)
        if merged == obs:
            out.add(frozenset(sel))
    return out


def reachable_supports(
    cfg: AugmentedConfiguration, parent: ParentSequence
) -> set[frozenset[int]]:
    """Support patterns reachable from ``cfg`` by chains of moves (BFS).

    Only Split and Merge change the support, so Displace is not explored.
    """
    seen = {cfg.support()}
    frontier = [cfg]
    while frontier:
        cur = frontier.pop()
        for kind in ("split", "merge"):
            for mv in enumerate_moves(cur, parent, kind):
                if kind == "split":
                    mv = mv.with_u(float(snap_thickness(cur.thicknesses[mv.j] / 2.0)))
                nxt = apply_move(cur, parent, mv)
                if nxt.support() not in seen:
                    seen.add(nxt.support())
                    frontier.append(nxt)
    return seen


def facies_shared(sample: PosteriorSample, parent: ParentSequence, facies: str) -> bool:
    """True if some borehole splits this facies across several layers."""
    idx = parent.layers_of(facies)
    return any(
        int(np.sum(cfg.thicknesses[idx] > 0)) >= 2 for cfg in sample.configs
    )


def matern(h, spec):
    """Matern correlation as one expression per nu, temporaries and all."""
    r = np.asarray(h, dtype=float) / spec.alpha
    if spec.nu == 0.5:
        out = np.exp(-r)
    elif spec.nu == 1.5:
        out = (1.0 + r) * np.exp(-r)
    else:
        out = (1.0 + r + r * r / 3.0) * np.exp(-r)
    return out if out.ndim else float(out)


def sample_truncated_mvn(mean, cov, upper, rng):
    """Gibbs draw of N(mean, cov) below ``upper`` through ``truncnorm.ppf``:
    20 burn-in sweeps, then 50 more.

    One uniform per coordinate update, drawn as it is used, and the
    precision diagonal read inside the sweep.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    d = mean.size
    if d == 0:
        return np.zeros(0)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    sd = np.sqrt(np.diag(cov))
    prob, _ = gaussnum.mvn_cdf_below(np.full(d, upper), mean, cov, tol=1e-2)
    if prob < 1e-300:
        raise DegenerateRegionError("vanishing truncation region")
    if d == 1:
        beta = (upper - mean[0]) / sd[0]
        u = rng.random()
        return mean + sd * truncnorm.ppf(u, -np.inf, beta)

    chol = gaussnum.chol_psd(cov)
    prec = np.linalg.inv(chol.T) @ np.linalg.inv(chol)
    cond_var = 1.0 / np.diag(prec)
    cond_sd = np.sqrt(cond_var)

    x = np.minimum(mean, upper - 0.5 * sd)
    for _ in range(20 + 50):
        for i in range(d):
            r = prec[i] @ (x - mean) - prec[i, i] * (x[i] - mean[i])
            m_i = mean[i] - cond_var[i] * r
            beta = (upper - m_i) / cond_sd[i]
            u = rng.random()
            x[i] = m_i + cond_sd[i] * truncnorm.ppf(u, -np.inf, beta)
    return x


def sample_gaussian_field(points, spec, rng, cond_points=None, cond_values=None):
    """One field draw that builds its covariance and factors on every call."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if cond_points is None or len(cond_points) == 0:
        chol = gaussnum.chol_psd(gaussnum.cov_matrix(pts, spec))
        return chol @ rng.standard_normal(n)

    cpts = np.atleast_2d(np.asarray(cond_points, dtype=float))
    w = np.asarray(cond_values, dtype=float)
    d = cdist(pts, cpts)
    hit = d.min(axis=1) < 1e-12
    out = np.empty(n)
    out[hit] = w[np.argmin(d[hit], axis=1)] if np.any(hit) else 0.0
    free = ~hit
    if not np.any(free):
        return out

    fpts = pts[free]
    nc = cpts.shape[0]
    joint_cov = gaussnum.cov_matrix(np.vstack([cpts, fpts]), spec)
    chol = gaussnum.chol_psd(joint_cov)
    f_star = chol @ rng.standard_normal(nc + fpts.shape[0])

    s_cc = joint_cov[:nc, :nc]
    s_gc = joint_cov[nc:, :nc]
    chol_cc = gaussnum.chol_psd(s_cc)

    def krig(vals):
        t = np.linalg.solve(chol_cc, vals)
        return s_gc @ np.linalg.solve(chol_cc.T, t)

    out[free] = krig(w) + (f_star[nc:] - krig(f_star[:nc]))
    return out


class _FixedNormals:
    """Stands in for a generator: ``standard_normal`` returns ``z``."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, shape):
        assert self.z.shape == tuple(shape)
        return self.z


def lattice_draw_covariance(kernel: gaussnum.LatticeKernel) -> np.ndarray:
    """Covariance of ``draw_field(kernel, ...)`` over the grid nodes.

    A draw is linear in its standard normals z, f = A z; each column of A is
    the draw made from one unit vector, so the covariance is A A'.
    """
    m = int(np.prod(kernel.shape))
    cols = []
    for k in range(m):
        e = np.zeros(m)
        e[k] = 1.0
        cols.append(gaussnum.draw_field(kernel, _FixedNormals(e.reshape(kernel.shape))))
    a = np.column_stack(cols)
    return a @ a.T


def simulate_unconditional(grid, params_by_layer, parent, seed):
    """Thickness fields layer by layer in parent order, one kernel per layer:
    the lattice kernel where one exists for a grid, else a dense factor."""
    params = fieldsim._params_list(params_by_layer, parent)
    pts = grid.points()
    thickness = np.empty((len(parent), len(pts)))
    for j, prm in enumerate(params):
        rng = fieldsim._layer_rng(seed, j)
        lattice = None
        if grid.kind == "grid":
            lattice = gaussnum.lattice_kernel(grid.nx, grid.ny, grid.spacing,
                                              prm.matern_spec)
        if lattice is None:
            w = sample_gaussian_field(pts, prm.matern_spec, rng)
        else:
            w = gaussnum.draw_field(lattice, rng)
        thickness[j] = likelihood.thickness_from_latent(w, prm)
    return thickness


def simulate_conditional(grid, params_by_layer, parent, configs, locations, seed):
    """Conditional thickness fields layer by layer in parent order, with the
    borehole covariance and the field factor rebuilt for every layer."""
    params = fieldsim._params_list(params_by_layer, parent)
    locs = np.asarray(locations, dtype=float).reshape(-1, 2)
    pts, bh_idx = fieldsim._match_boreholes(grid, locs)
    bh_pts = pts[bh_idx]
    z_cond = np.array([cfg.thicknesses for cfg in configs]).T
    thickness = np.empty((len(parent), len(pts)))
    for j, prm in enumerate(params):
        rng = fieldsim._layer_rng(seed, j)
        z_j = z_cond[j]
        pos = z_j > 0
        w_known = np.empty(len(locs))
        w_known[pos] = likelihood.latent_from_thickness(z_j[pos], prm)
        if np.any(~pos):
            joint = gaussnum.cov_matrix(bh_pts, prm.matern_spec)
            m, v = gaussnum.condition(
                joint, np.nonzero(pos)[0], np.nonzero(~pos)[0], w_known[pos]
            )
            w_known[~pos] = sample_truncated_mvn(m, v, prm.tau, rng)
        w = sample_gaussian_field(pts, prm.matern_spec, rng, bh_pts, w_known)
        thickness[j] = likelihood.thickness_from_latent(w, prm)
        thickness[j, bh_idx] = z_j
    return thickness


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def save_raster(path, stack):
    """Raster CSV written row by row, every value formatted as it is written."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_km", "y_km", "layer_index", "facies", "thickness_m"])
        n_grid = stack.grid.n_nodes
        pts = stack.points[:n_grid]
        for c in range(n_grid):
            for j in range(len(stack.parent)):
                writer.writerow(
                    [_fmt(pts[c, 0]), _fmt(pts[c, 1]), j,
                     stack.parent.layers[j], _fmt(stack.thickness[j, c])]
                )


def save_stack_grid(path, stack):
    """Gridded text format with every thickness formatted as it is written."""
    grid = stack.grid
    lines = [
        "# stratasim gridded stack",
        f"# kind {grid.kind}",
        f"# origin {_fmt(grid.origin[0])} {_fmt(grid.origin[1])}",
        f"# spacing {_fmt(grid.spacing)}",
        f"# dims {grid.nx} {grid.ny} layers {len(stack.parent)}",
        f"# facies {' '.join(stack.parent.layers)}",
    ]
    n_grid = grid.n_nodes
    for j in range(len(stack.parent)):
        lines.append(" ".join(_fmt(v) for v in stack.thickness[j, :n_grid]))
    Path(path).write_text("\n".join(lines) + "\n")
