"""Brute-force oracles that the tests compare the package against."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import optimize
from scipy.fft import next_fast_len
from scipy.spatial.distance import cdist
from scipy.special import ndtr, ndtri
from scipy.stats import norm, qmc, truncnorm

from stratasim import fieldsim, gaussnum, likelihood
from stratasim.core import (
    AugmentedConfiguration,
    ParentSequence,
    apply_move,
    enumerate_moves,
    snap_thickness,
)
from stratasim.errors import DegenerateRegionError, NumericError
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


def support(cfg: AugmentedConfiguration) -> frozenset[int]:
    """Indices of layers with positive thickness."""
    return frozenset(int(j) for j in np.nonzero(cfg.thicknesses > 0)[0])


def reachable_supports(
    cfg: AugmentedConfiguration, parent: ParentSequence
) -> set[frozenset[int]]:
    """Support patterns reachable from ``cfg`` by chains of moves (BFS).

    Only Split and Merge change the support, so Displace is not explored.
    """
    seen = {support(cfg)}
    frontier = [cfg]
    while frontier:
        cur = frontier.pop()
        for kind in ("split", "merge"):
            for mv in enumerate_moves(cur, parent, kind):
                if kind == "split":
                    mv = mv.with_u(float(snap_thickness(cur.thicknesses[mv.j] / 2.0)))
                nxt = apply_move(cur, parent, mv)
                if support(nxt) not in seen:
                    seen.add(support(nxt))
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


def _genz_probs(lower_chol, b, u01):
    """Genz separation-of-variables sample probabilities, one new array per
    step and ``np.clip`` for the bounds."""
    n, dm1 = u01.shape
    e = np.full(n, ndtr(b[0] / lower_chol[0, 0]))
    prob = e.copy()
    ys = np.empty((n, dm1))
    for i in range(1, dm1 + 1):
        q = np.clip(u01[:, i - 1] * e, 1e-300, 1.0 - 1e-16)
        ys[:, i - 1] = ndtri(q)
        mu = ys[:, :i] @ lower_chol[i, :i]
        e = ndtr((b[i] - mu) / lower_chol[i, i])
        prob *= e
    return prob


def mvn_cdf_below(upper, mean, cov, tol, max_points=65_536):
    """Orthant probability P(X < upper), X ~ N(mean, cov), by randomized QMC
    with every round built and scored whole.

    The 10 shifts come from ``default_rng(0x5EED)`` on every call.  A round
    has 128 Sobol points per shift, doubling until the error estimate meets
    ``tol`` or a round has ``max_points`` per shift, and each round scores
    its whole point set.
    """
    b = np.atleast_1d(np.asarray(upper, dtype=float))
    bc = b - np.broadcast_to(np.asarray(mean, dtype=float), b.shape)
    d = b.size
    if d == 0:
        return 1.0, 0.0
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if d == 1:
        return float(ndtr(bc[0] / np.sqrt(cov[0, 0]))), 0.0
    order = np.argsort(ndtr(bc / np.sqrt(np.diag(cov))))
    chol = gaussnum.chol_psd(cov[np.ix_(order, order)])
    shifts = np.random.default_rng(0x5EED).random((10, d - 1))
    n = 128
    while True:
        base = qmc.Sobol(d - 1, scramble=False).random_base2(int(np.log2(n)))
        u = ((base[None, :, :] + shifts[:, None, :]) % 1.0).reshape(10 * n, d - 1)
        ests = _genz_probs(chol, bc[order], u).reshape(10, n).mean(axis=1)
        est = float(ests.mean())
        err = float(3.0 * ests.std(ddof=1) / np.sqrt(10))
        if err <= tol or n >= max_points:
            break
        n *= 2
    return min(max(est, 0.0), 1.0), err


def layer_loglik(z_col, locations, params, cdf_tol):
    """One layer's log-likelihood from its thickness column, with the
    covariance, the factor and the kriging built on every call.

    One solve gives the positive sites' log-density; a second, stacked solve
    of ``[S_un', w]`` gives the zero sites' kriged mean and covariance.
    """
    z = np.asarray(z_col, dtype=float)
    locs = np.asarray(locations, dtype=float).reshape(-1, 2)
    pos = z > 0
    n_pos, n_zero = int(pos.sum()), int((~pos).sum())
    tau = params.tau
    joint = gaussnum.cov_matrix(np.vstack([locs[pos], locs[~pos]]), params.matern_spec)
    s_un = joint[n_pos:, :n_pos]
    s_uu = joint[n_pos:, n_pos:]
    if n_pos == 0:
        prob, _ = mvn_cdf_below(np.full(n_zero, tau), np.zeros(n_zero), s_uu, cdf_tol)
        return float(np.log(max(prob, 1e-300)))

    chol = gaussnum.chol_psd(joint[:n_pos, :n_pos])
    w = likelihood.latent_from_thickness(z[pos], params)
    r = np.linalg.solve(chol, w)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    total = float(-0.5 * (n_pos * np.log(2.0 * np.pi) + logdet + r @ r))
    total += float(np.sum(np.log(likelihood.jacobian_inv(z[pos], params))))
    if n_zero:
        tmp = np.linalg.solve(chol, np.column_stack([s_un.T, w]))
        m = tmp[:, :-1].T @ tmp[:, -1]
        v = s_uu - tmp[:, :-1].T @ tmp[:, :-1]
        prob, _ = mvn_cdf_below(np.full(n_zero, tau), m, 0.5 * (v + v.T), cdf_tol)
        total += float(np.log(max(prob, 1e-300)))
    return float(total)


def sample_truncated_mvn(mean, cov, upper, rng):
    """Minimax-tilted accept-reject draw of N(mean, cov) below ``upper``,
    one proposal at a time, each coordinate through ``truncnorm.ppf``.

    The coordinates are ordered by marginal probability and the Cholesky
    factor is scaled to a unit diagonal; the tilt mu and the bound psi_star
    come from ``gaussnum.minimax_tilt`` (which ``minimax_tilt`` below checks).
    Proposal z has z_k = mu_k + ppf(u_k, t_k) with t_k = b_k - mu_k -
    sum_{j<k} S_kj z_j, and is accepted when e > psi_star - psi(z), with
    psi(z) = sum_k log Phi(t_k) + mu_k^2 / 2 - z_k mu_k.  Batches of n = 8,
    16, ... proposals read n x d uniforms, then n exponentials, as the
    package's do.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    d = mean.size
    if d == 0:
        return np.zeros(0)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    bc = upper - mean
    order = np.argsort(ndtr(bc / np.sqrt(np.diag(cov))))
    chol = gaussnum.chol_psd(cov[np.ix_(order, order)])
    strict = np.tril(chol / np.diag(chol)[:, None], -1)
    b = bc[order] / np.diag(chol)
    mu, psi_star = gaussnum.minimax_tilt(strict, b)
    if psi_star < np.log(1e-300):
        raise DegenerateRegionError("vanishing truncation region")
    n = 8
    while n <= 1 << 14:
        u = rng.random((n, d))
        e = rng.standard_exponential(n)
        for i in range(n):
            z, shift = np.zeros(d), np.zeros(d)
            psi = 0.0
            for k in range(d):
                for j in range(k):
                    shift[k] += strict[k, j] * z[j]
                t = b[k] - mu[k] - shift[k]
                z[k] = mu[k] + truncnorm.ppf(u[i, k], -np.inf, t)
                psi += norm.logcdf(t) + 0.5 * mu[k] ** 2 - z[k] * mu[k]
            if e[i] > psi_star - psi:
                x = np.empty(d)
                x[order] = mean[order] + np.diag(chol) * (z + shift)  # chol @ z
                return x
        n *= 2
    raise NumericError("no proposal accepted")


def minimax_tilt(strict, b):
    """Botev's tilt (mu, psi_star) from ``scipy.optimize.root`` on the
    gradient of psi(x, mu) = sum_k log Phi(t_k) + mu_k^2 / 2 - x_k mu_k,
    t = b - mu - strict x, in (x_1..x_{d-1}, mu_1..mu_{d-1}), with a
    finite-difference Jacobian."""
    d = len(b)

    def split(y):
        return np.append(y[: d - 1], 0.0), np.append(y[d - 1:], 0.0)

    def grad(y):
        x, mu = split(y)
        t = b - mu - strict @ x
        r = np.exp(norm.logpdf(t) - norm.logcdf(t))
        return np.concatenate([-mu[:-1] - (strict.T @ r)[:-1], (mu - x - r)[:-1]])

    sol = optimize.root(grad, np.zeros(2 * (d - 1)), method="hybr", tol=1e-13)
    assert sol.success, sol.message
    x, mu = split(sol.x)
    t = b - mu - strict @ x
    return mu, float(np.sum(norm.logcdf(t) + 0.5 * mu**2 - x * mu))


def rejection_draws(mean, cov, upper, n, seed):
    """``n`` draws of N(mean, cov) below ``upper`` by plain rejection."""
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(cov)
    kept, total = [], 0
    while total < n:
        x = mean + rng.standard_normal((100_000, len(mean))) @ chol.T
        x = x[np.all(x < upper, axis=1)]
        kept.append(x)
        total += len(x)
    return np.concatenate(kept)[:n]


def _mirror_basis(n):
    """Orthonormal rows (e_i + e_{n-1-i}) / norm for i < n - 1 - i and the
    middle node e_i, then (e_i - e_{n-1-i}) / sqrt(2) for i < n - 1 - i, as
    an n x n matrix, with the number of even rows."""
    rows = []
    for sign in (1.0, -1.0):
        for i in range(n):
            j = n - 1 - i
            if i < j or (i == j and sign > 0):
                v = np.zeros(n)
                v[i] += 1.0
                v[j] += sign
                rows.append(v / np.linalg.norm(v))
    return np.array(rows).reshape(n, n), (n + 1) // 2


def _folded_draw(cov, lattice, z):
    """Unconditional draw from the covariance ``cov`` of the nx * ny lattice
    nodes followed by the rest, given its normals ``z``, by folding the node
    block in the mirror basis Q.

    Q C_gg Q' is taken whole and its diagonal blocks of the (even, odd) x
    (even, odd) rows are factored one by one, in that order, x major; the
    nodes are Q' blockdiag(L_i) z_g.  The rest are A' z_g + chol(C_rr - A'A)
    z_r, with A = blockdiag(L_i)^-1 Q C_gr by dense solves.
    """
    nx, ny, _ = lattice
    n_grid = nx * ny
    qx, ex = _mirror_basis(nx)
    qy, ey = _mirror_basis(ny)
    q = np.kron(qx, qy)
    folded = q @ cov[:n_grid, :n_grid] @ q.T
    folded_gr = q @ cov[:n_grid, n_grid:]
    coef = np.empty(n_grid)
    cross = np.empty((n_grid, cov.shape[0] - n_grid))
    start = 0
    for xs in (range(ex), range(ex, nx)):
        for ys in (range(ey), range(ey, ny)):
            idx = np.array([a * ny + b for a in xs for b in ys], dtype=int)
            if idx.size == 0:
                continue
            chol = gaussnum.chol_psd(folded[np.ix_(idx, idx)])
            stop = start + idx.size
            coef[idx] = chol @ z[start:stop]
            cross[start:stop] = np.linalg.solve(chol, folded_gr[idx])
            start = stop
    y = np.empty(cov.shape[0])
    y[:n_grid] = q.T @ coef
    if cov.shape[0] > n_grid:
        chol = gaussnum.chol_psd(cov[n_grid:, n_grid:] - cross.T @ cross)
        y[n_grid:] = cross.T @ z[:n_grid] + chol @ z[n_grid:]
    return y


def sample_gaussian_field(points, spec, rng, cond_points=None, cond_values=None,
                          lattice=None):
    """One field draw that builds its covariance and factors on every call.

    An unconditional draw y over every point, then conditioning by kriging:
    y + C_.c C_cc^-1 (w - y_c), with the points found at the conditioning
    coordinates set to w.  Over scattered points y = L z, L the factor of
    the whole covariance; ``lattice`` = (nx, ny, spacing) says the leading
    nx * ny points are lattice nodes, drawn through ``_folded_draw``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cov = gaussnum.cov_matrix(pts, spec)
    z = rng.standard_normal(pts.shape[0])
    y = gaussnum.chol_psd(cov) @ z if lattice is None else _folded_draw(cov, lattice, z)
    if cond_points is None or len(cond_points) == 0:
        return y
    cpts = np.atleast_2d(np.asarray(cond_points, dtype=float))
    w = np.asarray(cond_values, dtype=float)
    d = cdist(pts, cpts)
    rows = np.argmin(d, axis=0)
    assert np.all(d[rows, np.arange(len(cpts))] < 1e-12)
    out = y + cov[:, rows] @ np.linalg.solve(cov[np.ix_(rows, rows)], w - y[rows])
    out[rows] = w
    return out


class _FixedNormals:
    """Stands in for a generator: ``standard_normal`` hands out ``z`` and
    then each of ``more``, raveled, in consecutive pieces of the sizes asked
    for.  Each instance joins ``made``, the list ``conftest.py`` gives each
    test and then checks for normals that were never handed out."""

    made = []

    def __init__(self, z, *more):
        self.left = np.concatenate([np.ravel(a) for a in (z, *more)])
        _FixedNormals.made.append(self)

    def standard_normal(self, size):
        shape = size if isinstance(size, tuple) else (size,)
        n = int(np.prod(shape))
        assert n <= self.left.size, f"asked for {n} normals, {self.left.size} left"
        piece, self.left = self.left[:n].reshape(shape), self.left[n:].copy()
        return piece


def torus_negative_mass(shape, spacing, spec) -> float:
    """The circulant-embedding contract of an (mx, my) torus: the clipped
    negative eigenvalues of its covariance, summed over the full spectrum and
    divided by mx my.

    The covariance is ``matern`` at the torus distance of every node from
    node 0, and its eigenvalues are the ``rfft2`` half-spectrum, each column
    but 0 and my/2 standing for two.
    """
    mx, my = shape
    dx, dy = (spacing * np.minimum(np.arange(m), m - np.arange(m)) for m in (mx, my))
    eig = np.fft.rfft2(matern(np.hypot(dx[:, None], dy[None, :]), spec)).real
    weight = np.full(my // 2 + 1, 2.0)
    weight[0] = 1.0
    if my % 2 == 0:
        weight[-1] = 1.0
    return -float(np.minimum(eig, 0.0).sum(axis=0) @ weight) / (mx * my)


def doubling_torus(nx, ny, spacing, spec):
    """The torus a circulant embedding finds by doubling alone, or None.

    Each axis starts at ``next_fast_len(2(n - 1))``, 1 for an axis of one
    node, and both double while M = mx*my satisfies M log2 M <= N^2,
    N = nx*ny, and M <= ``CHOLESKY_BUDGET``^2; the first torus whose
    ``torus_negative_mass`` is at most 1e-6 is returned.
    """
    n = nx * ny
    mx, my = (next_fast_len(max(2 * (k - 1), 1), real=True) for k in (nx, ny))
    while (mx * my * np.log2(mx * my) <= float(n) ** 2
           and mx * my <= gaussnum.CHOLESKY_BUDGET ** 2):
        if torus_negative_mass((mx, my), spacing, spec) <= 1e-6:
            return mx, my
        mx, my = 2 * mx, 2 * my
    return None


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


def lattice_law(kernel: gaussnum.LatticeKernel) -> np.ndarray:
    """Covariance of ``draw_field(kernel, ...)`` over the lattice nodes and
    the appended points, exactly, from the arrays the draw is made of.

    The torus draw has the circulant covariance whose eigenvalues are the
    squared ``sqrt_eig``: its lag table is their inverse FFT (numpy's here),
    read at torus lags modulo the torus.  An appended group is weights' Y_U
    + chol z, with z independent of the torus and of the other groups.
    """
    mx, my = kernel.shape
    table = np.fft.irfft2(kernel.sqrt_eig ** 2, s=kernel.shape)

    def lags(a, b):  # table at the torus lags between flat torus indices a and b
        (ax, ay), (bx, by) = np.divmod(a, my), np.divmod(b, my)
        return table[(ax[:, None] - bx) % mx, (ay[:, None] - by) % my]

    nodes = (np.arange(kernel.nx)[:, None] * my + np.arange(kernel.ny)).ravel()
    n_grid = nodes.size
    n = n_grid + sum(d.rows.size for d in kernel.local)
    cov = np.empty((n, n))
    cov[:n_grid, :n_grid] = lags(nodes, nodes)
    for d in kernel.local:
        rows = n_grid + d.rows
        cov[rows, :n_grid] = d.weights.T @ lags(d.nodes, nodes)
        cov[:n_grid, rows] = cov[rows, :n_grid].T
        for e in kernel.local:
            cov[np.ix_(rows, n_grid + e.rows)] = d.weights.T @ lags(d.nodes, e.nodes) @ e.weights
        cov[np.ix_(rows, rows)] += d.chol @ d.chol.T
    return cov


def lattice_draw(kernel: gaussnum.LatticeKernel, z_torus, z_points) -> np.ndarray:
    """The draw ``lattice_law`` describes, from the torus normals and one
    normal per appended point, with numpy's FFT."""
    f = np.fft.irfft2(kernel.sqrt_eig * np.fft.rfft2(z_torus), s=kernel.shape)
    out = [f[: kernel.nx, : kernel.ny].ravel(), np.empty(len(z_points))]
    for d in kernel.local:
        out[1][d.rows] = d.weights.T @ f.ravel()[d.nodes] + d.chol @ z_points[d.rows]
    return np.concatenate(out)


def simulate_unconditional(grid, params_by_layer, parent, seed):
    """Thickness fields layer by layer in parent order, one draw per layer:
    the lattice kernel's where one exists for a grid, else a fresh folded
    draw of the dense covariance."""
    params = fieldsim._params_list(params_by_layer, parent)
    pts = grid.points()
    thickness = np.empty((len(parent), len(pts)))
    for j, prm in enumerate(params):
        rng = fieldsim._layer_rng(seed, j)
        kernel = None
        if grid.kind == "grid":
            kernel = gaussnum.lattice_kernel(grid.nx, grid.ny, grid.spacing,
                                             prm.matern_spec)
        if kernel is None:
            w = sample_gaussian_field(pts, prm.matern_spec, rng,
                                      lattice=(grid.nx, grid.ny, grid.spacing))
        else:
            w = gaussnum.draw_field(kernel, rng)
        thickness[j] = likelihood.thickness_from_latent(w, prm)
    return thickness


def simulate_conditional(grid, params_by_layer, parent, configs, locations, seed):
    """Conditional thickness fields layer by layer in parent order, with the
    borehole covariance and a folded draw of the dense covariance made
    afresh for every layer."""
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
        w = sample_gaussian_field(pts, prm.matern_spec, rng, bh_pts, w_known,
                                  (grid.nx, grid.ny, grid.spacing))
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


def save_polylines(path, distances, boundaries):
    """Layer-boundary polylines written row by row through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["transect_distance_km", "depth_m", "layer_index"])
        for j in range(boundaries.shape[0]):
            for c, d in enumerate(distances):
                writer.writerow([_fmt(d), _fmt(boundaries[j, c]), j])


def save_section(path, distances, columns):
    """Cross-section records written row by row through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["transect_distance_km", "layer_index", "facies", "top_m", "bottom_m"]
        )
        for c, d in enumerate(distances):
            for j, facies, top, bottom in columns[c]:
                writer.writerow([_fmt(d), j, facies, _fmt(top), _fmt(bottom)])


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
