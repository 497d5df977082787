"""Gaussian numerical kernels.

Matern correlations (half-integer closed forms), covariance assembly,
Gaussian conditioning through one ``ConditionalKernel`` (the layer
likelihood's kernel, which ``condition`` and ``mvn_logpdf`` also use),
orthant probabilities by randomized quasi-Monte Carlo, exact truncated
multivariate normal sampling by minimax tilting, and random field
simulation: exact Cholesky factors for any point set (four
reflection-folded quarter blocks over a lattice, one dense factor
elsewhere) and FFT circulant embedding for regular grids, both drawing the
points after the nodes as ``LocalDraw``s; ``grid_kernel`` picks one on a
grid, and one kriging step conditions either draw on borehole values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf
from scipy.special import log1p, log_ndtr, ndtr, ndtri, ndtri_exp
from scipy.spatial.distance import cdist

from .errors import CapacityError, DegenerateRegionError, NumericError, ParameterError

ALLOWED_NU = (0.5, 1.5, 2.5)

# Jitter escalation for near-singular covariance matrices (near-duplicate
# borehole coordinates).
_JITTER_START = 1e-10
_JITTER_MAX = 1e-6

_PROB_FLOOR = 1e-300

# Bound on the Cholesky factors a draw holds at once, a field kernel's and
# its kriging step's borehole block: their sizes b_i must satisfy
# sum b_i^2 <= CHOLESKY_BUDGET^2, so the factors hold at most 8 budget^2
# bytes, 3.2 GB.  Each factor is built in its own buffer, which is its peak.
# A lattice's four folded blocks take about a quarter of one dense factor:
# 12.5 MB on a 50 x 50 grid and 0.21 GB on a 101 x 101 grid.  A lattice
# embedding may have up to budget^2 points, the same memory.
CHOLESKY_BUDGET = 20_000

# Entries of the n x n buffer that ``cov_matrix`` turns into correlations at
# a time (whole rows, at least one): the temporaries of ``matern`` stay a
# small fixed size beside the buffer.
_COV_BLOCK = 1 << 15

# Rows per block when ``_chol_in_place`` clears or restores a triangle, and
# the strict lower triangle of one diagonal block.
_TRI_BLOCK = 256
_STRICT_LOWER = np.tri(_TRI_BLOCK, k=-1, dtype=bool)


@dataclass(frozen=True)
class MaternSpec:
    """Half-integer Matern correlation with unit sill.

    nu is restricted to {1/2, 3/2, 5/2}; alpha is the range in km.
    """

    nu: float = 1.5
    alpha: float = 1.0

    def __post_init__(self):
        if self.nu not in ALLOWED_NU:
            raise ParameterError(f"nu must be one of {ALLOWED_NU}, got {self.nu}")
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")


def matern(h, spec: MaternSpec):
    """Correlation at lag distance h >= 0 (closed forms, no Bessel calls).

    Computed in place on the scaled lags r, in the operation order of
    ``(1 + r + r*r/3) * exp(-r)``, so a large lag array makes few temporaries.
    """
    r = np.atleast_1d(np.asarray(h, dtype=float)) / spec.alpha
    if np.any(r < 0):
        raise ParameterError("distance must be non-negative")
    out = np.negative(r)
    np.exp(out, out=out)
    if spec.nu == 2.5:
        r2 = r * r
        r2 /= 3.0
        r += 1.0
        r += r2
        out *= r
    elif spec.nu == 1.5:
        r += 1.0
        out *= r
    return out if np.ndim(h) else float(out[0])


def cov_matrix(points, spec: MaternSpec) -> np.ndarray:
    """Unit-diagonal correlation matrix over a planar point set.

    The Matern values overwrite the distance matrix a block of rows at a
    time, so the result is the n x n array ``cdist`` allocates, and the
    values are those of ``matern`` over the whole matrix.  It is exactly
    symmetric: ``cdist`` gives d(i, j) and d(j, i) the same bits.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    c = cdist(pts, pts)
    rows = max(1, _COV_BLOCK // max(c.shape[0], 1))
    for start in range(0, c.shape[0], rows):
        block = c[start : start + rows]
        block[...] = matern(block, spec)
    np.fill_diagonal(c, 1.0)
    return c


def chol_psd(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix, escalating diagonal
    jitter up to 1e-6; ``a`` is left as it is (``_chol_in_place`` of a copy)."""
    a = np.array(a, dtype=float, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericError("covariance matrix must be square")
    return _chol_in_place(a)


def _triangle_blocks(n: int):
    """(start, stop) of the row blocks of an n x n matrix, ``_TRI_BLOCK`` rows
    each but the last."""
    return ((s, min(s + _TRI_BLOCK, n)) for s in range(0, n, _TRI_BLOCK))


def _chol_in_place(c: np.ndarray) -> np.ndarray:
    """``chol_psd`` of the symmetric C-ordered matrix ``c``, built in ``c``.

    LAPACK ``dpotrf`` factors the Fortran-ordered view ``c.T``, which holds
    the same matrix, into its lower triangle, the upper triangle of ``c``; the
    factor L is returned as that view, so it shares ``c``'s memory.  (The
    lower variant is the one numpy's Cholesky runs.)  ``dpotrf`` reads and
    writes that triangle only, so the strict lower triangle of ``c`` still
    holds the matrix: a failed attempt restores the matrix from it and the
    diagonal saved before the first, then retries with jitter 1e-10 to 1e-6
    added to the diagonal.  On success the strict lower triangle is cleared;
    on failure ``c`` holds the matrix again and ``NumericError`` reports its
    condition estimate.
    """
    n = c.shape[0]
    diag = c.diagonal().copy()
    jitter = _JITTER_START
    while True:
        _, info = dpotrf(c.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            for start, stop in _triangle_blocks(n):
                c[start:stop, :start] = 0.0
                np.copyto(c[start:stop, start:stop], 0.0,
                          where=_STRICT_LOWER[: stop - start, : stop - start])
            return c.T
        for start, stop in _triangle_blocks(n):
            c[start:stop, stop:] = c[stop:, start:stop].T
            block = c[start:stop, start:stop]
            np.copyto(block, block.T,
                      where=_STRICT_LOWER[: stop - start, : stop - start].T)
        if jitter > _JITTER_MAX:
            np.fill_diagonal(c, diag)
            break
        np.fill_diagonal(c, diag + jitter)
        jitter *= 10.0
    cond = float(np.linalg.cond(c))
    raise NumericError(
        f"covariance not positive definite after jitter {_JITTER_MAX} "
        f"(condition estimate {cond:.3e})"
    )


def chol_logdet(chol: np.ndarray) -> float:
    """log det(L L') of a lower Cholesky factor L."""
    return float(2.0 * np.sum(np.log(np.diag(chol))))


def logpdf_whitened(r: np.ndarray, logdet: float) -> float:
    """log N(x; 0, L L') given r = L^-1 x and ``chol_logdet(L)``."""
    return float(-0.5 * (r.size * np.log(2.0 * np.pi) + logdet + r @ r))


@dataclass(frozen=True)
class ConditionalKernel:
    """The law of an unknown block u of a Gaussian given its known block n.

    Built by ``conditional_kernel``; the arrays are read-only, so one kernel
    can serve many evaluations.
    """

    chol: np.ndarray      # lower Cholesky factor L of S_nn, shape (n, n)
    logdet: float         # log det S_nn
    krig: np.ndarray      # L^-1 S_nu, shape (n, u)
    cond_cov: np.ndarray  # S_uu - krig' krig, symmetrised, shape (u, u)

    def whiten(self, w):
        """(L^-1 w, krig' L^-1 w) of known values w: the whitened values and
        the conditional (simple kriging, zero prior mean) mean of u."""
        white = np.linalg.solve(self.chol, w)
        return white, self.krig.T @ white


def conditional_kernel(joint, n_known: int) -> ConditionalKernel:
    """``ConditionalKernel`` of a joint covariance whose first ``n_known``
    rows are the known block.  Either block may be empty."""
    joint = np.asarray(joint, dtype=float)
    chol = chol_psd(joint[:n_known, :n_known])
    krig = np.linalg.solve(chol, joint[:n_known, n_known:])
    cond_cov = joint[n_known:, n_known:] - krig.T @ krig
    kernel = ConditionalKernel(
        chol, chol_logdet(chol), krig, 0.5 * (cond_cov + cond_cov.T)
    )
    for arr in (kernel.chol, kernel.krig, kernel.cond_cov):
        arr.flags.writeable = False
    return kernel


def condition(joint, known_idx, unknown_idx, w_known):
    """Conditional mean and covariance of the unknown block given the known one.

    m = S_un S_nn^-1 w,  V = S_uu - S_un S_nn^-1 S_nu  (simple kriging with
    zero prior mean), from the ``conditional_kernel`` of the two blocks.
    """
    idx = np.concatenate([known_idx, unknown_idx]).astype(int)
    kernel = conditional_kernel(np.asarray(joint)[np.ix_(idx, idx)], len(known_idx))
    return kernel.whiten(w_known)[1], kernel.cond_cov


def mvn_logpdf(x, mean, cov) -> float:
    """Multivariate Gaussian log-density, from the ``conditional_kernel``
    whose known block is all of ``cov``."""
    cov = np.atleast_2d(cov)
    kernel = conditional_kernel(cov, len(cov))
    r, _ = kernel.whiten(np.atleast_1d(np.asarray(x, dtype=float)) - mean)
    return logpdf_whitened(r, kernel.logdet)


_SOBOL_CACHE: dict[tuple[int, int], np.ndarray] = {}

# ``mvn_cdf_below``: largest dimension, random shifts, points per shift in the
# first round and in the last: rounds double the points until the error meets
# the tolerance or a round has ``_MAX_POINTS`` per shift (128 * 2^9).
_DIM_CAP = 100
_N_SHIFTS = 10
_FIRST_ROUND = 128
_MAX_POINTS = 65_536

# dim -> (shifts, first-round point set).  Both are pure functions of the
# dimension, so one copy serves every call in the process.  A later round
# scores only the points it adds, built by ``_shifted_points`` from the
# unshifted Sobol points in ``_SOBOL_CACHE``.
_FIRST_ROUND_SETS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _sobol_points(dim: int, n: int) -> np.ndarray:
    key = (dim, n)
    if key not in _SOBOL_CACHE:
        from scipy.stats import qmc  # here, so importing the package skips scipy.stats

        m = int(np.log2(n))
        _SOBOL_CACHE[key] = qmc.Sobol(dim, scramble=False).random_base2(m)
    return _SOBOL_CACHE[key]


def _shifted_points(start: int, stop: int, shifts: np.ndarray) -> np.ndarray:
    """Sobol points ``start`` to ``stop - 1`` under each random shift, mod 1.

    One row per coordinate, the points in shift-major order along it, so
    ``_genz_probs`` reads each coordinate contiguously.  ``stop`` is a power
    of two.  An unscrambled Sobol set of 2n points begins with the set of n
    points, so the points n to 2n - 1 are exactly what a doubled round adds.
    """
    n_shifts, dim = shifts.shape
    base = _sobol_points(dim, stop)[start:].T
    return ((base[:, None, :] + shifts.T[:, :, None]) % 1.0).reshape(
        dim, n_shifts * (stop - start)
    )


def _first_round(dim: int):
    """Shifts drawn by ``default_rng(0x5EED)`` and their first-round points."""
    if dim not in _FIRST_ROUND_SETS:
        shifts = np.random.default_rng(0x5EED).random((_N_SHIFTS, dim))
        points = _shifted_points(0, _FIRST_ROUND, shifts)
        shifts.flags.writeable = False
        points.flags.writeable = False
        _FIRST_ROUND_SETS[dim] = (shifts, points)
    return _FIRST_ROUND_SETS[dim]


def _genz_probs(lower_chol, b, u01) -> np.ndarray:
    """Separation-of-variables sample probabilities of P(X < b), X ~ N(0, L L').

    ``u01`` holds one row per coordinate of the points, as ``_shifted_points``
    builds it.  Each point is scored on its own, so a point set scored in
    pieces gives the bits of scoring it whole.  The steps write into buffers
    made once per call.  ``ys`` stays point-major: the mat-vec
    ``ys[:, :i] @ L[i, :i]`` on the transposed layout is faster but changes
    the last bits.
    """
    dm1, n = u01.shape
    e = np.full(n, ndtr(b[0] / lower_chol[0, 0]))
    prob = e.copy()
    ys = np.empty((n, dm1))
    q = np.empty(n)
    mu = np.empty(n)
    for i in range(1, dm1 + 1):
        # u < 1 and e <= 1 give q < 1, so q needs only its lower clip
        np.multiply(u01[i - 1], e, out=q)
        np.maximum(q, _PROB_FLOOR, out=q)
        ndtri(q, out=ys[:, i - 1])
        np.matmul(ys[:, :i], lower_chol[i, :i], out=mu)
        np.subtract(b[i], mu, out=mu)
        np.divide(mu, lower_chol[i, i], out=mu)
        ndtr(mu, out=e)
        prob *= e
    return prob


def check_cdf_tol(tol: float):
    """The rule on ``mvn_cdf_below``'s error tolerance: it must be positive."""
    if not tol > 0:
        raise ParameterError(f"the orthant-probability tolerance must be positive, got {tol}")


def _genz_order(bc, cov):
    """The Genz variable order, by increasing marginal probability of
    X_i < bc_i for X ~ N(0, cov), and the Cholesky factor of ``cov`` in it."""
    order = np.argsort(ndtr(bc / np.sqrt(np.diag(cov))))
    return order, chol_psd(cov[order[:, None], order])


def mvn_cdf_below(upper, mean, cov, tol: float = 1e-4):
    """P(X_1 < b_1, ..., X_d < b_d) with an error estimate.

    Randomized QMC (Genz separation of variables over shifted Sobol points),
    with variables reordered by increasing marginal truncation probability.
    Dimension 1 is computed exactly.  Returns (probability, error_estimate);
    the estimate may exceed tol if the sample cap is hit.  Raises
    ``CapacityError`` above dimension 100.

    The result is a deterministic function of the inputs, which the MCMC
    cache audit relies on: the shifts come from ``default_rng(0x5EED)``, so
    the first round's point set depends on the dimension only and is built
    once per dimension.  A round that doubles the points scores only the
    points it adds and keeps the earlier rounds' scores, which gives the bits
    of scoring the doubled set whole.
    """
    b = np.atleast_1d(np.asarray(upper, dtype=float))
    d = b.size
    if d == 0:
        return 1.0, 0.0
    if d > _DIM_CAP:
        raise CapacityError(f"dimension {d} exceeds the orthant-probability cap {_DIM_CAP}")
    check_cdf_tol(tol)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    bc = b - np.asarray(mean, dtype=float)
    if d == 1:
        sd = np.sqrt(cov[0, 0])
        return float(ndtr(bc[0] / sd)), 0.0

    order, chol = _genz_order(bc, cov)
    bo = bc[order]
    shifts, u = _first_round(d - 1)

    # one row of point scores per shift, in Sobol order; the estimate and its
    # error are ``ests.mean()`` and ``3 ests.std(ddof=1) / sqrt(shifts)`` in
    # numpy's own reductions, without their per-call overhead
    probs = _genz_probs(chol, bo, u).reshape(_N_SHIFTS, _FIRST_ROUND)
    while True:
        n = probs.shape[1]
        ests = np.add.reduce(probs, axis=1) / n
        est = np.add.reduce(ests) / _N_SHIFTS
        dev = ests - est
        err = float(3.0 * np.sqrt(np.add.reduce(dev * dev) / (_N_SHIFTS - 1))
                    / np.sqrt(_N_SHIFTS))
        if err <= tol or n >= _MAX_POINTS:
            break
        added = _genz_probs(chol, bo, _shifted_points(n, 2 * n, shifts))
        probs = np.concatenate([probs, added.reshape(_N_SHIFTS, n)], axis=1)
    return min(max(float(est), 0.0), 1.0), err


def _ppf_below(u, b):
    """``scipy.stats.truncnorm.ppf(u, -inf, b)`` in closed form, bit for bit,
    elementwise.

    The draw x solves Phi(x) = u Phi(b) in log space:
    x = ndtri_exp(log u + log Phi(b)), with log Phi(b) taken as ``log_ndtr(b)``
    for b <= 0 and as ``log1p(-ndtr(-b))`` for b > 0, the two branches scipy
    uses.  ``scipy.special.log1p`` is the one scipy calls; numpy's differs in
    the last bit.  Deep lower tails stay finite.
    """
    # np.where evaluates both branches; |b| keeps the unused one finite
    log_mass = np.where(b <= 0, log_ndtr(b), log1p(-ndtr(-np.abs(b))))
    return ndtri_exp(np.log(u) + log_mass)


# ``sample_truncated_mvn``: Newton steps of the tilt solve and the gradient
# size that ends it, relative to the largest unknown (at least 1); proposals
# in the first batch, and the largest batch (a batch that accepts none
# doubles the next).
_TILT_STEPS = 50
_TILT_TOL = 1e-10
_FIRST_BATCH = 8
_MAX_BATCH = 1 << 14

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _tilt_gradient(y, strict, b):
    """Gradient of Botev's psi(x, mu) in y = (x_1..x_{d-1}, mu_1..mu_{d-1}),
    with the tilted bounds t and r = phi(t) / Phi(t) that its Jacobian reads.

    psi(x, mu) = sum_k log Phi(t_k) + mu_k^2 / 2 - x_k mu_k, with tilted bounds
    t = b - mu - strict x and x_d = mu_d = 0; its gradient is
    (-mu - strict' r, mu - x - r), each cut to its first d - 1 entries.
    """
    d = b.size
    x, mu = np.zeros(d), np.zeros(d)
    x[:-1], mu[:-1] = y[: d - 1], y[d - 1 :]
    t = b - mu - strict @ x
    r = np.exp(-0.5 * t * t - log_ndtr(t) - _LOG_SQRT_2PI)
    return np.concatenate([(-mu - r @ strict)[:-1], (mu - x - r)[:-1]]), t, r


def _tilt_jacobian(strict, t, r):
    """Jacobian of ``_tilt_gradient``: [[S' Q S, M'], [M, I + Q]], with
    S = ``strict``, Q = diag(q) for q = -r (r + t), the derivative of r in t,
    and M = Q S - I, each block cut to its first d - 1 rows and columns."""
    n = t.size - 1
    q = -r * (r + t)
    qs = q[:, None] * strict
    jac = np.zeros((2 * n, 2 * n))
    jac[:n, :n] = strict[:, :n].T @ qs[:, :n]
    jac[n:, :n] = qs[:n, :n] - np.eye(n)
    jac[:n, n:] = jac[n:, :n].T
    jac[n:, n:][np.diag_indices(n)] = 1.0 + q[:n]
    return jac


def minimax_tilt(strict, b):
    """Botev's minimax tilt of P(Z_k < b_k - (strict Z)_k for all k), Z ~ N(0, I),
    the scaled upper-only orthant of ``sample_truncated_mvn``.

    ``strict`` is the unit-diagonal Cholesky factor with its diagonal zeroed.
    Returns (mu, psi_star): the tilt (mu_d = 0) and a bound psi_star on
    psi(z; mu) over all z, so exp(psi_star) >= P.  psi is concave in x, so
    any root of the gradient (``_tilt_gradient``) gives psi_star = psi(x*, mu*)
    = max_x psi(x, mu*).  The root is found by damped Newton from zero
    (``_damped_newton_step``).  A solve that does not end within
    ``_TILT_STEPS`` steps, or whose step fails, falls back to no tilt, mu = 0,
    whose psi is a sum of log probabilities bounded by its first term
    log Phi(b_1).  Either is exact; no tilt accepts P / Phi(b_1) of its
    proposals.
    """
    d = b.size
    y = np.zeros(2 * (d - 1))
    grad, t, r = _tilt_gradient(y, strict, b)
    steps = 0
    while np.max(np.abs(grad), initial=0.0) > _TILT_TOL * np.max(np.abs(y), initial=1.0):
        steps += 1
        with np.errstate(over="ignore", invalid="ignore"):  # a far trial step is halved
            trial = _damped_newton_step(y, grad, t, r, strict, b) if steps <= _TILT_STEPS else None
        if trial is None:
            return np.zeros(d), float(log_ndtr(b[0]))
        y, (grad, t, r) = trial
    x, mu = np.append(y[: d - 1], 0.0), np.append(y[d - 1 :], 0.0)
    return mu, float(np.sum(log_ndtr(t) + mu * (0.5 * mu - x)))


def _damped_newton_step(y, grad, t, r, strict, b):
    """One Newton step from y: (the new point, ``_tilt_gradient`` there).

    The full step is halved until the new point lowers the gradient's norm
    or passes the natural monotonicity test (Deuflhard): the correction the
    old Jacobian gives at the new point is shorter than the full step.  The
    second test lets a step through whose unknowns differ in scale by orders
    of magnitude, such as a large tilt beside a bound near zero.  None if
    the Jacobian is singular or no step of at least 1e-9 of the full one
    passes."""
    jac = _tilt_jacobian(strict, t, r)
    try:
        step = np.linalg.solve(jac, -grad)
    except np.linalg.LinAlgError:
        return None
    scale = 1.0
    while scale >= 1e-9:
        trial = y + scale * step
        terms = _tilt_gradient(trial, strict, b)
        g_trial = terms[0]
        if g_trial @ g_trial < grad @ grad:
            return trial, terms
        correction = np.linalg.solve(jac, g_trial)
        if correction @ correction < step @ step:
            return trial, terms
        scale *= 0.5
    return None


def _tilted_proposals(strict, b, mu, u):
    """Proposals of the tilted sequential draw on the uniforms u, shape
    (n, d): (z, shift, psi), with shift = strict z row by row and psi(z; mu).

    Coordinate k is z_k = mu_k + ``_ppf_below``(u_k, t_k), with the tilted
    bound t_k = b_k - mu_k - shift_k: the normal N(mu_k, 1) truncated to the
    region given the coordinates before it.  shift_k = sum_{j<k} strict_kj z_j
    is accumulated one coordinate j at a time, in increasing j.
    """
    n, d = u.shape
    z = np.empty((n, d))
    shift = np.zeros((n, d))
    psi = np.zeros(n)
    for k in range(d):
        t = b[k] - mu[k] - shift[:, k]
        z[:, k] = mu[k] + _ppf_below(u[:, k], t)
        psi += log_ndtr(t) + mu[k] * (0.5 * mu[k] - z[:, k])
        shift[:, k + 1 :] += z[:, k, None] * strict[k + 1 :, k]
    return z, shift, psi


def sample_truncated_mvn(mean, cov, upper: float, rng) -> np.ndarray:
    """Exact draw of X ~ N(mean, cov) conditioned on every coordinate < upper.

    Botev's minimax-tilted accept-reject sampler (2017, JRSS-B 79:125) on
    the upper-only orthant.  The coordinates are taken in ``mvn_cdf_below``'s
    order, with X = mean + L Z for the reordered Cholesky factor L, and Z is
    scaled so that L has a unit diagonal.  ``minimax_tilt`` gives the tilt mu
    and the bound psi_star; a proposal from ``_tilted_proposals`` is accepted
    when E > psi_star - psi(Z), E ~ Exp(1), which makes accepted proposals
    iid draws of the truncated law.  The first accepted proposal of a batch
    is returned.

    The rng is read batch by batch: n x d uniforms (``rng.random((n, d))``,
    one row per proposal), then n exponentials, with n = 8, 16, 32, ... until
    a batch accepts, so the number of values read varies.  Raises
    ``DegenerateRegionError`` when exp(psi_star), which bounds the region's
    probability from above, is below 1e-300, and ``NumericError`` when no
    batch up to ``_MAX_BATCH`` proposals accepts.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    d = mean.size
    if d == 0:
        return np.zeros(0)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    bc = upper - mean
    order, chol = _genz_order(bc, cov)
    diag = np.diag(chol)
    strict = np.tril(chol / diag[:, None], -1)
    b = bc[order] / diag
    mu, psi_star = minimax_tilt(strict, b)
    if psi_star < np.log(_PROB_FLOOR):
        raise DegenerateRegionError(
            f"truncation region below {upper} has vanishing probability "
            f"(at most exp({psi_star:.4g}))"
        )
    n = _FIRST_BATCH
    while n <= _MAX_BATCH:
        u = rng.random((n, d))
        e = rng.standard_exponential(n)
        z, shift, psi = _tilted_proposals(strict, b, mu, u)
        hit = np.flatnonzero(e > psi_star - psi)
        if hit.size:
            x = np.empty(d)
            x[order] = mean[order] + diag * (z[hit[0]] + shift[hit[0]])  # L z
            return x
        n *= 2
    raise NumericError(
        f"truncated draw below {upper} accepted none of {2 * _MAX_BATCH - _FIRST_BATCH} "
        f"proposals (region probability at most exp({psi_star:.4g}))"
    )


def _cross_cov(a, b, spec: MaternSpec) -> np.ndarray:
    """Matern correlations between the rows of two point sets."""
    return matern(cdist(a, b), spec)


def _fold_parts(n: int):
    """(sign, rows, c) of the even (+1) and odd (-1) mirror vectors of an axis
    of n nodes: vector i of a part is c_i (e_i + sign e_{n-1-i}), and it is row
    ``rows.start + i`` of ``_fold_basis(n)``.  c_i = 1/sqrt(2), or 1/2 on the
    middle node of an odd axis, whose even vector is then e_i."""
    n_even = (n + 1) // 2
    c_even = np.full(n_even, np.sqrt(0.5))
    if n % 2:
        c_even[-1] = 0.5
    return ((1.0, slice(0, n_even), c_even),
            (-1.0, slice(n_even, n), np.full(n // 2, np.sqrt(0.5))))


def _fold_basis(n: int) -> np.ndarray:
    """The orthogonal n x n matrix Q whose rows are an axis's mirror vectors,
    the even ones first (``_fold_parts``)."""
    q = np.zeros((n, n))
    for sign, rows, c in _fold_parts(n):
        i = np.arange(c.size)
        q[rows.start + i, i] += c
        q[rows.start + i, n - 1 - i] += sign * c
    return q


def _fold_lags(lags: np.ndarray, sign: float, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fold the lag axis of ``lags`` with one part of an axis's mirror basis.

    ``lags`` has shape (a, n, b), with the covariance at lags 0 to n - 1
    along the n-node axis in the middle; ``sign`` and ``c`` are a part of
    ``_fold_parts(n)``, of k vectors.  Sets out[i, :, l, :], shape (k, a, k,
    b), to 2 c_i c_l (lags[:, |i - l|, :] + sign lags[:, |i + l - (n - 1)|, :]).
    Both terms are strided views of the lags mirrored about lag 0, so no
    array of out's size is made beside it.
    """
    n, k = lags.shape[1], c.size
    mirrored = np.concatenate([lags[:, :0:-1], lags], axis=1)  # lag |j - (n - 1)|
    windows = sliding_window_view(mirrored, k, axis=1)  # [a, j, b, l]: mirrored[a, j + l, b]
    near = windows[:, n - k : n][:, ::-1].transpose(1, 0, 3, 2)
    far = windows[:, :k].transpose(1, 0, 3, 2)
    (np.add if sign > 0 else np.subtract)(near, far, out=out)
    out *= (2.0 * c[:, None] * c[None, :])[:, None, :, None]
    return out


def _lag_table(nx: int, ny: int, spacing: float, spec: MaternSpec) -> np.ndarray:
    """T[dx, dy] = matern(spacing hypot(dx, dy)), dx < nx and dy < ny."""
    return matern(spacing * np.hypot(*np.ogrid[:nx, :ny]), spec)


def _fold_blocks(nx: int, ny: int, spacing: float, spec: MaternSpec):
    """The Matern covariance over the ``nx`` x ``ny`` lattice in the mirror
    basis Q = kron(Q_x, Q_y) of ``_fold_basis``, block by block.

    The covariance does not change when either axis is mirrored, so
    Q C Q' is block diagonal: one block per pair of (x, y) parts, (even,
    even), (even, odd), (odd, even), (odd, odd), each on about a quarter of
    the nodes.  Each is built from the lag table (``_lag_table``), folded
    along y and then along x into the block's own buffer (``_fold_lags``),
    so the block is the only large array.  Yields (x rows, y rows, block) for each non-empty block; the
    block's rows are the folded coefficients ``x rows`` x ``y rows``, x major.
    Every block is exactly symmetric.
    """
    table = _lag_table(nx, ny, spacing, spec)
    y_folds = []
    for sign, rows, c in _fold_parts(ny):
        folded = np.empty((c.size, nx, c.size, 1))
        y_folds.append((rows, _fold_lags(table[:, :, None], sign, c, folded)[..., 0]))
    for sign, x_rows, c in _fold_parts(nx):
        for y_rows, t_y in y_folds:  # t_y[p, dx, q]
            size = c.size * t_y.shape[0]
            if size == 0:
                continue
            block = np.empty((size, size))
            _fold_lags(t_y, sign, c, block.reshape(c.size, t_y.shape[0], c.size, -1))
            yield x_rows, y_rows, block


def _folded_sizes(nx: int, ny: int) -> list[int]:
    """The sizes of the four folded blocks of an nx x ny lattice (some may
    be 0), in ``_fold_blocks`` order."""
    return [cx.size * cy.size for *_, cx in _fold_parts(nx) for *_, cy in _fold_parts(ny)]


def _check_budget(n: int, sizes) -> None:
    """Raise ``CapacityError`` when Cholesky factors of these ``sizes``, for
    ``n`` simulation points, hold more than ``CHOLESKY_BUDGET``^2 entries."""
    entries = sum(b * b for b in sizes)
    if entries > CHOLESKY_BUDGET ** 2:
        raise CapacityError(
            f"{n} simulation points need Cholesky factors of {entries} entries, "
            f"beyond the budget {CHOLESKY_BUDGET}^2; coarsen the grid"
        )


@dataclass(frozen=True)
class LocalDraw:
    """Points after the nodes, drawn together from a source vector s.

    ``rows`` are the points' offsets past the nodes, ``nodes`` the entries U
    of s they are kriged from, ``weights`` = Cov(s_U)^-1 Cov(s_U, rows) and
    ``chol`` the factor of the kriging error covariance: the points are
    weights' s_U + chol z (Vecchia 1988, *JRSS-B* 50:297).  s is a
    ``LatticeKernel``'s torus draw, U the union of the points' neighbourhoods
    (flat torus indices, x major), or a ``FieldKernel``'s z_g, U every node.
    """

    rows: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    chol: np.ndarray


@dataclass(frozen=True)
class FieldKernel:
    """What an unconditional Gaussian field draw needs from the points and
    the Matern spec, as exact Cholesky factors.

    Built by ``field_kernel``; ``draw_field`` turns it into one field per rng.
    The points are the nodes of an nx x ny lattice, raveled x major, then
    the rest; over scattered points there are no nodes.  A draw Y takes one
    standard normal per point, z_g for the nodes first:

    - the nodes are Q' blockdiag(L_i) z_g, where Q = kron(``axes``), the
      nx x nx and ny x ny mirror bases (``_fold_basis``); each of
      ``blocks`` holds the (x rows, y rows) of its folded coefficients and
      the lower Cholesky factor L_i of its block of Q C Q' (``_fold_blocks``);
    - the rest are ``local``'s one ``LocalDraw`` from z_g, over every node.
      Its weights blockdiag(L_i)^-1 Q C_gr give the kriging estimate of the
      rest from the nodes; its factor is that of C_rr - weights' weights.
      Over scattered points it has no node and its factor is one dense
      factor of the whole covariance; with no rest ``local`` is empty.

    Factors are Fortran-ordered, each built in its block's own buffer.
    Conditioning values enter afterwards, through a ``Kriging`` step.
    """

    axes: tuple[np.ndarray, np.ndarray]
    blocks: tuple[tuple[slice, slice, np.ndarray], ...]
    local: tuple[LocalDraw, ...]


def field_kernel(points, spec: MaternSpec, lattice=None) -> FieldKernel:
    """The factors of field draws over ``points``.

    ``lattice`` is (nx, ny, spacing) of the regular lattice that the leading
    nx * ny rows of ``points`` form, x index major, as ``SimGrid.points``
    orders them; None means scattered points.  Raises ``CapacityError``,
    before any covariance is built, when the factors' squared sizes sum to
    more than ``CHOLESKY_BUDGET``^2 (``_check_budget``).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    nx, ny, spacing = (0, 0, 0.0) if lattice is None else lattice
    n_grid = nx * ny
    # the factors: the lattice's folded blocks and the rest
    _check_budget(n, _folded_sizes(nx, ny) + [n - n_grid])
    blocks, axes = (), (np.empty((0, 0)), np.empty((0, 0)))
    if n_grid:
        blocks = tuple((xs, ys, _chol_in_place(block))
                       for xs, ys, block in _fold_blocks(nx, ny, spacing, spec))
        axes = (_fold_basis(nx), _fold_basis(ny))
    rest = pts[n_grid:]
    cross = np.empty((n_grid, len(rest)))
    local = ()
    if len(rest):
        if n_grid:
            c_gr = _cross_cov(pts[:n_grid], rest, spec)
            folded = axes[1] @ (axes[0] @ c_gr.reshape(nx, -1)).reshape(nx, ny, -1)
            start = 0
            for xs, ys, factor in blocks:
                stop = start + factor.shape[0]
                cross[start:stop] = solve_triangular(
                    factor, folded[xs, ys].reshape(stop - start, -1), lower=True
                )
                start = stop
        cov = cov_matrix(rest, spec)
        if n_grid:
            cov -= cross.T @ cross
        local = (LocalDraw(np.arange(len(rest)), np.arange(n_grid), cross,
                           _chol_in_place(cov)),)
    return FieldKernel(axes, blocks, local)


@dataclass(frozen=True)
class Kriging:
    """Conditioning by kriging (Chiles & Delfiner, *Geostatistics*, 7.3):
    an unconditional draw Y of ``kernel`` becomes a draw given the values w
    at the ``cond`` rows as X = Y + ``weights`` (w - Y_cond), with the
    ``cond`` rows then set to w exactly.

    Built by ``kriging``.  ``bh_cov`` is the covariance C_cc of the ``cond``
    rows and ``weights`` = C_.c C_cc^-1 over every point, so X has the
    conditional law whatever kind of kernel drew Y, to within Y's own error.
    """

    kernel: FieldKernel | LatticeKernel
    cond: np.ndarray
    bh_cov: np.ndarray
    weights: np.ndarray

    def draw(self, rng, values) -> np.ndarray:
        """X given the values w: a ``draw_field`` of the kernel, kriged.
        With every row conditioned X is w in the ``cond`` rows, and nothing
        is drawn."""
        w = np.asarray(values, dtype=float)
        if self.cond.size == len(self.weights):
            out = np.empty(self.cond.size)
            out[self.cond] = w
            return out
        out = draw_field(self.kernel, rng)
        out += self.weights @ (w - out[self.cond])
        out[self.cond] = w
        return out


def kriging(points, spec: MaternSpec, cond, kernel) -> Kriging:
    """The ``Kriging`` step of ``kernel``'s draws over ``points`` given
    values at the rows ``cond``, in the order the values will come.

    Raises ``CapacityError``, before the borehole block is built, when it
    and ``kernel``'s factors, its ``LocalDraw`` factors and a folded
    kernel's blocks, square to more than ``CHOLESKY_BUDGET``^2 in all
    (``_check_budget``); a lattice kernel's torus has its own bound
    (``lattice_kernel``).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cond = np.asarray(cond, dtype=int)
    sizes = [cond.size] + [d.chol.shape[0] for d in kernel.local]
    if isinstance(kernel, FieldKernel):
        sizes += [chol.shape[0] for *_, chol in kernel.blocks]
    _check_budget(len(pts), sizes)
    bh_cov = cov_matrix(pts[cond], spec)
    weights = cho_solve((chol_psd(bh_cov), True), _cross_cov(pts[cond], pts, spec)).T
    return Kriging(kernel, cond, bh_cov, weights)


@dataclass(frozen=True)
class LatticeKernel:
    """Circulant embedding of a Matern field on an ``nx`` x ``ny`` lattice,
    and optionally points appended to it.

    Built by ``lattice_kernel``.  ``shape`` is the (mx, my) torus the lattice
    is embedded in: even on every axis of more than one node, 1 on an axis
    of one node.  ``sqrt_eig`` holds the square roots of the clipped
    eigenvalues of its covariance, as the ``rfft2`` half-spectrum, shape
    (mx, my // 2 + 1), that ``draw_field`` filters by.  ``local`` draws the
    points after the nodes from their neighbourhoods (``local_draws``); a
    kernel from ``lattice_kernel`` has none.
    """

    nx: int
    ny: int
    shape: tuple[int, int]
    sqrt_eig: np.ndarray
    local: tuple[LocalDraw, ...] = ()


def _even_fast_len(m: int) -> int:
    """The smallest even 5-smooth length >= m."""
    m = fft.next_fast_len(m, real=True)
    while m % 2:
        m = fft.next_fast_len(m + 1, real=True)
    return m


@functools.cache
def _quarter_weights(m: int) -> np.ndarray:
    """How many eigenvalues of an m-point torus axis each of its m // 2 + 1
    quarter indices stands for: 1 at 0 and at m/2, 2 elsewhere.  Read-only,
    one copy per m."""
    w = np.full(m // 2 + 1, 2.0)
    w[0] = 1.0
    if m % 2 == 0:
        w[-1] = 1.0
    w.flags.writeable = False
    return w


def _quarter_spectrum(lags: np.ndarray, shape) -> tuple[np.ndarray, float]:
    """The covariance eigenvalues of the (mx, my) torus at the quarter
    indices (0..mx/2, 0..my/2), and their clipped negative mass: summed over
    the whole spectrum, each quarter index by its multiplicity, and divided
    by mx my.

    ``lags`` holds the covariance at node lags (0..mx/2, 0..my/2) or more.
    The torus covariance is even in both axes, so its spectrum is the DCT-I
    of that quarter table along every axis of more than one point.
    """
    mx, my = shape
    quarter = lags[: mx // 2 + 1, : my // 2 + 1]
    # all axes as dctn's default, its cheapest call; DCT-I needs 2 points
    axes = None if min(shape) > 1 else [a for a, m in enumerate(shape) if m > 1]
    eig = fft.dctn(quarter, type=1, axes=axes)
    negative = _quarter_weights(mx) @ np.minimum(eig, 0.0) @ _quarter_weights(my)
    return eig, -float(negative) / (mx * my)


def _tori_between(start, low: int, high: int) -> list[tuple[int, int]]:
    """The distinct tori at scales in (``low``, ``high``] of ``start``, in
    increasing order: at scale t each axis of more than one node has the
    smallest even 5-smooth length >= t times its start, and an axis of one
    node stays at 1.  The last is ``high`` times ``start``."""
    tori = set()
    for b in start:
        if b == 1:
            continue
        m = _even_fast_len(low * b + 1)
        while m <= high * b:  # scale m / b
            tori.add(tuple(c if c == 1 else _even_fast_len(-(-m * c // b)) for c in start))
            m = _even_fast_len(m + 1)
    return sorted(tori)


def lattice_kernel(nx: int, ny: int, spacing: float, spec: MaternSpec):
    """Circulant embedding of the field over a regular ``nx`` x ``ny`` grid
    on the smallest torus found that meets the error contract, or None when
    no torus within the size rule meets it.  The kernel draws the grid's
    nodes; ``local_draws`` extends it to points appended to the grid, and a
    ``Kriging`` step conditions its draws, as it does the folded kernel's.

    The contract: a torus of M = mx*my points is accepted iff its clipped
    negative eigenvalues, summed over the full spectrum and divided by M,
    are at most ``_JITTER_MAX``.  That sum bounds the error of every entry
    of the covariance the draws have, the same ceiling the dense factor's
    jitter has.  The size rule: a torus is tried only while
    M log2 M <= N^2, N = nx*ny (one FFT draw then costs no more than one
    dense mat-vec), and M <= ``CHOLESKY_BUDGET``^2.

    An axis of one node has a torus of one node.  Any other starts at the
    smallest even 5-smooth length >= 2(n - 1), which is
    ``next_fast_len(2(n - 1))`` unless that is odd, and the torus doubles
    until it passes or leaves the size rule.  A pass after a failure
    brackets the smallest passing torus: the tori between the two
    (``_tori_between``) are bisected, on the premise that a larger torus
    passes where a smaller one does, and the smallest that passed is kept.
    Each trial's spectrum is the DCT-I of its quarter lag table
    (``_quarter_spectrum``), and the table of the passing doubling holds
    those of every torus below it.
    """
    n = nx * ny
    start = tuple(1 if k == 1 else _even_fast_len(2 * (k - 1)) for k in (nx, ny))
    failed, scale = 0, 1
    while True:
        shape = tuple(1 if b == 1 else scale * b for b in start)
        m = shape[0] * shape[1]
        if m * np.log2(m) > float(n) ** 2 or m > CHOLESKY_BUDGET ** 2:
            return None
        lags = _lag_table(shape[0] // 2 + 1, shape[1] // 2 + 1, spacing, spec)
        eig, negative = _quarter_spectrum(lags, shape)
        if negative <= _JITTER_MAX:
            break
        failed, scale = scale, 2 * scale
    if failed:
        tori = _tori_between(start, failed, scale)
        low, high = -1, len(tori) - 1  # tori[high] == shape passed
        while high - low > 1:
            mid = (low + high) // 2
            trial, negative = _quarter_spectrum(lags, tori[mid])
            if negative <= _JITTER_MAX:
                high, shape, eig = mid, tori[mid], trial
            else:
                low = mid
    root = np.sqrt(np.maximum(eig, 0.0, out=eig), out=eig)
    # rows mx/2 + 1 .. mx - 1 of the half-spectrum mirror rows mx/2 - 1 .. 1
    return LatticeKernel(nx, ny, shape,
                         np.concatenate([root, root[shape[0] // 2 - 1 : 0 : -1]]))


# Appended points on a lattice (``local_draws``): a point's neighbourhood is
# the k x k torus nodes nearest it, k from _LOCAL_K_START in steps of
# _LOCAL_K_STEP; past _LOCAL_K_CAP the spec takes the folded kernel instead.
_LOCAL_K_START = 16
_LOCAL_K_STEP = 8
_LOCAL_K_CAP = 32


def _folded_flops(nx: int, ny: int) -> float:
    """Flops of the folded kernel's factors of an nx x ny lattice,
    sum b_i^3 / 3 over its four blocks."""
    return sum(b ** 3 for b in _folded_sizes(nx, ny)) / 3.0


def _fft_flops(shape) -> float:
    """Flops of one real FFT correlation over an (mx, my) torus, a forward
    and an inverse transform: 5 M log2 M for M points."""
    m = shape[0] * shape[1]
    return 5.0 * m * np.log2(max(m, 2))


def _window(kernel: LatticeKernel):
    """(low, size) per axis of the torus window around the lattice: the
    mx/2 + 1 by my/2 + 1 torus nodes whose lags from each other are at most
    half the torus, so that their covariance is the Matern one up to the
    torus's error.  The lattice sits in its middle; ``low`` is the window's
    first node in lattice coordinates (0 or below)."""
    size = np.array([m // 2 + 1 for m in kernel.shape])
    return -((size - (kernel.nx, kernel.ny)) // 2), size


def _neighbourhood(cell, k: int, low, size) -> np.ndarray:
    """Window-flat indices (x major) of the k x k window nodes nearest a
    point at lattice coordinates ``cell``: along each axis the k
    consecutive nodes (all of them on a shorter axis) centred on the cell
    that holds the point, shifted to lie inside the window."""
    starts = [int(np.clip(np.floor(c) - min(k, n) // 2 + 1, lo, lo + n - min(k, n)))
              for c, lo, n in zip(cell, low, size)]
    x, y = (np.arange(st - lo, st - lo + min(k, n)) for st, lo, n in zip(starts, low, size))
    return (x[:, None] * size[1] + y).ravel()


def local_draws(kernel: LatticeKernel, points, spacing: float, spec: MaternSpec):
    """``kernel`` extended to the points after its nx * ny nodes, or None
    where the folded kernel should draw the spec instead.

    ``points`` are the lattice nodes in ``SimGrid.points`` order, then one
    or more appended points.  Each appended point is kriged from the k x k
    torus nodes nearest it (``_neighbourhood``), plus independent noise with
    the kriging variance; points whose errors interact are drawn together,
    from the union U of their neighbourhoods, with the joint kriging error
    covariance (``LocalDraw``).  The nodes come from the window of the torus
    around the lattice where the torus covariance is the Matern one
    (``_window``), so a point just outside the lattice is surrounded by its
    neighbourhood too.

    The contract: every covariance of the draws is within ``_JITTER_MAX`` of
    the Matern covariance, between each appended point and every lattice
    node and between appended points, variances included.  It is measured
    on the draws' actual covariance: the nodes' is the torus lag table
    irfft2(sqrt_eig^2), so its own error counts, and one FFT correlation of
    a point's weight stencil with it gives the point's covariance with every
    node; the noise factor's jitter counts too.  A point (or group) that
    misses the contract with a node or within its group grows its k by
    ``_LOCAL_K_STEP``; two groups that miss it between them are merged.

    Returns None when a k would pass ``_LOCAL_K_CAP``, or when the local
    draws would cost more flops than the folded kernel's factors
    (``_folded_flops``).  A group of points is charged
    |U|^3 / 3 for its factor and one FFT correlation (``_fft_flops``) per
    point, a cost known before each round is built.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    nx, ny, (mx, my) = kernel.nx, kernel.ny, kernel.shape
    n_grid = nx * ny
    extra = pts[n_grid:]
    n = len(extra)
    folded = _folded_flops(nx, ny)
    fft_cost = _fft_flops(kernel.shape)
    low, size = _window(kernel)
    cells = (extra - pts[0]) / spacing
    table = _lag_table(*size, spacing, spec)
    lattice = ((np.arange(nx) - low[0])[:, None] * size[1] + np.arange(ny) - low[1]).ravel()
    c_node = _cross_cov(extra, pts[:n_grid], spec)
    c_pts = _cross_cov(extra, extra, spec)
    spectrum = kernel.sqrt_eig ** 2
    k = np.full(n, _LOCAL_K_START)
    group = np.arange(n)  # each point's group, labelled by its first member
    chols = {}

    def factor(ux, uy):
        """The factor of C_UU, gathered from the Matern lag ``table``; it
        depends on the nodes' offsets only, so one serves every translate."""
        key = ((ux - ux.min()).tobytes(), (uy - uy.min()).tobytes())
        if key not in chols:
            chols[key] = chol_psd(table[np.abs(ux[:, None] - ux), np.abs(uy[:, None] - uy)])
        return chols[key]

    def build(rows, flat):
        """The ``LocalDraw`` of ``rows`` from the window nodes ``flat``, and
        per row its draw's covariance with every window node."""
        ux, uy = np.divmod(flat, size[1]) + low[:, None]
        c_ur = matern(spacing * np.hypot(ux[:, None] - cells[rows, 0],
                                         uy[:, None] - cells[rows, 1]), spec)
        weights = cho_solve((factor(ux, uy), True), c_ur)
        err_cov = c_pts[np.ix_(rows, rows)] - c_ur.T @ weights
        chol = chol_psd(0.5 * (err_cov + err_cov.T))
        ux %= mx
        uy %= my
        stencil = np.zeros((rows.size, mx, my))
        stencil[:, ux, uy] = weights.T
        cov = fft.irfft2(spectrum * fft.rfft2(stencil), s=(mx, my))
        cov = cov[:, (low[0] + np.arange(size[0])) % mx][:, :, (low[1] + np.arange(size[1])) % my]
        return LocalDraw(rows, ux * my + uy, weights, chol), cov.reshape(rows.size, -1)

    built = {}
    while True:
        if k.max() > _LOCAL_K_CAP:
            return None
        members = [np.flatnonzero(group == g) for g in np.unique(group)]
        unions = [np.unique(np.concatenate([_neighbourhood(cells[i], k[i], low, size)
                                            for i in rows])) for rows in members]
        if sum(u.size ** 3 / 3.0 + rows.size * fft_cost
               for rows, u in zip(members, unions)) > folded:
            return None
        draws, cov = [], np.empty((n, size[0] * size[1]))  # Cov(point, window)
        for rows, flat in zip(members, unions):
            key = (tuple(rows), tuple(k[rows]))
            if key not in built:
                built[key] = build(rows, flat)
            draw, cov[rows] = built[key]
            draws.append((draw, flat))
        got = np.empty((n, n))  # the draws' covariance between appended points
        for draw, flat in draws:
            got[:, draw.rows] = cov[:, flat] @ draw.weights
            got[np.ix_(draw.rows, draw.rows)] += draw.chol @ draw.chol.T
        err = np.abs(got - c_pts)
        same = group[:, None] == group
        bad = ((np.max(np.abs(cov[:, lattice] - c_node), axis=1) > _JITTER_MAX)
               | (np.max(np.where(same, err, 0.0), axis=1) > _JITTER_MAX))
        if bad.any():
            k[np.isin(group, group[bad])] += _LOCAL_K_STEP
            continue
        pairs = np.argwhere(err > _JITTER_MAX)
        if not pairs.size:
            return replace(kernel, local=tuple(draw for draw, _ in draws))
        for i, j in pairs:
            low_label, high_label = sorted((group[i], group[j]))
            group[group == high_label] = low_label


def grid_kernel(points, spec: MaternSpec, lattice) -> FieldKernel | LatticeKernel:
    """The kernel of draws over a regular grid's nodes and the points
    appended to them (as ``field_kernel`` takes ``points`` and ``lattice``):
    ``lattice_kernel``'s torus, extended by ``local_draws`` when points are
    appended, or the folded ``field_kernel`` where either falls back.  When
    the appended points' first neighbourhood factors alone (min(k, nx)
    min(k, ny) nodes each at ``_LOCAL_K_START``) cost more flops than the
    folded factors, no torus is built.
    """
    nx, ny, spacing = lattice
    n = len(points) - nx * ny
    first = (min(_LOCAL_K_START, nx) * min(_LOCAL_K_START, ny)) ** 3 / 3.0
    kernel = lattice_kernel(nx, ny, spacing, spec) if n * first <= _folded_flops(nx, ny) else None
    if kernel is not None and n:
        kernel = local_draws(kernel, points, spacing, spec)  # a torus that falls back is freed
    return field_kernel(points, spec, lattice=lattice) if kernel is None else kernel


def draw_field(kernel: FieldKernel | LatticeKernel, rng) -> np.ndarray:
    """One unconditional standardized field from a ``field_kernel`` or a
    ``lattice_kernel`` (extended by ``local_draws`` or not).

    A lattice draw filters standard normals on the torus by the square-root
    spectrum and keeps the grid's corner, raveled in ``SimGrid.points``
    order (x index major); a field kernel draw applies the folded factors
    to one standard normal per node, z_g (``FieldKernel``).  Every
    ``LocalDraw`` then reads its source, the torus draw or z_g, and takes one
    more standard normal per point, in row order (scattered: ``chol @ z``).
    Conditioning values enter afterwards, by a ``Kriging`` step.
    """
    if isinstance(kernel, LatticeKernel):
        z = rng.standard_normal(kernel.shape)
        torus = fft.irfft2(kernel.sqrt_eig * fft.rfft2(z), s=kernel.shape)
        nodes, source = torus[: kernel.nx, : kernel.ny].ravel(), torus.ravel()
    else:
        qx, qy = kernel.axes
        source = rng.standard_normal(len(qx) * len(qy))
        folded = np.empty((len(qx), len(qy)))
        start = 0
        for xs, ys, chol in kernel.blocks:
            stop = start + chol.shape[0]
            folded[xs, ys] = (chol @ source[start:stop]).reshape(xs.stop - xs.start, -1)
            start = stop
        nodes = (qx.T @ folded @ qy).ravel()
    if not kernel.local:
        return nodes
    z = rng.standard_normal(sum(d.rows.size for d in kernel.local))
    out = np.concatenate([nodes, np.empty(z.size)])
    for d in kernel.local:
        out[nodes.size + d.rows] = d.weights.T @ source[d.nodes] + d.chol @ z[d.rows]
    return out


def sample_gaussian_field(points, spec: MaternSpec, rng) -> np.ndarray:
    """One unconditional standardized Gaussian field draw at ``points``.

    Builds a ``field_kernel`` and draws from it once with ``draw_field``;
    callers drawing several fields of one spec keep the kernel instead.
    """
    return draw_field(field_kernel(points, spec), rng)
