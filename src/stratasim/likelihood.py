"""Layer parameters, thickness transform, per-layer log-likelihood, TCD.

Thickness of one layer is z = mu * (w - tau)^beta for a latent standardized
Gaussian w above the threshold tau = Phi^-1(1 - p), and exactly zero below.
``LayerParams`` holds (p, mu, beta, alpha) and their supports;
``thickness_from_latent`` and ``latent_from_thickness`` are the transform and
its inverse.
The per-layer likelihood combines a Gaussian density over the positive-site
latents, the transform Jacobian, and the orthant probability that the
zero-site latents sit below tau given the positive ones.  The complete-data
log-likelihood is the sum of the layer terms, ``ThicknessModel.all_terms``.

A layer term splits in two.  ``layer_kernel`` builds what depends only on
the Matern spec and the support (which sites are positive): the
``gaussnum.ConditionalKernel`` of the zero sites given the positive ones,
which holds the Cholesky factor of the positive block, the zero sites'
kriging weights and their conditional covariance.  Conditional simulation
draws the zero-site latents from this same law (``gaussnum.condition``).
``kernel_loglik`` evaluates the thicknesses against a kernel.  p, mu and
beta leave the kernel unchanged, so the sampler keeps kernels (see
``ThicknessModel``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import gaussnum
from .errors import NumericError, ParameterError
from .gaussnum import MaternSpec

BETA_SUPPORT = (0.25, 4.0)

# The sampled ``LayerParams`` fields, in the sampler's sweep order.  Chain
# files, config keys and proposal widths take their names from here.
PARAM_KINDS = ("p", "mu", "beta", "alpha")

_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class LayerParams:
    """Parameters governing one layer's thickness field.

    This is the one statement of each parameter's support: p in (0, 1),
    mu > 0, beta in ``BETA_SUPPORT``, and alpha > 0 and nu through
    ``MaternSpec``.  A value outside it raises ``ParameterError``, so a
    ``LayerParams`` is always valid for the transform functions below.
    """

    p: float
    mu: float
    beta: float
    alpha: float
    nu: float = 1.5

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ParameterError(f"p must lie in (0,1), got {self.p}")
        if not self.mu > 0:
            raise ParameterError(f"mu must be positive, got {self.mu}")
        if not BETA_SUPPORT[0] < self.beta < BETA_SUPPORT[1]:
            raise ParameterError(f"beta must lie in {BETA_SUPPORT}, got {self.beta}")
        MaternSpec(self.nu, self.alpha)  # validates alpha and nu

    @property
    def tau(self) -> float:
        return float(ndtri(1.0 - self.p))

    @property
    def matern_spec(self) -> MaternSpec:
        return MaternSpec(self.nu, self.alpha)


def thickness_from_latent(w, params: LayerParams) -> np.ndarray:
    """Thickness mu (w - tau)^beta where the latent w exceeds tau, else 0."""
    w = np.asarray(w, dtype=float)
    above = w > params.tau
    z = np.zeros_like(w)
    if np.any(above):
        z[above] = params.mu * (w[above] - params.tau) ** params.beta
    return z


def latent_from_thickness(z, params: LayerParams):
    """Latent w = (z / mu)^(1/beta) + tau of a thickness z >= 0."""
    return (np.asarray(z, dtype=float) / params.mu) ** (1.0 / params.beta) + params.tau


def jacobian_inv(z, params: LayerParams):
    """d/dz (z/mu)^(1/beta) = (1 / (mu beta)) (z/mu)^(1/beta - 1), z > 0."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ParameterError("jacobian is evaluated at positive thickness only")
    mu, beta = params.mu, params.beta
    return (z / mu) ** (1.0 / beta - 1.0) / (mu * beta)


def layer_kernel(pos_locs, zero_locs, spec: MaternSpec) -> gaussnum.ConditionalKernel:
    """The ``gaussnum.ConditionalKernel`` of one support: the zero sites'
    law given the positive sites; locations are (k, 2) arrays."""
    joint = gaussnum.cov_matrix(np.vstack([pos_locs, zero_locs]), spec)
    return gaussnum.conditional_kernel(joint, pos_locs.shape[0])


def kernel_loglik(
    kernel: gaussnum.ConditionalKernel, pos_z, params: LayerParams, cdf_tol: float
) -> float:
    """``layer_loglik`` of the positive thicknesses ``pos_z`` under ``kernel``.

    ``pos_z`` lists the positive sites in the kernel's order.  One whitening
    solve gives both the positive sites' log-density and the zero sites'
    kriged mean.
    """
    pos_z = np.atleast_1d(np.asarray(pos_z, dtype=float))
    white, mean = kernel.whiten(latent_from_thickness(pos_z, params))
    total = gaussnum.logpdf_whitened(white, kernel.logdet)
    total += float(np.sum(np.log(jacobian_inv(pos_z, params))))
    if mean.size:
        try:
            prob, _ = gaussnum.mvn_cdf_below(
                np.full(mean.size, params.tau), mean, kernel.cond_cov, tol=cdf_tol
            )
        except NumericError as exc:
            raise NumericError(f"orthant probability failed: {exc}") from exc
        total += float(np.log(max(prob, _LOG_FLOOR)))
    return float(total)


def layer_loglik(z_col, locations, params: LayerParams, cdf_tol: float = 1e-4) -> float:
    """Complete-data log-likelihood of one layer's thickness column.

    ``z_col`` holds the layer's thickness at each site of ``locations``, a
    (k, 2) array.  Positive sites contribute the Gaussian log-density of
    w = latent_from_thickness(z) plus log-Jacobian terms; zero sites contribute
    the log orthant probability below tau of their conditional (kriged)
    Gaussian law.  Orthant probabilities are floored at 1e-300 before log.
    This builds the layer's ``layer_kernel`` and evaluates it once; callers
    that evaluate one support many times keep the kernel instead.
    """
    z = np.asarray(z_col, dtype=float)
    locs = np.asarray(locations, dtype=float).reshape(-1, 2)
    mask = z > 0
    kernel = layer_kernel(locs[mask], locs[~mask], params.matern_spec)
    return kernel_loglik(kernel, z[mask], params, cdf_tol)


def _norm_pdf(x):
    """The standard normal density, in the operations of scipy's
    ``norm.pdf`` and to its bits, without importing ``scipy.stats``.  As
    there, x is an array: numpy squares it as x * x, where a float's
    ``x**2`` is ``pow``, which can differ in the last bit."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def thickness_moments(params: LayerParams):
    """Mean and variance of the positive part of the thickness (beta = 1 only).

    mean = mu (imr - tau), var = mu^2 [1 + imr (tau - imr)] with
    imr = phi(tau) / (1 - Phi(tau)) the inverse Mills ratio.  Non-unit beta
    would need hypergeometric functions and is unsupported.
    """
    if params.beta != 1.0:
        raise ParameterError(
            f"thickness moments are only available for beta = 1 (got beta = {params.beta})"
        )
    mu, tau = params.mu, params.tau
    imr = float(_norm_pdf(tau) / params.p)  # 1 - Phi(tau) = p
    mean = mu * (imr - tau)
    var = mu * mu * (1.0 + imr * (tau - imr))
    return float(mean), float(var)


def tcd(z, params: LayerParams):
    """Thickness cumulative distribution P(Z <= z | Z > 0).

    [Phi(tau + (z/mu)^(1/beta)) - Phi(tau)] / p, nondecreasing in z.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ParameterError("thickness must be non-negative")
    val = (ndtr(latent_from_thickness(z, params)) - ndtr(params.tau)) / params.p
    val = np.clip(val, 0.0, 1.0)
    return val if val.ndim else float(val)


def init_from_empirical(p0: float, mean_thickness: float):
    """Initial (tau0, mu0) from a presence proportion and mean thickness.

    tau0 = Phi^-1(1 - p0); mu0 inverts the beta = 1 positive-part mean,
    mu0 = T / (phi(tau0)/p0 - tau0).
    """
    if not 0.0 < p0 < 1.0:
        raise ParameterError(f"presence proportion must lie in (0,1), got {p0}")
    if not mean_thickness > 0:
        raise ParameterError(f"mean thickness must be positive, got {mean_thickness}")
    tau0 = float(ndtri(1.0 - p0))
    denom = float(_norm_pdf(tau0) / p0 - tau0)
    if denom <= 0:
        raise NumericError("inverse-Mills denominator is non-positive")
    return tau0, float(mean_thickness / denom)
