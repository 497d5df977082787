"""Rank-normalised split-chain bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat for assessing
convergence of MCMC", Bayesian Analysis 16:667: each chain is split in
half, the pooled draws are replaced by normal scores of their ranks, and the
autocorrelation sum is truncated by Geyer's initial positive sequence and
made monotone by Geyer's initial monotone sequence.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _split(chains: np.ndarray) -> np.ndarray:
    """Halve every chain; a middle draw of an odd-length chain is dropped."""
    half = chains.shape[1] // 2
    return np.concatenate([chains[:, :half], chains[:, -half:]], axis=0)


def _rank_normalise(chains: np.ndarray) -> np.ndarray:
    ranks = rankdata(chains, method="average").reshape(chains.shape)
    return ndtri((ranks - 0.375) / (chains.size + 0.25))


def _autocov(chains: np.ndarray) -> np.ndarray:
    """Biased autocovariance of every chain at every lag, by FFT."""
    n = chains.shape[1]
    centred = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n


def _geyer_ess(x: np.ndarray) -> float:
    """Effective sample size of (m, n) draws, n >= 4, not all equal."""
    m, n = x.shape
    acov = _autocov(x).mean(axis=0)
    within = acov[0] * n / (n - 1.0)
    var_plus = within * (n - 1.0) / n
    if m > 1:
        var_plus += np.var(x.mean(axis=1), ddof=1)
    rho = 1.0 - (within - acov) / var_plus
    rho[0] = 1.0

    # Initial positive sequence: sum pairs (rho_2k + rho_2k+1) while positive.
    pairs = []
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair < 0:
            break
        pairs.append(pair)
    # Initial monotone sequence: no pair may exceed the one before it.
    pairs = np.minimum.accumulate(np.array(pairs))
    tau = -1.0 + 2.0 * float(np.sum(pairs))
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau


def bulk_ess(chains) -> float:
    """Bulk ESS of one scalar: rank-normalised, split-chain.

    ``chains`` is a 1-D array of draws from one chain, or (m, n) for m
    chains of n draws.
    """
    x = np.atleast_2d(np.asarray(chains, dtype=float))
    if x.shape[1] < 8 or np.ptp(x) == 0:
        return math.nan
    return _geyer_ess(_rank_normalise(_split(x)))
