"""Bulk ESS against AR(1) series, whose ESS is n (1 - rho) / (1 + rho)."""

import math

import numpy as np
import pytest
from scipy.signal import lfilter

from ess import bulk_ess


def ar1(rho, n, m, seed):
    """m stationary AR(1) chains of length n with unit marginal variance."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((m, n))
    e[:, 0] /= math.sqrt(1.0 - rho * rho)  # start in the stationary law
    return lfilter([math.sqrt(1.0 - rho * rho)], [1.0, -rho], e, axis=1)


# Over 20 seeds the estimate spreads by at most 4% (sd) at rho = 0.9 and
# m * n = 80 000, so 15% fails only on a real bias.
@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, -0.3])
def test_matches_ar1_closed_form(rho):
    m, n = 4, 20_000
    exact = m * n * (1.0 - rho) / (1.0 + rho)
    assert bulk_ess(ar1(rho, n, m, seed=7)) == pytest.approx(exact, rel=0.15)


def test_single_chain_accepts_1d_draws():
    x = ar1(0.5, 20_000, 1, seed=3)
    assert bulk_ess(x[0]) == bulk_ess(x)


def test_rank_normalised_so_monotone_transforms_do_not_matter():
    x = ar1(0.8, 4_000, 2, seed=5)
    assert bulk_ess(np.exp(3.0 * x)) == pytest.approx(bulk_ess(x), rel=1e-12)


def test_trend_within_a_chain_lowers_ess():
    x = ar1(0.0, 2_000, 1, seed=11)[0]
    assert bulk_ess(x + np.linspace(0.0, 4.0, x.size)) < 0.2 * bulk_ess(x)


def test_constant_or_short_draws_have_no_ess():
    assert math.isnan(bulk_ess(np.ones(100)))
    assert math.isnan(bulk_ess(np.arange(5.0)))
