"""Thickness transform, layer likelihood, moments, TCD, empirical init."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

import oracles
from stratasim.errors import ParameterError
from stratasim.gaussnum import ALLOWED_NU, MaternSpec, condition, cov_matrix
from stratasim.likelihood import (
    LayerParams,
    _norm_pdf,
    init_from_empirical,
    jacobian_inv,
    latent_from_thickness,
    layer_kernel,
    layer_loglik,
    tcd,
    thickness_from_latent,
    thickness_moments,
)
from stratasim.core import AugmentedConfiguration, BoreholeObservation, ParentSequence
from stratasim.mcmc import ThicknessModel


def _transform_params(mu, beta, p=0.5):
    """Layer parameters for the transform and moment tests; p = 0.5 makes tau
    exactly 0."""
    return LayerParams(p=p, mu=mu, beta=beta, alpha=1.0)


class TestTransform:
    def test_identity_jacobian(self):
        z = np.array([0.1, 1.0, 7.3])
        assert np.allclose(jacobian_inv(z, _transform_params(1.0, 1.0)), 1.0)

    def test_hand_value(self):
        # d/dz (z/2)^(1/2) at z=2 is 1/(2*sqrt(2*2)) = 0.25
        got = jacobian_inv(2.0, _transform_params(2.0, 2.0))
        assert got == pytest.approx(0.25, abs=1e-12)

    @given(
        st.floats(0.01, 50.0),
        st.floats(0.1, 20.0),
        st.floats(0.3, 3.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, z, mu, beta):
        params = _transform_params(mu, beta)
        w = latent_from_thickness(z, params)
        assert thickness_from_latent(w, params) == pytest.approx(z, rel=1e-12)

    @given(
        st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8),
        st.floats(0.01, 0.99),
        st.floats(0.1, 20.0),
        st.floats(0.3, 3.9),
    )
    @settings(max_examples=100, deadline=None)
    def test_inverse_and_tcd_keep_the_hand_written_bits(self, z, p, mu, beta):
        params = _transform_params(mu, beta, p)
        tau = params.tau

        def old_tcd(z):
            z = np.asarray(z, dtype=float)
            val = np.clip((ndtr(tau + (z / mu) ** (1.0 / beta)) - ndtr(tau)) / p, 0, 1)
            return val if val.ndim else float(val)

        # numpy's scalar and array powers may round differently, so each
        # input kind is compared with the old expression on that kind
        for zs in (np.array(z), np.asarray(z[0]), z[0]):
            w = latent_from_thickness(zs, params)
            assert np.array_equal(w, (np.asarray(zs) / mu) ** (1 / beta) + tau)
            assert np.array_equal(tcd(zs, params), old_tcd(zs))

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(100)
        for _ in range(1000):
            z = rng.uniform(0.05, 20.0)
            params = _transform_params(rng.uniform(0.2, 10.0), rng.uniform(0.3, 3.8))
            h = 1e-6 * z
            fd = (
                latent_from_thickness(z + h, params) - latent_from_thickness(z - h, params)
            ) / (2 * h)
            assert jacobian_inv(z, params) == pytest.approx(fd, rel=1e-6)

    def test_thickness_from_latent(self):
        params = LayerParams(p=0.3, mu=2.0, beta=1.5, alpha=1.0)
        tau = params.tau
        w = np.array([tau - 1.0, tau, tau + 0.25, tau + 2.0])
        z = thickness_from_latent(w, params)
        assert z.tolist()[:2] == [0.0, 0.0]
        assert np.array_equal(z[2:], 2.0 * (w[2:] - tau) ** 1.5)
        assert thickness_from_latent(np.full(3, tau), params).tolist() == [0.0] * 3

    def test_invalid_params(self):
        # LayerParams is the one check of each support the transforms rely on
        bad = [("p", 0.0), ("p", 1.0), ("p", -0.2), ("p", np.nan),
               ("mu", 0.0), ("mu", -1.0), ("mu", np.nan),
               ("beta", 0.25), ("beta", 4.0), ("beta", 5.0), ("beta", np.nan),
               ("alpha", 0.0), ("alpha", -1.0)]
        for field, value in bad:
            with pytest.raises(ParameterError):
                replace(_transform_params(1.0, 1.0), **{field: value})

    def test_jacobian_needs_positive_thickness(self):
        with pytest.raises(ParameterError):
            jacobian_inv(0.0, _transform_params(1.0, 1.0))


PARAMS = LayerParams(p=0.5, mu=1.0, beta=1.0, alpha=1.0)


class TestLayerLoglik:
    def test_single_positive_site(self):
        z = 0.7
        w = latent_from_thickness(z, PARAMS)
        want = norm.logpdf(w) + np.log(jacobian_inv(z, PARAMS))
        assert layer_loglik([z], [[0.0, 0.0]], PARAMS) == pytest.approx(want, abs=1e-12)

    def test_far_apart_independence_limit(self):
        z = 1.3
        w = latent_from_thickness(z, PARAMS)
        want = (
            norm.logpdf(w)
            + np.log(jacobian_inv(z, PARAMS))
            + np.log(1.0 - PARAMS.p)
        )
        got = layer_loglik([z, 0.0], [[0.0, 0.0], [1e7, 0.0]], PARAMS)
        assert got == pytest.approx(want, abs=1e-6)

    def test_two_independent_zeros(self):
        want = 2.0 * np.log(1.0 - PARAMS.p)
        assert layer_loglik([0.0, 0.0], [[0.0, 0.0], [1e7, 0.0]], PARAMS) == pytest.approx(want, abs=1e-4)

    def test_no_sites(self):
        assert layer_loglik([], np.empty((0, 2)), PARAMS) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        locs = rng.uniform(0, 10, (6, 2))
        z = np.array([0.5, 0.0, 1.2, 0.0, 2.0, 0.7])
        base = layer_loglik(z, locs, PARAMS, cdf_tol=1e-6)
        for _ in range(3):
            perm = rng.permutation(6)
            got = layer_loglik(z[perm], locs[perm], PARAMS, cdf_tol=1e-6)
            assert got == pytest.approx(base, abs=1e-6)

    def test_short_range_independent_site_sum(self):
        rng = np.random.default_rng(22)
        locs = rng.uniform(0, 10, (5, 2))
        z = np.array([0.5, 0.0, 1.2, 0.0, 2.0])
        d_min = min(
            np.linalg.norm(locs[i] - locs[k])
            for i in range(5) for k in range(i + 1, 5)
        )
        params = LayerParams(p=0.5, mu=1.0, beta=1.0, alpha=1e-6 * d_min)
        got = layer_loglik(z, locs, params, cdf_tol=1e-6)
        pos = z[z > 0]
        w = latent_from_thickness(pos, params)
        want = float(
            np.sum(norm.logpdf(w))
            + np.sum(np.log(jacobian_inv(pos, params)))
            + 2 * np.log(1 - params.p)
        )
        assert got == pytest.approx(want, abs=1e-4)


def _untied_model(locs, n_layers):
    """One group per layer over a single-facies parent; only locations matter."""
    parent = ParentSequence(("Blue",) * n_layers)
    boreholes = [
        BoreholeObservation(f"b{i}", x, y, 0.0, ()) for i, (x, y) in enumerate(locs)
    ]
    return ThicknessModel(boreholes, parent, tie_by_facies=False, cdf_tol=1e-4)


class TestCompleteLoglik:
    """The complete-data log-likelihood is the sum of ``all_terms``."""

    def test_single_layer_reduction(self):
        locs = [[0.0, 0.0], [3.0, 4.0]]
        configs = [
            AugmentedConfiguration("a", np.array([0.8])),
            AugmentedConfiguration("b", np.array([0.0])),
        ]
        model = _untied_model(locs, 1)
        total = float(np.sum(model.all_terms(configs, {"Blue.1": PARAMS})))
        want = layer_loglik([0.8, 0.0], locs, PARAMS)
        assert total == pytest.approx(want, abs=1e-12)

    def test_additivity_over_layers(self):
        locs = [[0.0, 0.0], [3.0, 4.0]]
        p2 = LayerParams(p=0.3, mu=2.0, beta=1.0, alpha=2.0)
        configs = [
            AugmentedConfiguration("a", np.array([0.8, 1.5])),
            AugmentedConfiguration("b", np.array([0.0, 0.4])),
        ]
        model = _untied_model(locs, 2)
        total = float(np.sum(model.all_terms(configs, {"Blue.1": PARAMS, "Blue.2": p2})))
        want = layer_loglik([0.8, 0.0], locs, PARAMS) + layer_loglik([1.5, 0.4], locs, p2)
        assert total == pytest.approx(want, abs=1e-12)

    def test_layer_permutation_symmetry(self):
        p2 = LayerParams(p=0.3, mu=2.0, beta=1.0, alpha=2.0)
        model = _untied_model([[0.0, 0.0]], 2)
        configs = [AugmentedConfiguration("a", np.array([0.8, 1.5]))]
        configs_swapped = [AugmentedConfiguration("a", np.array([1.5, 0.8]))]
        total = np.sum(model.all_terms(configs, {"Blue.1": PARAMS, "Blue.2": p2}))
        swapped = np.sum(
            model.all_terms(configs_swapped, {"Blue.1": p2, "Blue.2": PARAMS})
        )
        assert total == pytest.approx(swapped, abs=1e-12)


def _layer_steps(n_sites, draw):
    """Columns and parameters that walk p, mu, beta, alpha and the support.

    Masks and alphas come from small pools, so kernel keys repeat.
    """
    thick = np.array(draw(st.lists(st.floats(0.05, 5.0), min_size=n_sites,
                                   max_size=n_sites)))
    masks = draw(st.lists(st.lists(st.booleans(), min_size=n_sites, max_size=n_sites),
                          min_size=1, max_size=3))
    alphas = draw(st.lists(st.floats(0.3, 30.0), min_size=1, max_size=2))
    values = {"p": st.floats(0.02, 0.98), "mu": st.floats(0.1, 10.0),
              "beta": st.floats(0.3, 3.9), "alpha": st.sampled_from(alphas)}
    params = LayerParams(p=0.5, mu=1.0, beta=1.0, alpha=alphas[0])
    mask = np.array(masks[0])
    steps = []
    for which in draw(st.lists(st.sampled_from(["p", "mu", "beta", "alpha", "mask"]),
                               min_size=1, max_size=12)):
        if which == "mask":
            mask = np.array(draw(st.sampled_from(masks)))
        else:
            params = replace(params, **{which: draw(values[which])})
        steps.append((np.where(mask, thick, 0.0), params))
    return steps


def _assert_memo_matches_fresh(locs, steps):
    """layer_term through one model's memo equals a fresh layer_loglik, bit for
    bit, and the oracle's term built from scratch within 1e-12 relative (or
    1e-10 absolute).

    The oracle orders the same arithmetic differently, so on an
    ill-conditioned layer a term of several hundred differs from it by about
    1e-13 relative, more than 1e-10 absolute.
    """
    model = _untied_model(locs, 1)
    for z, params in steps:
        fresh = layer_loglik(z, locs, params, cdf_tol=model.cdf_tol)
        assert model.layer_term(z, params) == fresh  # may build the kernel
        assert model.layer_term(z, params) == fresh  # a memo hit
        want = oracles.layer_loglik(z, locs, params, model.cdf_tol)
        assert fresh == pytest.approx(want, rel=1e-12, abs=1e-10)


class TestKernelMemo:
    """``ThicknessModel`` evaluates layers through memoised kernels."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_warm_memo_is_bit_identical(self, data):
        n_sites = data.draw(st.integers(1, 6), label="sites")
        cells = data.draw(st.sets(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                                  min_size=n_sites, max_size=n_sites), label="cells")
        locs = 0.7 * np.array(sorted(cells), dtype=float)
        _assert_memo_matches_fresh(locs, _layer_steps(n_sites, data.draw))

    def test_ill_conditioned_layer_matches_the_oracle(self):
        # a term of -693.6, 1.2e-10 (1.7e-13 relative) from the oracle's
        locs = 0.7 * np.array([[0.0, 0.0], [11.0, 8.0], [13.0, 7.0], [15.0, 5.0]])
        z = np.array([1.0, 0.0, 1.0, 0.5])
        _assert_memo_matches_fresh(locs, [(z, LayerParams(p=0.5, mu=1.0, beta=1.0,
                                                          alpha=19.0))])

    @pytest.mark.parametrize("mask", [
        [False, False, False, False],  # n_pos == 0
        [True, True, True, True],      # n_zero == 0
        [True, False, True, True],     # one zero site: d = 1
        [False, False, False, True],   # one positive site
    ])
    def test_edge_supports(self, mask):
        locs = np.array([[0.0, 0.0], [1.0, 0.5], [2.5, 2.0], [0.3, 3.0]])
        z = np.where(mask, [0.4, 1.1, 2.0, 0.7], 0.0)
        base = LayerParams(p=0.4, mu=1.5, beta=1.2, alpha=2.0)
        steps = [(z, base)]
        for which, value in (("p", 0.7), ("mu", 0.8), ("beta", 2.5), ("alpha", 9.0),
                             ("alpha", 2.0), ("p", 0.1)):
            base = replace(base, **{which: value})
            steps.append((z, base))
        _assert_memo_matches_fresh(locs, steps)

    def test_kernel_arrays_are_read_only(self):
        kernel = layer_kernel(np.array([[0.0, 0.0], [1.0, 0.5]]),
                              np.array([[2.5, 2.0], [0.3, 3.0]]), MaternSpec(1.5, 2.0))
        for arr in (kernel.chol, kernel.krig, kernel.cond_cov):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.0

    def test_p_mu_beta_reuse_the_kernel(self):
        locs = np.array([[0.0, 0.0], [1.0, 0.5], [2.5, 2.0]])
        model = _untied_model(locs, 1)
        z = np.array([0.4, 0.0, 2.0])
        for params in (PARAMS, replace(PARAMS, p=0.3), replace(PARAMS, mu=2.0),
                       replace(PARAMS, beta=0.7)):
            model.layer_term(z, params)
        assert len(model._kernels) == 1
        model.layer_term(z, replace(PARAMS, alpha=4.0))
        model.layer_term(np.array([0.4, 0.3, 0.0]), PARAMS)
        assert len(model._kernels) == 3


class TestSimulatorLaw:
    """Conditional simulation draws the zero-site latents from the law that
    the likelihood integrates: ``condition`` over the boreholes' covariance
    gives the layer kernel's kriged mean and covariance, bit for bit."""

    @pytest.mark.parametrize("seed", range(30))
    def test_condition_is_the_layer_kernel(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        locs = rng.uniform(0.0, 20.0, (n, 2))
        pos = rng.random(n) < 0.5
        if seed < 2:  # seed 0: an empty known block; seed 1: an empty unknown block
            pos[:] = bool(seed)
        spec = MaternSpec(float(rng.choice(ALLOWED_NU)), float(rng.uniform(0.5, 30.0)))
        w = rng.standard_normal(int(pos.sum()))
        m, v = condition(cov_matrix(locs, spec), np.flatnonzero(pos),
                         np.flatnonzero(~pos), w)
        kernel = layer_kernel(locs[pos], locs[~pos], spec)
        assert np.array_equal(m, kernel.whiten(w)[1])
        assert np.array_equal(v, kernel.cond_cov)


class TestMoments:
    def test_normal_density_has_the_bits_of_scipy(self):
        # the moments and the empirical start use the density without
        # importing scipy.stats; its values are norm.pdf's, bit for bit
        x = np.random.default_rng(4).normal(0.0, 3.0, 200_000)
        x = np.concatenate([x, [0.0, -0.0, 1e-300, 8.5, -38.0, 40.0]])
        assert np.array_equal(_norm_pdf(x), norm.pdf(x))
        assert all(_norm_pdf(float(v)) == norm.pdf(float(v)) for v in x[:2000])

    def test_symmetric_case_values(self):
        mean, var = thickness_moments(_transform_params(1.0, 1.0))
        assert mean == pytest.approx(2.0 * norm.pdf(0.0), abs=1e-9)  # ~0.797885
        assert var == pytest.approx(0.363380, abs=1e-6)

    def test_linear_scaling_in_mu(self):
        m1, v1 = thickness_moments(_transform_params(1.0, 1.0, p=0.35))
        for mu in (0.5, 2.0, 7.0):
            m, v = thickness_moments(_transform_params(mu, 1.0, p=0.35))
            assert m == pytest.approx(mu * m1, rel=1e-12)
            assert np.sqrt(v) == pytest.approx(mu * np.sqrt(v1), rel=1e-12)

    def test_monte_carlo_grid(self):
        rng = np.random.default_rng(30)
        n = 200_000
        for p in (0.2, 0.5, 0.8):
            for mu in (0.5, 2.0):
                tau = norm.ppf(1 - p)
                w = rng.standard_normal(n)
                zpos = mu * (w[w > tau] - tau)
                mean, var = thickness_moments(_transform_params(mu, 1.0, p=p))
                se_m = zpos.std() / np.sqrt(zpos.size)
                assert abs(zpos.mean() - mean) < 3 * se_m
                # variance of the sample variance ~ (m4 - v^2)/n
                m4 = np.mean((zpos - zpos.mean()) ** 4)
                se_v = np.sqrt((m4 - var**2) / zpos.size)
                assert abs(zpos.var() - var) < 3 * se_v

    def test_extreme_p(self):
        tau = norm.ppf(0.001)
        mu = 3.0
        mean, _ = thickness_moments(_transform_params(mu, 1.0, p=0.999))
        assert mean == pytest.approx(mu * (norm.pdf(tau) / 0.999 - tau), abs=1e-9)

    def test_beta_not_one_unsupported(self):
        with pytest.raises(ParameterError):
            thickness_moments(_transform_params(1.0, 2.0))


class TestTcd:
    def test_boundaries(self):
        assert tcd(0.0, PARAMS) == 0.0
        assert tcd(1e12, PARAMS) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        # p=0.5, mu=1, beta=1, z=1 -> (Phi(1) - 0.5) / 0.5
        assert tcd(1.0, PARAMS) == pytest.approx(
            (norm.cdf(1.0) - 0.5) / 0.5, abs=1e-12
        )

    def test_nondecreasing(self):
        z = np.linspace(0, 10, 500)
        params = LayerParams(p=0.3, mu=2.0, beta=1.7, alpha=1.0)
        vals = tcd(z, params)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((0 <= vals) & (vals <= 1))

    def test_matches_simulation(self):
        rng = np.random.default_rng(31)
        params = LayerParams(p=0.4, mu=1.5, beta=1.3, alpha=1.0)
        w = rng.standard_normal(1_000_000)
        zpos = np.sort(thickness_from_latent(w, params)[w > params.tau])
        grid = np.linspace(0.0, zpos[-1], 400)
        emp = np.searchsorted(zpos, grid, side="right") / zpos.size
        ks = np.max(np.abs(emp - tcd(grid, params)))
        assert ks < 0.005


class TestEmpiricalInit:
    @pytest.mark.parametrize(
        "p0,tbar,tau_want,mu_want",
        [
            (11 / 24, 0.73, 0.10, 0.96),
            (0.75, 2.25, -0.67, 2.06),
            (0.25, 3.89, 0.67, 6.52),
            (0.125, 1.10, 1.15, 2.21),
        ],
    )
    def test_frozen_table(self, p0, tbar, tau_want, mu_want):
        tau0, mu0 = init_from_empirical(p0, tbar)
        assert tau0 == pytest.approx(tau_want, abs=0.02)
        assert mu0 == pytest.approx(mu_want, abs=0.02)

    def test_consistency_with_moments(self):
        # init inverts the beta=1 positive-part mean
        tau0, mu0 = init_from_empirical(0.4, 1.7)
        mean, _ = thickness_moments(_transform_params(mu0, 1.0, p=0.4))
        assert mean == pytest.approx(1.7, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            init_from_empirical(0.0, 1.0)
        with pytest.raises(ParameterError):
            init_from_empirical(0.5, 0.0)
