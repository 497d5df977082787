"""Gaussian numerics: Matern forms, kriging, log-density, orthant CDF, samplers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft, integrate, stats
from scipy.stats import norm, truncnorm

import oracles
from stratasim.errors import CapacityError, DegenerateRegionError, NumericError, ParameterError
from stratasim import gaussnum
from stratasim.gaussnum import (
    ALLOWED_NU,
    CHOLESKY_BUDGET,
    _ppf_below,
    MaternSpec,
    chol_psd,
    condition,
    cov_matrix,
    draw_field,
    field_kernel,
    kriging,
    lattice_kernel,
    matern,
    mvn_cdf_below,
    mvn_logpdf,
    sample_gaussian_field,
    sample_truncated_mvn,
)


def bivariate_orthant(rho):
    """Closed form for P(X<0, Y<0) with standard margins and correlation rho."""
    return 0.25 + np.arcsin(rho) / (2.0 * np.pi)


class TestMatern:
    def test_zero_lag(self):
        for nu in (0.5, 1.5, 2.5):
            assert matern(0.0, MaternSpec(nu, 2.0)) == 1.0

    def test_closed_form_values_at_range(self):
        assert matern(1.0, MaternSpec(1.5, 1.0)) == pytest.approx(2.0 / np.e, abs=1e-12)
        assert matern(1.0, MaternSpec(0.5, 1.0)) == pytest.approx(1.0 / np.e, abs=1e-12)
        assert matern(1.0, MaternSpec(2.5, 1.0)) == pytest.approx(
            (1 + 1 + 1 / 3) * np.exp(-1.0), abs=1e-12
        )

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_in_place_evaluation_is_bit_identical(self, nu):
        spec = MaternSpec(nu, 3.7)
        h = np.random.default_rng(4).uniform(0.0, 40.0, (30, 50))
        got = matern(h, spec)
        assert got.tobytes() == oracles.matern(h, spec).tobytes()
        assert matern(h[0, 0], spec) == oracles.matern(h[0, 0], spec)
        assert h.tobytes() == np.random.default_rng(4).uniform(0.0, 40.0, (30, 50)).tobytes()

    def test_invalid_nu_and_alpha(self):
        with pytest.raises(ParameterError):
            MaternSpec(1.0, 1.0)
        with pytest.raises(ParameterError):
            MaternSpec(1.5, 0.0)

    @given(
        st.sampled_from([0.5, 1.5, 2.5]),
        st.floats(0.05, 50.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_nonincreasing_in_lag(self, nu, alpha):
        spec = MaternSpec(nu, alpha)
        h = np.linspace(0.0, 10.0 * alpha, 200)
        vals = matern(h, spec)
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) <= 1e-14)
        assert np.all((0.0 <= vals) & (vals <= 1.0))


class TestCondition:
    def test_zero_data_simple_kriging_variance(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        joint = cov_matrix(pts, MaternSpec(1.5, 1.0))
        rho = joint[0, 1]
        m, v = condition(joint, [0], [1], [0.0])
        assert m == pytest.approx(0.0, abs=1e-14)
        assert v[0, 0] == pytest.approx(1.0 - rho**2, abs=1e-12)

    def test_far_point_is_prior(self):
        pts = np.array([[0.0, 0.0], [1e6, 0.0]])
        joint = cov_matrix(pts, MaternSpec(1.5, 1.0))
        m, v = condition(joint, [0], [1], [3.0])
        assert m[0] == pytest.approx(0.0, abs=1e-12)
        assert v[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_unknown_block(self):
        joint = np.eye(2)
        m, v = condition(joint, [0, 1], [], [1.0, 2.0])
        assert m.size == 0 and v.shape == (0, 0)

    def test_matches_brute_force_inversion(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = rng.integers(3, 7)
            pts = rng.uniform(0, 5, size=(n, 2))
            joint = cov_matrix(pts, MaternSpec(1.5, float(rng.uniform(0.5, 3.0))))
            k = int(rng.integers(1, n))
            perm = rng.permutation(n)
            known, unknown = perm[:k], perm[k:]
            w = rng.standard_normal(k)
            m, v = condition(joint, known, unknown, w)
            s_nn = joint[np.ix_(known, known)]
            s_un = joint[np.ix_(unknown, known)]
            s_uu = joint[np.ix_(unknown, unknown)]
            inv = np.linalg.inv(s_nn)
            assert np.allclose(m, s_un @ inv @ w, atol=1e-10)
            assert np.allclose(v, s_uu - s_un @ inv @ s_un.T, atol=1e-10)

    def test_conditional_variance_bounded_by_prior(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 3, size=(6, 2))
        joint = cov_matrix(pts, MaternSpec(2.5, 1.0))
        m, v = condition(joint, [0, 1], [2, 3, 4, 5], rng.standard_normal(2))
        assert np.all(np.diag(v) <= 1.0 + 1e-10)


class TestCholPsd:
    def test_near_duplicate_points_jittered(self):
        pts = np.array([[0.0, 0.0], [1e-9, 0.0], [1.0, 1.0]])
        chol = chol_psd(cov_matrix(pts, MaternSpec(1.5, 1.0)))
        assert np.all(np.isfinite(chol))

    def test_indefinite_matrix_fails_with_condition_estimate(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NumericError, match="condition"):
            chol_psd(a)

    def test_input_left_unchanged(self):
        pts = np.random.default_rng(3).uniform(0, 5, (30, 2))
        a = cov_matrix(pts, MaternSpec(1.5, 1.0))
        before = a.copy()
        chol = chol_psd(a)
        assert np.array_equal(a, before) and not np.shares_memory(chol, a)
        with pytest.raises(NumericError):
            chol_psd(-a)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("n", [3, 300])
    def test_jittered_factor_restores_the_matrix_between_attempts(self, n):
        # near-duplicate points make the first attempts fail; each retry must
        # start from the matrix itself, rebuilt from the triangle ``dpotrf``
        # leaves alone (300 rows span two blocks of the rebuild), so the
        # factor differs from it only by the jitter on the diagonal
        pts = np.random.default_rng(8).uniform(0, 3, (n, 2))
        pts[1] = pts[0] + [1e-9, 0.0]
        pts[-1] = pts[-2] + [0.0, 1e-9]
        spec = MaternSpec(1.5, 1.0)
        cov = cov_matrix(pts, spec)
        chol = field_kernel(pts, spec).local[0].chol
        assert np.array_equal(chol, np.tril(chol))
        err = chol @ chol.T - cov
        jitter = np.diag(err)
        assert gaussnum._JITTER_START / 2 <= jitter.min()
        assert jitter.max() <= gaussnum._JITTER_MAX
        assert np.max(np.abs(err - np.diag(jitter))) <= 1e-12


class TestMvnLogpdf:
    def test_univariate_standard(self):
        assert mvn_logpdf([0.0], [0.0], [[1.0]]) == pytest.approx(
            -0.5 * np.log(2 * np.pi), abs=1e-12
        )

    def test_independence_sum(self):
        got = mvn_logpdf([0.3, -1.2], [0.0, 0.0], np.eye(2))
        want = norm.logpdf(0.3) + norm.logpdf(-1.2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_correlated_bivariate_formula(self):
        rho = 0.5
        x1 = x2 = 1.0
        got = mvn_logpdf([x1, x2], [0, 0], [[1, rho], [rho, 1]])
        want = (
            -np.log(2 * np.pi)
            - 0.5 * np.log(1 - rho**2)
            - (x1**2 - 2 * rho * x1 * x2 + x2**2) / (2 * (1 - rho**2))
        )
        assert got == pytest.approx(want, abs=1e-12)


class TestMvnCdfBelow:
    def test_dim1_exact(self):
        prob, err = mvn_cdf_below([0.0], [0.0], [[1.0]])
        assert prob == 0.5 and err == 0.0

    def test_bivariate_closed_form(self):
        for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
            prob, err = mvn_cdf_below(
                [0.0, 0.0], [0.0, 0.0], [[1.0, rho], [rho, 1.0]], tol=1e-4
            )
            assert prob == pytest.approx(bivariate_orthant(rho), abs=1e-3)

    def test_trivariate_independence(self):
        prob, _ = mvn_cdf_below([0, 0, 0], [0, 0, 0], np.eye(3), tol=1e-4)
        assert prob == pytest.approx(0.125, abs=1e-3)

    def test_monotone_in_bounds(self):
        cov = [[1.0, 0.4], [0.4, 1.0]]
        probs = [
            mvn_cdf_below([b, 0.0], [0, 0], cov, tol=1e-5)[0]
            for b in (-1.0, 0.0, 1.0, 2.0)
        ]
        assert np.all(np.diff(probs) > 0)

    def test_deterministic_by_default(self):
        cov = cov_matrix(np.random.default_rng(1).uniform(0, 3, (5, 2)),
                         MaternSpec(1.5, 1.0))
        a = mvn_cdf_below(np.full(5, -0.3), np.zeros(5), cov)
        b = mvn_cdf_below(np.full(5, -0.3), np.zeros(5), cov)
        assert a == b

    def test_dimension_cap(self):
        with pytest.raises(CapacityError):
            mvn_cdf_below(np.zeros(101), np.zeros(101), np.eye(101))

    def test_mean_shift(self):
        prob, _ = mvn_cdf_below([1.0], [1.0], [[4.0]])
        assert prob == 0.5


class TestMvnCdfBelowPointSets:
    """``mvn_cdf_below`` gives the bits of ``oracles.mvn_cdf_below``, which
    draws its shifts and builds and scores each round's whole point set on
    every call."""

    def _case(self, d, seed):
        rng = np.random.default_rng(seed)
        cov = cov_matrix(rng.uniform(0, 4, (d, 2)), MaternSpec(1.5, 2.0))
        return rng.normal(0.0, 1.0, d), rng.normal(0.0, 0.5, d), cov

    @pytest.mark.parametrize("d", range(2, 13))
    def test_default_rng_first_round(self, d):
        upper, mean, cov = self._case(d, d)
        for _ in range(2):  # the second call reads the kept point set
            got = mvn_cdf_below(upper, mean, cov, tol=1e-2)
            assert got == oracles.mvn_cdf_below(upper, mean, cov, tol=1e-2)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_nested_rounds(self, d):
        upper, mean, cov = self._case(d, d)
        got = mvn_cdf_below(upper, mean, cov, tol=1e-5)
        assert got == oracles.mvn_cdf_below(upper, mean, cov, tol=1e-5)

    @pytest.mark.parametrize("d, tol, rounds", [(8, 1e-4, 2), (11, 1e-4, 3),
                                                (5, 1e-5, 4)])
    def test_later_rounds_score_only_the_added_points(self, monkeypatch, d, tol,
                                                      rounds):
        scored = []
        shifted_points = gaussnum._shifted_points

        def spy(start, stop, shifts):
            scored.append((start, stop))
            return shifted_points(start, stop, shifts)

        monkeypatch.setattr(gaussnum, "_shifted_points", spy)
        upper, mean, cov = self._case(d, d)
        got = mvn_cdf_below(upper, mean, cov, tol=tol)
        assert got == oracles.mvn_cdf_below(upper, mean, cov, tol=tol)
        later = [(start, stop) for start, stop in scored if start > 0]
        assert later == [(128 << k, 256 << k) for k in range(rounds - 1)]

    def test_later_rounds(self, monkeypatch):
        monkeypatch.setattr(gaussnum, "_MAX_POINTS", 512)
        upper, mean, cov = self._case(6, 40)
        got = mvn_cdf_below(upper, mean, cov, tol=1e-12)
        want = oracles.mvn_cdf_below(upper, mean, cov, tol=1e-12, max_points=512)
        assert got == want and got[1] > 1e-12  # ran to the 512-point round


class TestSampleTruncatedMvn:
    def test_dim1_matches_inverse_mills(self):
        rng = np.random.default_rng(3)
        draws = np.array([
            sample_truncated_mvn([0.0], [[1.0]], 0.0, rng)[0] for _ in range(10_000)
        ])
        want = -norm.pdf(0) / norm.cdf(0)  # ~ -0.7979
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - want) < 3 * se

    def test_support_constraint_hard(self):
        rng = np.random.default_rng(4)
        cov = [[1.0, 0.8], [0.8, 1.0]]
        for _ in range(100):
            x = sample_truncated_mvn([0.0, 0.0], cov, -1.0, rng)
            assert np.all(x < -1.0)

    def test_independent_coordinates_uncorrelated(self):
        rng = np.random.default_rng(5)
        draws = np.array([
            sample_truncated_mvn([0.0, 0.0], np.eye(2), 0.5, rng)
            for _ in range(800)
        ])
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(draws.shape[0])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_TRUNCATION_POINTS = st.one_of(
    st.floats(-37.0, 0.0),
    st.floats(0.0, 3.0, exclude_min=True),
    st.floats(38.0, 1e3),
    st.floats(-1e3, -38.0),
    st.sampled_from([0.0, -0.0, 5e-324, 40.0, -40.0, np.inf]),
)
_UNIFORMS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1e-12),
    st.floats(1.0 - 1e-12, 1.0 - 2.0 ** -53),
    st.sampled_from([0.0, 5e-324, 0.5, 1.0 - 2.0 ** -53]),
)


class TestPpfBelow:
    """The closed form gives ``truncnorm.ppf(u, -inf, b)`` bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(_UNIFORMS, _TRUNCATION_POINTS)
    def test_equals_truncnorm(self, u, b):
        with np.errstate(divide="ignore"):  # log(0) at u = 0 is -inf, as scipy's
            got = _ppf_below(u, np.float64(b))
        assert _same_bits(got, truncnorm.ppf(u, -np.inf, b))

    def test_equals_truncnorm_on_a_dense_sample(self):
        # log1p's last bit matters for b in (0, 3): about one in 200 draws
        # there would differ with numpy's log1p
        rng = np.random.default_rng(8)
        u = rng.random(20_000)
        b = np.concatenate([rng.uniform(0.0, 3.0, 15_000), rng.uniform(-8.0, 0.0, 5_000)])
        want = truncnorm.ppf(u, -np.inf, b)
        got = np.array([_ppf_below(ui, bi) for ui, bi in zip(u, b)])
        assert _same_bits(got, want)

    def test_deep_lower_tail_is_finite(self):
        x = _ppf_below(0.5, -40.0)
        assert np.isfinite(x) and -40.1 < x < -40.0


def _truncated_case(d, seed):
    rng = np.random.default_rng(seed)
    cov = cov_matrix(rng.uniform(0, 20, (d, 2)), MaternSpec(1.5, 10.0))
    return rng.normal(0.0, 1.0, d), cov, float(rng.normal(0.3, 0.8))


class TestSampleTruncatedMvnBits:
    """The vectorised tilted sampler gives the bits of ``oracles.
    sample_truncated_mvn``, which draws one proposal at a time through
    ``truncnorm.ppf``, and leaves the stream where the oracle does."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_equals_truncnorm_gibbs(self, d):
        for seed in range(3):
            mean, cov, upper = _truncated_case(d, 100 * d + seed)
            rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_truncated_mvn(mean, cov, upper, rng_got)
            want = oracles.sample_truncated_mvn(mean, cov, upper, rng_want)
            assert _same_bits(got, want)
            assert rng_got.random() == rng_want.random()  # same stream position

    def test_deep_conditional_truncation_stays_finite(self):
        # Strong negative correlation: P(X < 0) is about 4e-16, far below the
        # mass Phi(b_1) of the first bound, so only a large tilt accepts.
        # Given X_1 = -0.5 the second bound lies 42 conditional standard
        # deviations below its conditional mean, where a ppf through
        # ndtri(u * ndtr(b)) gives -inf.
        rho = 0.9999
        mean = np.array([0.05, 0.05])
        cov = np.array([[1.0, -rho], [-rho, 1.0]])
        b_second = -(mean[1] + rho * (0.5 + mean[0])) / np.sqrt(1.0 - rho**2)
        assert b_second < -40.0
        rng, rng_want = np.random.default_rng(2), np.random.default_rng(2)
        for _ in range(5):
            x = sample_truncated_mvn(mean, cov, 0.0, rng)
            assert np.all(np.isfinite(x)) and np.all(x < 0.0)
            assert _same_bits(x, oracles.sample_truncated_mvn(mean, cov, 0.0, rng_want))


def _tilt_inputs(mean, cov, upper):
    """The scaled factor and bounds ``sample_truncated_mvn`` tilts."""
    bc = upper - np.asarray(mean, dtype=float)
    order, chol = gaussnum._genz_order(bc, np.asarray(cov, dtype=float))
    return np.tril(chol / np.diag(chol)[:, None], -1), bc[order] / np.diag(chol)


# Six sites 0.5 km apart on a line, Matern 3/2 at 10 km (neighbour
# correlation 0.9988): P(X < 0) is about 0.335.  A Gibbs run of fixed length
# mixes slowly under such correlation, so this case tells an exact sampler
# from an approximate one.
SIX_SITES = (
    np.array([0.4, -0.2, 0.3, 0.1, -0.3, 0.2]),
    cov_matrix(np.column_stack([0.5 * np.arange(6), np.zeros(6)]), MaternSpec(1.5, 10.0)),
    0.0,
)


def _assert_law(draws, reference):
    """Each coordinate's draws pass a two-sample KS test against the
    reference draws at level 1e-3, and their mean lies within 4 standard
    errors of the reference mean."""
    for k in range(draws.shape[1]):
        assert stats.ks_2samp(draws[:, k], reference[:, k]).pvalue > 1e-3, k
        se = np.sqrt(draws[:, k].var() / len(draws) + reference[:, k].var() / len(reference))
        assert abs(draws[:, k].mean() - reference[:, k].mean()) < 4.0 * se, k


class TestSampleTruncatedMvnLaw:
    """Draws follow the truncated law: quadrature at d = 1 and 2, plain
    rejection from N(mean, cov) above, at fixed seeds."""

    @pytest.mark.parametrize("mean, sd, upper", [
        (0.0, 1.0, 0.0), (0.3, 2.0, 1.5), (2.0, 0.5, -3.0), (-1.0, 1.0, 3.0),
    ])
    def test_dim1_matches_truncnorm(self, mean, sd, upper):
        rng = np.random.default_rng(11)
        draws = [sample_truncated_mvn([mean], [[sd * sd]], upper, rng)[0] for _ in range(2000)]
        law = truncnorm(-np.inf, (upper - mean) / sd, loc=mean, scale=sd)
        assert stats.kstest(draws, law.cdf).pvalue > 1e-3

    @pytest.mark.parametrize("rho, mean, upper", [
        (0.9, (0.5, -0.4), 0.0), (-0.95, (0.2, 0.3), 0.0), (0.3, (1.5, 2.0), -0.5),
    ])
    def test_dim2_marginals_match_quadrature(self, rho, mean, upper):
        mean = np.asarray(mean)
        cov = np.array([[1.0, rho], [rho, 1.0]])
        rng = np.random.default_rng(12)
        draws = np.array([sample_truncated_mvn(mean, cov, upper, rng) for _ in range(2000)])
        assert np.all(draws < upper)
        for k in (0, 1):
            # density of X_k below upper: phi(x) P(X_other < upper | X_k = x)
            other = 1 - k
            grid = np.linspace(mean[k] - 12.0, upper, 20_001)
            cond_mean = mean[other] + rho * (grid - mean[k])
            dens = norm.pdf(grid, mean[k]) * norm.cdf((upper - cond_mean) / np.sqrt(1 - rho**2))
            cdf = integrate.cumulative_trapezoid(dens, grid, initial=0.0)
            cdf /= cdf[-1]
            assert stats.kstest(draws[:, k], lambda x: np.interp(x, grid, cdf)).pvalue > 1e-3

    @pytest.mark.parametrize("case", ["six sites", "d3", "d5", "d8"])
    def test_matches_rejection(self, case):
        if case == "six sites":
            mean, cov, upper = SIX_SITES
        else:
            d = int(case[1:])
            mean, cov, upper = _truncated_case(d, 7 * d)
            mean = mean - 0.5  # keeps P(X < upper) large enough for rejection
        rng = np.random.default_rng(13)
        draws = np.array([sample_truncated_mvn(mean, cov, upper, rng) for _ in range(2000)])
        _assert_law(draws, oracles.rejection_draws(mean, cov, upper, 40_000, seed=14))

    def test_tilt_matches_scipy_root(self):
        cases = [SIX_SITES] + [_truncated_case(d, 100 * d + s)
                               for d in range(2, 13) for s in range(2)]
        for mean, cov, upper in cases:
            strict, b = _tilt_inputs(mean, cov, upper)
            mu, psi_star = gaussnum.minimax_tilt(strict, b)
            want_mu, want_psi = oracles.minimax_tilt(strict, b)
            assert np.max(np.abs(mu - want_mu)) < 1e-8 and abs(psi_star - want_psi) < 1e-8
            # exp(psi*) bounds the region's probability from above
            prob, err = mvn_cdf_below(np.full(len(mean), upper), mean, cov, tol=1e-4)
            assert np.log(prob - err) <= psi_star

    def test_vanishing_region_raises_without_orthant_probe(self, monkeypatch):
        def probe(*args, **kwargs):
            raise AssertionError("mvn_cdf_below was called")

        monkeypatch.setattr(gaussnum, "mvn_cdf_below", probe)
        # P = Phi(-40) Phi(-40), about 1e-698, and Phi(-40) alone in one dimension
        for mean, cov in (([40.0, 40.0], np.eye(2)), ([40.0], [[1.0]])):
            with pytest.raises(DegenerateRegionError, match="vanishing probability"):
                sample_truncated_mvn(mean, cov, 0.0, np.random.default_rng(0))

    def test_zero_tilt_fallback_when_newton_stops_early(self, monkeypatch):
        mean, cov, upper = SIX_SITES
        strict, b = _tilt_inputs(mean, cov, upper)
        monkeypatch.setattr(gaussnum, "_TILT_STEPS", 1)
        mu, psi_star = gaussnum.minimax_tilt(strict, b)
        assert np.all(mu == 0.0) and psi_star == norm.logcdf(b[0])
        rng = np.random.default_rng(15)
        draws = np.array([sample_truncated_mvn(mean, cov, upper, rng) for _ in range(2000)])
        _assert_law(draws, oracles.rejection_draws(mean, cov, upper, 40_000, seed=14))

    def test_no_acceptance_past_the_batch_cap_raises(self, monkeypatch):
        # with no tilt, proposals are accepted at the rate P / Phi(b_1): for
        # strongly anticorrelated coordinates both below 0, about 1e-15
        monkeypatch.setattr(gaussnum, "_TILT_STEPS", 0)
        cov = np.array([[1.0, -0.9999], [-0.9999, 1.0]])
        with pytest.raises(NumericError, match="accepted none"):
            sample_truncated_mvn([0.05, 0.05], cov, 0.0, np.random.default_rng(0))


def _assert_draw_law(pts, spec, cond, lattice):
    """A field kernel's draw, conditioned by the kriging step, is affine in
    its normals: zero normals give the conditional mean, and the draws from
    each of the n unit normals are columns whose outer product is the
    conditional covariance, both as ``condition`` (the likelihood's kernel)
    computes them over the free rows."""
    n, nc = len(pts), len(cond)
    free = np.delete(np.arange(n), cond)
    w = np.random.default_rng(5).standard_normal(nc)
    kernel = field_kernel(pts, spec, lattice)
    if nc:
        mean, cov = condition(cov_matrix(pts, spec), cond, free, w)
        krig = kriging(pts, spec, cond, kernel)

        def draw(z, values):
            return krig.draw(oracles._FixedNormals(z), values)
    else:
        mean, cov = np.zeros(n), cov_matrix(pts, spec)

        def draw(z, values):
            return draw_field(kernel, oracles._FixedNormals(z))
    got = draw(np.zeros(n), w)
    assert np.array_equal(got[cond], w)
    assert np.max(np.abs(got[free] - mean)) <= 1e-12
    a = np.column_stack([draw(e, np.zeros(nc))[free] for e in np.eye(n)])
    assert np.max(np.abs(a @ a.T - cov)) <= 1e-12


class TestFieldKernel:
    """A kernel serves many draws, each equal to a fresh per-call build.

    The oracle finds the conditioned rows by their coordinates; the kernel is
    given their indices.
    """

    def _points(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 10, (46, 2))
        cond = np.array([40, 3, 45, 17, 44, 8])  # conditioning order, not row order
        return pts, cond

    def test_unconditional_draws_equal_fresh_builds(self):
        pts, _ = self._points()
        spec = MaternSpec(2.5, 3.0)
        kernel = field_kernel(pts, spec)
        for seed in range(3):
            got = draw_field(kernel, np.random.default_rng(seed))
            want = oracles.sample_gaussian_field(pts, spec, np.random.default_rng(seed))
            assert _same_bits(got, want)

    def test_conditional_draws_equal_fresh_builds(self):
        # both krige the same unconditional draw over every point, the oracle
        # by a fresh solve with the borehole covariance, so the free rows
        # agree to rounding
        pts, cond = self._points()
        spec = MaternSpec(0.5, 4.0)
        krig = kriging(pts, spec, cond, field_kernel(pts, spec))
        for seed in range(3):
            vals = np.random.default_rng(50 + seed).standard_normal(len(cond))
            got = krig.draw(np.random.default_rng(seed), vals)
            want = oracles.sample_gaussian_field(
                pts, spec, np.random.default_rng(seed), pts[cond], vals
            )
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.array_equal(got[cond], vals)  # conditioned rows copy

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_draw_law_is_the_likelihood_law(self, nu):
        # scattered points: see ``_assert_draw_law``
        pts, cond = self._points()
        _assert_draw_law(pts, MaternSpec(nu, 4.0), cond, None)

    def test_every_point_conditioned(self):
        pts, cond = self._points()
        pts = pts[np.sort(cond)]
        rows = np.array([5, 0, 3, 1, 4, 2])
        spec = MaternSpec(1.5, 2.0)
        krig = kriging(pts, spec, rows, field_kernel(pts, spec))
        vals = np.arange(len(rows), dtype=float)
        rng = np.random.default_rng(0)
        got = krig.draw(rng, vals)
        assert np.array_equal(got[rows], vals)
        assert rng.random() == np.random.default_rng(0).random()  # nothing drawn
        want = oracles.sample_gaussian_field(
            pts, spec, np.random.default_rng(0), pts[rows], vals
        )
        assert _same_bits(got, want)

    def test_conditioning_interpolates(self):
        # conditioned rows copy their values; free rows 1 m away stay close
        rng = np.random.default_rng(11)
        cpts = rng.uniform(0, 10, (5, 2))
        cvals = rng.standard_normal(5)
        pts = np.vstack([cpts, cpts + [1e-3, 0.0], rng.uniform(0, 10, (40, 2))])
        spec = MaternSpec(1.5, 2.0)
        f = kriging(pts, spec, np.arange(5), field_kernel(pts, spec)).draw(rng, cvals)
        assert np.array_equal(f[:5], cvals)
        assert np.max(np.abs(f[5:10] - cvals)) < 1e-2

    def test_factor_is_built_in_the_covariance_buffer(self, monkeypatch):
        # every covariance ``field_kernel`` asks of ``cov_matrix`` is factored
        # in its own buffer: over scattered points the one factor of all
        # points; over a lattice, the appended points' factor, while the
        # nodes' blocks come from the lag table and no covariance over the
        # nodes is built.  The kriging step then builds the borehole block.
        built = []

        def spy(points, spec):
            built.append(cov_matrix(points, spec))
            return built[-1]

        monkeypatch.setattr(gaussnum, "cov_matrix", spy)
        spec = MaternSpec(1.5, 2.0)
        pts, cond = self._points()
        kernel = kriging(pts, spec, cond, field_kernel(pts, spec)).kernel
        assert [len(c) for c in built] == [len(pts), len(cond)]
        assert np.shares_memory(kernel.local[0].chol, built[0])
        built.clear()
        grid = TestFoldedKernel.lattice_points(6, 5, 1.0)
        pts = np.vstack([grid, [[2.4, 1.3], [7.0, 2.0]]])
        kernel = kriging(pts, spec, [31, 3, 30], field_kernel(pts, spec, (6, 5, 1.0))).kernel
        assert [len(c) for c in built] == [2, 3]
        assert np.shares_memory(kernel.local[0].chol, built[0])

    def test_peak_memory_is_one_n_by_n_buffer(self):
        # a 36 x 36 grid and 4 appended boreholes, 8 boreholes in all: the
        # kernel and its kriging step peak at their factors, each built in
        # its own buffer, which hold about a quarter of the 8 n^2 bytes of
        # one dense factor
        g = np.linspace(0.0, 20.0, 36)
        grid = np.column_stack([np.repeat(g, 36), np.tile(g, 36)])
        pts = np.vstack([grid, np.random.default_rng(6).uniform(0, 20, (4, 2))])
        n = len(pts)
        cond = np.array([0, 100, 700, 1295, 1296, 1297, 1298, 1299])
        spec = MaternSpec(1.5, 5.0)
        tracemalloc.start()
        try:
            krig = kriging(pts, spec, cond, field_kernel(pts, spec, (36, 36, g[1])))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sizes = [chol.shape[0] for _, _, chol in krig.kernel.blocks]
        assert sizes == [324] * 4
        entries = sum(b * b for b in sizes) + 4 ** 2 + len(cond) ** 2
        assert entries < 0.26 * n * n
        assert peak < 1.25 * 8 * entries

    def test_wrapper_equals_kernel_draw(self):
        pts, _ = self._points()
        spec = MaternSpec(1.5, 2.0)
        got = sample_gaussian_field(pts, spec, np.random.default_rng(4))
        want = draw_field(field_kernel(pts, spec), np.random.default_rng(4))
        assert _same_bits(got, want)


class TestFoldedKernel:
    """Field kernels over a lattice: the covariance in the mirror basis is
    four blocks, each factored on its own."""

    @staticmethod
    def lattice_points(nx, ny, spacing):
        gx, gy = np.meshgrid(spacing * np.arange(nx), spacing * np.arange(ny),
                             indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("nx, ny", [(5, 4), (4, 5), (6, 6), (7, 3), (8, 1), (7, 1), (1, 1)])
    def test_fold_identity(self, nx, ny, nu):
        # Q' blockdiag(B) Q is the covariance over the nodes, Q = kron(Q_x, Q_y)
        spec = MaternSpec(nu, 3.0)
        n = nx * ny
        q = np.kron(gaussnum._fold_basis(nx), gaussnum._fold_basis(ny))
        assert np.max(np.abs(q @ q.T - np.eye(n))) <= 1e-15
        folded = np.zeros((n, n))
        covered = 0
        for xs, ys, block in gaussnum._fold_blocks(nx, ny, 1.3, spec):
            rows = (np.arange(xs.start, xs.stop)[:, None] * ny
                    + np.arange(ys.start, ys.stop)[None, :]).ravel()
            assert np.array_equal(block, block.T)
            folded[np.ix_(rows, rows)] = block
            covered += len(rows)
        assert covered == n
        want = cov_matrix(self.lattice_points(nx, ny, 1.3), spec)
        assert np.max(np.abs(q.T @ folded @ q - want)) <= 1e-12

    # rows of a 9 x 8 lattice at 1 km, node (i, j) at row 8 i + j; appended
    # points follow the 72 nodes
    CASES = {
        "no borehole": ([], []),
        "on nodes": ([], [5, 40, 71, 22]),
        "appended": ([[2.3, 4.6]], [5, 40, 72]),
        "sharing a node": ([[3.3, 4.2], [11.5, 2.0]], [28, 72, 73, 60]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_draw_law_is_the_likelihood_law(self, nu, case):
        appended, cond = self.CASES[case]
        pts = np.vstack([self.lattice_points(9, 8, 1.0), np.reshape(appended, (-1, 2))])
        _assert_draw_law(pts, MaternSpec(nu, 3.0), np.array(cond, dtype=int), (9, 8, 1.0))

    def test_budget_counts_squared_factor_sizes(self, monkeypatch):
        # 8 x 8 nodes fold into four blocks of 16 rows, 1 024 entries; two
        # appended points and three conditioned rows add 4 and 9
        spec = MaternSpec(1.5, 2.0)
        pts = np.vstack([self.lattice_points(8, 8, 1.0), [[9.5, 0.0], [0.0, 9.5]]])
        cond = [0, 64, 65]
        monkeypatch.setattr(gaussnum, "CHOLESKY_BUDGET", 33)
        kriging(pts, spec, cond, field_kernel(pts, spec, (8, 8, 1.0)))
        monkeypatch.setattr(gaussnum, "CHOLESKY_BUDGET", 32)
        kernel = field_kernel(pts[:64], spec, lattice=(8, 8, 1.0))

        def unbuilt(*args):
            raise AssertionError("a covariance was built beyond the budget")

        monkeypatch.setattr(gaussnum, "matern", unbuilt)
        with pytest.raises(CapacityError):
            field_kernel(pts, spec, (8, 8, 1.0))
        with pytest.raises(CapacityError):  # one borehole row more than 32^2
            kriging(pts[:64], spec, [0], kernel)

    def test_budget_counts_the_borehole_block_alone_on_the_torus(self, monkeypatch):
        # the torus's size has its own bound (``lattice_kernel``), so beside
        # a lattice kernel only the borehole block counts: 2^2 entries fit a
        # budget of 2, 3^2 do not, and no covariance is built before
        spec = MaternSpec(1.5, 1.0)
        pts = self.lattice_points(8, 8, 1.0)
        torus = lattice_kernel(8, 8, 1.0, spec)
        monkeypatch.setattr(gaussnum, "CHOLESKY_BUDGET", 2)
        kriging(pts, spec, [0, 9], torus)

        def unbuilt(*args):
            raise AssertionError("a covariance was built beyond the budget")

        monkeypatch.setattr(gaussnum, "matern", unbuilt)
        with pytest.raises(CapacityError):
            kriging(pts, spec, [0, 9, 18], torus)

    def test_budget_counts_the_local_draws_beside_the_torus(self, monkeypatch):
        # points appended to a torus are drawn by ``LocalDraw`` factors, which
        # count as a folded kernel's do: a borehole block of 2 and two local
        # factors of 1 fit a budget of 3, not one of 2, though the borehole
        # block alone would, and no covariance is built before
        spec = MaternSpec(1.5, 10.0)
        pts = np.vstack([self.lattice_points(50, 50, 2.0), [[10.3, 12.6], [20.5, 3.2]]])
        kernel = gaussnum.grid_kernel(pts, spec, (50, 50, 2.0))
        assert [d.chol.shape[0] for d in kernel.local] == [1, 1]
        monkeypatch.setattr(gaussnum, "CHOLESKY_BUDGET", 3)
        kriging(pts, spec, [0, 2500], kernel)
        monkeypatch.setattr(gaussnum, "CHOLESKY_BUDGET", 2)

        def unbuilt(*args):
            raise AssertionError("a covariance was built beyond the budget")

        monkeypatch.setattr(gaussnum, "matern", unbuilt)
        with pytest.raises(CapacityError):
            kriging(pts, spec, [0, 2500], kernel)


class TestSampleGaussianField:
    def test_deterministic_given_seed(self):
        pts = np.random.default_rng(0).uniform(0, 10, (30, 2))
        spec = MaternSpec(1.5, 2.0)
        a = sample_gaussian_field(pts, spec, np.random.default_rng(9))
        b = sample_gaussian_field(pts, spec, np.random.default_rng(9))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_scattered_draw_is_one_dense_factor(self, nu):
        pts = np.random.default_rng(3).uniform(0, 10, (40, 2))
        spec = MaternSpec(nu, 2.0)
        got = sample_gaussian_field(pts, spec, np.random.default_rng(7))
        z = np.random.default_rng(7).standard_normal(len(pts))
        assert _same_bits(got, chol_psd(cov_matrix(pts, spec)) @ z)

    def test_budget_enforced(self):
        pts = np.zeros((CHOLESKY_BUDGET + 1, 2))
        with pytest.raises(CapacityError):
            sample_gaussian_field(pts, MaternSpec(1.5, 1.0), np.random.default_rng(0))

    def test_variogram_matches_model(self):
        # 1-D transect; empirical variogram of unconditional draws vs 1 - rho(h)
        spec = MaternSpec(1.5, 3.0)
        x = np.linspace(0, 10, 60)
        pts = np.column_stack([x, np.zeros_like(x)])
        rng = np.random.default_rng(12)
        draws = np.array([sample_gaussian_field(pts, spec, rng) for _ in range(200)])
        for lag in (3, 9, 18):  # h = 0.5, 1.5, 3.0 <= alpha
            h = x[lag] - x[0]
            gamma = 0.5 * np.mean((draws[:, lag:] - draws[:, :-lag]) ** 2)
            want = 1.0 - matern(h, spec)
            assert gamma == pytest.approx(want, rel=0.10)


class TestLatticeKernel:
    """Circulant-embedding draws on a regular grid."""

    @staticmethod
    def _points(nx, ny, spacing):
        gx, gy = np.meshgrid(spacing * np.arange(nx), spacing * np.arange(ny),
                             indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_draw_covariance_is_the_matern_covariance(self, nu):
        # non-square, so swapped axes or a wrong ravel order would show
        spec = MaternSpec(nu, 0.5)
        kernel = lattice_kernel(7, 11, 1.0, spec)
        assert kernel is not None
        got = oracles.lattice_draw_covariance(kernel)
        want = cov_matrix(self._points(7, 11, 1.0), spec)
        assert np.max(np.abs(got - want)) <= gaussnum._JITTER_MAX

    def test_long_range_on_a_small_grid_has_no_embedding(self):
        # the size rule stops at 60 x 60 points, where the clipped negative
        # eigenvalues of this range exceed the contract
        assert lattice_kernel(16, 16, 2.0, MaternSpec(1.5, 20.0)) is None

    def test_embedding_size_rule(self):
        # 50 x 50 at 2 km starts at 100 per axis and doubles while
        # M log2 M <= 2500^2, so 800 x 800 is never tried; the torus that
        # passes, 200 or 400, brackets the smallest even 5-smooth one
        assert lattice_kernel(50, 50, 2.0, MaternSpec(1.5, 10.0)).shape == (108, 108)
        assert lattice_kernel(50, 50, 2.0, MaternSpec(1.5, 20.0)).shape == (240, 240)
        assert lattice_kernel(50, 50, 0.1, MaternSpec(1.5, 20.0)) is None
        # the config's default 101 x 101 grid at 1 km: 400 and 800 by doubling
        assert lattice_kernel(101, 101, 1.0, MaternSpec(1.5, 10.0)).shape == (240, 240)
        assert lattice_kernel(101, 101, 1.0, MaternSpec(1.5, 20.0)).shape == (480, 480)

    @settings(max_examples=150, deadline=None)
    @given(
        nx=st.integers(1, 24),
        ny=st.integers(1, 24),
        nu=st.sampled_from(ALLOWED_NU),
        alpha=st.floats(0.2, 30.0),
        spacing=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    )
    def test_smallest_torus_against_doubling(self, nx, ny, nu, alpha, spacing):
        # every torus found is even (1 on an axis of one node) and meets the
        # oracle's contract.  The doubling oracle's tori bracket the search,
        # so where both start alike it finds an embedding exactly where
        # doubling does, no larger.  Two kinds of grid start otherwise: an
        # axis of one node keeps a torus of one node, whose contract is no
        # worse than that of doubling's 2^k nodes (its eigenvalues are their
        # means), so the search may also find an embedding where doubling
        # finds none; and an odd doubling start (15, 27, 45, ... for 8, 14,
        # 22, 23, ... nodes) starts here at the next even 5-smooth length,
        # where the contract may pass or fail either way.
        spec = MaternSpec(nu, alpha)
        kernel = lattice_kernel(nx, ny, spacing, spec)
        want = oracles.doubling_torus(nx, ny, spacing, spec)
        if kernel is not None:
            mx, my = kernel.shape
            assert kernel.sqrt_eig.shape == (mx, my // 2 + 1)
            for m, n in ((mx, nx), (my, ny)):
                assert m == 1 if n == 1 else (m % 2 == 0 and m >= 2 * (n - 1))
            assert oracles.torus_negative_mass(kernel.shape, spacing, spec) <= 1e-6
        start = [fft.next_fast_len(max(2 * (n - 1), 1), real=True) for n in (nx, ny)]
        if any(n > 1 and m % 2 for m, n in zip(start, (nx, ny))):
            return
        if want is not None:
            assert kernel is not None
            assert kernel.shape[0] <= want[0] and kernel.shape[1] <= want[1]
        elif min(nx, ny) > 1:
            assert kernel is None

    @pytest.mark.parametrize("n, spacing, nu, alpha", [
        # test_fieldsim's recorded paths: the benchmark's 16 x 16 and 50 x 50
        # grids at 2 km, the default 101 x 101 at 1 km, 12 x 12 at 9 km
        *[(n, s, 1.5, a) for n, s in ((16, 2.0), (50, 2.0), (101, 1.0), (12, 9.0))
          for a in (10.0, 20.0)],
        # test_fieldsim's ALT_PARAMS specs on its 8 x 8 grid at 2 km
        (8, 2.0, 1.5, 12.0), (8, 2.0, 2.5, 6.0), (8, 2.0, 0.5, 6.0),
    ])
    def test_recorded_specs_find_an_embedding_where_doubling_does(self, n, spacing, nu,
                                                                  alpha):
        spec = MaternSpec(nu, alpha)
        want = oracles.doubling_torus(n, n, spacing, spec)
        kernel = lattice_kernel(n, n, spacing, spec)
        assert (kernel is None) == (want is None)

    def test_axis_of_one_node_keeps_a_torus_of_one_node(self):
        spec = MaternSpec(1.5, 3.0)
        for nx, ny in ((30, 1), (1, 30), (1, 1)):
            kernel = lattice_kernel(nx, ny, 1.0, spec)
            assert kernel is not None
            assert [m == 1 for m in kernel.shape] == [nx == 1, ny == 1]
            assert oracles.torus_negative_mass(kernel.shape, 1.0, spec) <= 1e-6
            draw = draw_field(kernel, np.random.default_rng(0))
            assert draw.shape == (nx * ny,) and np.all(np.isfinite(draw))

    @staticmethod
    def _lag_covariance(kernel):
        """Covariance of the draws at every node lag (0..nx-1, 0..ny-1): the
        first row of the circulant whose eigenvalues are ``sqrt_eig**2``."""
        lags = fft.irfft2(kernel.sqrt_eig ** 2, s=kernel.shape)
        return lags[: kernel.nx, : kernel.ny]

    def test_lag_covariance_is_the_draw_covariance(self):
        # the lag formula of the next test, against the covariance of draws
        # from unit normals: lags are even in each axis, so entry (a, b) of
        # the grid covariance is the lag (|ax - bx|, |ay - by|)
        kernel = lattice_kernel(7, 11, 1.0, MaternSpec(1.5, 0.5))
        lags = self._lag_covariance(kernel)
        i, j = np.divmod(np.arange(7 * 11), 11)
        want = lags[np.abs(i[:, None] - i), np.abs(j[:, None] - j)]
        got = oracles.lattice_draw_covariance(kernel)
        assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("n, spacing", [(50, 2.0), (101, 1.0)])
    @pytest.mark.parametrize("alpha", [10.0, 20.0])
    def test_draw_law_on_the_recorded_grids(self, n, spacing, alpha):
        # the synthetic truth's specs on the benchmark's 50 x 50 grid and the
        # config's default 101 x 101: every covariance entry of the draws is
        # within the contract's 1e-6 of the Matern covariance
        spec = MaternSpec(1.5, alpha)
        kernel = lattice_kernel(n, n, spacing, spec)
        lag = np.arange(n)
        want = oracles.matern(spacing * np.hypot(lag[:, None], lag), spec)
        assert np.max(np.abs(self._lag_covariance(kernel) - want)) <= gaussnum._JITTER_MAX

    def test_same_rng_same_bits(self):
        kernel = lattice_kernel(9, 13, 1.0, MaternSpec(1.5, 1.0))
        a = draw_field(kernel, np.random.default_rng(3))
        b = draw_field(kernel, np.random.default_rng(3))
        assert a.shape == (9 * 13,) and np.array_equal(a, b)

    def test_variogram_matches_model(self):
        # per-draw semivariances are independent across draws, so their mean
        # lies within 4 standard errors of 1 - rho(h) unless the law is wrong
        spec = MaternSpec(1.5, 3.0)
        kernel = lattice_kernel(24, 24, 1.0, spec)
        assert kernel is not None
        rng = np.random.default_rng(12)
        draws = np.array([draw_field(kernel, rng).reshape(24, 24) for _ in range(200)])
        lags = {  # (dx, dy) in nodes -> per-draw semivariance
            (1, 0): draws[:, 1:, :] - draws[:, :-1, :],
            (0, 3): draws[:, :, 3:] - draws[:, :, :-3],
            (6, 0): draws[:, 6:, :] - draws[:, :-6, :],
            (2, 2): draws[:, 2:, 2:] - draws[:, :-2, :-2],
        }
        for (dx, dy), diff in lags.items():
            gamma = 0.5 * np.mean(diff.reshape(len(draws), -1) ** 2, axis=1)
            se = gamma.std(ddof=1) / np.sqrt(len(gamma))
            want = 1.0 - matern(np.hypot(dx, dy), spec)
            assert se < 0.03
            assert abs(gamma.mean() - want) <= 4.0 * se, (dx, dy)
