"""Priors, Metropolis kernels, configuration sweep, and the full chain."""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chisquare

from stratasim.core import BoreholeObservation, ParentSequence, observe
from stratasim.errors import (
    CapacityError,
    IncompatibleSequenceError,
    NumericError,
    ParameterError,
)
from stratasim import gaussnum, likelihood, mcmc
from stratasim.likelihood import LayerParams
from stratasim.synthgen import SyntheticScenario, generate
from stratasim.mcmc import (
    PARAM_KINDS,
    ChainState,
    PosteriorSample,
    PriorSpec,
    ProposalSpec,
    ThicknessModel,
    _audit,
    metropolis_accept,
    parameter_group,
    pc_log_prior,
    run_chain,
    select_most_likely,
    update_configuration,
    update_parameter,
)

import oracles
from oracles import facies_shared


class TestPriorSpec:
    def test_rates(self):
        spec = PriorSpec(eps_alpha=0.01, alpha0=3.0, eps_mu=0.01, mu0=10.0)
        assert spec.lambda_alpha == pytest.approx(-math.log(0.01) * 3.0, abs=1e-12)
        assert spec.lambda_mu == pytest.approx(-math.log(0.01) / 10.0, abs=1e-12)

    def test_alpha_tail_calibration(self):
        # P(alpha < alpha0) = eps_alpha for the inverse-gamma-type density
        for eps, a0 in ((0.01, 3.0), (0.05, 1.0), (0.2, 8.0)):
            spec = PriorSpec(eps_alpha=eps, alpha0=a0)
            la = spec.lambda_alpha
            val, _ = quad(lambda a: la * a**-2 * math.exp(-la / a), 0, a0)
            assert val == pytest.approx(eps, abs=1e-6)

    def test_mu_tail_calibration(self):
        for eps, m0 in ((0.01, 10.0), (0.1, 2.0)):
            spec = PriorSpec(eps_mu=eps, mu0=m0)
            assert math.exp(-spec.lambda_mu * m0) == pytest.approx(eps, abs=1e-12)

    def test_nonpositive_inputs_rejected(self):
        assert pc_log_prior(-1.0, 1.0, PriorSpec()) == -math.inf
        assert pc_log_prior(1.0, 0.0, PriorSpec()) == -math.inf
        with pytest.raises(ParameterError):
            PriorSpec(eps_alpha=1.5)


class TestProposalSpec:
    def test_widths(self):
        spec = ProposalSpec()
        assert spec.width("p") == 0.15 and spec.width("alpha") == 3.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            ProposalSpec(d_mu=0.0)
        with pytest.raises(ParameterError):
            ProposalSpec(move_probs=(0.5, 0.5, 0.5))


@pytest.mark.parametrize("tied, want", [
    (True, ["Blue", "Red", "Blue"]),
    (False, ["Blue.1", "Red.2", "Blue.3"]),
])
def test_parameter_groups(tied, want):
    parent = ParentSequence(("Blue", "Red", "Blue"))
    bh = BoreholeObservation("b", 0.0, 0.0, 0.0, (("Blue", 1.0),))
    model = ThicknessModel([bh], parent, tie_by_facies=tied)
    assert [parameter_group(parent, j, tied) for j in range(3)] == want
    assert [model.group_of[j] for j in range(3)] == want
    assert model.groups == list(dict.fromkeys(want))


PARENT1 = ParentSequence(("Blue",))
BH1 = BoreholeObservation("b1", 0.0, 0.0, 0.0, (("Blue", 0.9),))
BH2 = BoreholeObservation("b2", 2.0, 0.0, 0.0, (("Blue", 1.4),))


def _grid_chain_frequencies(grid, log_target_vals, n_iter, seed, thin=20):
    """Metropolis over grid indices with a symmetric uniform proposal.

    Each step is accepted by the sampler's own rule, ``metropolis_accept``.
    States are counted every ``thin`` steps so the chi-squared test's
    independence assumption is a fair approximation.
    """
    rng = np.random.default_rng(seed)
    g = len(grid)
    counts = np.zeros(g)
    i = g // 2
    for step in range(n_iter):
        cand = int(rng.integers(g))
        if metropolis_accept(log_target_vals[cand] - log_target_vals[i], rng):
            i = cand
        if step % thin == thin - 1:
            counts[i] += 1
    return counts


@pytest.mark.parametrize("log_ratio", [-math.inf, -2.0, 0.0, 3.0, math.inf])
def test_metropolis_accept_draws_one_uniform(log_ratio):
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    u = ref.random()
    assert metropolis_accept(log_ratio, rng) == (math.log(u) < log_ratio)
    assert rng.random() == ref.random()  # streams still in step


def _chi2_pvalue(counts, probs):
    """Chi-squared GOF with low-expectation bins pooled to >= 5 counts."""
    n = counts.sum()
    expected = probs * n
    order = np.argsort(expected)
    pooled_c, pooled_e = [], []
    acc_c = acc_e = 0.0
    for idx in order:
        acc_c += counts[idx]
        acc_e += expected[idx]
        if acc_e >= 5:
            pooled_c.append(acc_c)
            pooled_e.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0:
        pooled_c[-1] += acc_c
        pooled_e[-1] += acc_e
    pooled_e = np.array(pooled_e) * (sum(pooled_c) / sum(pooled_e))
    return chisquare(pooled_c, pooled_e).pvalue


def _single_layer_loglik(model, value, which, base):
    from dataclasses import replace

    params = replace(base, **{which: float(value)})
    configs = model.initial_configs()
    return model.layer_term(model.layer_column(configs, 0), params)


class TestGridPosterior:
    """Chain occupancy matches the exhaustively normalized target per parameter."""

    @pytest.mark.parametrize(
        "which,grid,n_bh",
        [
            ("p", np.linspace(0.05, 0.95, 19), 1),
            ("mu", np.linspace(0.2, 4.0, 20), 1),
            ("beta", np.linspace(0.3, 3.9, 19), 1),
            ("alpha", np.linspace(0.5, 10.0, 20), 2),
        ],
    )
    def test_parameter(self, which, grid, n_bh):
        boreholes = [BH1, BH2][:n_bh]
        model = ThicknessModel(boreholes, PARENT1, cdf_tol=1e-6)
        base = LayerParams(p=0.5, mu=1.0, beta=1.0, alpha=2.0)
        priors = PriorSpec()
        logs = np.array([
            _single_layer_loglik(model, v, which, base) for v in grid
        ])
        if which in ("mu", "alpha"):
            from dataclasses import replace

            logs = logs + np.array([
                pc_log_prior(
                    *(v, base.mu) if which == "alpha" else (base.alpha, v),
                    priors,
                )
                for v in grid
            ])
        probs = np.exp(logs - logs.max())
        probs /= probs.sum()
        counts = _grid_chain_frequencies(grid, logs, n_iter=400_000, seed=17)
        assert _chi2_pvalue(counts, probs) > 0.01


class TestUpdateParameter:
    def _state(self, model):
        params = model.empirical_init()
        configs = model.initial_configs()
        return ChainState(params, configs, model.all_terms(configs, params))

    def test_out_of_support_rejected(self):
        model = ThicknessModel([BH1], PARENT1)
        state = self._state(model)
        rng = np.random.default_rng(0)
        # force p near the boundary so wide proposals often leave (0,1)
        state.params["Blue"] = LayerParams(0.999, 1.0, 1.0, 1.0)
        state.layer_terms = model.all_terms(state.configs, state.params)
        wide = ProposalSpec(d_p=5.0)
        changed = [
            update_parameter(model, state, "Blue", "p", wide, PriorSpec(), rng)
            for _ in range(50)
        ]
        for accepted in changed:
            assert 0.0 < state.params["Blue"].p < 1.0

    @pytest.mark.parametrize("which,start", [
        ("p", 0.999), ("mu", 0.05), ("beta", 0.3), ("alpha", 0.05),
    ])
    def test_out_of_support_draws_and_logs_nothing(
        self, which, start, caplog, monkeypatch
    ):
        inside = {
            "p": lambda v: 0.0 < v < 1.0,
            "mu": lambda v: v > 0.0,
            "beta": lambda v: 0.25 < v < 4.0,
            "alpha": lambda v: v > 0.0,
        }[which]
        model = ThicknessModel([BH1], PARENT1)
        state = self._state(model)
        state.params["Blue"] = replace(state.params["Blue"], **{which: start})
        state.layer_terms = model.all_terms(state.configs, state.params)
        params, terms = dict(state.params), state.layer_terms.copy()
        wide = replace(ProposalSpec(), **{f"d_{which}": 20.0})
        scored = []
        monkeypatch.setattr(model, "layer_term", lambda *args: scored.append(args))
        caplog.set_level(logging.DEBUG, logger="stratasim.mcmc")
        outside = 0
        for seed in range(40):
            twin = np.random.default_rng(seed)
            if inside(start + twin.uniform(-20.0, 20.0)):
                continue
            outside += 1
            rng = np.random.default_rng(seed)
            assert not update_parameter(model, state, "Blue", which, wide, PriorSpec(), rng)
            # only the proposal's uniform was drawn
            assert rng.bit_generator.state == twin.bit_generator.state
        assert outside >= 10
        assert scored == [] and caplog.records == []
        assert state.params == params and np.array_equal(state.layer_terms, terms)

    def test_capacity_error_ends_the_chain(self, caplog, monkeypatch):
        # a layer with more zero sites than the orthant cap is a capacity
        # limit, not a numeric failure that silently rejects the proposal
        model = ThicknessModel(_toy_boreholes(), SYNTH_PARENT)
        state = self._state(model)
        zeros = {j: int(np.sum(model.layer_column(state.configs, j) == 0))
                 for j in range(len(SYNTH_PARENT))}
        widest = max(zeros, key=zeros.get)
        assert zeros[widest] >= 1
        monkeypatch.setattr(gaussnum, "_DIM_CAP", zeros[widest] - 1)
        caplog.set_level(logging.WARNING, logger="stratasim.mcmc")
        with pytest.raises(CapacityError, match="orthant-probability cap"):
            update_parameter(model, state, model.group_of[widest], "alpha",
                             ProposalSpec(), PriorSpec(), np.random.default_rng(0))
        assert caplog.records == []

    def test_audit_catches_corrupted_cache(self):
        model = ThicknessModel([BH1, BH2], PARENT1)
        state = self._state(model)
        _audit(model, state)
        state.layer_terms[0] += 1e-3
        with pytest.raises(NumericError, match="drifted"):
            _audit(model, state)

    def test_audit_recomputes_without_the_kernel_memo(self):
        model = ThicknessModel([BH1, BH2], PARENT1)
        state = self._state(model)
        key, kernel = next(iter(model._kernels.items()))
        model._kernels[key] = replace(kernel, logdet=kernel.logdet + 1e-3)
        state.layer_terms = model.all_terms(state.configs, state.params)
        with pytest.raises(NumericError, match="drifted"):
            _audit(model, state)

    def test_cache_updated_on_accept(self):
        model = ThicknessModel([BH1, BH2], PARENT1)
        state = self._state(model)
        rng = np.random.default_rng(1)
        for _ in range(100):
            update_parameter(model, state, "Blue", "mu",
                             ProposalSpec(), PriorSpec(), rng)
        fresh = model.all_terms(state.configs, state.params)
        assert np.allclose(fresh, state.layer_terms, atol=1e-10)


class TestUpdateConfiguration:
    def test_isolated_facies_is_noop(self):
        # single Blue layer: no same-facies partner, every kind is a no-op
        model = ThicknessModel([BH1], PARENT1)
        params = model.empirical_init()
        configs = model.initial_configs()
        state = ChainState(params, configs, model.all_terms(configs, params))
        rng = np.random.default_rng(2)
        for _ in range(30):
            kind, outcome = update_configuration(model, state, 0, ProposalSpec(), rng)
            assert outcome == "noop"

    def test_three_state_occupancy(self):
        # one observed L record over two L slots separated by zeros:
        # states are layer-1 only, layer-4 only, and shared
        parent = ParentSequence(("L", "S", "G", "L", "A", "G"))
        bh = BoreholeObservation(
            "b1", 0.0, 0.0, 0.0, (("L", 0.4), ("A", 1.0), ("G", 2.0))
        )
        model = ThicknessModel([bh], parent, tie_by_facies=True, cdf_tol=1e-2)
        params = model.empirical_init()
        configs = model.initial_configs()
        state = ChainState(params, configs, model.all_terms(configs, params))
        rng = np.random.default_rng(3)
        occupancy = {"first": 0, "second": 0, "shared": 0}
        for _ in range(3000):
            update_configuration(model, state, 0, ProposalSpec(), rng)
            z = state.configs[0].thicknesses
            if z[0] > 0 and z[3] > 0:
                occupancy["shared"] += 1
            elif z[0] > 0:
                occupancy["first"] += 1
            else:
                occupancy["second"] += 1
            assert observe(state.configs[0], parent) == list(bh.records)
        assert all(v > 0 for v in occupancy.values())
        assert sum(occupancy.values()) == 3000

    def test_edge_flows_balance(self):
        # two-slot toy: stationarity forces matching flows on each tree edge
        parent = ParentSequence(("Blue", "Blue"))
        bh = BoreholeObservation("b1", 0.0, 0.0, 0.0, (("Blue", 1.0),))
        model = ThicknessModel([bh], parent, cdf_tol=1e-2)
        params = model.empirical_init()
        configs = model.initial_configs()
        state = ChainState(params, configs, model.all_terms(configs, params))
        rng = np.random.default_rng(4)

        def label():
            z = state.configs[0].thicknesses
            if z[0] > 0 and z[1] > 0:
                return "both"
            return "first" if z[0] > 0 else "second"

        n_steps = 12_000
        flows = {}
        visits = {"first": 0, "second": 0, "both": 0}
        prev = label()
        for _ in range(n_steps):
            update_configuration(model, state, 0, ProposalSpec(), rng)
            cur = label()
            visits[cur] += 1
            if cur != prev:
                flows[(prev, cur)] = flows.get((prev, cur), 0) + 1
            prev = cur
        for a, b in [("first", "both"), ("second", "both")]:
            fab = flows.get((a, b), 0)
            fba = flows.get((b, a), 0)
            assert fab > 0 and fba > 0
            assert abs(fab - fba) <= 3 * np.sqrt(fab + fba)
        # the two single-layer states are exchangeable under tied parameters
        total = visits["first"] + visits["second"]
        assert abs(visits["first"] - visits["second"]) < 0.15 * total


SYNTH_PARENT = ParentSequence(("Green", "Red", "Blue", "Black", "Blue"))


def _toy_boreholes():
    return [
        BoreholeObservation("a", 10.0, 10.0, 0.0,
                            (("Green", 1.0), ("Blue", 0.5))),
        BoreholeObservation("b", 40.0, 40.0, 0.0,
                            (("Red", 1.2), ("Blue", 0.9))),
        BoreholeObservation("c", 80.0, 20.0, 0.0,
                            (("Green", 0.6), ("Black", 1.1), ("Blue", 0.4))),
    ]


class TestRunChain:
    def test_zero_iterations(self):
        samples, diag = run_chain(
            _toy_boreholes(), SYNTH_PARENT, PriorSpec(), ProposalSpec(),
            n_iter=0, burn_in=0, thin=1, seed=0, cdf_tol=1e-2,
        )
        assert samples == []
        assert np.isfinite(diag["initial_loglik"])
        assert diag["loglik_trace"] == []

    @pytest.mark.parametrize("name, lengths", [
        ("thin", dict(n_iter=5, burn_in=0, thin=0)),
        ("n_iter", dict(n_iter=-1, burn_in=0, thin=1)),
        ("burn_in", dict(n_iter=5, burn_in=-1, thin=1)),
    ])
    def test_bad_chain_length_rejected_before_iterating(self, monkeypatch, name, lengths):
        def no_iteration(*args, **kwargs):
            raise AssertionError("the chain iterated")

        monkeypatch.setattr(mcmc, "update_parameter", no_iteration)
        with pytest.raises(ParameterError, match=f"{name} must be at least"):
            run_chain(_toy_boreholes(), SYNTH_PARENT, PriorSpec(), ProposalSpec(),
                      seed=0, **lengths)

    def test_deterministic_given_seed(self):
        kwargs = dict(n_iter=40, burn_in=10, thin=5, seed=123, cdf_tol=1e-2)
        s1, d1 = run_chain(_toy_boreholes(), SYNTH_PARENT,
                           PriorSpec(), ProposalSpec(), **kwargs)
        s2, d2 = run_chain(_toy_boreholes(), SYNTH_PARENT,
                           PriorSpec(), ProposalSpec(), **kwargs)
        assert len(s1) == len(s2) == 6
        for a, b in zip(s1, s2):
            assert a.iteration == b.iteration and a.loglik == b.loglik
            assert a.params == b.params
            for ca, cb in zip(a.configs, b.configs):
                assert np.array_equal(ca.thicknesses, cb.thicknesses)
        assert d1["loglik_trace"] == d2["loglik_trace"]

    def test_counters_are_exact(self):
        samples, diag = run_chain(
            _toy_boreholes(), SYNTH_PARENT, PriorSpec(), ProposalSpec(),
            n_iter=25, burn_in=0, thin=5, seed=7, cdf_tol=1e-2,
        )
        n_groups = 4  # facies groups in SYNTH_PARENT
        for which, c in diag["param_accept"].items():
            assert c["proposed"] == 25 * n_groups
            assert 0 <= c["accepted"] <= c["proposed"]
        move_total = sum(
            c["proposed"] + c["infeasible"] for c in diag["move_accept"].values()
        )
        assert move_total == 25 * 3  # one proposal per borehole per iteration

    def test_audit_runs_clean(self, monkeypatch):
        monkeypatch.setattr(mcmc, "_AUDIT_EVERY", 10)
        run_chain(
            _toy_boreholes(), SYNTH_PARENT, PriorSpec(), ProposalSpec(),
            n_iter=30, burn_in=0, thin=10, seed=9, cdf_tol=1e-2,
        )

    def test_kernel_memo_stays_bounded(self, monkeypatch):
        builds = []
        build = likelihood.layer_kernel
        monkeypatch.setattr(likelihood, "layer_kernel",
                            lambda *a: builds.append(1) or build(*a))
        model = ThicknessModel(_toy_boreholes(), SYNTH_PARENT, cdf_tol=1e-2)
        params = model.empirical_init()
        configs = model.initial_configs()
        state = ChainState(params, configs, model.all_terms(configs, params))
        rng = np.random.default_rng(11)
        sizes = []
        for _ in range(200):
            for which in PARAM_KINDS:
                for group in model.groups:
                    update_parameter(model, state, group, which,
                                     ProposalSpec(), PriorSpec(), rng)
            for k in range(model.n):
                update_configuration(model, state, k, ProposalSpec(), rng)
            sizes.append(len(model._kernels))
        assert max(sizes) == model.kernel_capacity == 2 * (5 + 3)
        assert len(builds) > 10 * model.kernel_capacity  # entries were dropped
        _audit(model, state)

    def test_mu_and_beta_steps_skip_absent_layers(self, monkeypatch):
        # no borehole shows Red, so its layer's term is the orthant
        # probability of every site, which mu and beta do not enter
        boreholes = [
            BoreholeObservation("a", 10.0, 10.0, 0.0, (("Green", 1.0), ("Blue", 0.5))),
            BoreholeObservation("b", 40.0, 40.0, 0.0, (("Blue", 0.9),)),
            BoreholeObservation("c", 80.0, 20.0, 0.0,
                                (("Green", 0.6), ("Black", 1.1), ("Blue", 0.4))),
        ]
        step = [None]
        update, term = mcmc.update_parameter, ThicknessModel.layer_term

        def tagged(model, state, group, which, *args):
            step.append(which)
            try:
                return update(model, state, group, which, *args)
            finally:
                step.append(None)

        def chain():
            scored = []

            def spy(self, z_col, params):
                scored.append((step[-1], not np.any(np.asarray(z_col) > 0)))
                return term(self, z_col, params)

            monkeypatch.setattr(ThicknessModel, "layer_term", spy)
            samples, diag = run_chain(boreholes, SYNTH_PARENT, PriorSpec(),
                                      ProposalSpec(), n_iter=30, burn_in=0, thin=3,
                                      seed=4, cdf_tol=1e-2)
            return samples, diag, set(scored)

        monkeypatch.setattr(mcmc, "update_parameter", tagged)
        samples, diag, scored = chain()
        assert ("mu", True) not in scored and ("beta", True) not in scored
        assert {("p", True), ("alpha", True), ("mu", False)} <= scored
        monkeypatch.setattr(mcmc, "_POSITIVE_SITE_KINDS", ())
        want, want_diag, scored = chain()
        assert ("mu", True) in scored and ("beta", True) in scored
        assert diag["loglik_trace"] == want_diag["loglik_trace"]
        assert diag["param_accept"] == want_diag["param_accept"]
        for got, ref in zip(samples, want, strict=True):
            assert got.params == ref.params and got.loglik == ref.loglik
            assert all(np.array_equal(a.thicknesses, b.thicknesses)
                       for a, b in zip(got.configs, ref.configs, strict=True))

    def test_incompatible_borehole_reported(self):
        bad = BoreholeObservation("z", 0, 0, 0, (("Black", 1.0), ("Green", 1.0)))
        with pytest.raises(IncompatibleSequenceError, match="z"):
            run_chain([bad], SYNTH_PARENT, PriorSpec(), ProposalSpec(),
                      n_iter=1, burn_in=0, thin=1, seed=0)


    def test_same_draws_as_a_chain_scored_by_the_oracle(self, monkeypatch):
        # Twelve boreholes give orthants of up to 11 dimensions; at cdf_tol
        # 1e-4 dozens of them run past the first QMC round.
        scenario = SyntheticScenario(seed=0)
        boreholes, _, _ = generate(scenario)

        def chain():
            return run_chain(boreholes, scenario.parent, PriorSpec(), ProposalSpec(),
                             n_iter=12, burn_in=0, thin=2, seed=5, cdf_tol=1e-4)

        monkeypatch.setattr(mcmc, "_AUDIT_EVERY", 6)
        samples, diag = chain()
        monkeypatch.setattr(
            ThicknessModel, "layer_term",
            lambda self, z_col, params: oracles.layer_loglik(
                z_col, self.locations, params, self.cdf_tol),
        )
        want, want_diag = chain()
        assert diag["param_accept"] == want_diag["param_accept"]
        assert diag["move_accept"] == want_diag["move_accept"]
        for got, ref in zip(samples, want, strict=True):
            assert got.params == ref.params
            assert all(np.array_equal(a.thicknesses, b.thicknesses)
                       for a, b in zip(got.configs, ref.configs, strict=True))
            assert got.loglik == pytest.approx(ref.loglik, abs=1e-9)


class TestSelectMostLikely:
    def _sample(self, it, ll):
        return PosteriorSample(it, {}, (), ll)

    def test_single(self):
        s = self._sample(1, -10.0)
        assert select_most_likely([s]) is s

    def test_argmax_with_tie(self):
        samples = [self._sample(1, -5.0), self._sample(2, -3.0),
                   self._sample(3, -3.0)]
        assert select_most_likely(samples).iteration == 2

    def test_empty(self):
        with pytest.raises(ParameterError):
            select_most_likely([])

    def test_predicate_filter(self):
        from stratasim.core import AugmentedConfiguration

        parent = ParentSequence(("G", "A", "G"))
        shared = PosteriorSample(
            1, {}, (AugmentedConfiguration("b", np.array([1.0, 0.5, 1.0])),), -9.0
        )
        single = PosteriorSample(
            2, {}, (AugmentedConfiguration("b", np.array([2.0, 0.5, 0.0])),), -2.0
        )
        best = select_most_likely(
            [s for s in (shared, single) if facies_shared(s, parent, "G")]
        )
        assert best is shared
