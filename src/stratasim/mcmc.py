"""Metropolis-within-Gibbs sampler over layer parameters and configurations.

One iteration sweeps every parameter kind over every parameter group, then
proposes one Split/Merge/Displace move per borehole.  Parameter proposals are
symmetric uniform random walks accepted on the likelihood-times-prior ratio;
configuration moves are accepted on the bare likelihood ratio.  Both updates
rescore the affected layers and then accept and commit through one path,
whose rule is ``metropolis_accept``.

Two things are cached.  The chain state keeps one log-likelihood term per
layer, so a proposal rescores only the layers it touches.  The model keeps a
bounded memo of likelihood kernels keyed by (Matern spec, support mask):
borehole locations never move, and p, mu and beta proposals leave both keys
unchanged, so they reuse the kernel and skip the covariance, its Cholesky
factor and the kriging of the zero sites.  Every ``_AUDIT_EVERY`` iterations
``_audit`` recomputes every term through an empty memo and compares it with
the cached terms.
"""

from __future__ import annotations

import copy
import logging
import math
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from . import core, likelihood
from .core import (
    AugmentedConfiguration,
    BoreholeObservation,
    ParentSequence,
    apply_move,
    check_compatible,
    enumerate_moves,
    initial_augmentation,
    observe,
    snap_thickness,
)
from .errors import NumericError, ParameterError
from .gaussnum import ConditionalKernel, MaternSpec
from .likelihood import PARAM_KINDS, LayerParams, init_from_empirical

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PriorSpec:
    """Flat priors for p and beta; PC priors for range and thickness scale."""

    eps_alpha: float = 0.01
    alpha0: float = 3.0
    eps_mu: float = 0.01
    mu0: float = 10.0

    def __post_init__(self):
        for name, eps in (("eps_alpha", self.eps_alpha), ("eps_mu", self.eps_mu)):
            if not 0.0 < eps < 1.0:
                raise ParameterError(f"{name} must lie in (0,1), got {eps}")
        for name, scale in (("alpha0", self.alpha0), ("mu0", self.mu0)):
            if not scale > 0:
                raise ParameterError(f"{name} must be positive, got {scale}")

    @property
    def lambda_alpha(self) -> float:
        return -math.log(self.eps_alpha) * self.alpha0

    @property
    def lambda_mu(self) -> float:
        return -math.log(self.eps_mu) / self.mu0


@dataclass(frozen=True)
class ProposalSpec:
    """Uniform random-walk half-widths and move-kind probabilities."""

    d_mu: float = 0.4
    d_beta: float = 0.4
    d_p: float = 0.15
    d_alpha: float = 3.0
    move_probs: tuple[float, float, float] = (1.0 / 3, 1.0 / 3, 1.0 / 3)

    def __post_init__(self):
        for which in PARAM_KINDS:
            if not self.width(which) > 0:
                raise ParameterError(f"d_{which} must be positive, got {self.width(which)}")
        if abs(sum(self.move_probs) - 1.0) > 1e-12 or min(self.move_probs) < 0:
            raise ParameterError(
                f"move probabilities must be non-negative and sum to 1, got {self.move_probs}"
            )

    def width(self, which: str) -> float:
        """Half-width ``d_<which>`` of one kind in ``PARAM_KINDS``."""
        return getattr(self, f"d_{which}")


def pc_log_prior(alpha: float, mu: float, spec: PriorSpec) -> float:
    """Joint PC log-prior: lam_a a^-2 exp(-lam_a/a) * lam_m exp(-lam_m m)."""
    if alpha <= 0 or mu <= 0:
        return -math.inf
    la, lm = spec.lambda_alpha, spec.lambda_mu
    return (
        math.log(la) - 2.0 * math.log(alpha) - la / alpha
        + math.log(lm) - lm * mu
    )


def metropolis_accept(log_ratio: float, rng) -> bool:
    """Metropolis rule: accept with probability min(1, exp(log_ratio)).

    Always draws exactly one uniform, whatever the ratio, so the random
    stream does not depend on the outcome.
    """
    return math.log(rng.random()) < log_ratio


def parameter_group(parent: ParentSequence, j: int, tie_by_facies: bool) -> str:
    """Name of layer ``j``'s parameter group: its facies when layers of one
    facies are tied, otherwise the facies and the 1-based layer number."""
    facies = parent.layers[j]
    return facies if tie_by_facies else f"{facies}.{j + 1}"


class ThicknessModel:
    """Dataset + parent-sequence context for likelihood evaluation.

    When ``tie_by_facies`` is set, all layers of one facies share a single
    parameter group (the synthetic-experiment convention); otherwise each
    layer is its own group.

    ``layer_term`` looks its ``likelihood.layer_kernel`` up in a memo keyed by
    the layer's Matern spec (alpha, nu) and support mask over the fixed
    borehole locations.  The memo belongs to this model and drops its least
    recently used kernel beyond ``kernel_capacity`` entries: twice the layers
    plus boreholes, enough that the kernels of the current state survive one
    sweep of alpha candidates and one move candidate pair per borehole.
    """

    def __init__(
        self,
        boreholes: list[BoreholeObservation],
        parent: ParentSequence,
        nu: float = 1.5,
        tie_by_facies: bool = True,
        cdf_tol: float = 1e-3,
    ):
        check_compatible(boreholes, parent)
        self.boreholes = list(boreholes)
        self.parent = parent
        self.nu = float(nu)
        self.tie_by_facies = tie_by_facies
        self.cdf_tol = float(cdf_tol)
        self.locations = np.array([[b.x, b.y] for b in boreholes], dtype=float)
        self.group_of = {
            j: parameter_group(parent, j, tie_by_facies) for j in range(len(parent))
        }
        self.groups = []
        for j in range(len(parent)):
            g = self.group_of[j]
            if g not in self.groups:
                self.groups.append(g)
        self.layers_of = {
            g: [j for j in range(len(parent)) if self.group_of[j] == g]
            for g in self.groups
        }
        self.kernel_capacity = 2 * (len(parent) + len(self.boreholes))
        self._kernels: OrderedDict = OrderedDict()

    @property
    def n(self) -> int:
        return len(self.boreholes)

    @property
    def n_layers(self) -> int:
        return len(self.parent)

    def layer_column(self, configs, j) -> np.ndarray:
        return np.array([cfg.thicknesses[j] for cfg in configs])

    def without_memo(self) -> "ThicknessModel":
        """A copy of this model whose kernel memo starts empty."""
        twin = copy.copy(self)
        twin._kernels = OrderedDict()
        return twin

    def kernel(self, spec: MaternSpec, mask: np.ndarray) -> ConditionalKernel:
        """The memoised kernel of one (Matern spec, positive-site mask)."""
        key = (spec, mask.tobytes())
        kernel = self._kernels.get(key)
        if kernel is not None:
            self._kernels.move_to_end(key)
            return kernel
        kernel = likelihood.layer_kernel(
            self.locations[mask], self.locations[~mask], spec
        )
        self._kernels[key] = kernel
        if len(self._kernels) > self.kernel_capacity:
            self._kernels.popitem(last=False)
        return kernel

    def layer_term(self, z_col, params: LayerParams) -> float:
        z = np.asarray(z_col, dtype=float)
        mask = z > 0
        return likelihood.kernel_loglik(
            self.kernel(params.matern_spec, mask), z[mask], params, self.cdf_tol
        )

    def all_terms(self, configs, params_by_group) -> np.ndarray:
        terms = np.empty(self.n_layers)
        for j in range(self.n_layers):
            terms[j] = self.layer_term(
                self.layer_column(configs, j), params_by_group[self.group_of[j]]
            )
        return terms

    def empirical_init(self, alpha_init: float = 1.0) -> dict[str, LayerParams]:
        """Initial parameters from per-group presence and mean thickness."""
        params = {}
        overall_mean = np.mean(
            [z for b in self.boreholes for _, z in b.records] or [1.0]
        )
        for g in self.groups:
            facies = self.parent.layers[self.layers_of[g][0]]
            recs = [z for b in self.boreholes for f, z in b.records if f == facies]
            n_slots = len(self.parent.layers_of(facies)) * self.n
            p0 = len(recs) / n_slots
            p0 = float(np.clip(p0, 0.02, 0.98))
            tbar = float(np.mean(recs)) if recs else float(overall_mean)
            _, mu0 = init_from_empirical(p0, tbar)
            params[g] = LayerParams(p0, mu0, 1.0, alpha_init, self.nu)
        return params

    def initial_configs(self) -> list[AugmentedConfiguration]:
        return [initial_augmentation(b, self.parent) for b in self.boreholes]


@dataclass
class ChainState:
    """Mutable MCMC state: parameters, configurations, cached layer terms."""

    params: dict[str, LayerParams]
    configs: list[AugmentedConfiguration]
    layer_terms: np.ndarray

    @property
    def loglik(self) -> float:
        return float(np.sum(self.layer_terms))


@dataclass(frozen=True)
class PosteriorSample:
    """Thinned snapshot of the chain."""

    iteration: int
    params: dict[str, LayerParams]
    configs: tuple[AugmentedConfiguration, ...]
    loglik: float


# Parameter kinds that enter a layer term only through its positive sites
# (the latent transform and its Jacobian); p, alpha and nu also set the law
# of the zero sites.
_POSITIVE_SITE_KINDS = ("mu", "beta")


def update_parameter(
    model: ThicknessModel,
    state: ChainState,
    group: str,
    which: str,
    proposals: ProposalSpec,
    priors: PriorSpec,
    rng,
) -> bool:
    """One random-walk Metropolis update of one parameter of one group.

    A proposal outside the parameter's support, which ``LayerParams``
    rejects, is rejected before any scoring and draws no accept uniform.
    A mu or beta proposal rescores only the group's layers that are positive
    at some borehole: the others' terms do not depend on it.
    """
    cur = state.params[group]
    cur_val = getattr(cur, which)
    new_val = cur_val + rng.uniform(-proposals.width(which), proposals.width(which))
    try:
        cand = replace(cur, **{which: float(new_val)})
    except ParameterError:
        return False
    log_prior_ratio = 0.0
    if which in ("mu", "alpha"):
        log_prior_ratio = pc_log_prior(cand.alpha, cand.mu, priors) - pc_log_prior(
            cur.alpha, cur.mu, priors
        )
    layers = model.layers_of[group]
    if which in _POSITIVE_SITE_KINDS:
        # a layer with no positive site scores only the orthant probability
        # of its zero sites, so its cached term is already the new one
        layers = [j for j in layers if np.any(model.layer_column(state.configs, j) > 0)]
    return _accept_and_commit(
        model, state, layers, state.configs,
        {**state.params, group: cand}, log_prior_ratio, "parameter", rng,
    )


def update_configuration(
    model: ThicknessModel,
    state: ChainState,
    k: int,
    proposals: ProposalSpec,
    rng,
) -> tuple[str, str]:
    """One move proposal at borehole k.

    Returns (kind, outcome) with outcome in {'noop', 'accepted', 'rejected'}.
    """
    kind = core.MOVE_KINDS[
        rng.choice(3, p=np.asarray(proposals.move_probs, dtype=float))
    ]
    cfg = state.configs[k]
    moves = enumerate_moves(cfg, model.parent, kind)
    if not moves:
        return kind, "noop"
    move = moves[rng.integers(len(moves))]
    if kind != "merge":
        # a split's target layer is empty, so this is its donor's thickness
        total = cfg.thicknesses[move.j] + cfg.thicknesses[move.j2]
        u = float(snap_thickness(rng.uniform(0.0, total)))
        if not 0.0 < u < total:
            return kind, "rejected"
        move = move.with_u(u)
    configs = list(state.configs)
    configs[k] = apply_move(cfg, model.parent, move)
    accepted = _accept_and_commit(
        model, state, sorted({move.j, move.j2}), configs, state.params,
        0.0, "move", rng,
    )
    return kind, "accepted" if accepted else "rejected"


def _accept_and_commit(
    model: ThicknessModel,
    state: ChainState,
    layers,
    configs,
    params,
    log_prior_ratio: float,
    what: str,
    rng,
) -> bool:
    """Rescore ``layers`` under a candidate (configs, params); accept and commit.

    A numeric failure while scoring rejects the candidate without drawing a
    uniform; any other error, such as a ``CapacityError``, ends the chain, so
    no configuration is silently left out of the posterior.  Otherwise
    ``metropolis_accept`` decides on the likelihood ratio of the rescored
    layers plus ``log_prior_ratio``; on acceptance the candidate and its
    layer terms replace the state's.
    """
    try:
        new_terms = {
            j: model.layer_term(
                model.layer_column(configs, j), params[model.group_of[j]]
            )
            for j in layers
        }
    except NumericError as exc:
        log.warning("%s proposal rejected after numeric failure: %s", what, exc)
        return False
    delta = sum(new_terms[j] - state.layer_terms[j] for j in layers)
    if not metropolis_accept(delta + log_prior_ratio, rng):
        return False
    state.configs = configs
    state.params = params
    for j in layers:
        state.layer_terms[j] = new_terms[j]
    return True


# Iterations between audits: a full rescore through an empty memo.
_AUDIT_EVERY = 1000


def _audit(model: ThicknessModel, state: ChainState, tol: float = 1e-6):
    """Verify cached terms and observed-image invariance; raise on failure.

    The fresh terms are computed through an empty kernel memo, so the check
    covers the memo as well as the chain's cached terms.
    """
    fresh = model.without_memo().all_terms(state.configs, state.params)
    drift = float(np.max(np.abs(fresh - state.layer_terms))) if fresh.size else 0.0
    if drift > tol:
        raise NumericError(f"cached log-likelihood drifted by {drift:.3e} at audit")
    for b, cfg in zip(model.boreholes, state.configs):
        if observe(cfg, model.parent) != list(b.records):
            raise NumericError(
                f"configuration at borehole {b.id} no longer maps to its records"
            )


def check_chain_lengths(n_iter: int = 0, burn_in: int = 0, thin: int = 1):
    """The chain-length rule: ``n_iter`` and ``burn_in`` at least 0, ``thin``
    at least 1.  A length outside it raises ``ParameterError``."""
    for name, value, least in (("n_iter", n_iter, 0), ("burn_in", burn_in, 0),
                               ("thin", thin, 1)):
        if value < least:
            raise ParameterError(f"{name} must be at least {least}, got {value}")


def run_chain(
    boreholes: list[BoreholeObservation],
    parent: ParentSequence,
    priors: PriorSpec,
    proposals: ProposalSpec,
    n_iter: int,
    burn_in: int,
    thin: int,
    seed: int,
    nu: float = 1.5,
    tie_by_facies: bool = True,
    cdf_tol: float = 1e-3,
    alpha_init: float = 1.0,
):
    """Full sampling loop; returns (samples, diagnostics).

    diagnostics carries the per-iteration log-likelihood trace, exact
    accepted/proposed counters per parameter kind and per move kind, and the
    initial log-likelihood.
    """
    check_chain_lengths(n_iter, burn_in, thin)
    model = ThicknessModel(
        boreholes, parent, nu=nu, tie_by_facies=tie_by_facies, cdf_tol=cdf_tol
    )
    rng = np.random.default_rng(seed)
    state = ChainState(
        params=model.empirical_init(alpha_init),
        configs=model.initial_configs(),
        layer_terms=None,
    )
    state.layer_terms = model.all_terms(state.configs, state.params)
    initial_loglik = state.loglik

    param_counts = {which: [0, 0] for which in PARAM_KINDS}  # accepted, proposed
    move_counts = {kind: [0, 0, 0] for kind in core.MOVE_KINDS}  # acc, prop, noop
    trace = []
    samples: list[PosteriorSample] = []

    for it in range(1, n_iter + 1):
        for which in PARAM_KINDS:
            for group in model.groups:
                accepted = update_parameter(
                    model, state, group, which, proposals, priors, rng
                )
                param_counts[which][1] += 1
                param_counts[which][0] += int(accepted)
        for k in range(model.n):
            kind, outcome = update_configuration(model, state, k, proposals, rng)
            if outcome == "noop":
                move_counts[kind][2] += 1
            else:
                move_counts[kind][1] += 1
                move_counts[kind][0] += int(outcome == "accepted")
        trace.append(state.loglik)
        if it % _AUDIT_EVERY == 0:
            _audit(model, state)
        if it > burn_in and (it - burn_in) % thin == 0:
            samples.append(
                PosteriorSample(
                    iteration=it,
                    params=dict(state.params),
                    configs=tuple(state.configs),
                    loglik=state.loglik,
                )
            )

    diagnostics = {
        "initial_loglik": initial_loglik,
        "loglik_trace": trace,
        "param_accept": {
            which: {"accepted": c[0], "proposed": c[1]}
            for which, c in param_counts.items()
        },
        "move_accept": {
            kind: {"accepted": c[0], "proposed": c[1], "infeasible": c[2]}
            for kind, c in move_counts.items()
        },
        "groups": list(model.groups),
    }
    return samples, diagnostics


def select_most_likely(samples) -> PosteriorSample:
    """Sample with the highest stored log-likelihood (ties: earliest)."""
    pool = list(samples)
    if not pool:
        raise ParameterError("no posterior samples to select from")
    best = pool[0]
    for s in pool[1:]:
        if s.loglik > best.loglik:
            best = s
    return best
