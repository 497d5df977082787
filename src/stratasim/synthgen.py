"""Synthetic validation scenario: 15-layer parent, 4 facies, 12 boreholes.

The default parent sequence is a reconstruction carrying the structural
features the validation relies on: an isolated-Red spacing of 4 and 6
layers, a Black-Blue-Black triplet, and the 6-layer Green/Blue alternation
in layers 8-13.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gaussnum, likelihood
from .core import (
    AugmentedConfiguration,
    BoreholeObservation,
    ParentSequence,
    observe,
    snap_thickness,
)
from .likelihood import LayerParams

DEFAULT_PARENT = ParentSequence(
    (
        "Green", "Red", "Blue", "Black", "Blue", "Black", "Red",
        "Green", "Blue", "Green", "Blue", "Green", "Blue", "Red", "Green",
    )
)

DEFAULT_TRUE_PARAMS = {
    "Black": LayerParams(p=0.3, mu=1.0, beta=1.0, alpha=20.0, nu=1.5),
    "Red": LayerParams(p=0.8, mu=1.0, beta=1.0, alpha=20.0, nu=1.5),
    "Blue": LayerParams(p=0.3, mu=1.0, beta=1.0, alpha=10.0, nu=1.5),
    "Green": LayerParams(p=0.8, mu=1.0, beta=1.0, alpha=10.0, nu=1.5),
}

DIAGONAL_BOREHOLES = ((25.0, 25.0), (50.0, 50.0), (75.0, 75.0))


@dataclass(frozen=True)
class SyntheticScenario:
    """Ground-truth setup for the synthetic recovery experiment."""

    parent: ParentSequence = DEFAULT_PARENT
    true_params: dict = field(default_factory=lambda: dict(DEFAULT_TRUE_PARAMS))
    domain_size: float = 100.0
    n_random_boreholes: int = 9
    ground_level: float = 0.0
    seed: int = 0

    def locations(self) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence((int(self.seed), 0xB0)))
        random_locs = rng.uniform(0.0, self.domain_size, size=(self.n_random_boreholes, 2))
        return np.vstack([np.array(DIAGONAL_BOREHOLES), random_locs])


def generate(scenario: SyntheticScenario):
    """Simulate truth at the borehole locations and project to observations.

    Returns (boreholes, truth_configs, true_params).  Truth thicknesses are
    snapped to the dyadic grid so observed record sums are exact.
    """
    locs = scenario.locations()
    n = len(locs)
    parent = scenario.parent
    z = np.empty((len(parent), n))
    for j, facies in enumerate(parent.layers):
        prm = scenario.true_params[facies]
        rng = np.random.default_rng(np.random.SeedSequence((int(scenario.seed), 1 + j)))
        w = gaussnum.sample_gaussian_field(locs, prm.matern_spec, rng)
        z[j] = likelihood.thickness_from_latent(w, prm)
    z = snap_thickness(z)
    z[z < 1e-9] = 0.0

    boreholes = []
    truth = []
    for i in range(n):
        cfg = AugmentedConfiguration(f"bh{i + 1}", z[:, i])
        truth.append(cfg)
        boreholes.append(
            BoreholeObservation(
                id=f"bh{i + 1}",
                x=float(locs[i, 0]),
                y=float(locs[i, 1]),
                ground_level=scenario.ground_level,
                records=tuple(observe(cfg, parent)),
            )
        )
    return boreholes, truth, dict(scenario.true_params)
