"""Brute-force oracles that the tests compare the package against."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from stratasim.core import (
    AugmentedConfiguration,
    ParentSequence,
    apply_move,
    enumerate_moves,
    snap_thickness,
)
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


def reachable_supports(
    cfg: AugmentedConfiguration, parent: ParentSequence
) -> set[frozenset[int]]:
    """Support patterns reachable from ``cfg`` by chains of moves (BFS).

    Only Split and Merge change the support, so Displace is not explored.
    """
    seen = {cfg.support()}
    frontier = [cfg]
    while frontier:
        cur = frontier.pop()
        for kind in ("split", "merge"):
            for mv in enumerate_moves(cur, parent, kind):
                if kind == "split":
                    mv = mv.with_u(float(snap_thickness(cur.thicknesses[mv.j] / 2.0)))
                nxt = apply_move(cur, parent, mv)
                if nxt.support() not in seen:
                    seen.add(nxt.support())
                    frontier.append(nxt)
    return seen


def facies_shared(sample: PosteriorSample, parent: ParentSequence, facies: str) -> bool:
    """True if some borehole splits this facies across several layers."""
    idx = parent.layers_of(facies)
    return any(
        int(np.sum(cfg.thicknesses[idx] > 0)) >= 2 for cfg in sample.configs
    )
