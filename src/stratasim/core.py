"""Domain types for stacked depositional sequences and the move algebra.

A parent sequence is the regional ordering of lithofacies layers.  Each
borehole observes a subsequence of it; layers absent at a borehole have zero
thickness in the corresponding augmented configuration.  The mapping
``observe`` projects a full-length thickness vector back onto the observed
records (drop zeros, merge adjacent same-facies runs).  Split/Merge/Displace
redistribute observed thickness among same-facies layers without changing the
observed records.  Which moves do so is decided in closed form by one
predicate, ``_feasible``, shared by ``enumerate_moves`` and ``apply_move``;
no candidate is checked by re-running ``observe``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (
    IncompatibleSequenceError,
    InfeasibleMoveError,
    InvalidConfigurationError,
    DatasetError,
)

# All thicknesses are kept on a fixed dyadic grid (~1e-9 m).  Sums and
# differences of grid values below ~8e6 m are then exact in double precision,
# which makes total-thickness conservation and observe() invariance exact
# rather than approximate.
THICKNESS_QUANTUM = 2.0 ** -30

MOVE_KINDS = ("split", "merge", "displace")


def snap_thickness(z):
    """Round a thickness (scalar or array) to the dyadic grid."""
    return np.round(np.asarray(z, dtype=float) / THICKNESS_QUANTUM) * THICKNESS_QUANTUM


@dataclass(frozen=True)
class ParentSequence:
    """Ordered regional template of facies codes."""

    layers: tuple[str, ...]

    def __post_init__(self):
        if len(self.layers) < 1:
            raise InvalidConfigurationError("parent sequence must have at least one layer")
        object.__setattr__(self, "layers", tuple(str(c) for c in self.layers))

    def __len__(self):
        return len(self.layers)

    @property
    def facies(self) -> tuple[str, ...]:
        """Distinct facies codes, in order of first appearance."""
        seen = []
        for c in self.layers:
            if c not in seen:
                seen.append(c)
        return tuple(seen)

    def layers_of(self, facies: str) -> list[int]:
        return [j for j, c in enumerate(self.layers) if c == facies]


@dataclass(frozen=True)
class BoreholeObservation:
    """Observed facies/thickness records at one location.

    Records are ordered top-down; thicknesses are in metres and snapped to
    the dyadic grid at construction and must be positive.  Coordinates,
    ground level and thicknesses must be finite.  Consecutive records must
    carry different facies (each record is a maximal run).  A record that
    breaks these rules raises ``DatasetError`` with its index as ``position``.
    """

    id: str
    x: float
    y: float
    ground_level: float
    records: tuple[tuple[str, float], ...]

    def __post_init__(self):
        for name, value in (("x", self.x), ("y", self.y),
                            ("ground_level", self.ground_level)):
            if not np.isfinite(value):
                raise DatasetError(f"borehole {self.id}: {name} is not finite ({value!r})")
        recs = []
        prev = None
        for k, (facies, z) in enumerate(self.records):
            snapped = float(snap_thickness(z))
            if not (math.isfinite(snapped) and snapped >= 1e-9):
                raise DatasetError(
                    f"borehole {self.id}: record {k} has non-positive or non-finite "
                    f"thickness {z!r}", position=k
                )
            if prev is not None and facies == prev:
                raise DatasetError(
                    f"borehole {self.id}: records {k - 1} and {k} share facies {facies!r}",
                    position=k,
                )
            recs.append((str(facies), snapped))
            prev = facies
        object.__setattr__(self, "records", tuple(recs))


@dataclass(frozen=True)
class AugmentedConfiguration:
    """Full-length thickness vector over the parent sequence for one borehole.

    Every thickness is finite and >= 0; ``InvalidConfigurationError`` names
    the first layer that is not, as its ``position``.
    """

    borehole_id: str
    thicknesses: np.ndarray

    def __post_init__(self):
        z = np.array(self.thicknesses, dtype=float)
        bad = np.flatnonzero(~(z >= 0) | np.isinf(z))
        if bad.size:
            j = int(bad[0])
            raise InvalidConfigurationError(f"borehole {self.borehole_id}: thickness "
                                            f"{float(z[j])!r} of layer {j} is not "
                                            "finite and >= 0", position=j)
        z.flags.writeable = False
        object.__setattr__(self, "thicknesses", z)

    def __len__(self):
        return len(self.thicknesses)

    def with_thicknesses(self, z) -> "AugmentedConfiguration":
        return AugmentedConfiguration(self.borehole_id, z)


@dataclass(frozen=True)
class Move:
    """One Split/Merge/Displace proposal.

    ``j``/``j2`` are parent-layer indices.  For a split, ``u`` is the
    thickness moved to layer ``j2``; for a displace, ``u`` is the new
    thickness of layer ``j``.  Merges carry no ``u``.
    """

    kind: str
    j: int
    j2: int
    u: Optional[float] = None

    def __post_init__(self):
        if self.kind not in MOVE_KINDS:
            raise InfeasibleMoveError(f"unknown move kind {self.kind!r}")

    def with_u(self, u: float) -> "Move":
        return replace(self, u=float(u))


def is_compatible(obs_facies: Sequence[str], parent: ParentSequence) -> bool:
    """True iff the observed facies list is a subsequence of the parent."""
    it = iter(parent.layers)
    return all(f in it for f in obs_facies)


def check_compatible(boreholes: Sequence[BoreholeObservation], parent: ParentSequence):
    """Raise ``IncompatibleSequenceError`` listing every borehole whose facies
    are not a subsequence of the parent."""
    bad = [b.id for b in boreholes if not is_compatible([f for f, _ in b.records], parent)]
    if bad:
        raise IncompatibleSequenceError(
            f"boreholes incompatible with the parent sequence: {', '.join(bad)}"
        )


def observe(cfg: AugmentedConfiguration, parent: ParentSequence) -> list[tuple[str, float]]:
    """Project a configuration onto observed records.

    Drops zero-thickness layers, then merges maximal runs of consecutive
    identical facies by summing their thicknesses (left-to-right, exact on
    the dyadic grid).
    """
    z = cfg.thicknesses
    if len(z) != len(parent):
        raise InvalidConfigurationError(
            f"configuration length {len(z)} != parent length {len(parent)}"
        )
    records: list[tuple[str, float]] = []
    for j in range(len(parent)):
        if z[j] <= 0:
            continue
        facies = parent.layers[j]
        if records and records[-1][0] == facies:
            records[-1] = (facies, records[-1][1] + z[j])
        else:
            records.append((facies, float(z[j])))
    return records


def initial_augmentation(
    obs: BoreholeObservation, parent: ParentSequence
) -> AugmentedConfiguration:
    """Greedy leftmost assignment of each observed record to a parent layer."""
    z = np.zeros(len(parent))
    pos = 0
    for k, (facies, thickness) in enumerate(obs.records):
        while pos < len(parent) and parent.layers[pos] != facies:
            pos += 1
        if pos >= len(parent):
            raise IncompatibleSequenceError(
                f"borehole {obs.id}: record {k} ({facies!r}) does not fit the parent sequence",
                position=k,
            )
        z[pos] = thickness
        pos += 1
    return AugmentedConfiguration(obs.id, z)


def _feasible(z, parent: ParentSequence, kind: str, j: int, j2: int) -> bool:
    """Closed-form move feasibility: does the move keep the observed records?

    Moving mass between layers ``j`` and ``j2`` leaves the observed image
    unchanged iff both layers share a facies and every positive layer
    strictly between them has that facies too (so both sit in one observed
    run), and the kind's sign test holds: a split needs ``z[j]`` of at least
    two quanta and an empty ``z[j2]``; a merge needs both layers positive; a
    displace needs both positive and ``j < j2`` (``u`` covers both
    directions).  Out-of-range indices are infeasible.
    """
    layers = parent.layers
    if j == j2 or not (0 <= j < len(layers) and 0 <= j2 < len(layers)):
        return False
    facies = layers[j]
    if layers[j2] != facies:
        return False
    if kind == "split":
        if not (z[j] >= 2 * THICKNESS_QUANTUM and z[j2] == 0):
            return False
    elif not (z[j] > 0 and z[j2] > 0 and (kind == "merge" or j < j2)):
        return False
    lo, hi = min(j, j2), max(j, j2)
    return all(z[k] <= 0 or layers[k] == facies for k in range(lo + 1, hi))


def enumerate_moves(
    cfg: AugmentedConfiguration, parent: ParentSequence, kind: str
) -> list[Move]:
    """All feasible moves of one kind for this configuration, by ``j`` then ``j2``.

    Split: a positive layer donates part of its mass to an empty same-facies
    layer.  Merge (directed): layer ``j2`` collapses onto layer ``j``; both
    directions are enumerated so every compatible support stays reachable.
    Displace: the boundary between two positive same-facies layers moves.
    Feasibility is the closed-form rule of ``_feasible``.
    """
    if kind not in MOVE_KINDS:
        raise InfeasibleMoveError(f"unknown move kind {kind!r}")
    z = cfg.thicknesses.tolist()
    # only a layer of j's facies can pair with j, so only those are tried
    same_facies: dict[str, list[int]] = {}
    for j, facies in enumerate(parent.layers):
        same_facies.setdefault(facies, []).append(j)
    return [
        Move(kind, j, j2)
        for j, facies in enumerate(parent.layers)
        for j2 in same_facies[facies]
        if _feasible(z, parent, kind, j, j2)
    ]


def apply_move(
    cfg: AugmentedConfiguration, parent: ParentSequence, move: Move
) -> AugmentedConfiguration:
    """Apply a feasible move, conserving total thickness exactly."""
    if not _feasible(cfg.thicknesses, parent, move.kind, move.j, move.j2):
        raise InfeasibleMoveError(
            f"{move.kind} ({move.j}, {move.j2}) is not feasible for this configuration"
        )
    z = cfg.thicknesses.copy()
    if move.kind == "merge":
        z[move.j] = z[move.j] + z[move.j2]
        z[move.j2] = 0.0
        return cfg.with_thicknesses(z)

    if move.u is None:
        raise InfeasibleMoveError(f"{move.kind} move requires a split point u")
    u = float(snap_thickness(move.u))
    if move.kind == "split":
        total = z[move.j]
        if not 0.0 < u < total:
            raise InfeasibleMoveError(
                f"split point {move.u} outside open interval (0, {total})"
            )
        z[move.j] = total - u
        z[move.j2] = u
    else:  # displace
        total = z[move.j] + z[move.j2]
        if not 0.0 < u < total:
            raise InfeasibleMoveError(
                f"displace point {move.u} outside open interval (0, {total})"
            )
        z[move.j] = u
        z[move.j2] = total - u
    return cfg.with_thicknesses(z)
