"""Domain types, the observation mapping, and the move algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratasim.core import (
    THICKNESS_QUANTUM,
    AugmentedConfiguration,
    BoreholeObservation,
    Move,
    ParentSequence,
    _feasible,
    apply_move,
    enumerate_moves,
    initial_augmentation,
    is_compatible,
    observe,
    snap_thickness,
)
from stratasim.errors import (
    DatasetError,
    IncompatibleSequenceError,
    InfeasibleMoveError,
    InvalidConfigurationError,
)
from stratasim.synthgen import DEFAULT_PARENT

from oracles import compatible_supports, reachable_supports

TABLE_PARENT = ParentSequence(("Blue", "Red", "Blue", "Green", "Blue"))


def cfg(z, bid="b"):
    return AugmentedConfiguration(bid, np.asarray(z, dtype=float))


def _subseq_dp(obs, parent):
    # independent dynamic-programming subsequence oracle
    i = 0
    for c in parent:
        if i < len(obs) and obs[i] == c:
            i += 1
    return i == len(obs)


class TestCompatibility:
    def test_table_example(self):
        assert is_compatible(["Blue", "Red", "Blue"], TABLE_PARENT)

    def test_empty_obs(self):
        assert is_compatible([], TABLE_PARENT)

    def test_order_violation(self):
        assert not is_compatible(["Green", "Red"], TABLE_PARENT)

    @given(
        st.lists(st.sampled_from("ABC"), min_size=1, max_size=6),
        st.lists(st.sampled_from("ABC"), max_size=4),
    )
    def test_matches_dp_oracle(self, parent_layers, obs):
        parent = ParentSequence(tuple(parent_layers))
        assert is_compatible(obs, parent) == _subseq_dp(obs, parent_layers)


class TestObserve:
    def test_drop_zeros(self):
        t1, t2, t3 = 1.0, 2.5, 4.0
        records = observe(cfg([t1, t2 - t1, t3 - t2, 0, 0]), TABLE_PARENT)
        assert records == [("Blue", t1), ("Red", t2 - t1), ("Blue", t3 - t2)]

    def test_all_zero(self):
        assert observe(cfg([0, 0, 0, 0, 0]), TABLE_PARENT) == []

    def test_intervening_positive_keeps_runs_separate(self):
        records = observe(cfg([1.0, 2.0, 0, 0, 3.0]), TABLE_PARENT)
        assert records == [("Blue", 1.0), ("Red", 2.0), ("Blue", 3.0)]

    def test_adjacent_same_facies_merge(self):
        records = observe(cfg([1.0, 2.0, 0.5, 0, 0.25]), TABLE_PARENT)
        assert records == [("Blue", 1.0), ("Red", 2.0), ("Blue", 0.75)]

    def test_negative_thickness_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            cfg([1.0, -0.5, 0, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    def test_thickness_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(InvalidConfigurationError, match="layer 2") as info:
            cfg([1.0, 0.0, bad, np.nan, 0])
        assert info.value.position == 2

    def test_length_mismatch(self):
        with pytest.raises(InvalidConfigurationError):
            observe(cfg([1.0, 2.0]), TABLE_PARENT)


class TestIngestion:
    def test_zero_thickness_record_rejected(self):
        with pytest.raises(DatasetError):
            BoreholeObservation("b", 0, 0, 0, (("Blue", 0.0),))

    @pytest.mark.parametrize("z", [float("nan"), float("inf")])
    def test_non_finite_thickness_rejected(self, z):
        with pytest.raises(DatasetError, match="non-finite"):
            BoreholeObservation("b", 0, 0, 0, (("A", z),))

    @pytest.mark.parametrize("site", [(float("nan"), 0.0, 0.0), (0.0, float("inf"), 0.0),
                                      (0.0, 0.0, float("nan"))])
    def test_non_finite_site_rejected(self, site):
        with pytest.raises(DatasetError, match="not finite"):
            BoreholeObservation("b", *site, (("A", 1.0),))

    def test_adjacent_same_facies_rejected(self):
        with pytest.raises(DatasetError):
            BoreholeObservation("b", 0, 0, 0, (("Blue", 1.0), ("Blue", 2.0)))

    def test_thickness_snapped(self):
        b = BoreholeObservation("b", 0, 0, 0, (("Blue", 1.0 + 0.3 * THICKNESS_QUANTUM),))
        assert b.records[0][1] == 1.0


class TestInitialAugmentation:
    def test_leftmost(self):
        obs = BoreholeObservation("b", 0, 0, 0,
                                  (("Blue", 2.0), ("Red", 1.0), ("Blue", 3.0)))
        got = initial_augmentation(obs, TABLE_PARENT)
        assert np.array_equal(got.thicknesses, [2, 1, 3, 0, 0])

    def test_blocked_facies_skips_forward(self):
        parent = ParentSequence(("L", "S", "G", "L", "A", "G"))
        obs = BoreholeObservation("b1", 0, 0, 0,
                                  (("L", 0.4), ("A", 1.0), ("G", 2.0)))
        got = initial_augmentation(obs, parent)
        assert np.array_equal(
            got.thicknesses, snap_thickness([0.4, 0, 0, 0, 1.0, 2.0])
        )

    def test_incompatible_reports_position(self):
        obs = BoreholeObservation("b", 0, 0, 0, (("Green", 1.0), ("Red", 1.0)))
        with pytest.raises(IncompatibleSequenceError) as exc:
            initial_augmentation(obs, TABLE_PARENT)
        assert exc.value.position == 1

    def test_roundtrip_observe(self):
        obs = BoreholeObservation("b", 0, 0, 0,
                                  (("Blue", 2.0), ("Red", 1.0), ("Blue", 3.0)))
        got = initial_augmentation(obs, TABLE_PARENT)
        assert observe(got, TABLE_PARENT) == list(obs.records)


def _image_preserved(config, parent, probe_z) -> bool:
    """Oracle: a probe is feasible iff re-running observe gives the same image."""
    try:
        return observe(config.with_thicknesses(probe_z), parent) == observe(config, parent)
    except InvalidConfigurationError:
        return False


def _probe_moves(config, parent, kind):
    """Oracle for enumerate_moves: probe every candidate pair through observe.

    A split probe moves half of ``z[j]`` to the empty ``j2``; merge and
    displace probes collapse ``j2`` onto ``j``.  Pairs are visited j-major.
    """
    z = config.thicknesses
    moves = []
    for j in range(len(parent)):
        for j2 in range(len(parent)):
            if j2 == j or parent.layers[j2] != parent.layers[j]:
                continue
            probe = z.copy()
            if kind == "split":
                if z[j] < 2 * THICKNESS_QUANTUM or z[j2] != 0:
                    continue
                half = snap_thickness(z[j] / 2.0)
                probe[j], probe[j2] = z[j] - half, half
            else:
                if z[j] <= 0 or z[j2] <= 0 or (kind == "displace" and j2 < j):
                    continue
                probe[j], probe[j2] = z[j] + z[j2], 0.0
            if _image_preserved(config, parent, probe):
                moves.append(Move(kind, j, j2))
    return moves


_ORACLE_PARENTS = st.one_of(
    st.sampled_from([
        DEFAULT_PARENT,
        TABLE_PARENT,
        ParentSequence(("L", "S", "G", "L", "A", "G")),
        ParentSequence(("Black", "Blue", "Black")),
    ]),
    st.lists(st.sampled_from("ABC"), min_size=1, max_size=9).map(
        lambda layers: ParentSequence(tuple(layers))
    ),
)
# zeros weighted up; 1 and 2 quanta sit on either side of the split threshold
_ORACLE_THICKNESSES = st.sampled_from([
    0.0, 0.0, 0.0, THICKNESS_QUANTUM, 2 * THICKNESS_QUANTUM, 3 * THICKNESS_QUANTUM,
    0.25, 1.5, float(snap_thickness(2.7)),
])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_enumerate_moves_matches_probe_oracle(data):
    """The closed-form rule lists exactly the probe oracle's moves, in order."""
    parent = data.draw(_ORACLE_PARENTS)
    z = data.draw(st.lists(_ORACLE_THICKNESSES, min_size=len(parent), max_size=len(parent)))
    config = cfg(z)
    for kind in ("split", "merge", "displace"):
        assert enumerate_moves(config, parent, kind) == _probe_moves(config, parent, kind)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_enumerate_moves_matches_all_pairs(data):
    """Trying only same-facies partners lists every pair's moves, in order."""
    parent = data.draw(_ORACLE_PARENTS)
    z = data.draw(st.lists(_ORACLE_THICKNESSES, min_size=len(parent), max_size=len(parent)))
    config = cfg(z)
    every = range(len(parent))
    for kind in ("split", "merge", "displace"):
        assert enumerate_moves(config, parent, kind) == [
            Move(kind, j, j2) for j in every for j2 in every
            if _feasible(config.thicknesses, parent, kind, j, j2)
        ]


class TestEnumerateMoves:
    def test_black_blue_black_split(self):
        parent = ParentSequence(("Black", "Blue", "Black"))
        moves = enumerate_moves(cfg([1.0, 0, 0]), parent, "split")
        assert [(m.j, m.j2) for m in moves] == [(0, 2)]

    def test_single_layer_facies_has_no_partner(self):
        moves = enumerate_moves(cfg([1, 1, 1, 1, 1]), TABLE_PARENT, "split")
        assert all(TABLE_PARENT.layers[m.j] != "Red" for m in moves)
        assert all(TABLE_PARENT.layers[m.j] != "Green" for m in moves)

    def test_intervening_positive_blocks_split(self):
        parent = ParentSequence(("L", "S", "G", "L", "A", "G"))
        config = cfg([0.4, 0, 0, 0, 1.0, 2.0])
        split_pairs = {(m.j, m.j2) for m in enumerate_moves(config, parent, "split")}
        assert split_pairs == {(0, 3)}  # G blocked by the positive A between

    def test_merge_pairs_are_positive_and_unblocked(self):
        config = cfg([1.0, 2.0, 0.5, 0, 0.25])
        merges = {(m.j, m.j2) for m in enumerate_moves(config, TABLE_PARENT, "merge")}
        assert merges == {(2, 4), (4, 2)}  # directed, both receivers allowed

    def test_unknown_kind(self):
        with pytest.raises(InfeasibleMoveError):
            enumerate_moves(cfg([1, 0, 0, 0, 0]), TABLE_PARENT, "swap")


class TestApplyMove:
    def test_split_conserves_exactly(self):
        parent = ParentSequence(("Black", "Blue", "Black"))
        z0 = float(snap_thickness(0.4))
        mv = enumerate_moves(cfg([z0, 0, 0]), parent, "split")[0]
        got = apply_move(cfg([z0, 0, 0]), parent, mv.with_u(snap_thickness(0.15)))
        assert got.thicknesses[0] + got.thicknesses[2] == z0  # exact on the grid
        assert got.thicknesses[2] == float(snap_thickness(0.15))

    def test_merge_then_split_restores(self):
        parent = ParentSequence(("Black", "Blue", "Black"))
        start = cfg(snap_thickness([0.25, 0.0, 0.15]))
        mv = next(m for m in enumerate_moves(start, parent, "merge") if m.j == 0)
        merged = apply_move(start, parent, mv)
        total = start.thicknesses[0] + start.thicknesses[2]
        assert merged.thicknesses[0] == total and merged.thicknesses[2] == 0
        back = apply_move(
            merged, parent,
            enumerate_moves(merged, parent, "split")[0].with_u(start.thicknesses[2]),
        )
        assert np.array_equal(back.thicknesses, start.thicknesses)

    def test_displace_conserves(self):
        parent = ParentSequence(("Black", "Blue", "Black"))
        start = cfg([1.0, 0.0, 3.0])
        mv = enumerate_moves(start, parent, "displace")[0]
        got = apply_move(start, parent, mv.with_u(2.5))
        assert got.thicknesses[0] == 2.5 and got.thicknesses[2] == 1.5

    def test_split_point_must_be_interior(self):
        parent = ParentSequence(("Black", "Blue", "Black"))
        mv = enumerate_moves(cfg([1.0, 0, 0]), parent, "split")[0]
        with pytest.raises(InfeasibleMoveError):
            apply_move(cfg([1.0, 0, 0]), parent, mv.with_u(1.0))

    def test_infeasible_move_rejected(self):
        with pytest.raises(InfeasibleMoveError):
            apply_move(cfg([1, 1, 1, 1, 1]), TABLE_PARENT,
                       Move("merge", 0, 1))

    @pytest.mark.parametrize("move", [
        Move("merge", -1, 2),
        Move("merge", 4, 5),
        Move("displace", 0, 9, u=0.5),
        Move("split", 7, 0, u=0.5),
        Move("split", 0, -3, u=0.5),
    ])
    def test_out_of_range_layer_rejected(self, move):
        with pytest.raises(InfeasibleMoveError):
            apply_move(cfg([1, 0, 1, 0, 1]), TABLE_PARENT, move)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_move_chains_preserve_image_and_mass(seed):
    """Random move chains leave the observed image and total mass bit-identical."""
    rng = np.random.default_rng(seed)
    parent = ParentSequence(tuple(rng.choice(["A", "B"], size=6)))
    z = snap_thickness(np.where(rng.random(6) < 0.6, rng.uniform(0.1, 3.0, 6), 0.0))
    config = AugmentedConfiguration("b", z)
    image0 = observe(config, parent)
    total0 = float(np.sum(config.thicknesses))
    for _ in range(40):
        kind = rng.choice(["split", "merge", "displace"])
        moves = enumerate_moves(config, parent, kind)
        if not moves:
            continue
        mv = moves[rng.integers(len(moves))]
        if kind != "merge":
            total = (config.thicknesses[mv.j]
                     if kind == "split"
                     else config.thicknesses[mv.j] + config.thicknesses[mv.j2])
            u = float(snap_thickness(rng.uniform(0, total)))
            if not 0 < u < total:
                continue
            mv = mv.with_u(u)
        config = apply_move(config, parent, mv)
        assert observe(config, parent) == image0
        assert float(np.sum(config.thicknesses)) == total0


class TestSupportEnumeration:
    def test_table_example_exact_set(self):
        got = compatible_supports(["Blue", "Red", "Blue"], TABLE_PARENT)
        assert got == {
            frozenset({0, 1, 2}),
            frozenset({0, 1, 4}),
            frozenset({0, 1, 2, 4}),
        }

    def test_reachable_equals_brute_force(self):
        obs = BoreholeObservation("b", 0, 0, 0,
                                  (("Blue", 2.0), ("Red", 1.0), ("Blue", 3.0)))
        start = initial_augmentation(obs, TABLE_PARENT)
        assert reachable_supports(start, TABLE_PARENT) == compatible_supports(
            ["Blue", "Red", "Blue"], TABLE_PARENT
        )

    def test_eight_layer_parent_reachability(self):
        parent = ParentSequence(
            ("Blue", "Red", "Blue", "Green", "Blue", "Red", "Green", "Blue")
        )
        obs_facies = ["Blue", "Red", "Green", "Blue"]
        obs = BoreholeObservation(
            "b", 0, 0, 0, tuple((f, 1.0) for f in obs_facies)
        )
        start = initial_augmentation(obs, parent)
        brute = compatible_supports(obs_facies, parent)
        assert reachable_supports(start, parent) == brute
        # a hand-checked selection of valid augmented support patterns
        documented = [
            {1, 2, 4, 5}, {1, 2, 7, 8}, {1, 6, 7, 8}, {1, 2, 6, 7, 8},
            {1, 2, 4, 7, 8}, {1, 5, 6, 7, 8}, {1, 3, 6, 7, 8}, {1, 3, 5, 6, 7, 8},
        ]
        for pattern in documented:
            assert frozenset(j - 1 for j in pattern) in brute
