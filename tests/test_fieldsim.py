"""Field simulation: grids, stacking, conditional honoring, cross-sections."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

import oracles
from stratasim import fieldsim, gaussnum, likelihood
from stratasim.config import RunConfig
from stratasim.core import AugmentedConfiguration, ParentSequence
from stratasim.errors import CapacityError, ParameterError
from stratasim.fieldsim import (
    UNDEFINED_FACIES,
    LayerStack,
    SimGrid,
    cross_section,
    idw_ground_level,
    simulate_conditional,
    simulate_unconditional,
)
from stratasim.gaussnum import MaternSpec
from stratasim.likelihood import LayerParams, thickness_moments
from stratasim.synthgen import DEFAULT_PARENT, DEFAULT_TRUE_PARAMS

PARENT = ParentSequence(("Green", "Blue", "Green"))
PARAMS = {
    "Green": LayerParams(p=0.8, mu=1.0, beta=1.0, alpha=10.0),
    "Blue": LayerParams(p=0.3, mu=1.0, beta=1.0, alpha=10.0),
}


class TestSimGrid:
    def test_regular_points(self):
        grid = SimGrid.regular((0, 0), 2.0, 3, 2)
        pts = grid.points()
        assert pts.shape == (6, 2)
        assert pts[0].tolist() == [0, 0] and pts[-1].tolist() == [4, 2]

    def test_transect_points_and_distances(self):
        grid = SimGrid.transect((0, 0), (3, 4), 6)
        assert grid.n_nodes == 6
        assert grid.distances()[-1] == pytest.approx(5.0, abs=1e-12)
        pts = grid.points()
        assert pts[-1].tolist() == [3, 4]

    def test_validation(self):
        with pytest.raises(ParameterError):
            SimGrid.regular((0, 0), 0.0, 3, 3)
        with pytest.raises(ParameterError):
            SimGrid.transect((1, 1), (1, 1), 5)
        with pytest.raises(ParameterError):
            SimGrid.regular((0, 0), 1.0, 3, 3).distances()

    @pytest.mark.parametrize("args", [
        ("grid", (0.0, 0.0), 0.0, 3, 3),
        ("grid", (0.0, 0.0), 1.0, 0, 3),
        ("grid", (0.0, 0.0), 1.0, 3, -1),
        ("transect", (0.0, 0.0), 1.0, 1, 1, (1.0, 0.0)),
        ("transect", (2.0, 1.0), 1.0, 5, 1, (2.0, 1.0)),
    ])
    def test_constructor_checks(self, args):
        with pytest.raises(ParameterError):
            SimGrid(*args)

    def test_single_station_transect_rejected(self):
        with pytest.raises(ParameterError, match="nx must be at least 2"):
            SimGrid.transect((0, 0), (1, 0), 1)

    def test_ground_level_broadcast(self):
        grid = SimGrid.regular((0, 0), 1.0, 2, 2, t0=3.5)
        assert np.array_equal(grid.ground_level(), [3.5] * 4)


def test_idw_exact_at_borehole():
    grid = SimGrid.regular((0, 0), 1.0, 3, 3)
    t0 = idw_ground_level(grid, [[0.0, 0.0], [2.0, 2.0]], [5.0, 9.0])
    assert t0[0] == 5.0 and t0[-1] == 9.0
    assert np.all((t0 >= 5.0) & (t0 <= 9.0))


class TestUnconditional:
    def test_deterministic(self):
        grid = SimGrid.regular((0, 0), 5.0, 6, 6)
        a = simulate_unconditional(grid, PARAMS, PARENT, seed=5)
        b = simulate_unconditional(grid, PARAMS, PARENT, seed=5)
        assert np.array_equal(a.thickness, b.thickness)

    def test_high_p_always_present(self):
        grid = SimGrid.regular((0, 0), 5.0, 8, 8)
        params = {
            "Green": LayerParams(p=1 - 1e-12, mu=1.0, beta=1.0, alpha=10.0),
            "Blue": LayerParams(p=0.3, mu=1.0, beta=1.0, alpha=10.0),
        }
        stack = simulate_unconditional(grid, params, PARENT, seed=6)
        assert np.all(stack.thickness[0] > 0)
        assert np.all(stack.thickness[2] > 0)

    def test_presence_frequency_matches_p(self):
        grid = SimGrid.regular((0, 0), 10.0, 11, 11)
        freqs = []
        for seed in range(50):
            stack = simulate_unconditional(grid, PARAMS, PARENT, seed=seed)
            freqs.append(np.mean(stack.thickness[1] > 0))
        assert np.mean(freqs) == pytest.approx(0.3, abs=0.05)

    def test_mean_thickness_matches_moments(self):
        grid = SimGrid.regular((0, 0), 25.0, 5, 5)
        vals = []
        for seed in range(200):
            stack = simulate_unconditional(grid, PARAMS, PARENT, seed=seed)
            vals.append(stack.thickness[1])
        vals = np.concatenate(vals)
        prm = PARAMS["Blue"]
        mean_pos, var_pos = thickness_moments(prm)
        want = prm.p * mean_pos  # unconditional mean includes the zero atom
        se = vals.std() / np.sqrt(len(vals) / 4)  # crude correlation discount
        assert abs(vals.mean() - want) < 3 * se

    def test_surfaces_monotone(self):
        grid = SimGrid.regular((0, 0), 5.0, 6, 6, t0=2.0)
        stack = simulate_unconditional(grid, PARAMS, PARENT, seed=8)
        surf = stack.surfaces()
        assert surf.shape == (4, 36)
        assert np.all(np.diff(surf, axis=0) >= 0)
        assert np.array_equal(surf[0], np.full(36, 2.0))

    def test_budget(self, monkeypatch):
        # a transect's folded kernel has two blocks, of 13 and 13 stations
        # for 26: 338 squared entries, within 19^2 but not 18^2
        grid = SimGrid.transect((0, 0), (50, 0), 26)
        monkeypatch.setattr(gaussnum, "CHOLESKY_BUDGET", 19)
        simulate_unconditional(grid, PARAMS, PARENT, seed=0)
        monkeypatch.setattr(gaussnum, "CHOLESKY_BUDGET", 18)
        with pytest.raises(CapacityError):
            simulate_unconditional(grid, PARAMS, PARENT, seed=0)


def _spy_kernels(monkeypatch):
    """Record each spec given to ``lattice_kernel`` and ``field_kernel``,
    with whether the lattice found an embedding; a ``field_kernel`` given a
    lattice is recorded as "folded"."""
    calls = []
    lattice, field = gaussnum.lattice_kernel, gaussnum.field_kernel

    def lattice_spy(nx, ny, spacing, spec):
        out = lattice(nx, ny, spacing, spec)
        calls.append(("lattice" if out is not None else "no embedding", spec))
        return out

    def field_spy(points, spec, cond=None, lattice=None):
        calls.append(("folded" if lattice is not None else "scattered", spec))
        return field(points, spec, cond, lattice)

    monkeypatch.setattr(gaussnum, "lattice_kernel", lattice_spy)
    monkeypatch.setattr(gaussnum, "field_kernel", field_spy)
    return calls


class TestLatticePath:
    """Which kernel each unconditional field comes from.  "Dense" is the
    exact path, the Cholesky factors of the folded kernel, as against the
    circulant embedding."""

    def test_transect_goes_dense(self, monkeypatch):
        calls = _spy_kernels(monkeypatch)
        simulate_unconditional(SimGrid.transect((0, 0), (50, 0), 26), PARAMS, PARENT, 0)
        assert calls == [("folded", PARAMS["Green"].matern_spec)]

    def test_small_grid_with_long_range_goes_dense(self, monkeypatch):
        calls = _spy_kernels(monkeypatch)
        params = {f: replace(p, alpha=20.0) for f, p in PARAMS.items()}
        simulate_unconditional(SimGrid.regular((0, 0), 2.0, 16, 16), params, PARENT, 0)
        spec = params["Green"].matern_spec
        assert calls == [("no embedding", spec), ("folded", spec)]

    def test_grid_beyond_the_cholesky_budget_goes_lattice(self, monkeypatch):
        calls = _spy_kernels(monkeypatch)
        grid = SimGrid.regular((0, 0), 1.0, 141, 142)
        assert grid.n_nodes > gaussnum.CHOLESKY_BUDGET
        params = {f: replace(p, alpha=2.0) for f, p in PARAMS.items()}
        stack = simulate_unconditional(grid, params, PARENT, 0)
        assert calls == [("lattice", params["Green"].matern_spec)]
        assert stack.thickness.shape == (3, grid.n_nodes)

    # The benchmark's 16x16 and 50x50 grids at 2 km, the config's default
    # 101x101 at 1 km and the CLI tests' 12x12 at 9 km, with the synthetic
    # truth's specs: where no embedding is found ("dense"), the folded
    # kernel's exact factors draw the field.
    @pytest.mark.parametrize("nx, spacing, alpha, path", [
        (16, 2.0, 10.0, "dense"),
        (16, 2.0, 20.0, "dense"),
        (50, 2.0, 10.0, "lattice"),
        (50, 2.0, 20.0, "lattice"),
        (101, 1.0, 10.0, "lattice"),
        (101, 1.0, 20.0, "lattice"),
        (12, 9.0, 10.0, "lattice"),
        (12, 9.0, 20.0, "dense"),
    ])
    def test_recorded_paths(self, nx, spacing, alpha, path):
        kernel = gaussnum.lattice_kernel(nx, nx, spacing, MaternSpec(1.5, alpha))
        assert (kernel is not None) == (path == "lattice")

    @pytest.mark.parametrize("seed", [2, 11])
    def test_per_layer_streams(self, seed):
        # layers drawn in spec order from shared kernels give the bits of a
        # per-layer loop in parent order
        grid = SimGrid.regular((0, 0), 2.0, 50, 50)
        got = simulate_unconditional(grid, DEFAULT_TRUE_PARAMS, DEFAULT_PARENT, seed)
        want = oracles.simulate_unconditional(
            grid, DEFAULT_TRUE_PARAMS, DEFAULT_PARENT, seed
        )
        assert np.array_equal(got.thickness, want)

    def test_default_grid(self, monkeypatch):
        # the config's default 101 x 101 grid: no Cholesky factor is built
        calls = _spy_kernels(monkeypatch)
        cfg = RunConfig()
        grid = SimGrid.regular(cfg.grid_origin, cfg.grid_spacing, cfg.grid_nx, cfg.grid_ny)
        stack = simulate_unconditional(grid, DEFAULT_TRUE_PARAMS, DEFAULT_PARENT, 4)
        assert [path for path, _ in calls] == ["lattice", "lattice"]
        assert stack.thickness.shape == (len(DEFAULT_PARENT), 101 * 101)
        assert np.all(np.isfinite(stack.thickness))


def _conditioning_setup():
    locs = [[2.0, 2.0], [7.0, 7.0], [12.0, 3.0]]
    configs = [
        AugmentedConfiguration("a", np.array([0.8, 0.0, 1.2])),
        AugmentedConfiguration("b", np.array([0.0, 0.5, 0.9])),
        AugmentedConfiguration("c", np.array([1.5, 0.3, 0.0])),
    ]
    return locs, configs


class TestConditional:
    def test_honors_all_thicknesses(self):
        grid = SimGrid.regular((0, 0), 1.0, 15, 15)
        locs, configs = _conditioning_setup()
        for seed in range(5):
            stack = simulate_conditional(grid, PARAMS, PARENT, configs, locs, seed)
            pts = stack.points
            for cfg, loc in zip(configs, locs):
                node = int(np.argmin(np.linalg.norm(pts - np.array(loc), axis=1)))
                got = stack.thickness[:, node]
                assert np.max(np.abs(got - cfg.thicknesses)) <= 1e-8

    def test_budget_counts_boreholes(self, monkeypatch):
        # the 24-station transect's two folded blocks of 12 fit 17^2 = 289
        # squared entries; its three appended boreholes add 3^2 for their
        # own factor and 3^2 for the borehole block, and do not fit
        grid = SimGrid.transect((0, 0), (23, 0), 24)
        monkeypatch.setattr(gaussnum, "CHOLESKY_BUDGET", 17)
        simulate_unconditional(grid, PARAMS, PARENT, seed=0)
        locs, configs = _conditioning_setup()
        with pytest.raises(CapacityError):
            simulate_conditional(grid, PARAMS, PARENT, configs, locs, seed=0)

    def test_budget_counts_factor_points(self, monkeypatch):
        # boreholes on nodes add only the borehole block to the factors; an
        # appended one adds its own row too.  The 3 x 5 grid folds into
        # blocks of 6, 4, 3 and 2 nodes, 65 squared entries; with the 3^2 of
        # three boreholes on nodes that fits 9^2 = 81, and with a fourth,
        # appended, 65 + 1^2 + 4^2 = 82 does not
        grid = SimGrid.regular((0, 0), 2.0, 3, 5)
        monkeypatch.setattr(gaussnum, "CHOLESKY_BUDGET", 9)
        locs, configs = [[2.0, 2.0], [0.0, 6.0], [4.0, 4.0]], _conditioning_setup()[1]
        stack = simulate_conditional(grid, PARAMS, PARENT, configs, locs, seed=0)
        assert stack.points.shape[0] == grid.n_nodes
        locs.append([9.5, 9.5])  # more than half a cell beyond the last node
        configs.append(AugmentedConfiguration("d", np.array([0.4, 0.0, 0.6])))
        with pytest.raises(CapacityError):
            simulate_conditional(grid, PARAMS, PARENT, configs, locs, seed=0)

    def test_off_grid_borehole_appended(self):
        grid = SimGrid.regular((0, 0), 4.0, 4, 4)  # nodes at multiples of 4
        locs = [[1.7, 2.2]]  # > half-cell from any node
        configs = [AugmentedConfiguration("a", np.array([0.8, 0.0, 1.2]))]
        stack = simulate_conditional(grid, PARAMS, PARENT, configs, locs, seed=1)
        assert stack.points.shape[0] == grid.n_nodes + 1
        assert np.allclose(stack.points[-1], locs[0])
        assert np.max(np.abs(stack.thickness[:, -1] - configs[0].thicknesses)) <= 1e-8

    def test_boreholes_sharing_a_node_are_both_honoured(self):
        # both boreholes lie within half a cell of node (2, 2): the nearer one
        # keeps the node, the other is conditioned at its exact location
        grid = SimGrid.regular((0, 0), 2.0, 4, 4)
        locs = [[2.0, 2.1], [2.6, 2.0]]
        configs = [
            AugmentedConfiguration("near", np.array([1.0, 0.0, 0.5])),
            AugmentedConfiguration("far", np.array([0.4, 0.7, 0.0])),
        ]
        node = 1 * grid.ny + 1
        assert np.allclose(grid.points()[node], [2.0, 2.0])
        stack = simulate_conditional(grid, PARAMS, PARENT, configs, locs, seed=3)
        assert stack.points.shape[0] == grid.n_nodes + 1
        assert np.array_equal(stack.points[-1], locs[1])
        assert np.array_equal(stack.thickness[:, node], configs[0].thicknesses)
        assert np.array_equal(stack.thickness[:, -1], configs[1].thicknesses)

    def test_zero_stays_zero(self):
        grid = SimGrid.regular((0, 0), 2.0, 8, 8)
        locs, configs = _conditioning_setup()
        for seed in range(20):
            stack = simulate_conditional(grid, PARAMS, PARENT, configs, locs, seed)
            pts = stack.points
            node = int(np.argmin(np.linalg.norm(pts - np.array(locs[0]), axis=1)))
            assert stack.thickness[1, node] == 0.0

    def test_wrong_config_count(self):
        grid = SimGrid.regular((0, 0), 2.0, 4, 4)
        locs, configs = _conditioning_setup()
        with pytest.raises(ParameterError):
            simulate_conditional(grid, PARAMS, PARENT, configs[:2], locs, seed=0)


# Specs alternate layer by layer, so spec order differs from parent order;
# Red and Green share a spec.
ALT_PARENT = ParentSequence(("Green", "Blue", "Red", "Blue", "Green", "Black"))
ALT_PARAMS = {
    "Green": LayerParams(p=0.7, mu=1.0, beta=1.0, alpha=12.0, nu=1.5),
    "Red": LayerParams(p=0.6, mu=1.5, beta=0.8, alpha=12.0, nu=1.5),
    "Blue": LayerParams(p=0.4, mu=0.8, beta=1.2, alpha=6.0, nu=2.5),
    "Black": LayerParams(p=0.5, mu=1.0, beta=1.0, alpha=6.0, nu=0.5),
}


def _alt_conditioning():
    # "a" owns node (4, 4); "b" is within half a cell of it and is appended
    locs = [[4.0, 4.0], [4.6, 4.3], [11.3, 2.2], [7.9, 13.5]]
    rng = np.random.default_rng(17)
    z = rng.uniform(0.2, 2.0, (len(locs), len(ALT_PARENT))).round(3)
    z[rng.uniform(size=z.shape) < 0.4] = 0.0
    z[:, 1] = [0.0, 0.0, 0.7, 0.0]
    configs = [AugmentedConfiguration(c, z[i]) for i, c in enumerate("abcd")]
    return locs, configs


class TestOneFactorPerSpec:
    """Layers visited in spec order, one kernel per spec: the same bits as a
    per-layer loop in parent order that rebuilds every kernel."""

    GRID = SimGrid.regular((0, 0), 2.0, 8, 8)
    TRANSECT = SimGrid.transect((0, 0), (16, 12), 25)
    # on GRID, only Black's short-range exponential spec has an embedding
    LATTICE_SPEC = ALT_PARAMS["Black"].matern_spec
    FOLDED_SPECS = [ALT_PARAMS["Green"].matern_spec, ALT_PARAMS["Blue"].matern_spec]
    # folded draws against the oracle's: the grid's blocks have condition
    # numbers up to 1.5e6, the transect's up to 3.4e7 (Blue's 5/2 spec), and
    # over seeds 0-11 the thicknesses differed by at most 7.8e-13 and 1.1e-11
    TOL = {"grid": 1e-12, "transect": 1e-10}

    def test_grid_paths(self, monkeypatch):
        calls = _spy_kernels(monkeypatch)
        simulate_unconditional(self.GRID, ALT_PARAMS, ALT_PARENT, 3)
        assert calls == [
            ("lattice", self.LATTICE_SPEC),
            ("no embedding", self.FOLDED_SPECS[0]), ("folded", self.FOLDED_SPECS[0]),
            ("no embedding", self.FOLDED_SPECS[1]), ("folded", self.FOLDED_SPECS[1]),
        ]

    @pytest.mark.parametrize("seed", [0, 9])
    def test_unconditional_equals_per_layer_loop(self, seed):
        # the oracle folds a dense covariance with its own mirror basis and
        # factors each block afresh, so folded layers agree to rounding
        for grid in (self.GRID, self.TRANSECT):
            got = simulate_unconditional(grid, ALT_PARAMS, ALT_PARENT, seed)
            want = oracles.simulate_unconditional(grid, ALT_PARAMS, ALT_PARENT, seed)
            assert np.array_equal(got.thickness == 0, want == 0)
            assert np.max(np.abs(got.thickness - want)) <= self.TOL[grid.kind]
        # the folded specs' layers equal a fresh folded draw per layer
        folded = [j for j, f in enumerate(ALT_PARENT.layers)
                  if ALT_PARAMS[f].matern_spec in self.FOLDED_SPECS]
        assert len(folded) == 5
        got = simulate_unconditional(self.GRID, ALT_PARAMS, ALT_PARENT, seed)
        grid = self.GRID
        for j in folded:
            prm = ALT_PARAMS[ALT_PARENT.layers[j]]
            w = oracles.sample_gaussian_field(
                grid.points(), prm.matern_spec, fieldsim._layer_rng(seed, j),
                lattice=(grid.nx, grid.ny, grid.spacing),
            )
            want = likelihood.thickness_from_latent(w, prm)
            assert np.max(np.abs(got.thickness[j] - want)) <= self.TOL["grid"]

    @pytest.mark.parametrize("seed", [0, 9])
    def test_conditional_equals_per_layer_loop(self, seed):
        # the oracle rebuilds the borehole covariance and folds a dense
        # covariance for every layer, and draws the zero sites with scipy's
        # truncnorm, so free nodes agree to rounding
        locs, configs = _alt_conditioning()
        for grid in (self.GRID, self.TRANSECT):
            got = simulate_conditional(grid, ALT_PARAMS, ALT_PARENT, configs, locs, seed)
            want = oracles.simulate_conditional(
                grid, ALT_PARAMS, ALT_PARENT, configs, locs, seed
            )
            _, bh_idx = fieldsim._match_boreholes(grid, locs)
            assert np.array_equal(got.thickness[:, bh_idx], want[:, bh_idx])
            assert np.array_equal(got.thickness == 0, want == 0)
            assert np.max(np.abs(got.thickness - want)) <= self.TOL[grid.kind]
        assert got.points.shape[0] == self.TRANSECT.n_nodes + 4  # none on a station

    def _covariances(self, monkeypatch):
        built = []
        real = gaussnum.cov_matrix

        def spy(points, spec):
            out = real(points, spec)
            built.append((len(out), spec))
            return out

        monkeypatch.setattr(gaussnum, "cov_matrix", spy)
        return built

    @staticmethod
    def _in_spec_order(specs):
        return sorted(set(specs), key=lambda s: (s.nu, s.alpha))

    def test_unconditional_one_covariance_per_spec(self, monkeypatch):
        # the folded kernels build their blocks from lag tables, one kernel
        # per spec, and no covariance matrix over the nodes
        built = self._covariances(monkeypatch)
        calls = _spy_kernels(monkeypatch)
        simulate_unconditional(self.GRID, ALT_PARAMS, ALT_PARENT, 3)
        specs = [spec for path, spec in calls if path == "folded"]
        assert specs == self.FOLDED_SPECS == self._in_spec_order(specs)
        calls.clear()
        simulate_unconditional(self.TRANSECT, ALT_PARAMS, ALT_PARENT, 3)
        specs = [spec for _, spec in calls]
        assert specs == self._in_spec_order(specs) and len(specs) == 3
        assert built == []

    def test_conditional_one_covariance_per_spec(self, monkeypatch):
        locs, configs = _alt_conditioning()
        built = self._covariances(monkeypatch)
        simulate_conditional(self.GRID, ALT_PARAMS, ALT_PARENT, configs, locs, 3)
        # per spec, in spec order: "b" is appended and the others snap to
        # nodes, so the kernel builds the covariance of the one appended point
        # and that of the 4 boreholes, which also serves the zero-thickness
        # draws; none covers the nodes
        specs = self._in_spec_order(ALT_PARAMS[f].matern_spec for f in ALT_PARENT.layers)
        assert len(specs) == 3
        assert built == [(n, spec) for spec in specs for n in (1, len(locs))]

    def test_one_kernel_alive_at_a_time(self, monkeypatch):
        kernels = []

        def spying(real):
            def spy(*args, **kwargs):
                assert all(ref() is None for ref in kernels)  # the last one was freed
                out = real(*args, **kwargs)
                if out is not None:
                    kernels.append(weakref.ref(out))
                return out
            return spy

        for name in ("field_kernel", "lattice_kernel"):
            monkeypatch.setattr(gaussnum, name, spying(getattr(gaussnum, name)))
        locs, configs = _alt_conditioning()
        simulate_unconditional(self.GRID, ALT_PARAMS, ALT_PARENT, 3)
        simulate_conditional(self.GRID, ALT_PARAMS, ALT_PARENT, configs, locs, 3)
        assert len(kernels) == 6


class TestCrossSection:
    def test_constant_single_layer_band(self):
        grid = SimGrid.transect((0, 0), (10, 0), 11, t0=1.0)
        parent = ParentSequence(("Green",))
        thickness = np.full((1, 11), 2.0)
        stack = LayerStack(grid, parent, grid.points(), thickness)
        dist, columns, boundaries = cross_section(stack)
        assert boundaries.shape == (2, 11)
        for col in columns:
            assert col == [(0, "Green", 1.0, 3.0)]

    def test_zero_layer_absent_and_undefined_region(self):
        grid = SimGrid.transect((0, 0), (10, 0), 3)
        thickness = np.array([
            [1.0, 1.0, 1.0],
            [0.0, 0.0, 0.0],
            [2.0, 0.5, 2.0],
        ])
        stack = LayerStack(grid, PARENT, grid.points(), thickness)
        _, columns, boundaries = cross_section(stack)
        # Blue layer absent everywhere; shallow middle column gets undefined fill
        assert all(not any(f == "Blue" for _, f, _, _ in col) for col in columns)
        assert columns[1][-1][1] == UNDEFINED_FACIES
        assert np.array_equal(boundaries[1], boundaries[2])  # zero layer collapses

    def test_planar_stack_requires_transect(self):
        grid = SimGrid.regular((0, 0), 1.0, 5, 5)
        stack = simulate_unconditional(grid, PARAMS, PARENT, seed=3)
        with pytest.raises(ParameterError):
            cross_section(stack)
        transect = SimGrid.transect((0, 0), (4, 4), 9)
        dist, columns, boundaries = cross_section(stack, transect)
        assert len(dist) == 9 and boundaries.shape == (4, 9)

    def test_negative_thickness_rejected(self):
        grid = SimGrid.transect((0, 0), (10, 0), 3)
        with pytest.raises(ParameterError):
            LayerStack(grid, PARENT, grid.points(), -np.ones((3, 3)))
