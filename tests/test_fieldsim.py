"""Field simulation: grids, stacking, conditional honoring, cross-sections."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

import oracles
from stratasim import fieldsim, gaussnum, likelihood, synthgen
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
    """Record each spec given to ``lattice_kernel``, ``local_draws`` and
    ``field_kernel``: whether the lattice found an embedding, whether the
    appended points were drawn locally ("local") or not ("fallback"), and a
    ``field_kernel`` given a lattice as "folded"."""
    calls = []
    lattice, local, field = gaussnum.lattice_kernel, gaussnum.local_draws, gaussnum.field_kernel

    def lattice_spy(nx, ny, spacing, spec):
        out = lattice(nx, ny, spacing, spec)
        calls.append(("lattice" if out is not None else "no embedding", spec))
        return out

    def local_spy(kernel, points, spacing, spec):
        out = local(kernel, points, spacing, spec)
        calls.append(("local" if out is not None else "fallback", spec))
        return out

    def field_spy(points, spec, lattice=None):
        calls.append(("folded" if lattice is not None else "scattered", spec))
        return field(points, spec, lattice)

    monkeypatch.setattr(gaussnum, "lattice_kernel", lattice_spy)
    monkeypatch.setattr(gaussnum, "local_draws", local_spy)
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

    @pytest.mark.parametrize("grid", [
        SimGrid.regular((0, 0), 2.0, 50, 50),  # both synthetic specs on the torus
        SimGrid.regular((0, 0), 2.0, 16, 16),  # both folded
        SimGrid.transect((0, 0), (100, 100), 201),
    ], ids=["50x50", "16x16", "transect"])
    def test_no_borehole_is_unconditional(self, grid):
        got = simulate_conditional(grid, DEFAULT_TRUE_PARAMS, DEFAULT_PARENT, [], [], 7)
        want = simulate_unconditional(grid, DEFAULT_TRUE_PARAMS, DEFAULT_PARENT, 7)
        assert np.array_equal(got.points, want.points)
        assert got.thickness.tobytes() == want.thickness.tobytes()

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


# The benchmark's 50 x 50 grid at 2 km: nodes at even km from 0 to 98.  Every
# layout conditions on two boreholes on nodes besides its own.
GRID50 = SimGrid.regular((0, 0), 2.0, 50, 50)
LATTICE50 = (50, 50, 2.0)
ON_NODES = [[10.0, 10.0], [60.0, 30.0]]
LAYOUTS = {
    "on nodes": [[20.0, 20.0], [50.0, 70.0], [84.0, 12.0]],
    "sharing a node": [[40.0, 40.2], [40.6, 39.7]],  # the second is appended
    "cell centre": [[41.0, 57.0]],
    "edge": [[0.9, 61.0]],
    "corner": [[1.0, 1.0]],
    "outside": [[45.3, 99.2]],
    "two near each other": [[21.0, 21.0], [20.9, 21.2]],
}
# (nu, alpha, layout) whose appended points the lattice cannot draw within
# the contract below the k cap: the exponential screens slowest
FALLBACKS = {
    (0.5, 10.0, "edge"), (0.5, 10.0, "outside"),
    *((0.5, 20.0, name) for name in LAYOUTS if name != "on nodes"),
}


class _Recorder:
    """A generator that records the draws asked of it, in order."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def random(self, *size):
        out = self.rng.random(*size)
        self.calls.append(("uniform", np.shape(out)))
        return out

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        self.calls.append(("normal", out.shape))
        return out

    def standard_exponential(self, size):
        out = self.rng.standard_exponential(size)
        self.calls.append(("exponential", out.shape))
        return out


class TestLatticeConditional:
    """Conditional grids drawn on the torus, appended boreholes kriged from
    their neighbourhoods, then conditioned by the kriging step the folded
    kernel shares."""

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("alpha", [10.0, 20.0])
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_exact_law(self, nu, alpha, layout):
        # The draws are linear in the normals, so their law is exact: the
        # unconditional covariance S of the lattice path (``oracles.
        # lattice_law``) is within the 1e-6 contract of the Matern C at every
        # node and appended point.  Conditioning by kriging, X = (I - K E) Y
        # + K w, then has the folded kernel's mean map K w, and its
        # covariance differs from the folded kernel's C - K C_c. by
        # D = (I - K E)(S - C)(I - K E)', so |D_ij| <= 1e-6 (1 + |K_i|_1)
        # (1 + |K_j|_1), the bound checked here.
        spec = MaternSpec(nu, alpha)
        pts, bh_idx = fieldsim._match_boreholes(GRID50, ON_NODES + LAYOUTS[layout])
        n_grid = GRID50.n_nodes
        assert (len(pts) > n_grid) == (layout != "on nodes")
        kernel = gaussnum.grid_kernel(pts, spec, LATTICE50)
        if (nu, alpha, layout) in FALLBACKS:
            assert isinstance(kernel, gaussnum.FieldKernel)
            return
        assert isinstance(kernel, gaussnum.LatticeKernel)
        rng = np.random.default_rng(3)
        z_torus, z_points = rng.standard_normal(kernel.shape), rng.standard_normal(
            len(pts) - n_grid)
        got = gaussnum.draw_field(kernel, oracles._FixedNormals(z_torus, z_points))
        assert np.max(np.abs(got - oracles.lattice_draw(kernel, z_torus, z_points))) <= 1e-12

        diff = oracles.lattice_law(kernel)
        diff -= gaussnum.cov_matrix(pts, spec)
        assert np.max(np.abs(diff)) <= 1e-6  # the contract

        krig = gaussnum.kriging(pts, spec, bh_idx, kernel)
        exact = gaussnum.cov_matrix(pts, spec)
        k_exact = np.linalg.solve(exact[np.ix_(bh_idx, bh_idx)], exact[bh_idx]).T
        del exact
        assert np.max(np.abs(krig.weights - k_exact)) <= 1e-9  # the mean map
        w = rng.standard_normal(len(bh_idx))
        zero = oracles._FixedNormals(np.zeros(kernel.shape), np.zeros(len(pts) - n_grid))
        mean = krig.draw(zero, w)
        assert np.array_equal(mean[bh_idx], w)
        assert np.max(np.abs(mean - k_exact @ w)) <= 1e-9

        k = krig.weights
        k_diff = k @ diff[bh_idx]
        k_diff_k = k_diff[:, bh_idx] @ k.T
        diff -= k_diff
        diff -= k_diff.T
        diff += k_diff_k
        del k_diff, k_diff_k
        scale = 1.0 + np.abs(k).sum(axis=1)
        diff /= scale[:, None]
        diff /= scale[None, :]
        assert np.max(np.abs(diff)) <= 1e-6

    def test_contract_is_measured_on_the_torus(self):
        # a torus whose covariance is the Matern one plus 2e-6 at every lag
        # (its zero-frequency eigenvalue raised by 2e-6 M): kriging weights
        # that sum to about 1 carry that error to the appended point, so no
        # k meets the contract measured on the torus the draws come from
        spec = MaternSpec(1.5, 10.0)
        kernel = gaussnum.lattice_kernel(50, 50, 2.0, spec)
        sqrt_eig = kernel.sqrt_eig.copy()
        sqrt_eig[0, 0] = np.sqrt(sqrt_eig[0, 0] ** 2 + 2e-6 * np.prod(kernel.shape))
        pts, _ = fieldsim._match_boreholes(GRID50, LAYOUTS["cell centre"])
        assert gaussnum.local_draws(replace(kernel, sqrt_eig=sqrt_eig), pts, 2.0, spec) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_benchmark_grid_takes_the_lattice(self, monkeypatch, seed):
        # the 50 x 50 grid at 2 km with the synthetic truth's two specs: both
        # are drawn on the torus, appended boreholes included
        boreholes, truth, params = synthgen.generate(synthgen.SyntheticScenario(seed=seed))
        locs = [(b.x, b.y) for b in boreholes]
        calls = _spy_kernels(monkeypatch)
        stack = simulate_conditional(GRID50, params, DEFAULT_PARENT, truth, locs, seed)
        assert stack.points.shape[0] > GRID50.n_nodes
        specs = sorted({p.matern_spec for p in params.values()}, key=lambda s: s.alpha)
        assert calls == [(path, spec) for spec in specs for path in ("lattice", "local")]

    @pytest.mark.parametrize("seed", range(8))
    def test_fit_grids_stay_folded(self, seed):
        # the fit workload's 16 x 16 grids at 2 km cover 0-30 km of the
        # 100 km synthetic domain, so most of its 12 boreholes are appended:
        # for every range a fit can choose that has a torus, the local draws
        # cost more than the four 64-node folded factors
        locs = synthgen.SyntheticScenario(seed=seed).locations()
        grid = SimGrid.regular((0, 0), 2.0, 16, 16)
        pts, _ = fieldsim._match_boreholes(grid, locs)
        assert len(pts) - grid.n_nodes >= 9
        tori = 0
        for alpha in (0.5, 1.0, 2.0, 3.0, 4.0, 6.5, 10.0):
            spec = MaternSpec(1.5, alpha)
            torus = gaussnum.lattice_kernel(16, 16, 2.0, spec)
            if torus is not None:
                tori += 1
                assert gaussnum.local_draws(torus, pts, 2.0, spec) is None
            assert isinstance(gaussnum.grid_kernel(pts, spec, (16, 16, 2.0)),
                              gaussnum.FieldKernel)
        assert tori >= 4

    def test_transect_stays_folded(self, monkeypatch):
        calls = _spy_kernels(monkeypatch)
        locs, configs = _conditioning_setup()
        simulate_conditional(SimGrid.transect((0, 0), (16, 12), 25), PARAMS, PARENT,
                             configs, locs, 0)
        assert calls == [("folded", PARAMS["Green"].matern_spec)]

    def test_fallback_past_the_k_cap(self, monkeypatch):
        # the exponential's cell centre needs k = 24 at alpha 10 (see
        # test_exact_law); with the cap at 16 it falls back
        spec = MaternSpec(0.5, 10.0)
        pts, _ = fieldsim._match_boreholes(GRID50, LAYOUTS["cell centre"])
        kernel = gaussnum.grid_kernel(pts, spec, LATTICE50)
        assert [d.nodes.size for d in kernel.local] == [24 * 24]
        monkeypatch.setattr(gaussnum, "_LOCAL_K_CAP", 16)
        assert gaussnum.local_draws(gaussnum.lattice_kernel(50, 50, 2.0, spec), pts, 2.0,
                                    spec) is None
        assert isinstance(gaussnum.grid_kernel(pts, spec, LATTICE50), gaussnum.FieldKernel)

    def test_fallback_past_the_flop_rule(self, monkeypatch):
        # on a 30 x 30 grid the folded factors cost 4 x 225^3 / 3 = 7.6e6
        # flops; one appended point costs 256^3 / 3 = 5.6e6 for its k = 16
        # neighbourhood and 5 M log2 M = 2e5 for its FFT check on the 60^2
        # torus, three cost three times that: those fall back before any
        # neighbourhood is built
        grid = SimGrid.regular((0, 0), 2.0, 30, 30)
        spec = MaternSpec(1.5, 2.0)
        pts, _ = fieldsim._match_boreholes(grid, [[5.0, 5.0], [15.0, 21.0], [25.0, 9.0]])
        torus = gaussnum.lattice_kernel(30, 30, 2.0, spec)
        assert torus is not None and torus.shape == (60, 60)
        assert len(pts) == grid.n_nodes + 3

        def unbuilt(*args):
            raise AssertionError("a neighbourhood was built")

        monkeypatch.setattr(gaussnum, "cho_solve", unbuilt)
        assert gaussnum.local_draws(torus, pts, 2.0, spec) is None
        with pytest.raises(AssertionError, match="a neighbourhood was built"):
            gaussnum.local_draws(torus, pts[:-2], 2.0, spec)  # one point passes the rule

    def test_stream_order(self, monkeypatch):
        # each layer's stream gives the truncated draw's batches (n x zeros
        # uniforms, then n exponentials, n = 8, 16, ... until one accepts),
        # then the torus normals, then one normal per appended borehole; the
        # same seed gives the same bits
        recorders = {}

        def recording(seed, j):
            recorders[j] = _Recorder(np.random.default_rng(np.random.SeedSequence((seed, j))))
            return recorders[j]

        locs = ON_NODES + LAYOUTS["sharing a node"] + LAYOUTS["corner"]
        z = np.array([[0.8, 0.0, 1.2], [0.0, 0.5, 0.9], [1.5, 0.3, 0.0],
                      [0.4, 0.0, 0.0], [0.6, 0.7, 0.2]])
        configs = [AugmentedConfiguration(f"b{i}", row) for i, row in enumerate(z)]
        monkeypatch.setattr(fieldsim, "_layer_rng", recording)
        got = simulate_conditional(GRID50, PARAMS, PARENT, configs, locs, 5)
        n_app = len(got.points) - GRID50.n_nodes
        assert n_app == 2
        shape = gaussnum.lattice_kernel(50, 50, 2.0, PARAMS["Green"].matern_spec).shape
        for j in range(len(PARENT)):
            zeros = int(np.sum(z[:, j] == 0))
            calls = recorders[j].calls
            batches = sum(kind == "uniform" for kind, _ in calls)
            assert batches >= (zeros > 0)
            truncated = [call for i in range(batches) for call in
                         (("uniform", (8 << i, zeros)), ("exponential", (8 << i,)))]
            assert calls == truncated + [("normal", shape), ("normal", (n_app,))]
        monkeypatch.undo()
        again = simulate_conditional(GRID50, PARAMS, PARENT, configs, locs, 5)
        assert np.array_equal(got.thickness, again.thickness)
        other = simulate_conditional(GRID50, PARAMS, PARENT, configs, locs, 6)
        assert not np.array_equal(got.thickness, other.thickness)
