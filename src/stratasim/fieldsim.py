"""Unconditional and conditional simulation of stacked thickness fields.

Layers are simulated independently (per-layer seeded streams), transformed
to thicknesses, and stacked above a ground level to give depth surfaces.
An unconditional simulation is the conditional loop with no borehole.
Layers sharing a Matern spec share one field kernel, built once per call:
on a regular grid ``gaussnum.grid_kernel`` picks a circulant embedding, with
appended boreholes drawn from their torus neighbourhoods, where they meet
its error contract, else the exact factors of four reflection-folded blocks,
which a transect always takes.
Conditional simulation honors every borehole thickness, including the zeros,
by kriging an unconditional draw of either kind to back-transformed values
and truncated draws at zero-thickness sites, one kriging step per spec.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import gaussnum, likelihood
from .core import AugmentedConfiguration, ParentSequence
from .errors import DegenerateRegionError, NumericError, ParameterError, PlacementError
from .likelihood import LayerParams

UNDEFINED_FACIES = "undefined"


@dataclass(frozen=True)
class SimGrid:
    """Rectangular planar grid or 1-D transect of simulation nodes."""

    kind: str                      # "grid" or "transect"
    origin: tuple[float, float]
    spacing: float
    nx: int
    ny: int
    endpoint: tuple[float, float] | None = None
    t0: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.kind == "transect":
            if self.nx < 2:
                raise ParameterError(f"a transect's nx must be at least 2, got {self.nx}")
            if self.endpoint == self.origin:
                raise ParameterError("transect endpoints coincide")
        if not self.spacing > 0:
            raise ParameterError(f"spacing must be positive, got {self.spacing}")
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if n < 1:
                raise ParameterError(f"{name} must be at least 1, got {n}")

    @classmethod
    def regular(cls, origin, spacing, nx, ny, t0=0.0) -> "SimGrid":
        return cls("grid", (float(origin[0]), float(origin[1])), float(spacing),
                   int(nx), int(ny), None, t0)

    @classmethod
    def transect(cls, start, end, n, t0=0.0) -> "SimGrid":
        start = (float(start[0]), float(start[1]))
        end = (float(end[0]), float(end[1]))
        # fewer than two stations have no step; the constructor rejects them
        step = float(np.hypot(end[0] - start[0], end[1] - start[1])) / max(int(n) - 1, 1)
        return cls("transect", start, step, int(n), 1, end, t0)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    def points(self) -> np.ndarray:
        if self.kind == "grid":
            xs = self.origin[0] + self.spacing * np.arange(self.nx)
            ys = self.origin[1] + self.spacing * np.arange(self.ny)
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            return np.column_stack([gx.ravel(), gy.ravel()])
        t = np.linspace(0.0, 1.0, self.nx)[:, None]
        a = np.asarray(self.origin)
        b = np.asarray(self.endpoint)
        return a + t * (b - a)

    def distances(self) -> np.ndarray:
        """Along-line distance of each station (transect grids only)."""
        if self.kind != "transect":
            raise ParameterError("distances are defined for transect grids")
        return self.spacing * np.arange(self.nx)

    def ground_level(self) -> np.ndarray:
        t0 = np.asarray(self.t0, dtype=float)
        if t0.ndim == 0:
            return np.full(self.n_nodes, float(t0))
        if t0.size != self.n_nodes:
            raise ParameterError("per-node ground level has the wrong size")
        return t0.ravel()


def idw_ground_level(grid: SimGrid, locations, values) -> np.ndarray:
    """Inverse-squared-distance-interpolated ground level from borehole elevations."""
    pts = grid.points()
    locs = np.asarray(locations, dtype=float).reshape(-1, 2)
    vals = np.asarray(values, dtype=float)
    d = np.linalg.norm(pts[:, None, :] - locs[None, :, :], axis=2)
    exact = d < 1e-12
    w = 1.0 / np.maximum(d, 1e-12) ** 2.0
    out = (w * vals).sum(axis=1) / w.sum(axis=1)
    hit = exact.any(axis=1)
    out[hit] = vals[np.argmax(exact[hit], axis=1)]
    return out


@dataclass(frozen=True)
class LayerStack:
    """Per-layer thickness fields plus derived depth surfaces.

    ``points`` may extend beyond the grid nodes when exact borehole
    locations were appended for conditioning; the first ``grid.n_nodes``
    rows are the grid columns.
    """

    grid: SimGrid
    parent: ParentSequence
    points: np.ndarray        # (N, 2)
    thickness: np.ndarray     # (M, N)

    def __post_init__(self):
        if np.any(self.thickness < 0):
            raise ParameterError("layer thicknesses must be non-negative")

    def surfaces(self) -> np.ndarray:
        """Depth surfaces T_0..T_M, shape (M + 1, N); nondecreasing in j."""
        n_grid = self.grid.n_nodes
        t0 = np.empty(self.thickness.shape[1])
        t0[:n_grid] = self.grid.ground_level()
        if self.thickness.shape[1] > n_grid:
            # appended borehole points inherit the scalar/mean ground level
            t0[n_grid:] = float(np.mean(self.grid.ground_level()))
        return np.vstack([t0, t0 + np.cumsum(self.thickness, axis=0)])


def _params_list(params_by_layer, parent: ParentSequence) -> list[LayerParams]:
    if isinstance(params_by_layer, dict):
        return [params_by_layer[facies] for facies in parent.layers]
    params = list(params_by_layer)
    if len(params) != len(parent):
        raise ParameterError("need one parameter set per parent layer")
    return params


def _layer_rng(seed: int, j: int):
    return np.random.default_rng(np.random.SeedSequence((int(seed), j)))


def _layers_by_spec(params: list[LayerParams]):
    """(spec, layer indices) per distinct Matern spec, in (nu, alpha) order.

    Every layer draws from its own ``_layer_rng`` stream, so the visiting
    order changes no value; it lets one field factor serve a whole group.
    """
    order = sorted(range(len(params)), key=lambda j: (params[j].nu, params[j].alpha))
    for spec, group in itertools.groupby(order, key=lambda j: params[j].matern_spec):
        yield spec, list(group)


def simulate_unconditional(
    grid: SimGrid,
    params_by_layer,
    parent: ParentSequence,
    seed: int,
) -> LayerStack:
    """Independent latent fields per layer, truncated and transformed: the
    loop of ``simulate_conditional`` with no borehole."""
    return _simulate(grid, params_by_layer, parent, [], [], seed)


def _match_boreholes(grid: SimGrid, locations) -> tuple[np.ndarray, np.ndarray]:
    """Snap boreholes to grid nodes within half a cell; append the rest.

    A node takes at most one borehole, the nearest to it (the earliest on a
    tie); any other borehole that would snap to it is appended at its exact
    location, so no point is conditioned twice.
    Returns (sim_points, node_index_per_borehole).
    """
    pts = grid.points()
    locs = np.asarray(locations, dtype=float).reshape(-1, 2)
    half = grid.spacing / 2.0
    nearest, owner = [], {}
    for i, loc in enumerate(locs):
        d = np.linalg.norm(pts - loc, axis=1)
        k = int(np.argmin(d))
        nearest.append((k, d[k]))
        if d[k] <= half and (k not in owner or d[k] < nearest[owner[k]][1]):
            owner[k] = i
    idx = np.empty(len(locs), dtype=int)
    extra = []
    for i, (k, _) in enumerate(nearest):
        if owner.get(k) == i:
            idx[i] = k
        else:
            idx[i] = len(pts) + len(extra)
            extra.append(locs[i])
    if extra:
        pts = np.vstack([pts, np.array(extra)])
    return pts, idx


def simulate_conditional(
    grid: SimGrid,
    params_by_layer,
    parent: ParentSequence,
    configs: list[AugmentedConfiguration],
    locations,
    seed: int,
) -> LayerStack:
    """Conditional simulation honoring every borehole thickness exactly.

    Per layer: back-transform positive thicknesses to latent values, draw
    the zero-site latents from their truncated conditional law given the
    kriging step's borehole covariance, then draw an unconditional field
    from the spec's kernel, condition it by kriging on the rows
    ``_match_boreholes`` chose (``gaussnum.Kriging``), and transform back.
    The kernel is ``gaussnum.grid_kernel``'s on a regular grid and the
    folded ``gaussnum.field_kernel``'s on a transect.  The round trip from
    thickness to latent and back is not exact in floating point, so borehole
    nodes are finally overwritten with the conditioning thicknesses.  With
    no borehole nothing is kriged: the result is ``simulate_unconditional``'s.

    The zero-site latents are an exact draw (``gaussnum.sample_truncated_mvn``);
    a ``DegenerateRegionError`` or ``NumericError`` of that draw names the
    layer and its facies.  Each layer's stream is read in this order: the
    truncated draw's batches of uniforms and exponentials, as many as it
    takes to accept, then the kernel's normals: the torus's or one per node,
    then one per appended borehole; with every row conditioned nothing is
    drawn for the field.
    """
    return _simulate(grid, params_by_layer, parent, configs, locations, seed)


def _simulate(grid, params_by_layer, parent, configs, locations, seed) -> LayerStack:
    """The per-spec loop of both simulations (``simulate_conditional``)."""
    params = _params_list(params_by_layer, parent)
    locs = np.asarray(locations, dtype=float).reshape(-1, 2)
    if len(configs) != len(locs):
        raise ParameterError("need one configuration per borehole location")
    pts, bh_idx = _match_boreholes(grid, locs)
    z_cond = np.array([cfg.thicknesses for cfg in configs]).reshape(len(locs), len(parent)).T

    lattice = (grid.nx, grid.ny, grid.spacing)
    thickness = np.empty((len(parent), len(pts)))
    for spec, layers in _layers_by_spec(params):
        kernel = (gaussnum.grid_kernel(pts, spec, lattice) if grid.kind == "grid"
                  else gaussnum.field_kernel(pts, spec, lattice=lattice))
        krig = gaussnum.kriging(pts, spec, bh_idx, kernel) if len(locs) else None
        for j in layers:
            prm = params[j]
            rng = _layer_rng(seed, j)
            z_j = z_cond[j]
            if krig is None:
                w = gaussnum.draw_field(kernel, rng)
            else:
                pos = z_j > 0
                w_known = np.empty(len(locs))
                w_known[pos] = likelihood.latent_from_thickness(z_j[pos], prm)
                if np.any(~pos):
                    m, v = gaussnum.condition(
                        krig.bh_cov, np.nonzero(pos)[0], np.nonzero(~pos)[0], w_known[pos]
                    )
                    try:
                        w_known[~pos] = gaussnum.sample_truncated_mvn(m, v, prm.tau, rng)
                    except (DegenerateRegionError, NumericError) as exc:
                        raise type(exc)(
                            f"layer {j} ({parent.layers[j]}), zero-thickness sites: {exc}",
                            position=j,
                        ) from exc
                w = krig.draw(rng, w_known)
            thickness[j] = likelihood.thickness_from_latent(w, prm)
            thickness[j, bh_idx] = z_j
        del kernel, krig  # free this spec's kernel before the next is built
    return LayerStack(grid, parent, pts, thickness)


def cross_section(stack: LayerStack, transect: SimGrid | None = None):
    """Facies raster and layer-boundary polylines along a line.

    For a stack simulated on a transect grid no argument is needed; for a
    planar grid a transect is sampled at the nearest grid node per station.
    Returns (distances, columns, polylines) where ``columns[c]`` is the
    ordered list of (layer_index, facies, top, bottom) records of column c
    (positive layers plus a final undefined region below the last layer) and
    ``polylines`` has shape (M + 1, n_columns) of boundary depths.
    """
    surfaces = stack.surfaces()
    if stack.grid.kind == "transect" and transect is None:
        cols = np.arange(stack.grid.n_nodes)
        dist = stack.grid.distances()
    else:
        if transect is None or transect.kind != "transect":
            raise ParameterError("a planar stack needs an explicit transect")
        pts = stack.points[: stack.grid.n_nodes]
        stations = transect.points()
        d = np.linalg.norm(stations[:, None, :] - pts[None, :, :], axis=2)
        cols = np.argmin(d, axis=1)
        if np.any(np.min(d, axis=1) > stack.grid.spacing):
            raise PlacementError("transect does not intersect the grid")
        dist = transect.distances()

    boundaries = surfaces[:, cols]  # (M+1, ncols)
    bottom = float(np.max(boundaries[-1]))
    columns = []
    for c in range(len(cols)):
        records = []
        for j in range(len(stack.parent)):
            top, low = boundaries[j, c], boundaries[j + 1, c]
            if low > top:
                records.append((j, stack.parent.layers[j], float(top), float(low)))
        if bottom > boundaries[-1, c]:
            records.append(
                (len(stack.parent), UNDEFINED_FACIES, float(boundaries[-1, c]), bottom)
            )
        columns.append(records)
    return dist, columns, boundaries
