"""Flat key = value run configuration with line-precise validation: each
value is judged by the library type or function that states its rule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import partial

from .errors import DatasetError, ParameterError
from .fieldsim import SimGrid
from .gaussnum import MaternSpec, check_cdf_tol
from .io import _open
from .likelihood import PARAM_KINDS, LayerParams
from .mcmc import PriorSpec, ProposalSpec, check_chain_lengths

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}
_MOVE_KEYS = ("p_split", "p_merge", "p_displace")
_TRANSECT_KEYS = ("transect_x0", "transect_y0", "transect_x1", "transect_y1")
_T0_POLICIES = ("constant", "idw")


def _check_t0_policy(t0_policy):
    if t0_policy not in _T0_POLICIES:
        raise ParameterError(f"t0_policy must be one of {_T0_POLICIES}, got {t0_policy!r}")


@dataclass
class RunConfig:
    """Everything a run needs; defaults mirror the synthetic-experiment setup."""

    boreholes: str = "boreholes.csv"
    parent: str = "parent.txt"
    output_dir: str = "out"
    nu: float = 1.5
    tie_by_facies: bool = True
    priors: PriorSpec = field(default_factory=PriorSpec)
    proposals: ProposalSpec = field(default_factory=ProposalSpec)
    n_iter: int = 30_000
    burn_in: int = 2_500
    thin: int = 50
    cdf_tol: float = 1e-3
    alpha_init: float = 1.0
    grid_origin: tuple[float, float] = (0.0, 0.0)
    grid_spacing: float = 1.0
    grid_nx: int = 101
    grid_ny: int = 101
    transect: tuple[float, float, float, float] | None = None
    transect_n: int = 201
    t0: float = 0.0
    t0_policy: str = "constant"  # constant | idw
    sim_params: dict[str, LayerParams] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        raw: dict[str, tuple[int, str]] = {}
        with _open(path) as fh:
            text = fh.read()
        for ln, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DatasetError(f"{path}:{ln}: expected 'key = value'")
            key, _, value = line.partition("=")
            raw[key.strip()] = (ln, value.strip())
        return cls._from_raw(raw, str(path))

    @classmethod
    def _from_raw(cls, raw, path) -> "RunConfig":
        cfg = cls()
        lines: dict[str, int] = {}  # line of each key taken

        def judged(build, *keys):
            """``build()``; a ``ParameterError`` it raises names the line of the
            first of ``keys`` in the file."""
            try:
                return build()
            except ParameterError as exc:
                key = min((k for k in keys if k in lines), key=lines.get)
                raise DatasetError(f"{path}:{lines[key]}: {key}: {exc}") from exc

        def take(key, conv, default, owner=None, name=None):
            """``key``'s value parsed by ``conv``, or ``default`` when absent,
            judged by ``owner(**{name or key: value})``: a ``replace`` on a valid
            instance of the type that holds it, or the function that checks it."""
            if key not in raw:
                return default
            ln, value = raw.pop(key)
            lines[key] = ln
            try:
                out = conv(value)
            except (ValueError, KeyError) as exc:
                raise DatasetError(f"{path}:{ln}: bad value for {key}: {value!r}") from exc
            if isinstance(out, float) and not math.isfinite(out):
                raise DatasetError(f"{path}:{ln}: {key} must be finite, got {value!r}")
            if owner is not None:
                judged(lambda: owner(**{name or key: out}), key)
            return out

        def boolean(v):
            return _BOOL[v.lower()]

        cfg.boreholes = take("boreholes", str, cfg.boreholes)
        cfg.parent = take("parent", str, cfg.parent)
        cfg.output_dir = take("output_dir", str, cfg.output_dir)
        matern = partial(replace, MaternSpec(cfg.nu, cfg.alpha_init))
        cfg.nu = take("nu", float, cfg.nu, matern)
        cfg.alpha_init = take("alpha_init", float, cfg.alpha_init, matern, "alpha")
        cfg.tie_by_facies = take("tie_by_facies", boolean, cfg.tie_by_facies)
        prior = partial(replace, cfg.priors)
        cfg.priors = PriorSpec(**{
            f.name: take(f.name, float, getattr(cfg.priors, f.name), prior)
            for f in fields(PriorSpec)
        })
        proposal = partial(replace, cfg.proposals)
        widths = {
            f"d_{k}": take(f"d_{k}", float, cfg.proposals.width(k), proposal)
            for k in PARAM_KINDS
        }
        probs = tuple(
            take(k, float, p) for k, p in zip(_MOVE_KEYS, cfg.proposals.move_probs)
        )
        cfg.proposals = judged(lambda: ProposalSpec(**widths, move_probs=probs), *_MOVE_KEYS)
        cfg.n_iter, cfg.burn_in, cfg.thin = (
            take(k, int, getattr(cfg, k), check_chain_lengths)
            for k in ("n_iter", "burn_in", "thin")
        )
        cfg.cdf_tol = take("cdf_tol", float, cfg.cdf_tol, check_cdf_tol, "tol")
        cfg.grid_origin = (
            take("grid_origin_x", float, cfg.grid_origin[0]),
            take("grid_origin_y", float, cfg.grid_origin[1]),
        )
        grid = partial(replace, SimGrid.regular((0.0, 0.0), 1.0, 1, 1))
        cfg.grid_spacing = take("grid_spacing", float, cfg.grid_spacing, grid, "spacing")
        cfg.grid_nx = take("grid_nx", int, cfg.grid_nx, grid, "nx")
        cfg.grid_ny = take("grid_ny", int, cfg.grid_ny, grid, "ny")
        transect = partial(replace, SimGrid.transect((0.0, 0.0), (1.0, 0.0), cfg.transect_n))
        cfg.transect_n = take("transect_n", int, cfg.transect_n, transect, "nx")
        if any(k in raw for k in _TRANSECT_KEYS):
            x0, y0, x1, y1 = (take(k, float, 0.0) for k in _TRANSECT_KEYS)
            judged(lambda: SimGrid.transect((x0, y0), (x1, y1), cfg.transect_n),
                   *_TRANSECT_KEYS)
            cfg.transect = (x0, y0, x1, y1)
        cfg.t0 = take("t0", float, cfg.t0)
        cfg.t0_policy = take("t0_policy", str, cfg.t0_policy, _check_t0_policy)

        # simulation parameters: param.<facies>.<name> = value, each judged
        # by LayerParams on its own in a valid set
        layer = partial(replace, LayerParams(p=0.5, mu=1.0, beta=1.0, alpha=1.0, nu=cfg.nu))
        sim: dict[str, dict[str, float]] = {}
        for key in [k for k in raw if k.startswith("param.")]:
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in PARAM_KINDS:
                raise DatasetError(f"{path}:{raw[key][0]}: bad parameter key {key!r}")
            sim.setdefault(parts[1], {})[parts[2]] = take(key, float, None, layer, parts[2])
        for facies, vals in sim.items():
            missing = sorted(set(PARAM_KINDS) - set(vals))
            if missing:
                key = min((f"param.{facies}.{k}" for k in vals), key=lines.get)
                raise DatasetError(
                    f"{path}:{lines[key]}: {key}: param.{facies}.* is missing {missing}"
                )
            cfg.sim_params[facies] = LayerParams(**vals, nu=cfg.nu)

        if raw:
            key = next(iter(raw))
            raise DatasetError(f"{path}:{raw[key][0]}: unknown config key {key!r}")
        return cfg
