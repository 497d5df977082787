"""Flat key = value run configuration with line-precise validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import DatasetError, ParameterError
from .gaussnum import ALLOWED_NU
from .likelihood import PARAM_KINDS, LayerParams
from .mcmc import PriorSpec, ProposalSpec

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}

# (test, what the value must be) for keys whose model range is narrower
# than their type's
_POSITIVE = (lambda v: v > 0, "positive")
_AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
_AT_LEAST_2 = (lambda v: v >= 2, "at least 2")
_MATERN_NU = (lambda v: v in ALLOWED_NU, f"one of {ALLOWED_NU}")


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
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise DatasetError(f"{path}: cannot read config ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: cannot decode as UTF-8 ({exc})") from exc
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

        def take(key, conv, default, rule=None):
            if key not in raw:
                return default
            ln, value = raw.pop(key)
            try:
                out = conv(value)
            except (ValueError, KeyError) as exc:
                raise DatasetError(f"{path}:{ln}: bad value for {key}: {value!r}") from exc
            if isinstance(out, float) and not math.isfinite(out):
                raise DatasetError(f"{path}:{ln}: {key} must be finite, got {value!r}")
            if rule is not None and not rule[0](out):
                raise DatasetError(f"{path}:{ln}: {key} must be {rule[1]}, got {value!r}")
            return out

        def boolean(v):
            return _BOOL[v.lower()]

        cfg.boreholes = take("boreholes", str, cfg.boreholes)
        cfg.parent = take("parent", str, cfg.parent)
        cfg.output_dir = take("output_dir", str, cfg.output_dir)
        cfg.nu = take("nu", float, cfg.nu, _MATERN_NU)
        cfg.tie_by_facies = take("tie_by_facies", boolean, cfg.tie_by_facies)
        cfg.priors = PriorSpec(
            eps_alpha=take("eps_alpha", float, cfg.priors.eps_alpha),
            alpha0=take("alpha0", float, cfg.priors.alpha0),
            eps_mu=take("eps_mu", float, cfg.priors.eps_mu),
            mu0=take("mu0", float, cfg.priors.mu0),
        )
        cfg.proposals = ProposalSpec(
            d_mu=take("d_mu", float, cfg.proposals.d_mu),
            d_beta=take("d_beta", float, cfg.proposals.d_beta),
            d_p=take("d_p", float, cfg.proposals.d_p),
            d_alpha=take("d_alpha", float, cfg.proposals.d_alpha),
            move_probs=(
                take("p_split", float, cfg.proposals.move_probs[0]),
                take("p_merge", float, cfg.proposals.move_probs[1]),
                take("p_displace", float, cfg.proposals.move_probs[2]),
            ),
        )
        cfg.n_iter = take("n_iter", int, cfg.n_iter)
        cfg.burn_in = take("burn_in", int, cfg.burn_in)
        cfg.thin = take("thin", int, cfg.thin)
        cfg.cdf_tol = take("cdf_tol", float, cfg.cdf_tol, _POSITIVE)
        cfg.alpha_init = take("alpha_init", float, cfg.alpha_init, _POSITIVE)
        cfg.grid_origin = (
            take("grid_origin_x", float, cfg.grid_origin[0]),
            take("grid_origin_y", float, cfg.grid_origin[1]),
        )
        cfg.grid_spacing = take("grid_spacing", float, cfg.grid_spacing, _POSITIVE)
        cfg.grid_nx = take("grid_nx", int, cfg.grid_nx, _AT_LEAST_1)
        cfg.grid_ny = take("grid_ny", int, cfg.grid_ny, _AT_LEAST_1)
        if any(k in raw for k in ("transect_x0", "transect_y0", "transect_x1", "transect_y1")):
            cfg.transect = (
                take("transect_x0", float, 0.0),
                take("transect_y0", float, 0.0),
                take("transect_x1", float, 0.0),
                take("transect_y1", float, 0.0),
            )
        cfg.transect_n = take("transect_n", int, cfg.transect_n, _AT_LEAST_2)
        cfg.t0 = take("t0", float, cfg.t0)
        cfg.t0_policy = take("t0_policy", str, cfg.t0_policy)
        if cfg.t0_policy not in ("constant", "idw"):
            raise DatasetError(f"{path}: t0_policy must be 'constant' or 'idw'")

        # simulation parameters: param.<facies>.<name> = value
        sim: dict[str, dict[str, float]] = {}
        lines: dict[str, int] = {}
        for key in [k for k in raw if k.startswith("param.")]:
            parts = key.split(".")
            lines[key] = raw[key][0]
            if len(parts) != 3 or parts[2] not in PARAM_KINDS:
                raise DatasetError(f"{path}:{lines[key]}: bad parameter key {key!r}")
            sim.setdefault(parts[1], {})[parts[2]] = take(key, float, None)
        # LayerParams states each support; a value is judged on its own in a
        # valid set, so the error names its key's line
        valid = LayerParams(p=0.5, mu=1.0, beta=1.0, alpha=1.0, nu=cfg.nu)
        for facies, vals in sim.items():
            missing = set(PARAM_KINDS) - set(vals)
            if missing:
                raise DatasetError(
                    f"{path}: param.{facies}.* is missing {sorted(missing)}"
                )
            for kind, value in vals.items():
                key = f"param.{facies}.{kind}"
                try:
                    replace(valid, **{kind: value})
                except ParameterError as exc:
                    raise DatasetError(f"{path}:{lines[key]}: {key}: {exc}") from exc
            cfg.sim_params[facies] = LayerParams(**vals, nu=cfg.nu)

        if raw:
            key = next(iter(raw))
            ln, _ = raw[key]
            raise DatasetError(f"{path}:{ln}: unknown config key {key!r}")
        if cfg.n_iter < 0 or cfg.burn_in < 0 or cfg.thin < 1:
            raise DatasetError(f"{path}: chain lengths must be non-negative, thin >= 1")
        return cfg
