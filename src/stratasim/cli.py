"""Command-line entry point.

Subcommands: fit, simulate, tcd, synth, validate.  Exit codes: 0 success,
otherwise the ``exit_code`` of the ``StrataError`` raised: 2 parse/validation
error, 3 incompatibility or missing chain input, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import core, fieldsim, io, likelihood, mcmc, synthgen
from .config import RunConfig
from .errors import DatasetError, IncompatibleSequenceError, ParameterError, StrataError


def _load_inputs(cfg: RunConfig):
    """Parent and boreholes; compatibility is checked where the model is built."""
    return io.load_parent(cfg.parent), io.load_boreholes(cfg.boreholes)


def cmd_fit(args) -> int:
    cfg = RunConfig.from_file(args.config)
    parent, boreholes = _load_inputs(cfg)
    samples, diagnostics = mcmc.run_chain(
        boreholes, parent, cfg.priors, cfg.proposals,
        n_iter=cfg.n_iter, burn_in=cfg.burn_in, thin=cfg.thin,
        seed=args.seed, nu=cfg.nu, tie_by_facies=cfg.tie_by_facies,
        cdf_tol=cfg.cdf_tol, alpha_init=cfg.alpha_init,
    )
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    groups = diagnostics["groups"]
    io.save_samples(out / "samples.csv", samples, groups)
    io.save_configurations(out / "configurations.csv", samples, parent)
    io.save_diagnostics(out / "diagnostics.csv", diagnostics)
    io.save_trace(out / "trace.csv", diagnostics)
    if samples:
        io.save_summary(out / "summary.csv", samples, groups)
    print(f"wrote {len(samples)} posterior samples to {out}")
    return 0


def _make_grid(cfg: RunConfig, boreholes=None) -> fieldsim.SimGrid:
    if cfg.transect is not None:
        x0, y0, x1, y1 = cfg.transect
        grid = fieldsim.SimGrid.transect((x0, y0), (x1, y1), cfg.transect_n, t0=cfg.t0)
    else:
        grid = fieldsim.SimGrid.regular(
            cfg.grid_origin, cfg.grid_spacing, cfg.grid_nx, cfg.grid_ny, t0=cfg.t0
        )
    if cfg.t0_policy == "idw" and boreholes:
        locs = [[b.x, b.y] for b in boreholes]
        vals = [b.ground_level for b in boreholes]
        t0 = fieldsim.idw_ground_level(grid, locs, vals)
        grid = replace(grid, t0=t0)
    return grid


def _load_chain(out: Path, parent):
    """Groups, sample rows and configurations of the fit in ``out``.

    Missing files, a samples file without rows, a sample without
    configurations, or a configuration whose length is not the parent's
    raise ``IncompatibleSequenceError`` (exit 3).
    """
    samples_path = out / "samples.csv"
    configs_path = out / "configurations.csv"
    if not samples_path.exists() or not configs_path.exists():
        raise IncompatibleSequenceError(
            f"chain input needs {samples_path} and {configs_path} (run fit first)"
        )
    groups, samples_rows = io.load_samples(samples_path)
    if not samples_rows:
        raise IncompatibleSequenceError(
            f"{samples_path} holds no posterior samples (is burn_in >= n_iter?)"
        )
    config_rows = io.load_configurations(configs_path)
    missing = [it for it, _, _ in samples_rows if it not in config_rows]
    if missing:
        raise IncompatibleSequenceError(
            f"{configs_path}: no configurations for sample iteration(s) "
            f"{', '.join(map(str, missing))}"
        )
    for it, configs in config_rows.items():
        for c in configs:
            if len(c.thicknesses) != len(parent):
                raise IncompatibleSequenceError(
                    f"{configs_path}: iteration {it}, borehole {c.borehole_id} has "
                    f"{len(c.thicknesses)} layers; the parent has {len(parent)}"
                )
    return groups, samples_rows, config_rows


def _layer_groups(parent, cfg: RunConfig, groups) -> list[str]:
    """Parameter group of each parent layer, each checked against the chain's."""
    names = [
        mcmc.parameter_group(parent, j, cfg.tie_by_facies) for j in range(len(parent))
    ]
    missing = [g for g in dict.fromkeys(names) if g not in groups]
    if missing:
        raise DatasetError(
            f"samples.csv has no parameter group {', '.join(missing)}; "
            f"is tie_by_facies the fit's?"
        )
    return names


def _select_sample(samples_rows, config_rows, selector) -> mcmc.PosteriorSample:
    samples = [
        mcmc.PosteriorSample(it, params, tuple(config_rows[it]), loglik)
        for it, params, loglik in samples_rows
    ]
    if selector == "most-likely":
        return mcmc.select_most_likely(samples)
    try:
        idx = int(selector)
    except ValueError:
        raise ParameterError(
            f"selector must be 'most-likely' or a sample index, got {selector!r}"
        ) from None
    if not 0 <= idx < len(samples):
        raise IncompatibleSequenceError(
            f"sample index {idx} out of range (0..{len(samples) - 1})"
        )
    return samples[idx]


def cmd_simulate(args) -> int:
    cfg = RunConfig.from_file(args.config)
    parent = io.load_parent(cfg.parent)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    if args.mode == "unconditional":
        missing = [f for f in parent.facies if f not in cfg.sim_params]
        if missing:
            raise DatasetError(
                f"config lacks param.<facies>.* entries for: {', '.join(missing)}"
            )
        grid = _make_grid(cfg)
        stack = fieldsim.simulate_unconditional(grid, cfg.sim_params, parent, args.seed)
    else:
        boreholes = io.load_boreholes(cfg.boreholes)
        groups, samples_rows, config_rows = _load_chain(out, parent)
        sample = _select_sample(samples_rows, config_rows, args.selector)
        core.check_compatible(boreholes, parent)
        params_by_layer = [
            sample.params[g] for g in _layer_groups(parent, cfg, groups)
        ]
        by_id = {cfg_.borehole_id: cfg_ for cfg_ in sample.configs}
        absent = [b.id for b in boreholes if b.id not in by_id]
        if absent:
            raise IncompatibleSequenceError(
                f"boreholes absent from the chain at iteration {sample.iteration}: "
                f"{', '.join(absent)}"
            )
        ordered = [by_id[b.id] for b in boreholes]
        unlike = [b.id for b, c in zip(boreholes, ordered)
                  if core.observe(c, parent) != list(b.records)]
        if unlike:
            raise IncompatibleSequenceError(
                f"configurations at iteration {sample.iteration} do not reproduce "
                f"the records of borehole(s) {', '.join(unlike)}"
            )
        grid = _make_grid(cfg, boreholes)
        stack = fieldsim.simulate_conditional(
            grid, params_by_layer, parent, ordered,
            [[b.x, b.y] for b in boreholes], args.seed,
        )
        print(f"conditional simulation from sample at iteration {sample.iteration}")

    if stack.grid.kind == "grid":
        text = io.thickness_text(stack)
        io.save_raster(out / "raster.csv", stack, text)
        io.save_stack_grid(out / "surfaces.txt", stack, text)
    else:
        dist, columns, boundaries = fieldsim.cross_section(stack)
        io.save_section(out / "section.csv", dist, columns)
        io.save_polylines(out / "polylines.csv", dist, boundaries)
        io.save_stack_grid(out / "surfaces.txt", stack)
    print(f"simulation written to {out}")
    return 0


def cmd_tcd(args) -> int:
    cfg = RunConfig.from_file(args.config)
    parent = io.load_parent(cfg.parent)
    if args.facies not in parent.facies:
        raise DatasetError(f"unknown facies {args.facies!r}; parent has {parent.facies}")
    out = Path(cfg.output_dir)
    groups, samples_rows, config_rows = _load_chain(out, parent)

    layer_idx = parent.layers_of(args.facies)
    thick = []
    for it, _, _ in samples_rows:
        for c in config_rows[it]:
            thick.extend(z for z in np.asarray(c.thicknesses)[layer_idx] if z > 0)
    thick = np.sort(np.array(thick))
    z_max = float(thick[-1]) * 1.2 if thick.size else 1.0
    z_grid = np.linspace(0.0, z_max, 201)

    # Positive thicknesses pool the facies' layers, and layer j is positive
    # with probability p_j, so the model curve is the p-weighted mixture of
    # the layers' curves, summed per parameter group.
    layer_groups = _layer_groups(parent, cfg, groups)
    counts = Counter(layer_groups[j] for j in layer_idx)

    def model_curve(params):
        mass = {g: n * params[g].p for g, n in counts.items()}
        total = sum(mass.values())
        return sum(
            (m / total) * likelihood.tcd(z_grid, params[g]) for g, m in mass.items()
        )

    curves = np.array([model_curve(params) for _, params, _ in samples_rows])
    median = np.median(curves, axis=0)
    q05 = np.quantile(curves, 0.05, axis=0)
    q95 = np.quantile(curves, 0.95, axis=0)
    empirical = (
        np.searchsorted(thick, z_grid, side="right") / thick.size
        if thick.size else np.zeros_like(z_grid)
    )
    path = out / f"tcd_{args.facies}.csv"
    io.save_tcd(path, z_grid, median, q05, q95, empirical)
    print(f"TCD table written to {path}")
    return 0


def cmd_synth(args) -> int:
    scenario = synthgen.SyntheticScenario(
        n_random_boreholes=max(args.n_boreholes - 3, 0), seed=args.seed
    )
    boreholes, truth, _ = synthgen.generate(scenario)
    boreholes = boreholes[: args.n_boreholes]
    truth = truth[: args.n_boreholes]
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    io.save_boreholes(out / "boreholes.csv", boreholes)
    io.save_truth(out / "truth.csv", truth, scenario.parent)
    io.save_parent(out / "parent.txt", scenario.parent)
    print(f"wrote {len(boreholes)} synthetic boreholes to {out}")
    return 0


def cmd_validate(args) -> int:
    """Build the model, which checks compatibility, and print its initialization."""
    cfg = RunConfig.from_file(args.config)
    parent, boreholes = _load_inputs(cfg)
    model = mcmc.ThicknessModel(
        boreholes, parent, nu=cfg.nu, tie_by_facies=cfg.tie_by_facies,
        cdf_tol=cfg.cdf_tol,
    )
    params = model.empirical_init(cfg.alpha_init)
    print(f"{len(boreholes)} boreholes compatible with the {len(parent)}-layer parent")
    print(f"{'group':<12}{'p0':>8}{'tau0':>8}{'mu0':>8}{'alpha0':>8}")
    for g in model.groups:
        prm = params[g]
        print(f"{g:<12}{prm.p:>8.3f}{prm.tau:>8.3f}{prm.mu:>8.3f}{prm.alpha:>8.3f}")
    return 0


def _int_from(low: int):
    """The argparse type of a decimal integer >= ``low`` >= 0 (else exit 2)."""
    def parse(text: str) -> int:
        if text.isdecimal() and int(text) >= low:
            return int(text)
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratasim",
        description="Truncated-Gaussian stratigraphic modeling from borehole data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="run the MCMC and write chain files")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--seed", required=True, type=_int_from(0))
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="simulate thickness fields")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", required=True, type=_int_from(0))
    p_sim.add_argument("--mode", choices=("unconditional", "conditional"),
                       default="unconditional")
    p_sim.add_argument("--selector", default="most-likely",
                       help="'most-likely' or a 0-based thinned sample index")
    p_sim.set_defaults(func=cmd_simulate)

    p_tcd = sub.add_parser("tcd", help="posterior thickness cumulative distribution")
    p_tcd.add_argument("--config", required=True)
    p_tcd.add_argument("--facies", required=True)
    p_tcd.set_defaults(func=cmd_tcd)

    p_syn = sub.add_parser("synth", help="generate the synthetic scenario")
    p_syn.add_argument("--output-dir", default="synth")
    p_syn.add_argument("--seed", required=True, type=_int_from(0))
    p_syn.add_argument("--n-boreholes", type=_int_from(1), default=12)
    p_syn.set_defaults(func=cmd_synth)

    p_val = sub.add_parser("validate", help="check inputs without iterating")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StrataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
