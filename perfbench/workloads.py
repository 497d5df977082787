"""Workload definitions and the runner that drives ``stratasim.cli.main``.

Every workload is the paper's two-stage pipeline on synthetic data: a
Metropolis-within-Gibbs ``fit`` and three ``simulate`` calls (unconditional
grid, conditional grid, conditional transect).  The workloads differ in how
the time splits between the stages; README.md says why each was chosen.

One pass sets up and fits each of the workload's datasets and, after some of
the fits, spread evenly through the pass, runs simulate calls on that dataset.
Passes repeat while another one fits in the time given; every pass does
identical work, so a faster program measures more passes of the same inputs.

The host's speed drifts by a fifth or more over tens of seconds.  Spreading
each kind of call over the whole run lets every metric see the same average
speed.
"""

from __future__ import annotations

import contextlib
import io as stdio
import logging
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stratasim import cli, fieldsim, io, mcmc
from stratasim.synthgen import DEFAULT_TRUE_PARAMS

import checks
from ess import bulk_ess
from spans import IO_FUNCTIONS, TRACED, Tracer

SPARE_SETUPS = 2                     # timed set-ups after each fit and simulate call
N_BOREHOLES = 12
N_DATASETS = 8                       # synthetic datasets fitted per pass
GRID_SPACING = 2.0                   # km, the map resolution of every grid run
TRANSECT = (0.0, 0.0, 100.0, 100.0)  # km, the domain diagonal
TRANSECT_N = 201


@dataclass(frozen=True)
class Workload:
    name: str
    sims: tuple[int, int, int]  # of the N_DATASETS fits, how many get each of SIM_CALLS
    n_iter: int
    burn_in: int
    posterior: str         # "fit": simulate from the fit; "truth": from the synthetic truth
    grid_n: int            # grid_nx = grid_ny


WORKLOADS = {w.name: w for w in (
    Workload("fit-synth12", (8, 8, 8), 24, 8, "fit", 16),
    Workload("simulate-synth12", (2, 2, 4), 16, 4, "truth", 50),
)}

SIM_CALLS = (  # metric, config attribute of Dataset, mode
    ("sim_uncond_grid_s", "grid_cfg", "unconditional"),
    ("sim_cond_grid_s", "grid_cfg", "conditional"),
    ("sim_cond_transect_s", "transect_cfg", "conditional"),
)


class _RejectCounter(logging.Handler):
    """Counts the sampler's 'rejected after numeric failure' warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "rejected after numeric failure" in record.getMessage():
            self.count += 1


@contextlib.contextmanager
def _capture(owner, attr):
    """Keep the arguments and result of calls to ``owner.attr``."""
    calls = []
    original = getattr(owner, attr)

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    setattr(owner, attr, capturing)
    try:
        yield calls
    finally:
        setattr(owner, attr, original)


def dataset_seeds(seed: int, k: int) -> tuple[int, int]:
    """(workload seed, chain seed) of dataset k of a run."""
    data, chain = np.random.SeedSequence([seed, k]).generate_state(2)
    return int(data % 2**31), int(chain % 2**31)


class Dataset:
    """One synthetic dataset: its files, configs and seeds."""

    def __init__(self, wl: Workload, root: Path, seed: int, k: int):
        self.wl = wl
        self.seed = seed
        self.k = k
        self.dir = root / f"ds{k}"
        self.data_seed, self.chain_seed = dataset_seeds(seed, k)
        self.fit_dir = self.dir / "fit"
        self.sim_dir = self.fit_dir if wl.posterior == "fit" else self.dir / "sim"
        self.fit_cfg = self.dir / "fit.cfg"
        self.grid_cfg = self.dir / "grid.cfg"
        self.transect_cfg = self.dir / "transect.cfg"

    def spare(self) -> Dataset:
        """The same dataset in a directory that no other call reads."""
        return Dataset(self.wl, self.dir.parent / "spare", self.seed, self.k)

    def write_configs(self):
        wl, d = self.wl, self.dir
        common = (f"boreholes = {d}/data/boreholes.csv\nparent = {d}/data/parent.txt\n"
                  "tie_by_facies = true\n")
        self.fit_cfg.write_text(
            common + f"output_dir = {self.fit_dir}\n"
            f"n_iter = {wl.n_iter}\nburn_in = {wl.burn_in}\nthin = 1\n"
        )
        sim = common + f"output_dir = {self.sim_dir}\n"
        params = "".join(
            f"param.{f}.{k} = {getattr(p, k)!r}\n"
            for f, p in DEFAULT_TRUE_PARAMS.items() for k in ("p", "mu", "beta", "alpha")
        )
        self.grid_cfg.write_text(
            sim + params + f"grid_origin_x = 0\ngrid_origin_y = 0\n"
            f"grid_nx = {wl.grid_n}\ngrid_ny = {wl.grid_n}\ngrid_spacing = {GRID_SPACING!r}\n"
        )
        x0, y0, x1, y1 = TRANSECT
        self.transect_cfg.write_text(
            sim + f"transect_x0 = {x0}\ntransect_y0 = {y0}\n"
            f"transect_x1 = {x1}\ntransect_y1 = {y1}\ntransect_n = {TRANSECT_N}\n"
        )

    def write_truth_posterior(self):
        """The synthetic truth as a one-sample posterior in the fit's format.

        Its loglik is left nan: selecting the only sample does not read it.
        """
        parent = io.load_parent(self.dir / "data" / "parent.txt")
        truth = io.load_truth(self.dir / "data" / "truth.csv", parent)
        sample = mcmc.PosteriorSample(1, dict(DEFAULT_TRUE_PARAMS), tuple(truth), math.nan)
        self.sim_dir.mkdir(parents=True, exist_ok=True)
        io.save_samples(self.sim_dir / "samples.csv", [sample], list(DEFAULT_TRUE_PARAMS))
        io.save_configurations(self.sim_dir / "configurations.csv", [sample], parent)


class Runner:
    """Runs CLI calls and output checks; counts operations and timings."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = defaultdict(list)
        self.fits: list[dict] = []
        self.diagnostics: dict[tuple[str, str], np.ndarray] = {}
        self.rejects = _RejectCounter()
        self.tracer: Tracer | None = None
        logging.getLogger("stratasim.mcmc").addHandler(self.rejects)

    def close(self):
        logging.getLogger("stratasim.mcmc").removeHandler(self.rejects)

    # -- operations ------------------------------------------------------
    def cli(self, run: str, *argv) -> float | None:
        """One CLI call; returns its wall seconds, or None if it failed."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.run = run
        sink = stdio.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main([str(a) for a in argv])
        except Exception:  # a traceback out of the CLI is a failed operation
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
        if code != 0:
            print(f"perfbench: {run}: exit code {code}", file=sys.stderr)
            self.failed += 1
            return None
        return seconds

    def check(self, name: str, fn, *args):
        """One output check, run with tracing paused."""
        self.attempted += 1
        paused = self.tracer is not None and self.tracer.active
        if paused:
            self.tracer.active = False
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            print(f"perfbench: check {name} failed: {exc}", file=sys.stderr)
        except Exception:  # unreadable output fails the check, not the run
            print(f"perfbench: check {name} failed:", file=sys.stderr)
            traceback.print_exc()
        finally:
            if paused:
                self.tracer.active = True
        self.failed += 1
        return None

    # -- stages ----------------------------------------------------------
    def setup(self, ds: Dataset) -> bool:
        """synth, configs and (fit) validate or (truth) the posterior files."""
        if ds.dir.exists():
            shutil.rmtree(ds.dir)
        start = time.perf_counter()
        if self.cli(f"ds{ds.k}:synth", "synth", "--output-dir", ds.dir / "data",
                    "--seed", ds.data_seed, "--n-boreholes", N_BOREHOLES) is None:
            return False
        ds.write_configs()
        if self.wl.posterior == "truth":
            ds.write_truth_posterior()
        elif self.cli(f"ds{ds.k}:validate", "validate", "--config", ds.fit_cfg) is None:
            return False
        self.times["setup_s"].append(time.perf_counter() - start)
        return True

    def spare_setups(self, ds: Dataset, n: int):
        spare = ds.spare()
        for _ in range(n):
            self.setup(spare)

    def fit(self, ds: Dataset):
        wl = self.wl
        seconds = self.cli(f"ds{ds.k}:fit", "fit", "--config", ds.fit_cfg,
                           "--seed", ds.chain_seed)
        if seconds is None:
            return
        self.times["fit_iter_ms"].append(1000.0 * seconds / wl.n_iter)
        groups = mcmc.ThicknessModel(ds.boreholes, ds.parent, tie_by_facies=True).groups
        self.check("fit.projects", checks.fit_projects, ds.fit_dir, ds.boreholes, ds.parent)
        self.check("fit.loglik", checks.fit_loglik, ds.fit_dir, ds.boreholes, ds.parent)
        self.check("fit.counters", checks.fit_counters, ds.fit_dir, wl.n_iter,
                   len(groups), len(ds.boreholes))
        rows = checks.read_samples(ds.fit_dir / "samples.csv", groups)
        draws = np.array([[getattr(p[g], k) for g in groups for k in mcmc.PARAM_KINDS]
                          for _, p, _ in rows])
        ess = [bulk_ess(draws[:, i]) for i in range(draws.shape[1])]
        ess = [e for e in ess if not math.isnan(e)]
        if ess:
            self.fits.append({"ess_min": min(ess), "ess_median": statistics.median(ess),
                              "ess_per_s": statistics.median(ess) / seconds})
        for key, counts in checks.read_diagnostics(ds.fit_dir / "diagnostics.csv").items():
            self.diagnostics[key] = self.diagnostics.get(key, 0) + np.array(counts)

    def simulate(self, ds: Dataset, metric: str, cfg: Path, mode: str):
        wl = self.wl
        with _capture(fieldsim, "simulate_conditional") as calls:
            seconds = self.cli(f"ds{ds.k}:{metric}", "simulate", "--config", cfg,
                               "--mode", mode, "--seed", ds.chain_seed)
        if seconds is None:
            return
        self.times[metric].append(seconds)
        n_layers = len(ds.parent)
        if cfg == ds.grid_cfg:
            raster = self.check("sim.files", checks.grid_files, ds.sim_dir,
                                wl.grid_n * wl.grid_n, n_layers)
            if raster is not None:
                self.check("sim.values", checks.nonnegative_stack, raster)
        else:
            bounds = self.check("sim.files", checks.transect_files, ds.sim_dir,
                                TRANSECT_N, n_layers)
            if bounds is not None:
                self.check("sim.values", checks.nondecreasing_boundaries, bounds)
            raster = None
        if mode == "conditional":
            (args, stack), = calls
            self.check("sim.honours", checks.honours_boreholes, stack, args[3], args[4], raster)

    def run_pass(self, datasets, sims, spare_setups):
        """Set up and fit every dataset; after `sims[c]` of the fits, spread
        evenly, run simulate call `c` of SIM_CALLS on that dataset.  After each
        fit and simulate call, time `spare_setups` more set-ups of the dataset
        in a spare directory, so that set-up timings span the run."""
        after = [{int((j + 0.5) * len(datasets) / n) for j in range(n)} for n in sims]
        for i, ds in enumerate(datasets):
            if not self.setup(ds):
                continue
            ds.parent = io.load_parent(ds.dir / "data" / "parent.txt")
            ds.boreholes = io.load_boreholes(ds.dir / "data" / "boreholes.csv")
            self.fit(ds)
            self.spare_setups(ds, spare_setups)
            for (metric, cfg, mode), at in zip(SIM_CALLS, after):
                if i in at:
                    self.simulate(ds, metric, getattr(ds, cfg), mode)
                    self.spare_setups(ds, spare_setups)


def _median(values):
    return statistics.median(values) if values else math.nan


def _mean(values):
    return statistics.fmean(values) if values else math.nan


def run(wl: Workload, root: Path, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object and extra records."""
    start = time.perf_counter()
    runner = Runner(wl)
    try:
        fits, sims = N_DATASETS, wl.sims
        if trace:  # an untraced and a traced pass, each over half the data
            fits, sims = max(1, fits // 2), tuple(max(1, n // 2) for n in sims)
        datasets = [Dataset(wl, root, seed, k) for k in range(fits)]
        if not trace:
            while True:
                t0 = time.perf_counter()
                runner.run_pass(datasets, sims, SPARE_SETUPS)
                now = time.perf_counter()
                if now + (now - t0) > start + seconds:
                    break
            metrics = end_to_end(runner)
            spans = None
        else:
            metrics, spans = traced(runner, datasets, sims)
    finally:
        runner.close()
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "samples": dict(runner.times),
        "spans": spans,
    }


def end_to_end(runner: Runner) -> dict:
    """Means of each kind of timing over the run.

    The host switches between two speeds (set-ups cluster near 7 and 11 ms).
    A median of such timings jumps from one level to the other as the share
    of the run spent at each crosses a half; a mean moves with that share.
    """
    t = runner.times
    values = {
        "setup_s": (_mean(t["setup_s"]), "s"),
        "fit_iter_ms": (_mean(t["fit_iter_ms"]), "ms"),
        "sim_uncond_grid_s": (_mean(t["sim_uncond_grid_s"]), "s"),
        "sim_cond_grid_s": (_mean(t["sim_cond_grid_s"]), "s"),
        "sim_cond_transect_s": (_mean(t["sim_cond_transect_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced(runner: Runner, datasets, sims) -> tuple[dict, Tracer]:
    """An untraced pass, then the same pass traced; per-layer metrics."""
    runner.run_pass(datasets, sims, 0)
    plain = {k: list(v) for k, v in runner.times.items()}
    plain_fits = list(runner.fits)
    runner.times.clear()
    runner.fits.clear()
    runner.diagnostics.clear()
    runner.rejects.count = 0

    tracer = runner.tracer = Tracer()
    tracer.install()
    try:
        runner.run_pass(datasets, sims, 0)
    finally:
        tracer.uninstall()
        runner.tracer = None

    m = {**_layer_metrics(tracer), **_chain_metrics(runner, plain_fits),
         **_overhead_metrics(plain, runner.times)}
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}, tracer


def _layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    m = {}
    summary = tracer.summary()
    for layer, names in TRACED.items():
        for qual in names:
            row = summary.get(f"{layer}.{qual}", {})
            for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"),
                               ("us_per_call", "us")):
                m[f"{layer}.{qual}.{stat}"] = (row.get(stat, 0.0), unit)
    for fn in IO_FUNCTIONS:
        name = f"io.{fn}"
        m[f"{name}.self_s"] = (summary.get(name, {}).get("self_s", 0.0), "s")
        m[f"{name}.bytes"] = (tracer.counters[f"{name}.bytes"], "B")

    c = tracer.counters
    cdf_calls = summary.get("gaussnum.mvn_cdf_below", {}).get("calls", 0)
    m["gaussnum.mvn_cdf_below.dim_mean"] = (
        c["gaussnum.mvn_cdf_below.dim_sum"] / max(cdf_calls, 1), "dim")
    m["gaussnum.mvn_cdf_below.dim_max"] = (c["gaussnum.mvn_cdf_below.dim_max"], "dim")
    m["gaussnum.mvn_cdf_below.over_tol"] = (c["gaussnum.mvn_cdf_below.over_tol"], "count")
    field_calls = summary.get("gaussnum.sample_gaussian_field", {}).get("calls", 0)
    m["gaussnum.sample_gaussian_field.points_mean"] = (
        c["gaussnum.sample_gaussian_field.points_sum"] / max(field_calls, 1), "points")
    return m


def _chain_metrics(runner: Runner, fits) -> dict[str, tuple[float, str]]:
    """Acceptance and no-op ratios from diagnostics.csv; ESS of untraced fits."""
    m = {}
    diag = runner.diagnostics
    for kind in mcmc.PARAM_KINDS:
        acc, prop, _ = diag.get(("parameter", kind), (0, 0, 0))
        m[f"mcmc.param_accept.{kind}"] = (acc / prop if prop else 0.0, "ratio")
    draws = noop = 0
    for kind in ("split", "merge", "displace"):
        acc, prop, infeasible = diag.get(("move", kind), (0, 0, 0))
        m[f"mcmc.move_accept.{kind}"] = (acc / prop if prop else 0.0, "ratio")
        draws += prop + infeasible
        noop += infeasible
    m["mcmc.move_noop_ratio"] = (noop / draws if draws else 0.0, "ratio")
    proposals = sum(int(v[1]) for v in diag.values())
    m["mcmc.numeric_rejects"] = (runner.rejects.count / proposals if proposals else 0.0, "ratio")
    for key, unit in (("ess_min", "draws"), ("ess_median", "draws"), ("ess_per_s", "1/s")):
        m[f"mcmc.{key}"] = (_median([f[key] for f in fits]) if fits else 0.0, unit)
    return m


def _overhead_metrics(plain, traced_times) -> dict[str, tuple[float, str]]:
    """Traced over untraced wall time of the same CLI calls."""
    stages = {"fit": ("fit_iter_ms",),
              "sim": ("sim_uncond_grid_s", "sim_cond_grid_s", "sim_cond_transect_s")}
    totals = {
        stage: (sum(sum(traced_times.get(n, [])) for n in names),
                sum(sum(plain.get(n, [])) for n in names))
        for stage, names in stages.items()
    }
    traced_all = sum(t for t, _ in totals.values())
    plain_all = sum(b for _, b in totals.values())
    m = {"trace.overhead_ratio": (traced_all / plain_all if plain_all else 0.0, "ratio")}
    for stage, (t, b) in totals.items():
        m[f"trace.{stage}_overhead_ratio"] = (t / b if b else 0.0, "ratio")
    return m
