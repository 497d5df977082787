"""Run configuration parsing and the command-line workflows end to end."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stratasim import cli, errors, io, likelihood, mcmc
from stratasim.cli import main
from stratasim.config import RunConfig
from stratasim.errors import DatasetError


class TestRunConfig:
    def test_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# empty\n")
        cfg = RunConfig.from_file(path)
        assert cfg.n_iter == 30_000 and cfg.burn_in == 2_500 and cfg.thin == 50
        assert cfg.nu == 1.5 and cfg.tie_by_facies

    def test_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "n_iter = 100\nburn_in = 10\nthin = 2\nnu = 0.5\n"
            "tie_by_facies = false\nd_p = 0.3\neps_alpha = 0.05\n"
            "alpha0 = 2.0\ntransect_x0 = 0\ntransect_y0 = 0\n"
            "transect_x1 = 10\ntransect_y1 = 0\n"
        )
        cfg = RunConfig.from_file(path)
        assert cfg.n_iter == 100 and cfg.nu == 0.5 and not cfg.tie_by_facies
        assert cfg.proposals.d_p == 0.3
        assert cfg.priors.eps_alpha == 0.05 and cfg.priors.alpha0 == 2.0
        assert cfg.transect == (0.0, 0.0, 10.0, 0.0)

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_iter = 10\nbogus_key = 1\n")
        with pytest.raises(DatasetError, match=":2"):
            RunConfig.from_file(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# c\nn_iter = ten\n")
        with pytest.raises(DatasetError, match=":2"):
            RunConfig.from_file(path)

    def test_undecodable_file_reports_path(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xff\xfe\x00n_iter = 10\n")
        with pytest.raises(DatasetError, match=re.escape(f"{path}: cannot decode as UTF-8 (")):
            RunConfig.from_file(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # a UTF-8 byte-order mark is not part of the first key
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfn_iter = 10\nburn_in = 2\n")
        cfg = RunConfig.from_file(path)
        assert cfg.n_iter == 10 and cfg.burn_in == 2

    def test_key_given_twice_takes_its_last_value(self, tmp_path):
        # so a base config can be overridden by appending lines to it
        path = tmp_path / "run.cfg"
        path.write_text("n_iter = 10\nburn_in = 2\nn_iter = 4\n")
        assert RunConfig.from_file(path).n_iter == 4

    @pytest.mark.parametrize(
        "line", ["d_mu = nan", "mu0 = inf", "p_split = nan", "t0 = nan",
                 "param.Green.mu = -inf"],
    )
    def test_non_finite_float_exit_2_with_line(self, tmp_path, capsys, line):
        path = tmp_path / "run.cfg"
        path.write_text(f"# c\n{line}\n")
        with pytest.raises(DatasetError, match=r"run\.cfg:2: .* must be finite"):
            RunConfig.from_file(path)
        assert main(["validate", "--config", str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("line, rule", [
        ("cdf_tol = -1", "cdf_tol must be positive"),
        ("cdf_tol = 0", "cdf_tol must be positive"),
        ("alpha_init = -1", "alpha_init must be positive"),
        ("nu = 2", "nu must be one of (0.5, 1.5, 2.5)"),
        ("grid_spacing = 0", "grid_spacing must be positive"),
        ("grid_spacing = -2", "grid_spacing must be positive"),
        ("grid_nx = 0", "grid_nx must be at least 1"),
        ("grid_ny = -3", "grid_ny must be at least 1"),
        ("transect_n = 1", "transect_n must be at least 2"),
        ("d_mu = -1", "d_mu must be positive"),
        ("p_split = 0.9", "move probabilities must be non-negative and sum to 1"),
        ("eps_alpha = 2", "eps_alpha must lie in (0,1)"),
        ("alpha0 = 0", "alpha0 must be positive"),
        ("n_iter = -1", "n_iter must be at least 0"),
        ("burn_in = -1", "burn_in must be at least 0"),
        ("thin = 0", "thin must be at least 1"),
        ("transect_x0 = 3\ntransect_y0 = 3\ntransect_x1 = 3\ntransect_y1 = 3",
         "transect endpoints coincide"),
        ("t0_policy = foo", "t0_policy must be one of ('constant', 'idw')"),
        ("param.Green.p = 0.8", "param.Green.* is missing"),
    ])
    def test_out_of_range_exit_2_with_line(self, tmp_path, capsys, line, rule):
        # reported as path:line: key: <the owning type's message>, which
        # holds the rule's words: the rule less a leading key
        key = line.partition(" = ")[0]
        words = rule.removeprefix(f"{key} ")
        path = tmp_path / "run.cfg"
        path.write_text(f"# c\n{line}\n")
        for argv in (["validate", "--config", str(path)],
                     ["fit", "--config", str(path), "--seed", "1"],
                     ["simulate", "--config", str(path), "--seed", "1",
                      "--mode", "unconditional"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"{path}:2: {key}: " in err and words in err
            assert "Traceback" not in err

    def test_sim_params(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "param.Green.p = 0.8\nparam.Green.mu = 1.0\n"
            "param.Green.beta = 1.0\nparam.Green.alpha = 10\n"
        )
        cfg = RunConfig.from_file(path)
        assert cfg.sim_params["Green"].alpha == 10.0

    @pytest.mark.parametrize("kind, value, rule", [
        ("p", "1.5", "p must lie in (0,1)"),
        ("mu", "0", "mu must be positive"),
        ("beta", "9", "beta must lie in (0.25, 4.0)"),
        ("alpha", "-1", "alpha must be positive"),
    ])
    def test_sim_param_out_of_support_exit_2_with_line(self, tmp_path, capsys, kind,
                                                        value, rule):
        # the offending key on line 4 of five, the other three valid
        vals = {"p": "0.8", "mu": "1.0", "beta": "1.0", "alpha": "10", kind: value}
        others = [k for k in likelihood.PARAM_KINDS if k != kind]
        keys = [*others[:2], kind, *others[2:]]
        path = tmp_path / "run.cfg"
        path.write_text("# c\n" + "".join(f"param.Green.{k} = {vals[k]}\n" for k in keys))
        for argv in (["validate", "--config", str(path)],
                     ["simulate", "--config", str(path), "--seed", "1",
                      "--mode", "unconditional"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"{path}:4: param.Green.{kind}: {rule}" in err
            assert "Traceback" not in err

    def test_incomplete_sim_params(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("param.Green.p = 0.8\n")
        with pytest.raises(DatasetError, match="missing"):
            RunConfig.from_file(path)

    def test_readme_config_block_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "run.cfg"
        path.write_text(block)
        cfg = RunConfig.from_file(path)
        assert cfg.grid_origin == (0.0, 0.0) and cfg.grid_nx == 50
        assert cfg.t0_policy == "constant" and cfg.transect_n == 101
        assert cfg.sim_params["Green"].alpha == 10.0


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth + short fit, shared by the CLI workflow tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--output-dir", str(root / "synth"), "--seed", "0"]) == 0
    cfg = root / "run.cfg"
    cfg.write_text(
        f"boreholes = {root}/synth/boreholes.csv\n"
        f"parent = {root}/synth/parent.txt\n"
        f"output_dir = {root}/out\n"
        "n_iter = 60\nburn_in = 20\nthin = 10\ncdf_tol = 1e-2\n"
        "grid_nx = 12\ngrid_ny = 12\ngrid_spacing = 9\n"
    )
    assert main(["fit", "--config", str(cfg), "--seed", "1"]) == 0
    return root, cfg


def _write_incompatible_boreholes(path):
    """One borehole whose Black-Red-Black log no synthetic parent order allows."""
    path.write_text(
        ",".join(io.BOREHOLE_HEADER) + "\n"
        "z,5.0,5.0,0.0,0,Black,1.0\n"
        "z,5.0,5.0,0.0,1,Red,1.0\n"
        "z,5.0,5.0,0.0,2,Black,1.0\n"
    )


class TestSynth:
    def test_default_has_12_boreholes(self, tmp_path):
        out = tmp_path / "s"
        assert main(["synth", "--output-dir", str(out), "--seed", "3"]) == 0
        boreholes = io.load_boreholes(out / "boreholes.csv")
        assert len(boreholes) == 12

    def test_borehole_count_override(self, tmp_path):
        out = tmp_path / "s"
        assert main(["synth", "--output-dir", str(out), "--seed", "3",
                     "--n-boreholes", "3"]) == 0
        assert len(io.load_boreholes(out / "boreholes.csv")) == 3

    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--output-dir", str(a), "--seed", "9"])
        main(["synth", "--output-dir", str(b), "--seed", "9"])
        assert (a / "boreholes.csv").read_text() == (b / "boreholes.csv").read_text()


class TestFit:
    def test_outputs_written(self, workspace):
        root, _ = workspace
        out = root / "out"
        for name in ("samples.csv", "configurations.csv",
                     "diagnostics.csv", "summary.csv"):
            assert (out / name).exists()
        groups, rows = io.load_samples(out / "samples.csv")
        assert sorted(groups) == ["Black", "Blue", "Green", "Red"]
        assert len(rows) == 4  # (60 - 20) / 10

    def test_trace_ends_at_the_last_iteration(self, workspace):
        root, _ = workspace
        out = root / "out"
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,loglik"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(it) for it, _ in rows] == list(range(61))  # iteration 0: the start
        _, samples = io.load_samples(out / "samples.csv")
        last_iteration, _, last_loglik = samples[-1]
        assert last_iteration == 60 and float(rows[-1][1]) == last_loglik

    def test_summary_covers_all_parameters(self, workspace):
        root, _ = workspace
        lines = (root / "out" / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 4

    def test_deterministic(self, workspace, tmp_path):
        root, cfg = workspace
        cfg2 = tmp_path / "run2.cfg"
        cfg2.write_text(
            cfg.read_text().replace(f"output_dir = {root}/out",
                                    f"output_dir = {tmp_path}/out2")
        )
        assert main(["fit", "--config", str(cfg2), "--seed", "1"]) == 0
        assert (
            (tmp_path / "out2" / "samples.csv").read_text()
            == (root / "out" / "samples.csv").read_text()
        )

    def test_corrupted_kernel_memo_exits_4(self, workspace, tmp_path, monkeypatch):
        # Corrupt each memo entry once it is stored: the chain then reads bad
        # kernels on hits, while the audit's own empty memo builds clean ones.
        root, cfg = workspace
        real_kernel = mcmc.ThicknessModel.kernel
        corrupted = []

        def kernel(self, spec, mask):
            out = real_kernel(self, spec, mask)
            key = next(reversed(self._kernels))  # the entry just used
            if not any(self._kernels[key] is bad for bad in corrupted):
                corrupted.append(replace(out, logdet=out.logdet + 1.0))
                self._kernels[key] = corrupted[-1]
            return out

        monkeypatch.setattr(mcmc.ThicknessModel, "kernel", kernel)
        monkeypatch.setattr(mcmc, "_AUDIT_EVERY", 2)
        cfg2 = tmp_path / "run2.cfg"
        cfg2.write_text(cfg.read_text().replace(f"output_dir = {root}/out",
                                                f"output_dir = {tmp_path}/out2"))
        assert main(["fit", "--config", str(cfg2), "--seed", "1"]) == 4
        assert not (tmp_path / "out2").exists()

    def test_empty_borehole_file_exit_2(self, tmp_path):
        bh = tmp_path / "bh.csv"
        bh.write_text(",".join(io.BOREHOLE_HEADER) + "\n")
        parent = tmp_path / "parent.txt"
        parent.write_text("Green\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"boreholes = {bh}\nparent = {parent}\n")
        assert main(["fit", "--config", str(cfg), "--seed", "1"]) == 2

    def test_zero_thickness_record_exit_2_with_line(self, tmp_path, capsys):
        parent = tmp_path / "parent.txt"
        parent.write_text("Green\nRed\n")
        bh = tmp_path / "bh.csv"
        bh.write_text(
            ",".join(io.BOREHOLE_HEADER) + "\n"
            "a,0.0,0.0,0.0,0,Green,1.0\n"
            "a,0.0,0.0,0.0,1,Red,0.0\n"
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"boreholes = {bh}\nparent = {parent}\n")
        assert main(["fit", "--config", str(cfg), "--seed", "1"]) == 2
        assert f"{bh}:3:" in capsys.readouterr().err

    def test_incompatible_borehole_exit_3(self, tmp_path):
        parent = tmp_path / "parent.txt"
        parent.write_text("Green\nRed\n")
        bh = tmp_path / "bh.csv"
        bh.write_text(
            ",".join(io.BOREHOLE_HEADER) + "\n"
            "a,0.0,0.0,0.0,0,Red,1.0\n"
            "a,0.0,0.0,0.0,1,Green,1.0\n"
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"boreholes = {bh}\nparent = {parent}\n")
        assert main(["fit", "--config", str(cfg), "--seed", "1"]) == 3


class TestSimulate:
    def test_unconditional_requires_params(self, workspace):
        _, cfg = workspace
        assert main(["simulate", "--config", str(cfg), "--seed", "2"]) == 2

    def test_unconditional_with_params(self, workspace, tmp_path):
        root, cfg = workspace
        cfg2 = tmp_path / "sim.cfg"
        extra = "".join(
            f"param.{f}.p = {p}\nparam.{f}.mu = 1\nparam.{f}.beta = 1\n"
            f"param.{f}.alpha = {a}\n"
            for f, p, a in [("Green", 0.8, 10), ("Red", 0.8, 20),
                            ("Blue", 0.3, 10), ("Black", 0.3, 20)]
        )
        cfg2.write_text(cfg.read_text().replace(
            f"output_dir = {root}/out", f"output_dir = {tmp_path}/sim"
        ) + extra)
        assert main(["simulate", "--config", str(cfg2), "--seed", "2"]) == 0
        assert (tmp_path / "sim" / "raster.csv").exists()
        assert (tmp_path / "sim" / "surfaces.txt").exists()

    def test_conditional_most_likely(self, workspace):
        root, cfg = workspace
        assert main(["simulate", "--config", str(cfg), "--seed", "2",
                     "--mode", "conditional"]) == 0
        assert (root / "out" / "raster.csv").exists()

    def test_conditional_selector_out_of_range(self, workspace):
        _, cfg = workspace
        assert main(["simulate", "--config", str(cfg), "--seed", "2",
                     "--mode", "conditional", "--selector", "99"]) == 3

    def test_conditional_selector_not_an_index_exit_2(self, workspace):
        _, cfg = workspace
        assert main(["simulate", "--config", str(cfg), "--seed", "2",
                     "--mode", "conditional", "--selector", "best"]) == 2

    def test_conditional_borehole_absent_from_chain_exit_3(self, workspace, tmp_path):
        root, cfg = workspace
        text = (root / "synth" / "boreholes.csv").read_text()
        bh = tmp_path / "bh.csv"
        bh.write_text(text.replace("\nbh1,", "\nghost,"))
        cfg2 = tmp_path / "ghost.cfg"
        cfg2.write_text(cfg.read_text().replace(
            f"boreholes = {root}/synth/boreholes.csv", f"boreholes = {bh}"
        ))
        assert main(["simulate", "--config", str(cfg2), "--seed", "2",
                     "--mode", "conditional"]) == 3

    def test_sample_without_configurations_exit_3(self, workspace, tmp_path):
        root, cfg = workspace
        out = tmp_path / "out"
        out.mkdir()
        (out / "samples.csv").write_text((root / "out" / "samples.csv").read_text())
        lines = (root / "out" / "configurations.csv").read_text().splitlines()
        (out / "configurations.csv").write_text(
            "\n".join(ln for ln in lines if not ln.startswith("60,")) + "\n"
        )
        cfg2 = tmp_path / "partial.cfg"
        cfg2.write_text(cfg.read_text().replace(f"output_dir = {root}/out",
                                                f"output_dir = {out}"))
        for selector in ("most-likely", "0"):
            assert main(["simulate", "--config", str(cfg2), "--seed", "2",
                         "--mode", "conditional", "--selector", selector]) == 3
        assert main(["tcd", "--config", str(cfg2), "--facies", "Blue"]) == 3

    def test_conditional_incompatible_borehole_exit_3(self, workspace, tmp_path):
        root, cfg = workspace
        bh = tmp_path / "bh.csv"
        _write_incompatible_boreholes(bh)
        cfg2 = tmp_path / "bad.cfg"
        cfg2.write_text(cfg.read_text().replace(
            f"boreholes = {root}/synth/boreholes.csv", f"boreholes = {bh}"
        ))
        assert main(["simulate", "--config", str(cfg2), "--seed", "2",
                     "--mode", "conditional"]) == 3
        assert main(["validate", "--config", str(cfg2)]) == 3

    def test_conditional_without_chain_exit_3(self, workspace, tmp_path):
        root, cfg = workspace
        cfg2 = tmp_path / "nochain.cfg"
        cfg2.write_text(cfg.read_text().replace(
            f"output_dir = {root}/out", f"output_dir = {tmp_path}/empty"
        ))
        assert main(["simulate", "--config", str(cfg2), "--seed", "2",
                     "--mode", "conditional"]) == 3

    def test_vanishing_truncation_region_names_the_layer_exit_4(
        self, workspace, tmp_path, capsys
    ):
        # a 1000 km Black range makes its zero sites' conditional spread tiny
        # beside their kriged distance above tau
        def long_black_range(text):
            rows = [line.split(",") for line in text.splitlines()]
            col = rows[0].index("alpha_Black")
            for row in rows[1:]:
                row[col] = "1000.0"
            return "\n".join(",".join(row) for row in rows) + "\n"

        _, cfg = _copy_chain(workspace, tmp_path, samples=long_black_range)
        assert main(["simulate", "--config", str(cfg), "--seed", "2",
                     "--mode", "conditional"]) == 4
        err = capsys.readouterr().err
        assert re.search(r"layer \d+ \(Black\), zero-thickness sites: truncation region "
                         r"below \S+ has vanishing probability", err), err
        assert "Traceback" not in err

    def test_transect_section_outputs(self, workspace, tmp_path):
        root, cfg = workspace
        cfg2 = tmp_path / "tr.cfg"
        cfg2.write_text(
            cfg.read_text()
            + "transect_x0 = 0\ntransect_y0 = 0\n"
              "transect_x1 = 100\ntransect_y1 = 100\ntransect_n = 41\n"
        )
        assert main(["simulate", "--config", str(cfg2), "--seed", "5",
                     "--mode", "conditional"]) == 0
        assert (root / "out" / "section.csv").exists()
        assert (root / "out" / "polylines.csv").exists()


class TestTcd:
    def test_writes_monotone_curves(self, workspace):
        root, cfg = workspace
        assert main(["tcd", "--config", str(cfg), "--facies", "Blue"]) == 0
        lines = (root / "out" / "tcd_Blue.csv").read_text().splitlines()
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        z, median = rows[:, 0], rows[:, 1]
        assert median[0] == 0.0
        assert np.all(np.diff(median) >= -1e-12)
        assert np.all((rows[:, 2] <= rows[:, 1] + 1e-12)
                      & (rows[:, 1] <= rows[:, 3] + 1e-12))

    def test_unknown_facies_exit_2(self, workspace):
        _, cfg = workspace
        assert main(["tcd", "--config", str(cfg), "--facies", "Purple"]) == 2

    def test_tied_model_curve_is_the_facies_curve(self, workspace):
        root, cfg = workspace
        assert main(["tcd", "--config", str(cfg), "--facies", "Red"]) == 0
        rows = _tcd_rows(root / "out" / "tcd_Red.csv")
        _, samples = io.load_samples(root / "out" / "samples.csv")
        curves = [likelihood.tcd(rows[:, 0], params["Red"]) for _, params, _ in samples]
        assert np.array_equal(rows[:, 1], np.median(curves, axis=0))

    def test_untied_model_curve_mixes_every_layer(self, workspace, tmp_path):
        # Untied, each Blue layer has its own group; the empirical curve pools
        # every Blue layer, so the model curve is their p-weighted mixture.
        root, cfg = workspace
        cfg2 = tmp_path / "untied.cfg"
        cfg2.write_text(
            cfg.read_text().replace(f"output_dir = {root}/out", f"output_dir = {tmp_path}")
            + "tie_by_facies = false\nn_iter = 10\nburn_in = 0\nthin = 5\n"
        )
        assert main(["fit", "--config", str(cfg2), "--seed", "3"]) == 0
        assert main(["tcd", "--config", str(cfg2), "--facies", "Blue"]) == 0
        rows = _tcd_rows(tmp_path / "tcd_Blue.csv")
        parent = io.load_parent(root / "synth" / "parent.txt")
        groups = [f"Blue.{j + 1}" for j in parent.layers_of("Blue")]
        _, samples = io.load_samples(tmp_path / "samples.csv")
        curves = []
        for _, params, _ in samples:
            ps = np.array([params[g].p for g in groups])
            tcds = np.array([likelihood.tcd(rows[:, 0], params[g]) for g in groups])
            curves.append(ps @ tcds / ps.sum())
        assert len(groups) == 5
        np.testing.assert_allclose(rows[:, 1], np.median(curves, axis=0), rtol=1e-12)

    def test_grouping_unlike_the_fit_exit_2(self, workspace, tmp_path, capsys):
        _, cfg = workspace
        cfg2 = tmp_path / "untied.cfg"
        cfg2.write_text(cfg.read_text() + "tie_by_facies = false\n")
        assert main(["tcd", "--config", str(cfg2), "--facies", "Blue"]) == 2
        assert main(["simulate", "--config", str(cfg2), "--seed", "2",
                     "--mode", "conditional"]) == 2
        assert "tie_by_facies" in capsys.readouterr().err


def _tcd_rows(path):
    lines = path.read_text().splitlines()
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _copy_chain(workspace, tmp_path, samples=None, configurations=None):
    """The workspace's chain files, each passed through an edit, in a new
    output directory; returns (that directory, a config naming it)."""
    root, cfg = workspace
    out = tmp_path / "out"
    out.mkdir()
    for name, edit in (("samples.csv", samples),
                       ("configurations.csv", configurations)):
        text = (root / "out" / name).read_text()
        (out / name).write_text(edit(text) if edit else text)
    cfg2 = tmp_path / "run.cfg"
    cfg2.write_text(cfg.read_text().replace(f"output_dir = {root}/out",
                                            f"output_dir = {out}"))
    return out, cfg2


class TestMalformedChainFiles:
    """Chain files that do not parse exit 2 with ``path:line``, not a traceback."""

    def _exit_2_at(self, cfg, where, capsys):
        assert main(["simulate", "--config", str(cfg), "--seed", "2",
                     "--mode", "conditional"]) == 2
        assert main(["tcd", "--config", str(cfg), "--facies", "Blue"]) == 2
        err = capsys.readouterr().err
        assert err.count(where) == 2 and "Traceback" not in err

    def test_non_numeric_loglik(self, workspace, tmp_path, capsys):
        def edit(text):
            lines = text.splitlines()
            lines[2] = lines[2].rsplit(",", 1)[0] + ",high"
            return "\n".join(lines) + "\n"

        out, cfg = _copy_chain(workspace, tmp_path, samples=edit)
        self._exit_2_at(cfg, f"{out / 'samples.csv'}:3:", capsys)

    def test_non_integer_iteration(self, workspace, tmp_path, capsys):
        def edit(text):
            lines = text.splitlines()
            lines[4] = "x" + lines[4]
            return "\n".join(lines) + "\n"

        out, cfg = _copy_chain(workspace, tmp_path, configurations=edit)
        self._exit_2_at(cfg, f"{out / 'configurations.csv'}:5:", capsys)

    @pytest.mark.parametrize("value", ["nan", "-0.5"])
    def test_thickness_not_finite_and_nonnegative(self, workspace, tmp_path, capsys,
                                                  value):
        def edit(text):
            lines = text.splitlines()
            lines[4] = lines[4].rsplit(",", 1)[0] + "," + value
            return "\n".join(lines) + "\n"

        out, cfg = _copy_chain(workspace, tmp_path, configurations=edit)
        self._exit_2_at(cfg, f"{out / 'configurations.csv'}:5:", capsys)

    def test_group_without_all_columns(self, workspace, tmp_path, capsys):
        def edit(text):
            return text.replace("mu_Blue", "mean_Blue", 1)

        out, cfg = _copy_chain(workspace, tmp_path, samples=edit)
        self._exit_2_at(cfg, f"{out / 'samples.csv'}:1:", capsys)


class TestChainUnlikeTheRecords:
    """Configurations that do not reproduce the borehole records exit 3."""

    @staticmethod
    def _edit_rows(borehole, layer, edit):
        """Apply ``edit`` to every configurations.csv row of one borehole layer;
        a row it maps to None is dropped."""
        def run(text):
            lines = text.splitlines()
            out = lines[:1]
            for line in lines[1:]:
                it, bid, j, z = line.split(",")
                if bid == borehole and int(j) == layer:
                    line = edit(line)
                if line is not None:
                    out.append(line)
            return "\n".join(out) + "\n"
        return run

    def test_missing_layer_rows(self, workspace, tmp_path, capsys):
        _, cfg = _copy_chain(workspace, tmp_path,
                             configurations=self._edit_rows("bh1", 14, lambda ln: None))
        assert main(["simulate", "--config", str(cfg), "--seed", "2",
                     "--mode", "conditional"]) == 3
        assert main(["tcd", "--config", str(cfg), "--facies", "Blue"]) == 3
        err = capsys.readouterr().err
        assert err.count("borehole bh1 has 14 layers") == 2 and "Traceback" not in err

    def test_edited_thickness(self, workspace, tmp_path, capsys):
        def edit(line):
            return line.rsplit(",", 1)[0] + ",7.5"

        _, cfg = _copy_chain(workspace, tmp_path,
                             configurations=self._edit_rows("bh1", 0, edit))
        for selector in ("most-likely", "1"):
            assert main(["simulate", "--config", str(cfg), "--seed", "2",
                         "--mode", "conditional", "--selector", selector]) == 3
        assert "records of borehole(s) bh1" in capsys.readouterr().err


class TestChainWithoutSamples:
    """A fit whose burn-in covers every iteration keeps no sample; the
    commands that read its chain exit 3 instead of failing on empty arrays."""

    @pytest.fixture
    def empty_fit(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        cfg2 = tmp_path / "empty.cfg"
        cfg2.write_text(
            cfg.read_text().replace(f"output_dir = {root}/out", f"output_dir = {tmp_path}")
            + "n_iter = 4\nburn_in = 4\n"
        )
        assert main(["fit", "--config", str(cfg2), "--seed", "1"]) == 0
        assert "wrote 0 posterior samples" in capsys.readouterr().out
        return cfg2

    def _exit_3(self, argv, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "holds no posterior samples" in err and "Traceback" not in err

    def test_tcd_exit_3(self, empty_fit, capsys):
        self._exit_3(["tcd", "--config", str(empty_fit), "--facies", "Blue"], capsys)

    def test_conditional_simulate_exit_3(self, empty_fit, capsys):
        self._exit_3(["simulate", "--config", str(empty_fit), "--seed", "2",
                      "--mode", "conditional"], capsys)


_COMMAND_ARGS = {
    "validate": [], "fit": ["--seed", "1"], "tcd": ["--facies", "Blue"],
    "simulate": ["--seed", "2", "--mode", "conditional"],
}


@pytest.mark.parametrize("command, missing", [
    ("validate", "parent"), ("validate", "boreholes"),
    ("fit", "parent"), ("fit", "boreholes"),
    ("simulate", "parent"), ("simulate", "boreholes"),
    ("tcd", "parent"),  # tcd reads no borehole file
])
def test_missing_input_file_exit_2(workspace, tmp_path, capsys, command, missing):
    _, cfg = workspace
    gone = tmp_path / f"no_{missing}"
    cfg2 = tmp_path / "run.cfg"
    cfg2.write_text(re.sub(rf"^{missing} = .*$", f"{missing} = {gone}",
                           cfg.read_text(), flags=re.M))
    assert main([command, "--config", str(cfg2), *_COMMAND_ARGS[command]]) == 2
    err = capsys.readouterr().err
    assert f"{gone}: cannot read" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "fit", "simulate"])
def test_two_boreholes_at_one_site_exit_2(workspace, tmp_path, command):
    # a copy of bh1 under a new id with doubled thicknesses: the same site
    # holding two logs is bad input, reported before any numerics run
    root, cfg = workspace
    lines = (root / "synth" / "boreholes.csv").read_text().splitlines()
    copy = [",".join(["bh1b", *f[1:6], repr(2 * float(f[6]))])
            for f in (line.split(",") for line in lines) if f[0] == "bh1"]
    bad = tmp_path / "dup.csv"
    bad.write_text("\n".join(lines + copy) + "\n")
    cfg2 = tmp_path / "run.cfg"
    cfg2.write_text(re.sub(r"^boreholes = .*$", f"boreholes = {bad}", cfg.read_text(),
                           flags=re.M))
    code = subprocess.run(
        [sys.executable, "-W", "error", "-m", "stratasim.cli", command,
         "--config", str(cfg2), *_COMMAND_ARGS[command]],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert code.returncode == 2
    assert f"{bad}:{len(lines) + 1}: borehole bh1b is at the site of borehole bh1 (line 2)" \
        in code.stderr
    assert "Traceback" not in code.stderr and "Warning" not in code.stderr


@pytest.mark.parametrize("command", ["validate", "fit"])
def test_boreholes_a_hair_apart_exit_2(workspace, tmp_path, command):
    # a copy of bh1 moved 1e-9 km: one site in practice, whose covariance
    # would be near singular, so it is bad input too
    root, cfg = workspace
    lines = (root / "synth" / "boreholes.csv").read_text().splitlines()
    copy = [",".join(["bh1b", repr(float(f[1]) + 1e-9), *f[2:]])
            for f in (line.split(",") for line in lines) if f[0] == "bh1"]
    bad = tmp_path / "near.csv"
    bad.write_text("\n".join(lines + copy) + "\n")
    cfg2 = tmp_path / "run.cfg"
    cfg2.write_text(re.sub(r"^boreholes = .*$", f"boreholes = {bad}", cfg.read_text(),
                           flags=re.M))
    code = subprocess.run(
        [sys.executable, "-W", "error", "-m", "stratasim.cli", command,
         "--config", str(cfg2), *_COMMAND_ARGS[command]],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert code.returncode == 2
    assert (f"{bad}:{len(lines) + 1}: borehole bh1b is at the site of borehole bh1 "
            f"(line 2): {bad}:2 is ") in code.stderr
    assert "Traceback" not in code.stderr and "Warning" not in code.stderr


@pytest.mark.parametrize("argv", [
    ["fit", "--config", "run.cfg", "--seed", "-1"],
    ["simulate", "--config", "run.cfg", "--seed", "-3", "--mode", "conditional"],
    ["simulate", "--config", "run.cfg", "--seed", "-3"],
    ["synth", "--seed", "-1"],
    ["synth", "--seed", "0", "--n-boreholes", "-1"],
    ["synth", "--seed", "0", "--n-boreholes", "0"],
    ["fit", "--config", "run.cfg", "--seed", "1.5"],
])
def test_negative_seed_or_borehole_count_exit_2(tmp_path, monkeypatch, capsys, argv):
    # a usage error before any file is read or written
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "expected an integer >=" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_one_synthetic_borehole(tmp_path):
    assert main(["synth", "--output-dir", str(tmp_path), "--seed", "0",
                 "--n-boreholes", "1"]) == 0
    assert len(io.load_boreholes(tmp_path / "boreholes.csv")) == 1


@pytest.mark.parametrize("command, undecodable", [
    ("validate", "parent"), ("validate", "boreholes"), ("validate", "config"),
    ("fit", "parent"), ("simulate", "boreholes"), ("tcd", "parent"),
])
def test_undecodable_input_file_exit_2(workspace, tmp_path, capsys, command,
                                       undecodable):
    _, cfg = workspace
    bad = tmp_path / f"utf16_{undecodable}"
    bad.write_bytes(b"\xff\xfe\x00" + b"x" * 8)
    cfg2 = tmp_path / "run.cfg"
    if undecodable == "config":
        cfg2 = bad
    else:
        cfg2.write_text(re.sub(rf"^{undecodable} = .*$", f"{undecodable} = {bad}",
                               cfg.read_text(), flags=re.M))
    assert main([command, "--config", str(cfg2), *_COMMAND_ARGS[command]]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: cannot decode as UTF-8" in err and "Traceback" not in err


_EXIT_CODES = {
    errors.StrataError: 2, errors.ParameterError: 2,
    errors.InvalidConfigurationError: 2, errors.InfeasibleMoveError: 2,
    errors.PlacementError: 2, errors.DatasetError: 2,
    errors.IncompatibleSequenceError: 3,
    errors.NumericError: 4, errors.CapacityError: 4, errors.DegenerateRegionError: 4,
}


def test_exit_codes_cover_every_error_class():
    assert set(_EXIT_CODES) == {errors.StrataError, *errors.StrataError.__subclasses__()}


@pytest.mark.parametrize("error", list(_EXIT_CODES), ids=lambda e: e.__name__)
def test_exit_code_of_each_error(monkeypatch, capsys, error):
    def fail(args):
        raise error("no good")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert main(["validate", "--config", "run.cfg"]) == _EXIT_CODES[error]
    err = capsys.readouterr().err
    assert "error: no good" in err and "Traceback" not in err


class TestValidate:
    def test_reports_and_prints_table(self, workspace, capsys):
        _, cfg = workspace
        assert main(["validate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "compatible" in out and "p0" in out and "Green" in out


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about 0.4 s to import, and the package needs it only
    # for the Sobol points of an orthant probability, imported on first use
    code = "import sys, stratasim.cli; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)

