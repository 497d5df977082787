"""File formats round-trip bit-exactly; malformed inputs fail with line info."""

import pickle
import re

import numpy as np
import pytest

import oracles
from stratasim import io
from stratasim.core import (
    AugmentedConfiguration,
    BoreholeObservation,
    ParentSequence,
    snap_thickness,
)
from stratasim.errors import DatasetError
from stratasim.fieldsim import (
    SimGrid,
    cross_section,
    simulate_conditional,
    simulate_unconditional,
)
from stratasim.likelihood import LayerParams
from stratasim.mcmc import PosteriorSample

PARENT = ParentSequence(("Green", "Red", "Blue"))


def _boreholes():
    return [
        BoreholeObservation("a", 1.2345678901234567, 2.0, 0.5,
                            (("Green", 0.7071067811865476), ("Blue", 1.25))),
        BoreholeObservation("b", 10.0, 20.0, -1.0, (("Red", 3.0),)),
    ]


class TestParentFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "parent.txt"
        io.save_parent(path, PARENT)
        assert io.load_parent(path) == PARENT

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "parent.txt"
        path.write_text("# top-down\nGreen\n\nRed\nBlue\n")
        assert io.load_parent(path) == PARENT

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "parent.txt"
        path.write_text("# nothing\n")
        with pytest.raises(DatasetError):
            io.load_parent(path)


class TestBoreholeFile:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "bh.csv"
        original = _boreholes()
        io.save_boreholes(path, original)
        assert io.load_boreholes(path) == original

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bh.csv"
        path.write_text("id,x,y\n1,2,3\n")
        with pytest.raises(DatasetError, match="header"):
            io.load_boreholes(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bh.csv"
        io.save_boreholes(path, _boreholes())
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("1.25", "not-a-number")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=":3"):
            io.load_boreholes(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "bh.csv"
        path.write_text(",".join(io.BOREHOLE_HEADER) + "\n")
        with pytest.raises(DatasetError):
            io.load_boreholes(path)

    def test_nonconsecutive_record_index(self, tmp_path):
        path = tmp_path / "bh.csv"
        io.save_boreholes(path, _boreholes())
        text = path.read_text().replace("a,1.2345678901234567,2.0,0.5,1",
                                        "a,1.2345678901234567,2.0,0.5,5")
        path.write_text(text)
        with pytest.raises(DatasetError, match="consecutive"):
            io.load_boreholes(path)

    def _rejected_at(self, tmp_path, rows, line):
        path = tmp_path / "bh.csv"
        path.write_text(",".join(io.BOREHOLE_HEADER) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(DatasetError, match=f"bh.csv:{line}:"):
            io.load_boreholes(path)

    @pytest.mark.parametrize("row", [
        "a,1.0,2.0,0.5,1,Blue,nan",
        "a,1.0,2.0,0.5,1,Blue,inf",
        "a,nan,2.0,0.5,1,Blue,1.0",
        "a,1.0,-inf,0.5,1,Blue,1.0",
        "a,1.0,2.0,NaN,1,Blue,1.0",
    ])
    def test_non_finite_number_reports_line(self, tmp_path, row):
        self._rejected_at(tmp_path, ["a,1.0,2.0,0.5,0,Green,1.0", row], 3)

    @pytest.mark.parametrize("row", [
        "a,nan,2.0,0.5,1,Blue,1.0",
        "a,1.0,-inf,0.5,1,Blue,1.0",
        "a,1.0,2.0,NaN,1,Blue,1.0",
    ])
    def test_non_finite_site_is_not_a_conflicting_location(self, tmp_path, row):
        # nan != nan: without its own finiteness rule the reader would report
        # the second row's site as differing from the first's
        path = tmp_path / "bh.csv"
        path.write_text(",".join(io.BOREHOLE_HEADER) + "\n"
                        "a,1.0,2.0,0.5,0,Green,1.0\n" + row + "\n")
        with pytest.raises(DatasetError, match="bh.csv:3: non-finite number"):
            io.load_boreholes(path)

    def test_first_record_index_must_be_zero(self, tmp_path):
        self._rejected_at(tmp_path, ["a,1.0,2.0,0.5,1,Green,1.0"], 2)

    def test_non_contiguous_rows_rejected(self, tmp_path):
        rows = ["a,1.0,2.0,0.5,0,Green,1.0", "b,5.0,5.0,0.0,0,Red,1.0",
                "a,1.0,2.0,0.5,1,Blue,1.0"]
        self._rejected_at(tmp_path, rows, 4)

    def test_conflicting_location_rejected(self, tmp_path):
        rows = ["a,1.0,2.0,0.5,0,Green,1.0", "a,1.5,2.0,0.5,1,Blue,1.0"]
        self._rejected_at(tmp_path, rows, 3)

    def test_two_boreholes_at_one_site_rejected(self, tmp_path):
        # the later borehole's first row is named, with the earlier borehole
        # and its line; a different ground level does not make a new site
        rows = ["a,1.0,2.0,0.5,0,Green,1.0", "a,1.0,2.0,0.5,1,Blue,1.0",
                "b,3.0,2.0,0.5,0,Green,1.0", "c,1.0,2.0,0.7,0,Green,2.0"]
        path = tmp_path / "bh.csv"
        path.write_text(",".join(io.BOREHOLE_HEADER) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(DatasetError,
                           match="bh.csv:5: borehole c is at the site of borehole a \\(line 2\\)"):
            io.load_boreholes(path)

    @pytest.mark.parametrize("dx, dy", [
        (0.9e-3, 0.0), (0.0, -0.9e-3), (0.6e-3, 0.6e-3), (-0.6e-3, 0.6e-3), (1e-9, 0.0),
    ])
    def test_boreholes_within_the_site_tolerance_rejected(self, tmp_path, dx, dy):
        # closer than SITE_TOLERANCE_KM in any direction, across tolerance
        # cells too (b sits just below a cell corner): both lines are named
        x, y = 5.0 - 1e-7, 2.0 - 1e-7
        rows = ["a,1.0,1.0,0.5,0,Green,1.0", f"b,{x!r},{y!r},0.5,0,Green,1.0",
                f"b,{x!r},{y!r},0.5,1,Blue,1.0",
                f"c,{x + dx!r},{y + dy!r},0.5,0,Green,2.0"]
        path = tmp_path / "bh.csv"
        path.write_text(",".join(io.BOREHOLE_HEADER) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(DatasetError, match=re.escape(
                f"bh.csv:5: borehole c is at the site of borehole b (line 3): {path}:3 is ")):
            io.load_boreholes(path)

    @pytest.mark.parametrize("dx, dy", [(1.001e-3, 0.0), (0.0, -1.001e-3),
                                        (0.71e-3, 0.71e-3), (-0.71e-3, -0.71e-3)])
    def test_boreholes_just_beyond_the_site_tolerance_accepted(self, tmp_path, dx, dy):
        assert np.hypot(dx, dy) > io.SITE_TOLERANCE_KM
        x, y = 5.0 - 1e-7, 2.0 - 1e-7
        path = tmp_path / "bh.csv"
        path.write_text(",".join(io.BOREHOLE_HEADER) + "\n"
                        f"b,{x!r},{y!r},0.5,0,Green,1.0\n"
                        f"c,{x + dx!r},{y + dy!r},0.5,0,Green,2.0\n")
        assert [b.id for b in io.load_boreholes(path)] == ["b", "c"]

    @pytest.mark.parametrize("z", ["0.0", "-0.5", "1e-12", "4.6e-10"])
    def test_non_positive_thickness_reports_line(self, tmp_path, z):
        rows = ["a,1.0,2.0,0.5,0,Green,1.0", f"a,1.0,2.0,0.5,1,Blue,{z}"]
        self._rejected_at(tmp_path, rows, 3)

    def test_adjacent_records_of_one_facies_report_line(self, tmp_path):
        rows = ["a,1.0,2.0,0.5,0,Green,1.0", "a,1.0,2.0,0.5,1,Blue,1.0",
                "a,1.0,2.0,0.5,2,Blue,0.5"]
        self._rejected_at(tmp_path, rows, 4)

    def test_same_facies_across_boreholes_accepted(self, tmp_path):
        path = tmp_path / "bh.csv"
        path.write_text(",".join(io.BOREHOLE_HEADER) + "\n"
                        "a,1.0,2.0,0.5,0,Blue,1.0\nb,3.0,2.0,0.5,0,Blue,2e-9\n")
        assert [b.records for b in io.load_boreholes(path)] == [
            (("Blue", 1.0),), (("Blue", float(snap_thickness(2e-9))),)
        ]

    @pytest.mark.parametrize("records", [
        (("Green", 1.0), ("Blue", 0.0)),
        (("Green", 1.0), ("Blue", 1e-12)),
        (("Green", 1.0), ("Green", 0.5)),
    ])
    def test_constructor_still_checks_records(self, records):
        with pytest.raises(DatasetError, match="borehole a: record"):
            BoreholeObservation("a", 1.0, 2.0, 0.5, records)


def _samples():
    params = {
        "Green": LayerParams(0.5, 1.0, 1.0, 2.0),
        "Red": LayerParams(0.3, 2.0, 1.5, 5.0),
        "Blue": LayerParams(0.7, 0.5, 0.8, 1.0),
    }
    configs = (
        AugmentedConfiguration("a", np.array([0.7071067811865476, 0.0, 1.25])),
        AugmentedConfiguration("b", np.array([0.0, 3.0, 0.0])),
    )
    return [
        PosteriorSample(10, params, configs, -12.345678901234567),
        PosteriorSample(20, params, configs, -11.0),
    ]


class TestChainFiles:
    def test_samples_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        samples = _samples()
        groups = ["Green", "Red", "Blue"]
        io.save_samples(path, samples, groups)
        got_groups, rows = io.load_samples(path)
        assert got_groups == groups
        assert len(rows) == 2
        it, params, ll = rows[0]
        assert it == 10 and ll == samples[0].loglik
        assert params == samples[0].params

    def test_samples_header(self, tmp_path):
        path = tmp_path / "samples.csv"
        io.save_samples(path, _samples(), ["Green", "Red"])
        assert path.read_text().splitlines()[0] == (
            "iteration,p_Green,mu_Green,beta_Green,alpha_Green,nu_Green,"
            "p_Red,mu_Red,beta_Red,alpha_Red,nu_Red,loglik"
        )

    def test_configurations_round_trip(self, tmp_path):
        path = tmp_path / "configs.csv"
        samples = _samples()
        io.save_configurations(path, samples, PARENT)
        got = io.load_configurations(path)
        assert set(got) == {10, 20}
        for cfg, orig in zip(got[10], samples[0].configs):
            assert cfg.borehole_id == orig.borehole_id
            assert np.array_equal(cfg.thicknesses, orig.thicknesses)

    def test_truth_round_trip(self, tmp_path):
        path = tmp_path / "truth.csv"
        truth = list(_samples()[0].configs)
        io.save_truth(path, truth, PARENT)
        got = io.load_truth(path, PARENT)
        for a, b in zip(got, truth):
            assert np.array_equal(a.thicknesses, b.thicknesses)

    @pytest.mark.parametrize("text, where", [
        ("borehole_id,layer_index,facies,thickness_m\n"
         "a,0,Green,0.5\na,1,Red,thick\na,2,Blue,1.0\n", "truth.csv:3:"),
        ("borehole_id,layer_index,facies\na,0,Green\n", "truth.csv:1:"),
        ("borehole_id,layer_index,facies,thickness_m\n"
         "a,0,Green,0.5\na,1,Red,0.0\na,2,Blue,1.0\n"
         "b,0,Green,0.5\nb,1,Red,0.0\n", "truth.csv:5:"),
        *[("borehole_id,layer_index,facies,thickness_m\n"
           "a,0,Green,0.5\na,1,Red,0.0\na,2,Blue,1.0\n"
           f"b,0,Green,0.5\nb,1,Red,{value}\nb,2,Blue,1.0\n",
           "truth.csv:6: borehole b: thickness") for value in ("nan", "-0.5", "inf")],
    ], ids=["non-numeric", "missing-column", "short-vector", "nan", "negative", "inf"])
    def test_malformed_truth_reports_line(self, tmp_path, text, where):
        path = tmp_path / "truth.csv"
        path.write_text(text)
        with pytest.raises(DatasetError, match=where):
            io.load_truth(path, PARENT)

    @pytest.mark.parametrize("value", ["nan", "-0.5", "inf"])
    def test_configuration_thickness_must_be_finite_and_nonnegative(self, tmp_path, value):
        path = tmp_path / "configs.csv"
        path.write_text("iteration,borehole_id,layer_index,thickness_m\n"
                        "10,a,0,0.5\n10,a,1,1.0\n10,a,2,0.0\n"
                        f"20,a,0,0.5\n20,a,1,1.0\n20,a,2,{value}\n")
        with pytest.raises(DatasetError, match="configs.csv:7: borehole a: thickness"):
            io.load_configurations(path)

    def test_summary_and_diagnostics_written(self, tmp_path):
        io.save_summary(tmp_path / "summary.csv", _samples(), ["Green", "Red", "Blue"])
        text = (tmp_path / "summary.csv").read_text()
        assert text.startswith("group,parameter,median,q05,q95")
        assert len(text.splitlines()) == 1 + 3 * 4
        diag = {
            "param_accept": {"p": {"accepted": 3, "proposed": 10}},
            "move_accept": {"split": {"accepted": 1, "proposed": 2, "infeasible": 7}},
        }
        io.save_diagnostics(tmp_path / "diag.csv", diag)
        lines = (tmp_path / "diag.csv").read_text().splitlines()
        assert lines[1] == "parameter,p,3,10,0"
        assert lines[2] == "move,split,1,2,7"


_EVERY_READER = pytest.mark.parametrize("load", [
    io.load_parent, io.load_boreholes, lambda path: io.load_truth(path, PARENT),
    io.load_samples, io.load_configurations,
], ids=["parent", "boreholes", "truth", "samples", "configurations"])


@_EVERY_READER
def test_unreadable_file_is_a_dataset_error(tmp_path, load):
    for path in (tmp_path / "missing.csv", tmp_path):  # absent, and a directory
        with pytest.raises(DatasetError, match=re.escape(f"{path}: cannot read (")):
            load(path)


@_EVERY_READER
def test_undecodable_file_is_a_dataset_error(tmp_path, load):
    # a UTF-16 byte-order mark: the bytes fail when read, not when opened
    path = tmp_path / "utf16.csv"
    path.write_bytes(b"\xff\xfe\x00Green\n")
    with pytest.raises(DatasetError, match=re.escape(f"{path}: cannot decode as UTF-8 (")):
        load(path)


# a file each reader of ``_EVERY_READER`` accepts, in its order
_WRITERS = [
    lambda path: io.save_parent(path, PARENT),
    lambda path: io.save_boreholes(path, _boreholes()),
    lambda path: io.save_truth(path, list(_samples()[0].configs), PARENT),
    lambda path: io.save_samples(path, _samples(), ["Green", "Red", "Blue"]),
    lambda path: io.save_configurations(path, _samples(), PARENT),
]


@_EVERY_READER
def test_byte_order_mark_is_skipped(tmp_path, load):
    # a UTF-8 byte-order mark, as some editors save one, is not part of the
    # first field: the file loads as it does without the mark
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    dict(zip(_EVERY_READER.args[1], _WRITERS))[load](plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert pickle.dumps(load(marked)) == pickle.dumps(load(plain))


class TestGridWriters:
    """raster.csv and surfaces.txt are byte for byte the per-value writers'."""

    PARAMS = {
        "Green": LayerParams(p=0.8, mu=1.0, beta=1.0, alpha=10.0),
        "Red": LayerParams(p=0.5, mu=2.0, beta=0.7, alpha=4.0),
        "Blue": LayerParams(p=0.3, mu=1.0, beta=1.3, alpha=10.0, nu=0.5),
    }

    def _same_files(self, tmp_path, stack):
        for name, new, old in (("raster.csv", io.save_raster, oracles.save_raster),
                               ("surfaces.txt", io.save_stack_grid,
                                oracles.save_stack_grid)):
            new(tmp_path / f"new_{name}", stack)
            old(tmp_path / f"old_{name}", stack)
            want = (tmp_path / f"old_{name}").read_bytes()
            assert (tmp_path / f"new_{name}").read_bytes() == want
            new(tmp_path / f"shared_{name}", stack, io.thickness_text(stack))
            assert (tmp_path / f"shared_{name}").read_bytes() == want

    def test_unconditional_grid(self, tmp_path):
        grid = SimGrid.regular((0.1, -3.7), 0.7, 9, 6)
        self._same_files(tmp_path, simulate_unconditional(grid, self.PARAMS, PARENT, 1))

    @pytest.mark.parametrize("names", [("Green", "Red", "Blue"), ("a,b", '"q"', "a\nb")])
    def test_facies_names_quoted_as_csv(self, tmp_path, names):
        # the joined rows keep csv.writer's quoting of a facies name that
        # holds the delimiter, the quote character or a line end
        parent = ParentSequence((names[0], names[1], names[2], names[0]))
        params = dict(zip(names, self.PARAMS.values()))
        grid = SimGrid.regular((0.0, 0.0), 1.5, 4, 3)
        self._same_files(tmp_path, simulate_unconditional(grid, params, parent, 4))

    def test_appended_borehole_on_a_node(self, tmp_path):
        # both boreholes are within half a cell of node (2, 2); the far one is
        # appended, and its point is written to neither file
        grid = SimGrid.regular((0, 0), 2.0, 4, 4)
        configs = [
            AugmentedConfiguration("near", np.array([1.0, 0.0, 0.5])),
            AugmentedConfiguration("far", np.array([0.4, 0.7, 0.0])),
        ]
        stack = simulate_conditional(
            grid, self.PARAMS, PARENT, configs, [[2.0, 2.1], [2.6, 2.0]], 3
        )
        assert stack.points.shape[0] == grid.n_nodes + 1
        self._same_files(tmp_path, stack)

    def test_transect_surfaces(self, tmp_path):
        stack = simulate_unconditional(
            SimGrid.transect((0, 0), (7, 3), 11), self.PARAMS, PARENT, 2
        )
        io.save_stack_grid(tmp_path / "new.txt", stack)
        oracles.save_stack_grid(tmp_path / "old.txt", stack)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


class TestTransectWriters:
    """section.csv and polylines.csv are byte for byte ``csv.writer``'s."""

    @pytest.mark.parametrize("names", [("Green", "Red", "Blue"), ("a,b", 'say "q"', "c")])
    def test_cross_section_files(self, tmp_path, names):
        # a facies name with the delimiter or the quote character is quoted
        # as csv.writer quotes it, and the undefined region below the stack
        # takes its own record
        parent = ParentSequence((names[0], names[1], names[2], names[0]))
        params = dict(zip(names, TestGridWriters.PARAMS.values()))
        stack = simulate_unconditional(
            SimGrid.transect((0.0, 0.0), (9.3, 4.1), 17), params, parent, 5
        )
        dist, columns, boundaries = cross_section(stack)
        assert {f for records in columns for _, f, *_ in records} >= {names[0], "undefined"}
        for name, new, old, rows in (
            ("section.csv", io.save_section, oracles.save_section, columns),
            ("polylines.csv", io.save_polylines, oracles.save_polylines, boundaries),
        ):
            new(tmp_path / f"new_{name}", dist, rows)
            old(tmp_path / f"old_{name}", dist, rows)
            want = (tmp_path / f"old_{name}").read_bytes()
            assert (tmp_path / f"new_{name}").read_bytes() == want

