"""File formats: borehole/parent inputs, chain outputs, rasters, polylines.

All tables are CSV with headers.  Floats are written with ``repr`` so every
file round-trips bit-exactly through its reader.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from io import StringIO
from pathlib import Path

import numpy as np

from .core import AugmentedConfiguration, BoreholeObservation, ParentSequence
from .errors import DatasetError, InvalidConfigurationError, ParameterError
from .fieldsim import LayerStack
from .likelihood import PARAM_KINDS, LayerParams
from .mcmc import PosteriorSample

# The per-group columns of samples.csv: the sampled parameters, then nu.
_SAMPLE_FIELDS = (*PARAM_KINDS, "nu")

BOREHOLE_HEADER = [
    "borehole_id", "x_km", "y_km", "ground_level_m",
    "record_index", "facies", "thickness_m",
]

# Boreholes closer than this share a site (a near-singular covariance).
SITE_TOLERANCE_KM = 1e-3


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


@contextmanager
def _open(path):
    """``path`` opened for reading as UTF-8, past a byte-order mark if it
    starts with one, its newlines left as ``csv`` wants them.  A file that
    cannot be opened, or whose bytes do not decode as the reader reads
    them, raises ``DatasetError``."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read ({exc})") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: cannot decode as UTF-8 ({exc})") from exc


def load_parent(path) -> ParentSequence:
    """Parent sequence file: one facies code per line, top-down."""
    lines = []
    with _open(path) as fh:
        text = fh.read()
    for raw in text.splitlines():
        code = raw.strip()
        if not code or code.startswith("#"):
            continue
        lines.append(code)
    if not lines:
        raise DatasetError(f"{path}: parent sequence file is empty")
    return ParentSequence(tuple(lines))


def save_parent(path, parent: ParentSequence):
    Path(path).write_text("\n".join(parent.layers) + "\n")


def load_boreholes(path) -> list[BoreholeObservation]:
    """Borehole CSV: one row per record, ordered top-down per borehole.

    Each borehole's rows are contiguous, its record indices run 0, 1, 2, ...
    and every row repeats its coordinates and ground level; numbers must be
    finite, and no two boreholes are closer than ``SITE_TOLERANCE_KM``, one
    site.  ``BoreholeObservation`` then judges each borehole's records.  A
    violation of either raises ``DatasetError`` naming ``path:line``.
    """
    seen: dict[str, dict] = {}
    sites: dict[tuple[float, float], list[str]] = {}  # boreholes by tolerance cell
    prev = None
    with _open(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != BOREHOLE_HEADER:
            raise DatasetError(
                f"{path}:1: expected header {','.join(BOREHOLE_HEADER)}"
            )
        for ln, row in enumerate(reader, start=2):
            try:
                bid = row["borehole_id"]
                site = (float(row["x_km"]), float(row["y_km"]),
                        float(row["ground_level_m"]))
                ridx = int(row["record_index"])
                facies = row["facies"]
                z = float(row["thickness_m"])
            except (TypeError, ValueError, KeyError) as exc:
                raise DatasetError(f"{path}:{ln}: malformed row ({exc})") from exc
            if not all(math.isfinite(v) for v in (*site, z)):
                raise DatasetError(f"{path}:{ln}: non-finite number in row")
            if bid in seen and bid != prev:
                raise DatasetError(
                    f"{path}:{ln}: rows of borehole {bid} are not contiguous"
                )
            if bid not in seen:
                cx, cy = (v // SITE_TOLERANCE_KM for v in site[:2])
                for other in (o for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                              for o in sites.get((cx + dx, cy + dy), ())):
                    far, line = math.dist(site[:2], seen[other]["site"][:2]), seen[other]["line"]
                    if far < SITE_TOLERANCE_KM:
                        raise DatasetError(
                            f"{path}:{ln}: borehole {bid} is at the site of borehole "
                            f"{other} (line {line}): {path}:{line} is {far:.3g} km away, "
                            f"closer than {SITE_TOLERANCE_KM:g} km"
                        )
                sites.setdefault((cx, cy), []).append(bid)
            info = seen.setdefault(bid, {"site": site, "line": ln, "records": []})
            if site != info["site"]:
                raise DatasetError(
                    f"{path}:{ln}: borehole {bid} location or ground level differs "
                    f"from line {info['line']}"
                )
            if ridx != len(info["records"]):
                raise DatasetError(
                    f"{path}:{ln}: borehole {bid}: record indices are not consecutive "
                    f"from 0 (got {ridx}, expected {len(info['records'])})"
                )
            info["records"].append((facies, z))
            prev = bid
    if not seen:
        raise DatasetError(f"{path}: no borehole records")
    boreholes = []
    for bid, info in seen.items():
        try:
            boreholes.append(BoreholeObservation(bid, *info["site"], tuple(info["records"])))
        except DatasetError as exc:
            # contiguous rows with consecutive indices: record k is on line + k
            raise DatasetError(f"{path}:{info['line'] + exc.position}: {exc}") from exc
    return boreholes


def save_boreholes(path, boreholes: list[BoreholeObservation]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BOREHOLE_HEADER)
        for b in boreholes:
            for k, (facies, z) in enumerate(b.records):
                writer.writerow(
                    [b.id, _fmt(b.x), _fmt(b.y), _fmt(b.ground_level),
                     k, facies, _fmt(z)]
                )


def save_truth(path, truth: list[AugmentedConfiguration], parent: ParentSequence):
    """Ground-truth sidecar: full thickness vector per borehole."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["borehole_id", "layer_index", "facies", "thickness_m"])
        for cfg in truth:
            for j, z in enumerate(cfg.thicknesses):
                writer.writerow([cfg.borehole_id, j, parent.layers[j], _fmt(z)])


def _configuration(path, bid, rows) -> AugmentedConfiguration:
    """``AugmentedConfiguration`` of one borehole's (line, thickness) rows of
    ``path``; a thickness it rejects raises ``DatasetError`` naming its line."""
    try:
        return AugmentedConfiguration(bid, np.array([z for _, z in rows]))
    except InvalidConfigurationError as exc:
        raise DatasetError(f"{path}:{rows[exc.position][0]}: {exc}") from exc


def load_truth(path, parent: ParentSequence) -> list[AugmentedConfiguration]:
    """Ground-truth sidecar: one thickness per layer of ``parent`` per borehole.

    A missing column, a thickness that is not a number, not finite or
    negative, or a borehole whose thickness count is not the parent's layer
    count raises ``DatasetError`` naming ``path:line``.
    """
    per_bh: dict[str, list[tuple[int, float]]] = {}  # (line, thickness) rows
    with _open(path) as fh:
        reader = csv.DictReader(fh)
        _check_columns(path, reader.fieldnames or [], ["borehole_id", "thickness_m"])
        for ln, row in enumerate(reader, start=2):
            try:
                z = float(row["thickness_m"])
            except (TypeError, ValueError) as exc:
                raise DatasetError(f"{path}:{ln}: malformed row ({exc})") from exc
            per_bh.setdefault(row["borehole_id"], []).append((ln, z))
    for bid, rows in per_bh.items():
        if len(rows) != len(parent):
            raise DatasetError(
                f"{path}:{rows[0][0]}: borehole {bid} has {len(rows)} thicknesses, "
                f"the parent sequence has {len(parent)} layers"
            )
    return [_configuration(path, bid, rows) for bid, rows in per_bh.items()]


def save_samples(path, samples: list[PosteriorSample], groups: list[str]):
    """Chain output: one row per thinned sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["iteration"]
        for g in groups:
            header += [f"{name}_{g}" for name in _SAMPLE_FIELDS]
        header.append("loglik")
        writer.writerow(header)
        for s in samples:
            row = [s.iteration]
            for g in groups:
                row += [_fmt(getattr(s.params[g], name)) for name in _SAMPLE_FIELDS]
            row.append(_fmt(s.loglik))
            writer.writerow(row)


def _check_columns(path, header, needed):
    missing = [c for c in needed if c not in header]
    if missing:
        raise DatasetError(f"{path}:1: header lacks column(s) {', '.join(missing)}")


def load_samples(path):
    """Returns (groups, rows) with rows of (iteration, params_by_group, loglik).

    A header that lacks a group's parameter columns or ``loglik``, or a row
    whose values do not parse as an integer iteration and valid parameters,
    raises ``DatasetError`` naming ``path:line``.
    """
    with _open(path) as fh:
        reader = csv.DictReader(fh)
        if not reader.fieldnames or reader.fieldnames[0] != "iteration":
            raise DatasetError(f"{path}: not a samples file")
        # each group's first column, p_<group>, names it
        first = f"{_SAMPLE_FIELDS[0]}_"
        groups = [c[len(first):] for c in reader.fieldnames if c.startswith(first)]
        _check_columns(path, reader.fieldnames, [
            f"{name}_{g}" for g in groups for name in _SAMPLE_FIELDS[1:]
        ] + ["loglik"])
        rows = []
        for ln, row in enumerate(reader, start=2):
            try:
                params = {
                    g: LayerParams(
                        **{name: float(row[f"{name}_{g}"]) for name in _SAMPLE_FIELDS}
                    )
                    for g in groups
                }
                rows.append((int(row["iteration"]), params, float(row["loglik"])))
            except (TypeError, ValueError, ParameterError) as exc:
                raise DatasetError(f"{path}:{ln}: malformed row ({exc})") from exc
    return groups, rows


def save_configurations(path, samples: list[PosteriorSample], parent: ParentSequence):
    """Companion file: per-borehole thickness vectors per thinned sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "borehole_id", "layer_index", "thickness_m"])
        for s in samples:
            for cfg in s.configs:
                for j, z in enumerate(cfg.thicknesses):
                    writer.writerow([s.iteration, cfg.borehole_id, j, _fmt(z)])


def load_configurations(path):
    """Returns {iteration: [AugmentedConfiguration, ...]} in file order.

    A missing column or a row whose iteration is not an integer or whose
    thickness is not a number, not finite or negative raises ``DatasetError``
    naming ``path:line``.
    """
    acc: dict[int, dict[str, list[tuple[int, float]]]] = {}
    with _open(path) as fh:
        reader = csv.DictReader(fh)
        _check_columns(path, reader.fieldnames or [],
                       ["iteration", "borehole_id", "thickness_m"])
        for ln, row in enumerate(reader, start=2):
            try:
                it = int(row["iteration"])
                z = float(row["thickness_m"])
            except (TypeError, ValueError) as exc:
                raise DatasetError(f"{path}:{ln}: malformed row ({exc})") from exc
            acc.setdefault(it, {}).setdefault(row["borehole_id"], []).append((ln, z))
    return {
        it: [_configuration(path, bid, rows) for bid, rows in per.items()]
        for it, per in acc.items()
    }


def save_diagnostics(path, diagnostics: dict):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["section", "name", "accepted", "proposed", "infeasible"])
        for which, c in diagnostics["param_accept"].items():
            writer.writerow(["parameter", which, c["accepted"], c["proposed"], 0])
        for kind, c in diagnostics["move_accept"].items():
            writer.writerow(["move", kind, c["accepted"], c["proposed"], c["infeasible"]])


def save_trace(path, diagnostics: dict):
    """``iteration,loglik`` rows: the complete-data log-likelihood of the
    chain state after each iteration, with iteration 0 the initial state."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "loglik"])
        writer.writerow([0, _fmt(diagnostics["initial_loglik"])])
        for it, loglik in enumerate(diagnostics["loglik_trace"], start=1):
            writer.writerow([it, _fmt(loglik)])


def save_summary(path, samples: list[PosteriorSample], groups: list[str]):
    """Posterior medians and 0.05/0.95 quantiles per parameter and group."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "parameter", "median", "q05", "q95"])
        for g in groups:
            for which in PARAM_KINDS:
                vals = np.array([getattr(s.params[g], which) for s in samples])
                writer.writerow(
                    [g, which, _fmt(np.median(vals)),
                     _fmt(np.quantile(vals, 0.05)), _fmt(np.quantile(vals, 0.95))]
                )


def thickness_text(stack: LayerStack) -> list[list[str]]:
    """The grid nodes' thicknesses as written, one list of strings per layer.

    ``save_raster`` and ``save_stack_grid`` both write these strings; a caller
    writing both files passes one copy to each, so every float is formatted
    once.
    """
    return [
        list(map(repr, row)) for row in stack.thickness[:, : stack.grid.n_nodes].tolist()
    ]


def save_raster(path, stack: LayerStack, text: list[list[str]] | None = None):
    """Raster CSV: one row per (node, layer) with planar coordinates.

    ``text`` is the stack's ``thickness_text`` when the caller has it.
    The rows are joined as strings, with the line ends and quoting of
    ``csv.writer``: each node's "x,y," and each layer's "j,facies," prefix
    is made once.
    """
    text = thickness_text(stack) if text is None else text
    pts = stack.points[: stack.grid.n_nodes]
    layers = [_csv_prefix(j, facies) for j, facies in enumerate(stack.parent.layers)]
    lines = ["x_km,y_km,layer_index,facies,thickness_m"]
    for c, (x, y) in enumerate(pts.tolist()):
        node = f"{x!r},{y!r},"
        lines.extend(node + layer + row[c] for layer, row in zip(layers, text))
    _write_rows(path, lines)


def _write_rows(path, lines: list[str]) -> None:
    """A CSV file of rows already joined, with ``csv.writer``'s line ends."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _csv_prefix(*fields) -> str:
    """``fields`` as ``csv.writer`` writes them in a row, with the delimiter
    that follows them."""
    buf = StringIO()
    csv.writer(buf).writerow([*fields, ""])
    return buf.getvalue()[: -len("\r\n")]


def save_stack_grid(path, stack: LayerStack, text: list[list[str]] | None = None):
    """Gridded text format: header (origin, spacing, dims), then one line of
    node thicknesses per layer.

    ``text`` is the stack's ``thickness_text`` when the caller has it.
    """
    grid = stack.grid
    text = thickness_text(stack) if text is None else text
    lines = [
        f"# stratasim gridded stack",
        f"# kind {grid.kind}",
        f"# origin {_fmt(grid.origin[0])} {_fmt(grid.origin[1])}",
        f"# spacing {_fmt(grid.spacing)}",
        f"# dims {grid.nx} {grid.ny} layers {len(stack.parent)}",
        f"# facies {' '.join(stack.parent.layers)}",
    ]
    lines.extend(" ".join(row) for row in text)
    Path(path).write_text("\n".join(lines) + "\n")


def save_polylines(path, distances, boundaries):
    """Layer-boundary polylines: (transect_distance, depth, layer_index).

    The rows are joined as strings, as ``csv.writer`` writes them: each
    distance is formatted once, and no value needs quoting.
    """
    dist = [_fmt(d) for d in distances]
    lines = ["transect_distance_km,depth_m,layer_index"]
    for j, row in enumerate(np.asarray(boundaries, dtype=float).tolist()):
        lines.extend(f"{d},{z!r},{j}" for d, z in zip(dist, row))
    _write_rows(path, lines)


def save_section(path, distances, columns):
    """Facies raster of a cross-section, column by column.

    The rows are joined as strings, as ``csv.writer`` writes them: each
    distance is formatted once, and each record's "j,facies," prefix once
    per distinct (j, facies), quoted as ``csv.writer`` quotes it.
    """
    prefixes = {}
    lines = ["transect_distance_km,layer_index,facies,top_m,bottom_m"]
    for d, records in zip(map(_fmt, distances), columns):
        for j, facies, top, bottom in records:
            prefix = prefixes.get((j, facies))
            if prefix is None:
                prefix = prefixes[j, facies] = _csv_prefix(j, facies)
            lines.append(f"{d},{prefix}{float(top)!r},{float(bottom)!r}")
    _write_rows(path, lines)


def save_tcd(path, z_grid, median, q05, q95, empirical):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z_m", "median", "q05", "q95", "empirical"])
        for row in zip(z_grid, median, q05, q95, empirical):
            writer.writerow([_fmt(v) for v in row])
