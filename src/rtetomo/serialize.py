"""Plain-text artifacts: headered CSV tables and key=value reports.

Every CSV artifact is one table format: '#'-prefixed key=value meta
lines, one row of column names, then one comma-separated row per entry.
Writers take a ``meta`` mapping that lands in the meta lines, and readers
hand it back as strings.  Floats are written with 17 significant digits,
which round-trips IEEE doubles exactly, so rereading any file reproduces
the arrays bit for bit; int and str cells are written as ``str`` gives
them.  Tables that a reader rebuilds arrays from lead with index columns,
and each index row must appear exactly once.  Grids are never stored
wholesale: meta lines carry the geometry and the step, and readers
rebuild the node arrays, which are deterministic.
"""

from pathlib import Path

import numpy as np

from .boundary import BoundaryDataSet, face_nodes, face_shapes
from .config import config_hash, config_lines
from .errors import UsageError
from .geometry import Geometry, GridSet
from .inverse import PairField
from .recovery import Reconstruction


# 17 significant digits round-trip every IEEE double.
_FLOAT = "%.17g"


def fnum(x):
    """Canonical decimal form of a float: 17 significant digits."""
    return _FLOAT % float(x)


def _write(path, lines):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _meta_lines(meta):
    return [f"# {k}={v}" for k, v in (meta or {}).items()]


def _write_table(path, head, columns, cells):
    """Meta lines from ``head``, the ``columns`` row, then one row per entry
    of the equal-length ``cells`` arrays (one per column).  Float cells are
    written as :func:`fnum` writes them, int and str cells as ``str`` does."""
    cells = [np.asarray(col) for col in cells]
    row = ",".join(_FLOAT if col.dtype.kind == "f" else "%s" for col in cells)
    _write(path, [*_meta_lines(head), ",".join(columns), *(row % entry for entry in zip(*cells))])


def _read_text(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _read_rows(path, columns):
    """Split a headered CSV into (meta dict, row lists).

    The column header must equal ``columns`` and every row must carry one
    cell per column.
    """
    meta = {}
    header = None
    rows = []
    for raw in _read_text(path).splitlines():
        if not raw.strip():
            continue
        if raw.startswith("#"):
            body = raw[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = val.strip()
            continue
        cells = raw.split(",")
        if header is None:
            header = cells
            if header != list(columns):
                raise UsageError(f"{path}: unexpected columns {header}, expected {list(columns)}")
        elif len(cells) != len(header):
            raise UsageError(f"{path}: row {raw!r} has {len(cells)} cells, not {len(header)}")
        else:
            rows.append(cells)
    if header is None:
        raise UsageError(f"{path}: no column header found")
    return meta, rows


def parse_value(path, text, kind=float, size=None):
    """``text`` read as ``kind``; with ``size`` it must be an index in
    0..size-1.  Anything else is a usage error naming ``path``."""
    try:
        value = kind(text)
    except ValueError:
        raise UsageError(f"{path}: cannot read {text!r} as {kind.__name__}") from None
    if size is not None and not 0 <= value < size:
        raise UsageError(f"{path}: index {value} outside 0..{size - 1}")
    return value


def _parse(path, rows, sizes):
    """(index, values) of split rows: the leading ``len(sizes)`` cells as an
    (n, d) int array, each index checked against its axis size, and the
    remaining cells as floats, flat in row order."""
    d = len(sizes)
    index = np.fromiter((parse_value(path, v, int, n) for row in rows for v, n in zip(row, sizes)), np.int64)
    values = np.fromiter((parse_value(path, v) for row in rows for v in row[d:]), float)
    return index.reshape(-1, d), values


def _fill(path, index, values, shape, what="table"):
    """Each value column scattered into an array of ``shape``, stacked along
    a new first axis.  Every index must occur exactly once and every value
    must be a number: a repeated or missing row, or a 'nan' cell, is a
    usage error."""
    flat = np.ravel_multi_index(tuple(index.T), shape)
    count = np.bincount(flat, minlength=int(np.prod(shape)))
    if np.any(count > 1):
        repeated = tuple(int(i) for i in np.unravel_index(np.argmax(count), shape))
        raise UsageError(f"{path}: {what} has more than one row for index {repeated}")
    if not count.size or not count.all():
        raise UsageError(f"{path}: {what} has missing rows")
    if np.isnan(values).any():
        raise UsageError(f"{path}: {what} has a nan value")
    values = values.reshape(count.size, -1)
    out = np.empty((values.shape[1], count.size))
    out[:, flat] = values.T
    return out.reshape((-1, *shape))


def _require(meta, keys, path):
    missing = [k for k in keys if k not in meta]
    if missing:
        raise UsageError(f"{path}: header lacks {missing}")


_BOUNDARY_COLUMNS = ("face", "r", "c", "x1", "z", "alpha", "g", "g1", "g2", "g3", "g4")
_ITERATION_COLUMNS = ("iteration", "objective", "grad_inf", "step")
_PAIR_COLUMNS = ("i", "j", "k", "x1", "z", "alpha", "p", "q")
_RECONSTRUCTION_COLUMNS = ("i", "j", "x1", "z", "attenuation", "absorber")

_GEOM_KEYS = ("half_width", "slab_bottom", "slab_top", "source_half_width")

# boundary.csv names the normal-derivative formula its g3/g4 came from.
# Only the rederived one exists; data derived otherwise must not be read
# as if they were.
_NEUMANN_SIGN = "rederived"


def _geometry_meta(grid):
    g = grid.geometry
    return {
        "half_width": fnum(g.half_width),
        "slab_bottom": fnum(g.slab_bottom),
        "slab_top": fnum(g.slab_top),
        "source_half_width": fnum(g.source_half_width),
        "h": fnum(grid.h),
    }


def _rebuild_grid(meta, path):
    _require(meta, _GEOM_KEYS + ("h",), path)
    geom = Geometry(*(parse_value(path, meta[k]) for k in _GEOM_KEYS))
    return GridSet.uniform(geom, parse_value(path, meta["h"]))


def write_keyvalues(path, mapping, meta=None):
    """Flat key=value report; floats go through :func:`fnum`."""
    lines = _meta_lines(meta)
    for k, v in mapping.items():
        if isinstance(v, float):
            v = fnum(v)
        lines.append(f"{k}={v}")
    _write(path, lines)


def read_keyvalues(path):
    """Read a key=value report; returns (body, meta), both str -> str."""
    meta, body = {}, {}
    for raw in _read_text(path).splitlines():
        line = raw.strip()
        if not line:
            continue
        target = meta if line.startswith("#") else body
        line = line.lstrip("#").strip()
        if "=" not in line:
            raise UsageError(f"{path}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        target[key.strip()] = val.strip()
    return body, meta


def write_manifest(config, path):
    """Configuration lines plus their hash (the run's identity card)."""
    _write(path, config_lines(config) + [f"config_hash={config_hash(config)}"])


def read_manifest(path):
    """Manifest back as a str -> str mapping."""
    body, _ = read_keyvalues(path)
    return body


def write_boundary(bds, path, meta=None):
    """One row per (face, node, source), faces as :func:`face_shapes` lays
    them out.

    ``r`` and ``c`` are the in-face indices the reader fills arrays by, so
    the coordinate columns are documentation, not addressing; the
    normal-derivative columns are 'nan' off the top face.
    """
    g = bds.grid
    head = {
        **_geometry_meta(g),
        "delta": fnum(bds.delta),
        "seed": str(bds.seed),
        "neumann_sign": _NEUMANN_SIGN,
        "attenuation_trace": fnum(bds.attenuation_trace),
        **(meta or {}),
    }
    faces = []
    for face, (x1, z) in face_nodes(g).items():
        r, c = np.indices(bds.g[face].shape)
        normal = (bds.g3, bds.g4) if face == "top" else (np.full(r.shape, np.nan),) * 2
        faces.append((np.full(r.shape, face), r, c, x1[r], z[r], g.alpha[c],
                      bds.g[face], bds.g1[face], bds.g2[face], *normal))
    cells = [np.concatenate([np.ravel(part) for part in col]) for col in zip(*faces)]
    _write_table(path, head, _BOUNDARY_COLUMNS, cells)


def read_boundary(path):
    """Rebuild a :class:`BoundaryDataSet` from :func:`write_boundary` output."""
    meta, rows = _read_rows(path, _BOUNDARY_COLUMNS)
    _require(meta, ("delta", "seed", "neumann_sign", "attenuation_trace"), path)
    if meta["neumann_sign"] != _NEUMANN_SIGN:
        raise UsageError(
            f"{path}: neumann_sign={meta['neumann_sign']} data are not supported "
            f"(only {_NEUMANN_SIGN})"
        )
    grid = _rebuild_grid(meta, path)
    shapes = face_shapes(grid)
    unknown = {row[0] for row in rows} - shapes.keys()
    if unknown:
        raise UsageError(f"{path}: unknown face {min(unknown)!r}")
    faces = {}
    for face, shape in shapes.items():
        # The g3, g4 cells off the top face are 'nan' placeholders.
        face_rows = [row[1:] if face == "top" else row[1:-2] for row in rows if row[0] == face]
        # x1, z, alpha, g, g1, g2 (and g3, g4 on top) arrays of the face's shape
        faces[face] = _fill(path, *_parse(path, face_rows, shape), shape, f"face {face!r}")
    g, g1, g2 = ({face: cols[n] for face, cols in faces.items()} for n in (3, 4, 5))
    return BoundaryDataSet(
        grid=grid, g=g, g1=g1, g2=g2, g3=faces["top"][6], g4=faces["top"][7],
        delta=parse_value(path, meta["delta"]), seed=parse_value(path, meta["seed"], int),
        attenuation_trace=parse_value(path, meta["attenuation_trace"]),
    )


def write_sweeps(diffs, path, meta=None):
    """Forward sweep history rows (sweep, max update, contraction ratio to
    the previous sweep's update; nan for the first sweep or after a zero
    update)."""
    diffs = np.asarray(diffs, dtype=float)
    ratio = np.full(diffs.shape, np.nan)
    np.divide(diffs[1:], diffs[:-1], out=ratio[1:], where=diffs[:-1] != 0.0)
    _write_table(path, meta, ("sweep", "update", "ratio"), [np.arange(1, diffs.size + 1), diffs, ratio])


def write_iterations(history, path, meta=None):
    """Descent history rows (iteration, objective, grad max-norm, step)."""
    history = np.asarray(history)
    _write_table(path, meta, _ITERATION_COLUMNS, [history[:, 0].astype(int), *history[:, 1:].T])


def read_iterations(path):
    """History back as a float array of shape (n, 4)."""
    _, rows = _read_rows(path, _ITERATION_COLUMNS)
    shape = (len(rows),)
    return np.column_stack((np.arange(len(rows)), *_fill(path, *_parse(path, rows, shape), shape)))


def write_pair(pair, path, meta=None):
    """Nodal log-field pair on the inversion grid, one row per node."""
    g = pair.grid
    i, j, k = np.indices(g.shape_medium)
    cells = [i, j, k, g.x1[i], g.z[j], g.alpha[k], pair.p, pair.q]
    _write_table(path, {**_geometry_meta(g), **(meta or {})}, _PAIR_COLUMNS, [c.ravel() for c in cells])


def read_pair(path):
    """Rebuild a :class:`PairField` from :func:`write_pair` output."""
    meta, rows = _read_rows(path, _PAIR_COLUMNS)
    grid = _rebuild_grid(meta, path)
    shape = grid.shape_medium
    *_, p, q = _fill(path, *_parse(path, rows, shape), shape)
    return PairField(p, q, grid)


def write_reconstruction(rec, path, meta=None):
    """Recovered attenuation and absorber maps, one row per spatial node."""
    g = rec.grid
    head = {**_geometry_meta(g), "mu_s": fnum(rec.mu_s_value), **(meta or {})}
    i, j = np.indices(rec.attenuation.shape)
    cells = [i, j, g.x1[i], g.z[j], rec.attenuation, rec.absorber]
    _write_table(path, head, _RECONSTRUCTION_COLUMNS, [c.ravel() for c in cells])


def read_reconstruction(path):
    """Rebuild a :class:`Reconstruction` from its CSV."""
    meta, rows = _read_rows(path, _RECONSTRUCTION_COLUMNS)
    _require(meta, ("mu_s",), path)
    grid = _rebuild_grid(meta, path)
    shape = grid.shape_medium[:2]
    *_, atten, absorber = _fill(path, *_parse(path, rows, shape), shape)
    return Reconstruction(
        attenuation=atten, absorber=absorber,
        mu_s_value=parse_value(path, meta["mu_s"]), grid=grid,
    )


def write_carleman_table(report, path, meta=None):
    """Per-sample estimate quadratures; excluded samples keep NaN ratios."""
    head = {"samples": str(report.samples), "seed": str(report.seed), **(meta or {})}
    lam, idx, *sides = np.asarray(report.table).T
    _write_table(path, head, ("lam", "sample", "lhs", "interior", "boundary", "ratio"),
                 [lam, idx.astype(int), *sides])


def write_convexity_table(report, path, meta=None):
    """Per-couple gaps, shared bound, and gradient-variation ratio."""
    head = {"radius": fnum(report.radius), "seed": str(report.seed), **(meta or {})}
    _write_table(path, head, ("couple", "gap_forward", "gap_reverse", "bound", "gradient_ratio"),
                 [np.arange(report.gaps.shape[0]), *report.gaps.T, report.bounds, report.lipschitz])
