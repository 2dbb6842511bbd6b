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
rebuild the node arrays, which are deterministic.  Every artifact is
UTF-8 text; a file that cannot be read or decoded, or a path that cannot
be written, is a usage error naming it.

Text conversion is the codec's cost, so it is done once per distinct
cell where cells repeat.  The writer formats each distinct value of a
column once and writes the rows a block at a time; the reader splits the
whole body in one pass and converts each grid or index column per
distinct text.  A cell the fast path cannot convert sends its columns
through :func:`parse_value` cell by cell, which raises the usage error
that names it.
"""

from itertools import repeat
from pathlib import Path

import numpy as np

from .boundary import BoundaryDataSet, face_nodes, face_shapes
from .carleman import LAMBDAS
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


# Rows formatted and written per block, so a table's text never exists
# whole.
_BLOCK = 512


def _open(path):
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _write(path, lines):
    with _open(path) as f:
        f.write("\n".join(lines) + "\n")


def _meta_lines(meta):
    return [f"# {k}={v}" for k, v in (meta or {}).items()]


def _cell_texts(col, end):
    """(texts, inverse) of a column: an object array with the text of each
    distinct cell followed by ``end``, and each cell's position in it.
    Float cells are told apart by bit pattern, so -0.0 and 0.0 keep their
    own texts."""
    col = np.asarray(col)
    if col.dtype.kind == "f":
        keys, fmt = np.ascontiguousarray(col, dtype=float).view(np.int64), _FLOAT + end
    else:
        keys, fmt = col, "%s" + end
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.array(list(map(fmt.__mod__, col[first].tolist())), dtype=object), inverse


def _write_table(path, head, columns, cells):
    """Meta lines from ``head``, the ``columns`` row, then one row per entry
    of the equal-length ``cells`` arrays (one per column).  Float cells are
    written as :func:`fnum` writes them, int and str cells as ``str`` does;
    each distinct cell of a column is formatted once."""
    width = len(cells)
    cells = [_cell_texts(col, "," if c < width - 1 else "\n") for c, col in enumerate(cells)]
    n = min((inverse.size for _, inverse in cells), default=0)
    with _open(path) as f:
        f.write("\n".join([*_meta_lines(head), ",".join(columns)]) + "\n")
        for start in range(0, n, _BLOCK):
            rows = slice(start, min(start + _BLOCK, n))
            block = [None] * (width * (rows.stop - start))
            for c, (texts, inverse) in enumerate(cells):
                block[c::width] = texts[inverse[rows]].tolist()
            f.write("".join(block))


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _store(path, target, key, value):
    """``target[key] = value`` for a key read from ``path``; a key the file
    has already given is a usage error, not a silent overwrite."""
    key = key.strip()
    if key in target:
        raise UsageError(f"{path}: repeated key {key!r}")
    target[key] = value.strip()


def _store_meta(path, meta, raw):
    """A '#' line into ``meta`` when it reads '# key=value'; other '#'
    lines are comments."""
    body = raw[1:].strip()
    if "=" in body:
        key, _, val = body.partition("=")
        _store(path, meta, key, val)


def _data_text(path, body, width, meta):
    """The data rows among the lines ``body``, joined by commas.  '#' lines
    go into ``meta`` and blank lines are skipped; a row without ``width``
    cells is refused.  Faults are met in line order."""
    text = ",".join(body)
    # A data row has exactly width - 1 commas, a blank line none.
    commas = np.fromiter(map(str.count, body, repeat(",")), np.intp, len(body))
    odd = commas != width - 1
    if "#" in text:
        odd |= np.fromiter(map(str.startswith, body, repeat("#")), bool, len(body))
    if not odd.any():
        return text
    for n in np.flatnonzero(odd).tolist():
        raw = body[n]
        if raw.startswith("#"):
            _store_meta(path, meta, raw)
        elif raw.strip():
            raise UsageError(f"{path}: row {raw!r} has {commas[n] + 1} cells, not {width}")
    return ",".join(body[n] for n in np.flatnonzero(~odd).tolist())


def _read_table(path, columns):
    """Split a headered CSV into (meta dict, one list of cell texts per
    column).

    The column header must equal ``columns`` (two or more names), every
    row must carry one cell per column, and no meta key may repeat.  Blank
    lines are skipped and '#' lines are meta lines wherever they stand; a
    file with several faults is refused for its first.
    """
    lines = _read_text(path).splitlines()
    meta = {}
    for n, raw in enumerate(lines):
        if not raw.strip():
            continue
        if raw.startswith("#"):
            _store_meta(path, meta, raw)
            continue
        header = raw.split(",")
        if header != list(columns):
            raise UsageError(f"{path}: unexpected columns {header}, expected {list(columns)}")
        break
    else:
        raise UsageError(f"{path}: no column header found")
    width = len(columns)
    text = _data_text(path, lines[n + 1:], width, meta)
    del lines  # the cells are the table's largest copy; free the lines first
    cells = text.split(",") if text else []
    return meta, [cells[c::width] for c in range(width)]


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


# A column whose first _PROBE cells hold at most half as many distinct
# texts (a grid or index column) is converted once per distinct text; any
# other cell by cell, which is faster when most texts differ.
_PROBE = 64


def _distinct(cells):
    """(keys, inverse): the distinct texts of ``cells`` in order of first
    appearance, and each cell's position among them."""
    where = dict.fromkeys(cells)
    keys = list(where)
    where.update(zip(keys, range(len(keys))))
    return keys, np.fromiter(map(where.__getitem__, cells), np.intp, len(cells))


def _columns(path, cols, kind, sizes):
    """Each list of cell texts in ``cols`` as an int64 (``kind=int``) or
    float array, every cell read as :func:`parse_value` reads it with the
    matching entry of ``sizes``.  A cell it refuses raises its usage error,
    for the first such cell in row order."""
    arrays = []
    for col, size in zip(cols, sizes):
        head = col[:_PROBE]
        keys, inverse = _distinct(col) if 2 * len(set(head)) <= len(head) else (col, None)
        try:
            values = np.fromiter(map(kind, keys), np.int64 if kind is int else float, len(keys))
        except (ValueError, OverflowError):
            break
        if size is not None and not ((values >= 0) & (values < size)).all():
            break
        arrays.append(values if inverse is None else values[inverse])
    else:
        return arrays
    # The error path: parse_value refuses at least one of these cells.
    for row in zip(*cols):
        for text, size in zip(row, sizes):
            parse_value(path, text, kind, size)
    raise AssertionError(f"{path}: a cell failed to convert but parse_value accepts them all")


def _take(cells, rows):
    """The entries of the list ``cells`` at the ascending positions ``rows``
    (a slice when they are consecutive, as each face's rows are)."""
    if rows.size and rows[-1] - rows[0] + 1 == rows.size:
        return cells[rows[0]:rows[-1] + 1]
    return [cells[n] for n in rows.tolist()]


def _parse(path, cols, sizes):
    """(index, values) of a table's columns of cell texts: the leading
    ``len(sizes)`` columns as int arrays, each checked against its axis
    size, and the remaining columns as the rows of an (m, n) float array."""
    d = len(sizes)
    index = _columns(path, cols[:d], int, sizes)
    values = _columns(path, cols[d:], float, (None,) * (len(cols) - d))
    return tuple(index), np.array(values)


def _fill(path, index, values, shape, what="table"):
    """Each value column scattered into an array of ``shape``, stacked along
    a new first axis.  Every index must occur exactly once and every value
    must be a finite number: a repeated or missing row, or a 'nan' or
    'inf' cell, is a usage error."""
    flat = np.ravel_multi_index(index, shape)
    count = np.bincount(flat, minlength=int(np.prod(shape)))
    if np.any(count > 1):
        repeated = tuple(int(i) for i in np.unravel_index(np.argmax(count), shape))
        raise UsageError(f"{path}: {what} has more than one row for index {repeated}")
    if not count.size or not count.all():
        raise UsageError(f"{path}: {what} has missing rows")
    if not np.isfinite(values).all():
        raise UsageError(f"{path}: {what} has a non-finite value")
    out = np.empty((values.shape[0], count.size))
    out[:, flat] = values
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
    return {**{k: fnum(getattr(grid.geometry, k)) for k in _GEOM_KEYS}, "h": fnum(grid.h)}


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
    """Read a key=value report; returns (body, meta), both str -> str.
    A key repeated within the body or within the meta lines is refused."""
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
        _store(path, target, key, val)
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
    meta, cols = _read_table(path, _BOUNDARY_COLUMNS)
    _require(meta, ("delta", "seed", "neumann_sign", "attenuation_trace"), path)
    if meta["neumann_sign"] != _NEUMANN_SIGN:
        raise UsageError(
            f"{path}: neumann_sign={meta['neumann_sign']} data are not supported "
            f"(only {_NEUMANN_SIGN})"
        )
    grid = _rebuild_grid(meta, path)
    shapes = face_shapes(grid)
    names, where = _distinct(cols[0])
    unknown = set(names) - shapes.keys()
    if unknown:
        raise UsageError(f"{path}: unknown face {min(unknown)!r}")
    faces = {}
    for face, shape in shapes.items():
        rows = np.flatnonzero(where == (names.index(face) if face in names else -1))
        # The g3, g4 cells off the top face are 'nan' placeholders.
        face_cols = [_take(col, rows) for col in (cols[1:] if face == "top" else cols[1:-2])]
        # x1, z, alpha, g, g1, g2 (and g3, g4 on top) arrays of the face's shape
        faces[face] = _fill(path, *_parse(path, face_cols, shape), shape, f"face {face!r}")
    g, g1, g2 = ({face: cols[n] for face, cols in faces.items()} for n in (3, 4, 5))
    return BoundaryDataSet(
        grid=grid, g=g, g1=g1, g2=g2, g3=faces["top"][6], g4=faces["top"][7],
        delta=parse_value(path, meta["delta"]), seed=parse_value(path, meta["seed"], int),
        attenuation_trace=parse_value(path, meta["attenuation_trace"]),
    )


def write_sweeps(diffs, path, meta=None):
    """Forward pass history rows (sweep, update, ratio).

    :func:`~rtetomo.forward.solve_forward` solves the z-rows one after
    another, each in its own fixed-point passes: row m of the table is
    pass m, its update the largest max-norm update of any z-row's m-th
    pass, and its ratio that update over pass m - 1's (nan for the first
    pass or after a zero update).  The table has one row per pass of the
    z-row that took the most."""
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
    _, cols = _read_table(path, _ITERATION_COLUMNS)
    shape = (len(cols[0]),)
    return np.column_stack((np.arange(shape[0]), *_fill(path, *_parse(path, cols, shape), shape)))


def write_pair(pair, path, meta=None):
    """Nodal log-field pair on the inversion grid, one row per node."""
    g = pair.grid
    i, j, k = np.indices(g.shape_medium)
    cells = [i, j, k, g.x1[i], g.z[j], g.alpha[k], pair.p, pair.q]
    _write_table(path, {**_geometry_meta(g), **(meta or {})}, _PAIR_COLUMNS, [c.ravel() for c in cells])


def read_pair(path):
    """Rebuild a :class:`PairField` from :func:`write_pair` output."""
    meta, cols = _read_table(path, _PAIR_COLUMNS)
    grid = _rebuild_grid(meta, path)
    shape = grid.shape_medium
    *_, p, q = _fill(path, *_parse(path, cols, shape), shape)
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
    meta, cols = _read_table(path, _RECONSTRUCTION_COLUMNS)
    _require(meta, ("mu_s",), path)
    grid = _rebuild_grid(meta, path)
    shape = grid.shape_medium[:2]
    *_, atten, absorber = _fill(path, *_parse(path, cols, shape), shape)
    return Reconstruction(
        attenuation=atten, absorber=absorber,
        mu_s_value=parse_value(path, meta["mu_s"]), grid=grid,
    )


def write_carleman_table(sides, path, meta=None):
    """Per-sample estimate quadratures, one row per (lam, sample) of the
    (len(LAMBDAS), samples, 4) ``sides`` array; excluded samples keep NaN
    ratios."""
    lam, idx = np.meshgrid(LAMBDAS, np.arange(sides.shape[1]), indexing="ij")
    _write_table(path, meta, ("lam", "sample", "lhs", "interior", "boundary", "ratio"),
                 [lam.ravel(), idx.ravel(), *sides.reshape(-1, 4).T])


def write_convexity_table(sweep, path, meta=None):
    """Per-couple gaps, shared bound, and gradient-variation ratio of a
    (count, 4) sweep."""
    _write_table(path, meta, ("couple", "gap_forward", "gap_reverse", "bound", "gradient_ratio"),
                 [np.arange(sweep.shape[0]), *sweep.T])
