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

Text conversion is the codec's cost.  The writer formats each distinct
value of a column once and writes the rows a block at a time.  The
reader takes every value from one ``np.loadtxt`` call, one typed field
per column, which reads each cell as :func:`parse_value` does or
refuses the table (an int cell such as '2.7' included), and a short
loop then names the first row numpy refuses by its text.  Every writer
emits ASCII rows, and a row that is not ASCII or holds NUL or the unit
separator (0x1F) is refused before numpy, whose integer parser has
crashed the interpreter on such text.
"""

from pathlib import Path

import numpy as np

from .boundary import FACE_ORDER, BoundaryDataSet, face_nodes, face_shapes
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


def _read_table(path, columns, dtypes):
    """(meta dict, one array per column) of a headered CSV, read as
    ``dtypes`` gives: int64, float64 or a str width per column.

    '#' lines above the column header are meta lines; blank lines are
    skipped.  Faults are met in this order: a header other than
    ``columns`` (two or more names) or a repeated meta key, a row that is
    not ASCII or holds NUL or 0x1F, then the first row without one cell
    per column that ``np.loadtxt`` converts.
    """
    text = _read_text(path)
    plain = text.isascii() and "\0" not in text and "\x1f" not in text
    lines = text.splitlines()
    del text  # the lines hold the table now: free its text before parsing
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
    body = lines[n + 1:]
    # numpy has crashed on non-ASCII cells, and drops NUL and 0x1F that Python keeps.
    for raw in [] if plain else body:
        if not raw.isascii() or "\0" in raw or "\x1f" in raw:
            raise UsageError(f"{path}: row {raw!r} holds a non-ASCII, NUL or 0x1F character")
    dtype = list(zip(columns, dtypes))
    try:
        # np.loadtxt refuses an int cell such as '2.7', and warns on a body of blank lines alone.
        rows = np.empty(0, dtype) if not any(body) else np.loadtxt(
            body, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        # Name the first row numpy refuses by its text: cell count, parse_value's reason, or numpy's.
        kinds = [{"i": int, "f": float, "U": str}[np.dtype(d).kind] for d in dtypes]
        for raw in filter(None, body):
            cells = raw.split(",")
            if len(cells) != len(columns):
                raise UsageError(f"{path}: row {raw!r} has {len(cells)} cells, not {len(columns)}") from None
            try:
                np.loadtxt([raw], dtype=dtype, delimiter=",", comments=None)
            except ValueError as refused:
                for cell, kind in zip(cells, kinds):
                    parse_value(path, cell, kind)
                raise UsageError(f"{path}: row {raw!r}: {str(refused).partition(' at row ')[0]}") from None
        raise UsageError(f"{path}: {exc}") from None
    return meta, [rows[name] for name in columns]


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


def _index(path, cols, shape):
    """The index columns ``cols`` as int64 arrays into ``shape``.  The
    first row with an index outside is refused as :func:`parse_value`
    refuses it."""
    outside = np.logical_or.reduce([(col < 0) | (col >= size) for col, size in zip(cols, shape)])
    if outside.any():
        for col, size in zip(cols, shape):
            parse_value(path, col[np.argmax(outside)], int, size)
    return [col.astype(np.int64) for col in cols]


def _fill(path, cols, shape, what="table"):
    """The columns of ``cols`` after the first ``len(shape)``, each
    scattered into an array of ``shape`` by those index columns
    (:func:`_index`), stacked along a new first axis.  A repeated or
    missing index row, or a 'nan' or 'inf' value, is a usage error."""
    flat = np.ravel_multi_index(_index(path, cols[:len(shape)], shape), shape)
    count = np.bincount(flat, minlength=int(np.prod(shape)))
    if np.any(count > 1):
        repeated = tuple(int(i) for i in np.unravel_index(np.argmax(count), shape))
        raise UsageError(f"{path}: {what} has more than one row for index {repeated}")
    if not count.size or not count.all():
        raise UsageError(f"{path}: {what} has missing rows")
    values = np.array(cols[len(shape):])
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

# The face column's width: one character more than the longest face
# name, so that a longer cell reads as an unknown face, never as a face.
_FACE_TEXT = f"U{max(map(len, FACE_ORDER)) + 1}"

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
    '#' lines follow the table rule (:func:`_store_meta`).  A key repeated
    within the body or within the meta lines is refused."""
    meta, body = {}, {}
    for raw in _read_text(path).splitlines():
        line = raw.strip()
        if line.startswith("#"):
            _store_meta(path, meta, line)
        elif line:
            if "=" not in line:
                raise UsageError(f"{path}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            _store(path, body, key, val)
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
    meta, cols = _read_table(path, _BOUNDARY_COLUMNS, (_FACE_TEXT, np.int64, np.int64) + (float,) * 8)
    _require(meta, ("delta", "seed", "neumann_sign", "attenuation_trace"), path)
    if meta["neumann_sign"] != _NEUMANN_SIGN:
        raise UsageError(
            f"{path}: neumann_sign={meta['neumann_sign']} data are not supported "
            f"(only {_NEUMANN_SIGN})"
        )
    grid = _rebuild_grid(meta, path)
    shapes = face_shapes(grid)
    rows = {face: cols[0] == face for face in shapes}
    unknown = ~np.logical_or.reduce(list(rows.values()))
    if unknown.any():
        raise UsageError(f"{path}: unknown face {min(cols[0][unknown].tolist())!r}")
    faces = {}
    for face, shape in shapes.items():
        # x1, z, alpha, g, g1, g2 (and g3, g4 on top; 'nan' placeholders elsewhere)
        face_cols = [col[rows[face]] for col in (cols[1:] if face == "top" else cols[1:-2])]
        faces[face] = _fill(path, face_cols, shape, f"face {face!r}")
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
    _, cols = _read_table(path, _ITERATION_COLUMNS, (np.int64, float, float, float))
    shape = (len(cols[0]),)
    return np.column_stack((np.arange(shape[0]), *_fill(path, cols, shape)))


def write_pair(pair, path, meta=None):
    """Nodal log-field pair on the inversion grid, one row per node."""
    g = pair.grid
    i, j, k = np.indices(g.shape_medium)
    cells = [i, j, k, g.x1[i], g.z[j], g.alpha[k], pair.p, pair.q]
    _write_table(path, {**_geometry_meta(g), **(meta or {})}, _PAIR_COLUMNS, [c.ravel() for c in cells])


def read_pair(path):
    """Rebuild a :class:`PairField` from :func:`write_pair` output."""
    meta, cols = _read_table(path, _PAIR_COLUMNS, (np.int64,) * 3 + (float,) * 5)
    grid = _rebuild_grid(meta, path)
    *_, p, q = _fill(path, cols, grid.shape_medium)
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
    meta, cols = _read_table(path, _RECONSTRUCTION_COLUMNS, (np.int64,) * 2 + (float,) * 4)
    _require(meta, ("mu_s",), path)
    grid = _rebuild_grid(meta, path)
    *_, atten, absorber = _fill(path, cols, grid.shape_medium[:2])
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
