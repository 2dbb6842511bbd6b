"""Plain-text artifacts: headered CSV fields and key=value reports.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so rereading any file reproduces the arrays bit for
bit.  Headers are '#'-prefixed key=value lines; writers take a ``meta``
mapping that lands there and readers hand it back as strings.  Grids are
never stored wholesale: headers carry the geometry and the step, and
readers rebuild the node arrays, which are deterministic.
"""

from pathlib import Path

import numpy as np

from .boundary import FACE_ORDER, BoundaryDataSet
from .config import config_hash, config_lines
from .errors import UsageError
from .geometry import Geometry, GridSet
from .inverse import PairField
from .recovery import Reconstruction


def fnum(x):
    """Canonical decimal form of a float: 17 significant digits."""
    return format(float(x), ".17g")


def _write(path, lines):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _meta_lines(meta):
    return [f"# {k}={v}" for k, v in (meta or {}).items()]


def _read_rows(path, columns):
    """Split a headered CSV into (meta dict, row lists).

    The column header must equal ``columns`` and every row must carry one
    cell per column.
    """
    meta = {}
    header = None
    rows = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    for raw in text.splitlines():
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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    for raw in text.splitlines():
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
    """One row per (face, node, source); shapes follow the face layout.

    Bottom/top faces carry corner nodes, side faces interior rows only;
    the normal-derivative columns are 'nan' off the top face.  ``r`` and
    ``c`` are the in-face indices the reader fills arrays by, so the
    coordinate columns are documentation, not addressing.
    """
    g = bds.grid
    geom = g.geometry
    head = _geometry_meta(g)
    head.update(
        {
            "delta": fnum(bds.delta),
            "seed": str(bds.seed),
            "neumann_sign": _NEUMANN_SIGN,
            "attenuation_trace": fnum(bds.attenuation_trace),
        }
    )
    head.update({k: str(v) for k, v in (meta or {}).items()})
    lines = _meta_lines(head)
    lines.append(",".join(_BOUNDARY_COLUMNS))
    z_caps = {"bottom": geom.slab_bottom, "top": geom.slab_top}
    for face in FACE_ORDER:
        trace = bds.g[face]
        logs = bds.g1[face]
        slopes = bds.g2[face]
        for r in range(trace.shape[0]):
            if face in z_caps:
                x1, z = g.x1[r], z_caps[face]
            else:
                x1 = -geom.half_width if face == "left" else geom.half_width
                z = g.z[r + 1]
            for c in range(trace.shape[1]):
                cells = [face, str(r), str(c), fnum(x1), fnum(z), fnum(g.alpha[c]),
                         fnum(trace[r, c]), fnum(logs[r, c]), fnum(slopes[r, c])]
                if face == "top":
                    cells += [fnum(bds.g3[r, c]), fnum(bds.g4[r, c])]
                else:
                    cells += ["nan", "nan"]
                lines.append(",".join(cells))
    _write(path, lines)


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
    n1, nz, nk = grid.shape_medium
    shapes = {"bottom": (n1, nk), "top": (n1, nk), "left": (nz - 2, nk), "right": (nz - 2, nk)}
    g = {f: np.full(s, np.nan) for f, s in shapes.items()}
    g1 = {f: np.full(s, np.nan) for f, s in shapes.items()}
    g2 = {f: np.full(s, np.nan) for f, s in shapes.items()}
    g3 = np.full((n1, nk), np.nan)
    g4 = np.full((n1, nk), np.nan)
    for row in rows:
        face = row[0]
        if face not in shapes:
            raise UsageError(f"{path}: unknown face {face!r}")
        r = parse_value(path, row[1], int, shapes[face][0])
        c = parse_value(path, row[2], int, nk)
        *_, g[face][r, c], g1[face][r, c], g2[face][r, c] = (parse_value(path, v) for v in row[3:9])
        if face == "top":
            g3[r, c], g4[r, c] = (parse_value(path, v) for v in row[9:])
    for dct in (g, g1, g2):
        for face, arr in dct.items():
            if np.any(np.isnan(arr)):
                raise UsageError(f"{path}: face {face!r} has missing rows")
    if np.any(np.isnan(g3)) or np.any(np.isnan(g4)):
        raise UsageError(f"{path}: top-face normal data incomplete")
    return BoundaryDataSet(
        grid=grid, g=g, g1=g1, g2=g2, g3=g3, g4=g4,
        delta=parse_value(path, meta["delta"]), seed=parse_value(path, meta["seed"], int),
        attenuation_trace=parse_value(path, meta["attenuation_trace"]),
    )


def write_sweeps(diffs, path, meta=None):
    """Forward sweep history rows (sweep, max update, contraction ratio to
    the previous sweep's update; nan for the first sweep or after a zero
    update)."""
    lines = _meta_lines(meta)
    lines.append("sweep,update,ratio")
    previous = float("nan")
    for i, diff in enumerate(diffs, 1):
        ratio = diff / previous if previous else float("nan")
        lines.append(f"{i},{fnum(diff)},{fnum(ratio)}")
        previous = diff
    _write(path, lines)


def write_iterations(history, path, meta=None):
    """Descent history rows (iteration, objective, grad max-norm, step)."""
    lines = _meta_lines(meta)
    lines.append(",".join(_ITERATION_COLUMNS))
    for it, jval, ginf, step in np.asarray(history):
        lines.append(f"{int(it)},{fnum(jval)},{fnum(ginf)},{fnum(step)}")
    _write(path, lines)


def read_iterations(path):
    """History back as a float array of shape (n, 4)."""
    _, rows = _read_rows(path, _ITERATION_COLUMNS)
    return np.array([[parse_value(path, v) for v in row] for row in rows])


def write_pair(pair, path, meta=None):
    """Nodal log-field pair on the inversion grid, one row per node."""
    g = pair.grid
    head = _geometry_meta(g)
    head.update({k: str(v) for k, v in (meta or {}).items()})
    lines = _meta_lines(head)
    lines.append(",".join(_PAIR_COLUMNS))
    n1, nz, nk = g.shape_medium
    for i in range(n1):
        for j in range(nz):
            for k in range(nk):
                lines.append(
                    f"{i},{j},{k},{fnum(g.x1[i])},{fnum(g.z[j])},{fnum(g.alpha[k])},"
                    f"{fnum(pair.p[i, j, k])},{fnum(pair.q[i, j, k])}"
                )
    _write(path, lines)


def read_pair(path):
    """Rebuild a :class:`PairField` from :func:`write_pair` output."""
    meta, rows = _read_rows(path, _PAIR_COLUMNS)
    grid = _rebuild_grid(meta, path)
    p = np.full(grid.shape_medium, np.nan)
    q = np.full(grid.shape_medium, np.nan)
    for row in rows:
        i, j, k = (parse_value(path, v, int, n) for v, n in zip(row[:3], grid.shape_medium))
        *_, p[i, j, k], q[i, j, k] = (parse_value(path, v) for v in row[3:])
    if np.any(np.isnan(p)) or np.any(np.isnan(q)):
        raise UsageError(f"{path}: pair file has missing nodes")
    return PairField(p, q, grid)


def write_reconstruction(rec, path, meta=None):
    """Recovered attenuation and absorber maps, one row per spatial node."""
    g = rec.grid
    head = _geometry_meta(g)
    head["mu_s"] = fnum(rec.mu_s_value)
    head.update({k: str(v) for k, v in (meta or {}).items()})
    lines = _meta_lines(head)
    lines.append(",".join(_RECONSTRUCTION_COLUMNS))
    n1, nz = rec.attenuation.shape
    for i in range(n1):
        for j in range(nz):
            lines.append(
                f"{i},{j},{fnum(g.x1[i])},{fnum(g.z[j])},"
                f"{fnum(rec.attenuation[i, j])},{fnum(rec.absorber[i, j])}"
            )
    _write(path, lines)


def read_reconstruction(path):
    """Rebuild a :class:`Reconstruction` from its CSV."""
    meta, rows = _read_rows(path, _RECONSTRUCTION_COLUMNS)
    _require(meta, ("mu_s",), path)
    grid = _rebuild_grid(meta, path)
    shape = (grid.x1.size, grid.z.size)
    atten = np.full(shape, np.nan)
    absorber = np.full(shape, np.nan)
    for row in rows:
        i, j = (parse_value(path, v, int, n) for v, n in zip(row[:2], shape))
        *_, atten[i, j], absorber[i, j] = (parse_value(path, v) for v in row[2:])
    if np.any(np.isnan(atten)) or np.any(np.isnan(absorber)):
        raise UsageError(f"{path}: reconstruction file has missing nodes")
    return Reconstruction(
        attenuation=atten, absorber=absorber,
        mu_s_value=parse_value(path, meta["mu_s"]), grid=grid,
    )


def write_carleman_table(report, path, meta=None):
    """Per-sample estimate quadratures; excluded samples keep NaN ratios."""
    head = {"samples": str(report.samples), "seed": str(report.seed)}
    head.update({k: str(v) for k, v in (meta or {}).items()})
    lines = _meta_lines(head)
    lines.append("lam,sample,lhs,interior,boundary,ratio")
    for lam, idx, lhs, interior, boundary, ratio in report.table:
        lines.append(
            f"{fnum(lam)},{int(idx)},{fnum(lhs)},{fnum(interior)},"
            f"{fnum(boundary)},{fnum(ratio)}"
        )
    _write(path, lines)


def write_convexity_table(report, path, meta=None):
    """Per-couple gaps, shared bound, and gradient-variation ratio."""
    head = {"radius": fnum(report.radius), "seed": str(report.seed)}
    head.update({k: str(v) for k, v in (meta or {}).items()})
    lines = _meta_lines(head)
    lines.append("couple,gap_forward,gap_reverse,bound,gradient_ratio")
    for i in range(report.gaps.shape[0]):
        lines.append(
            f"{i},{fnum(report.gaps[i, 0])},{fnum(report.gaps[i, 1])},"
            f"{fnum(report.bounds[i])},{fnum(report.lipschitz[i])}"
        )
    _write(path, lines)
