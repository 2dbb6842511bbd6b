"""Text artifacts round-trip bit for bit."""

import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rtetomo import RunConfig, UsageError, config_hash, recover_attenuation
from rtetomo.boundary import FACE_ORDER
from rtetomo.carleman import LAMBDAS, convexity_sweep, empirical_carleman_constant
from rtetomo.cli import main
from rtetomo.geometry import Geometry, GridSet
import rtetomo.serialize as serialize
from rtetomo.serialize import (
    fnum,
    parse_value,
    read_boundary,
    read_iterations,
    read_keyvalues,
    read_manifest,
    read_pair,
    read_reconstruction,
    write_boundary,
    write_carleman_table,
    write_convexity_table,
    write_iterations,
    write_keyvalues,
    write_manifest,
    write_pair,
    write_reconstruction,
)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fnum_round_trips_doubles(x):
    assert float(fnum(x)) == x


def test_fnum_edge_values():
    for x in (0.0, -0.0, 1e-308, 5e-324, 1.7976931348623157e308, np.pi):
        assert float(fnum(x)) == x
    assert fnum(2) == "2"


def test_keyvalues_round_trip(tmp_path):
    path = tmp_path / "report.txt"
    write_keyvalues(path, {"alpha": 0.1 + 0.2, "name": "probe"}, meta={"kind": "demo"})
    body, meta = read_keyvalues(path)
    assert float(body["alpha"]) == 0.1 + 0.2
    assert body["name"] == "probe"
    assert meta["kind"] == "demo"


def test_keyvalues_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("just words\n")
    with pytest.raises(UsageError):
        read_keyvalues(path)
    with pytest.raises(UsageError):
        read_keyvalues(tmp_path / "absent.txt")


def test_manifest_carries_the_config_hash(tmp_path):
    config = RunConfig(letter="SZ", c_a=7.0)
    path = tmp_path / "manifest.txt"
    write_manifest(config, path)
    body = read_manifest(path)
    assert body["config_hash"] == config_hash(config)
    assert body["letter"] == "SZ"


def test_boundary_round_trip_is_bit_exact(boundary10, tmp_path):
    path = tmp_path / "boundary.csv"
    write_boundary(boundary10, path)
    back = read_boundary(path)
    for face in FACE_ORDER:
        np.testing.assert_array_equal(back.g[face], boundary10.g[face])
        np.testing.assert_array_equal(back.g1[face], boundary10.g1[face])
        np.testing.assert_array_equal(back.g2[face], boundary10.g2[face])
    np.testing.assert_array_equal(back.g3, boundary10.g3)
    np.testing.assert_array_equal(back.g4, boundary10.g4)
    assert back.delta == boundary10.delta
    assert back.seed == boundary10.seed
    assert back.attenuation_trace == boundary10.attenuation_trace
    assert back.grid.h == boundary10.grid.h


def test_boundary_rows_read_back_in_any_order(boundary10, tmp_path):
    path = tmp_path / "boundary.csv"
    write_boundary(boundary10, path)
    lines = path.read_text().splitlines()
    start = 1 + max(n for n, line in enumerate(lines) if line.startswith("#")) + 1
    body = lines[start:]
    order = np.random.default_rng(0).permutation(len(body))
    path.write_text("\n".join(lines[:start] + [body[n] for n in order]) + "\n")
    back = read_boundary(path)
    for face in FACE_ORDER:
        np.testing.assert_array_equal(back.g[face], boundary10.g[face])
        np.testing.assert_array_equal(back.g2[face], boundary10.g2[face])
    np.testing.assert_array_equal(back.g4, boundary10.g4)


def test_truncated_boundary_file_is_rejected(boundary10, tmp_path):
    path = tmp_path / "boundary.csv"
    write_boundary(boundary10, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-40]) + "\n")
    with pytest.raises(UsageError):
        read_boundary(path)


def test_boundary_file_of_another_neumann_sign_is_refused(boundary10, tmp_path):
    path = tmp_path / "boundary.csv"
    write_boundary(boundary10, path)
    text = path.read_text()
    assert "# neumann_sign=rederived\n" in text
    path.write_text(text.replace("# neumann_sign=rederived\n", "# neumann_sign=printed\n"))
    with pytest.raises(UsageError, match="neumann_sign=printed"):
        read_boundary(path)


def test_pair_round_trip_is_bit_exact(objective10, tmp_path):
    pair = objective10.apply_constraints(objective10.initial_guess())
    path = tmp_path / "pair.csv"
    write_pair(pair, path)
    back = read_pair(path)
    np.testing.assert_array_equal(back.p, pair.p)
    np.testing.assert_array_equal(back.q, pair.q)
    assert back.grid.shape_medium == pair.grid.shape_medium


def test_reconstruction_round_trip_is_bit_exact(objective10, kernel, tmp_path):
    pair = objective10.apply_constraints(objective10.initial_guess())
    rec = recover_attenuation(pair, kernel)
    path = tmp_path / "reconstruction.csv"
    write_reconstruction(rec, path)
    back = read_reconstruction(path)
    np.testing.assert_array_equal(back.attenuation, rec.attenuation)
    np.testing.assert_array_equal(back.absorber, rec.absorber)
    assert back.mu_s_value == rec.mu_s_value


def test_iterations_round_trip(tmp_path):
    history = np.array(
        [[0, 1.5, 0.31, 0.0], [1, 1.2, 0.11, 0.5], [2, 1.19, 0.009, 1.0]]
    )
    path = tmp_path / "iterations.csv"
    write_iterations(history, path, meta={"h": "0.1"})
    np.testing.assert_array_equal(read_iterations(path), history)


def test_iterations_reader_checks_the_header(tmp_path):
    path = tmp_path / "iterations.csv"
    path.write_text("step,loss\n1,2.0\n")
    with pytest.raises(UsageError):
        read_iterations(path)


def test_probe_tables_are_parseable(objective10, tmp_path):
    grid = GridSet.uniform(Geometry(), 0.05)
    report = empirical_carleman_constant(4, 0, grid)
    cpath = tmp_path / "ratios.csv"
    write_carleman_table(report, cpath)
    rows = [r.split(",") for r in cpath.read_text().splitlines() if not r.startswith("#")]
    assert rows[0] == ["lam", "sample", "lhs", "interior", "boundary", "ratio"]
    assert len(rows) - 1 == len(LAMBDAS) * 4
    assert all(np.isfinite(float(r[5])) for r in rows[1:])

    sweep = convexity_sweep(objective10, count=3, seed=0)
    vpath = tmp_path / "convexity.csv"
    write_convexity_table(sweep, vpath)
    rows = [r.split(",") for r in vpath.read_text().splitlines() if not r.startswith("#")]
    assert rows[0] == ["couple", "gap_forward", "gap_reverse", "bound", "gradient_ratio"]
    assert len(rows) - 1 == 3
    gaps = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
    np.testing.assert_array_equal(gaps, sweep.gaps)


@pytest.fixture(scope="module")
def corrupted_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupted")


# Reader and index columns of each CSV artifact.
ARTIFACTS = {
    "boundary.csv": (read_boundary, (1, 2)),
    "iterations.csv": (read_iterations, ()),
    "pair.csv": (read_pair, (0, 1, 2)),
    "reconstruction.csv": (read_reconstruction, (0, 1)),
}

# Any text that stays within one cell of one line.
CELL_TEXT = st.text(
    st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"), exclude_characters=",")
)


def _axis_size(rows, cells, col):
    """One past the largest index in column ``col``; boundary rows only
    count rows of the same face."""
    face = None if cells[0].isdigit() else cells[0]
    return 1 + max(int(r[col]) for r in rows if face is None or r[0] == face)


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupted_artifacts_read_or_raise_usage_errors(desk_run, corrupted_dir, name, data):
    reader, index_cols = ARTIFACTS[name]
    lines = (desk_run / name).read_text().splitlines()
    body = [n for n, line in enumerate(lines) if not line.startswith("#")][1:]
    rows = [lines[n].split(",") for n in body]
    kinds = ["truncate", "replace", "drop"] + (["index"] if index_cols else [])
    kind = data.draw(st.sampled_from(kinds), label="corruption")
    if kind == "drop":
        del lines[data.draw(st.integers(0, len(lines) - 1), label="line")]
    else:
        n = data.draw(st.sampled_from(body), label="row")
        cells = lines[n].split(",")
        if kind == "truncate":
            lines[n] = lines[n][: data.draw(st.integers(0, len(lines[n]) - 1), label="length")]
        elif kind == "replace":
            col = data.draw(st.integers(0, len(cells) - 1), label="cell")
            cells[col] = data.draw(CELL_TEXT, label="text")
            lines[n] = ",".join(cells)
        else:
            col = data.draw(st.sampled_from(index_cols), label="cell")
            cells[col] = str(data.draw(st.sampled_from([-1, _axis_size(rows, cells, col)])))
            lines[n] = ",".join(cells)
    path = corrupted_dir / name
    path.write_text("\n".join(lines) + "\n")
    try:
        reader(path)
    except UsageError as exc:
        assert str(path) in str(exc)


@pytest.mark.parametrize(
    "name, col", [("boundary.csv", 3), ("pair.csv", 4), ("reconstruction.csv", 2)]
)
def test_unparsable_coordinate_cell_is_refused(desk_run, tmp_path, name, col):
    lines = (desk_run / name).read_text().splitlines()
    n = [n for n, line in enumerate(lines) if not line.startswith("#")][1]
    cells = lines[n].split(",")
    cells[col] = "garbage"
    lines[n] = ",".join(cells)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UsageError, match="garbage"):
        ARTIFACTS[name][0](path)


@pytest.mark.parametrize(
    "name, col",
    [("boundary.csv", 6), ("iterations.csv", 1), ("pair.csv", 6), ("reconstruction.csv", 4)],
)
def test_repeated_row_is_refused(desk_run, tmp_path, name, col):
    lines = (desk_run / name).read_text().splitlines()
    cells = lines[-1].split(",")
    cells[col] = "123.5"
    path = tmp_path / name
    path.write_text("\n".join(lines + [",".join(cells)]) + "\n")
    with pytest.raises(UsageError, match="more than one row") as exc:
        ARTIFACTS[name][0](path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize(
    "name, col, cell",
    [
        # the nan cases keep their original ids
        pytest.param(name, col, cell, id=f"{name}-{col}" + ("" if cell == "nan" else f"-{cell}"))
        for name, col in (("boundary.csv", 7), ("pair.csv", 6), ("reconstruction.csv", 4))
        for cell in ("nan", "inf", "-inf")
    ],
)
def test_nan_value_cell_is_refused(desk_run, tmp_path, name, col, cell):
    lines = (desk_run / name).read_text().splitlines()
    cells = lines[-1].split(",")
    cells[col] = cell
    path = tmp_path / name
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    with pytest.raises(UsageError, match="non-finite value") as exc:
        ARTIFACTS[name][0](path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize(
    "name, extra, key",
    [("boundary.csv", "# delta=0.5", "delta"), ("metrics.txt", "contrast=9", "contrast")],
)
def test_repeated_key_is_refused(desk_run, tmp_path, name, extra, key):
    lines = (desk_run / name).read_text().splitlines()
    at = 1 if extra.startswith("#") else len(lines)
    path = tmp_path / name
    path.write_text("\n".join(lines[:at] + [extra] + lines[at:]) + "\n")
    reader = read_boundary if name == "boundary.csv" else read_keyvalues
    with pytest.raises(UsageError, match=f"repeated key '{key}'") as exc:
        reader(path)
    assert str(path) in str(exc.value)


def _write_table_per_row(path, head, columns, cells):
    """The table writer as it was before it formatted each distinct cell
    once: one ``%`` per row, the oracle for byte identity."""
    cells = [np.asarray(col) for col in cells]
    row = ",".join(serialize._FLOAT if col.dtype.kind == "f" else "%s" for col in cells)
    lines = [*serialize._meta_lines(head), ",".join(columns), *(row % entry for entry in zip(*cells))]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1.0, 0.1 + 0.2]
_LENGTHS = [0, 1, 2, serialize._BLOCK - 1, serialize._BLOCK, serialize._BLOCK + 1, 2 * serialize._BLOCK + 7]


@st.composite
def _tables(draw):
    """Columns of one drawn length: floats (with -0.0 and 0.0 in one
    column, subnormals, infinities and nan), ints and strs, each drawn
    from a small pool so that cells repeat."""
    n = draw(st.sampled_from(_LENGTHS) | st.integers(0, 40), label="rows")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    pools = {
        "f": st.lists(st.floats() | st.sampled_from(_SPECIAL_FLOATS), min_size=1, max_size=12),
        "i": st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=12),
        "s": st.lists(st.text(st.characters(exclude_categories=("Cs",)), max_size=6), min_size=1, max_size=6),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(pools)), min_size=1, max_size=5), label="kinds")
    cells = [[0.0, -0.0] * (n // 2) + [-0.0] * (n % 2)]
    for kind in kinds:
        pool = draw(pools[kind], label=kind)
        picks = rng.integers(0, len(pool), n)
        cells.append(np.array(pool, dtype={"f": float, "i": np.int64, "s": str}[kind])[picks])
    return [f"c{c}" for c in range(len(cells))], [np.asarray(col) for col in cells]


@settings(max_examples=80, deadline=None)
@given(table=_tables())
def test_table_writer_matches_the_per_row_formatter(tmp_path_factory, table):
    columns, cells = table
    base = tmp_path_factory.mktemp("tables")
    head = {"h": "0.1", "note": "x"}
    serialize._write_table(base / "new.csv", head, columns, cells)
    _write_table_per_row(base / "old.csv", head, columns, cells)
    assert (base / "new.csv").read_bytes() == (base / "old.csv").read_bytes()


def test_every_artifact_writer_matches_the_per_row_formatter(tmp_path, monkeypatch):
    """The desk session's files are byte-identical to the ones the per-row
    writer gives."""
    cfg = tmp_path / "desk.cfg"
    cfg.write_text("h_forward=0.1\nh_inverse=0.1\ndelta=0.05\nseed=3\n")
    out = tmp_path / "run"

    def session():
        run = ["--config", str(cfg), "--out", str(out)]
        for argv in (["forward", *run], ["invert", *run], ["score", "--run", str(out)],
                     ["verify", "--samples", "3", "--pairs", "3", *run]):
            assert main(argv) == 0
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        shutil.rmtree(out)
        return files

    files = session()
    monkeypatch.setattr(serialize, "_write_table", _write_table_per_row)
    assert session() == files
    assert {"boundary.csv", "forward.csv", "iterations.csv", "pair.csv", "reconstruction.csv",
            "ratios.csv", "convexity.csv"} <= files.keys()


def _per_cell(path, cols, kind, sizes):
    """What the readers did before converting per distinct text: every
    cell through parse_value, row by row."""
    rows = [[parse_value(path, text, kind, size) for text, size in zip(row, sizes)] for row in zip(*cols)]
    return [np.array(col, dtype=np.int64 if kind is int else float) for col in zip(*rows)]


_NUMBER_TEXT = (
    st.integers(-3, 40).map(str)
    | st.floats().map(fnum)
    | st.sampled_from(["9" * 30, "1.5", "-0", " 3", "3_0", "nan", "-inf", "1e3", "\u0663"])
)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([int, float]),
    size=st.integers(1, 30),
    pool=st.lists(_NUMBER_TEXT | CELL_TEXT, min_size=1, max_size=8),
    picks=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=150), min_size=1, max_size=3),
)
@example(kind=int, size=11, pool=["9" * 30], picks=[[0]])
@example(kind=int, size=11, pool=["3", "1.5"], picks=[[0] * 80 + [1]])
@example(kind=int, size=11, pool=["4", "-0", " 3", "3_0"], picks=[[0] * 70 + [1, 2, 3]])
def test_column_reader_reads_and_refuses_what_parse_value_does(kind, size, pool, picks):
    path = "table.csv"
    n = min(len(p) for p in picks)
    cols = [[pool[i % len(pool)] for i in p[:n]] for p in picks]
    sizes = [size if kind is int else None] * len(cols)
    try:
        expected = _per_cell(path, cols, kind, sizes)
    except UsageError as exc:
        with pytest.raises(UsageError) as got:
            serialize._columns(path, cols, kind, sizes)
        assert str(got.value) == str(exc)
    else:
        arrays = serialize._columns(path, cols, kind, sizes)
        assert len(arrays) == len(expected)
        for got, want in zip(arrays, expected):
            assert got.dtype == (np.int64 if kind is int else float)
            assert got.tobytes() == want.astype(got.dtype).tobytes()


@pytest.mark.parametrize(
    "name, col", [("boundary.csv", 3), ("pair.csv", 4), ("reconstruction.csv", 2)]
)
def test_unparsable_coordinate_cell_in_the_last_row_is_refused(desk_run, tmp_path, name, col):
    # The first row's texts are the first a column reader sees; this one
    # comes after every repeat of its column's valid texts.
    lines = (desk_run / name).read_text().splitlines()
    cells = lines[-1].split(",")
    cells[col] = "garbage"
    path = tmp_path / name
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    with pytest.raises(UsageError, match="cannot read 'garbage' as float"):
        ARTIFACTS[name][0](path)
