"""Text artifacts round-trip bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtetomo import RunConfig, UsageError, config_hash, recover_attenuation
from rtetomo.boundary import FACE_ORDER
from rtetomo.carleman import convexity_sweep, empirical_carleman_constant
from rtetomo.geometry import Geometry, GridSet
from rtetomo.serialize import (
    fnum,
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
    report = empirical_carleman_constant(4, (2.0, 5.0), 0, grid=grid)
    cpath = tmp_path / "ratios.csv"
    write_carleman_table(report, cpath)
    rows = [r.split(",") for r in cpath.read_text().splitlines() if not r.startswith("#")]
    assert rows[0] == ["lam", "sample", "lhs", "interior", "boundary", "ratio"]
    assert len(rows) - 1 == 2 * 4
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


@pytest.mark.parametrize("name, col", [("boundary.csv", 7), ("pair.csv", 6), ("reconstruction.csv", 4)])
def test_nan_value_cell_is_refused(desk_run, tmp_path, name, col):
    lines = (desk_run / name).read_text().splitlines()
    cells = lines[-1].split(",")
    cells[col] = "nan"
    path = tmp_path / name
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    with pytest.raises(UsageError, match="nan value") as exc:
        ARTIFACTS[name][0](path)
    assert str(path) in str(exc.value)
