"""Configuration handling and the four subcommands end to end."""

import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rtetomo
from rtetomo import (
    Geometry,
    GridSet,
    KernelModel,
    PairField,
    Reconstruction,
    RunConfig,
    SourceModel,
    UsageError,
    config_hash,
    derive_boundary_data,
    downsample_boundary,
    extract_boundary,
    load_config,
    make_phantom,
    solve_forward,
)
from rtetomo.cli import _configure, build_parser, main
from rtetomo.config import config_lines, geometry_of
from rtetomo.serialize import (
    read_boundary,
    read_keyvalues,
    read_manifest,
    read_pair,
    read_reconstruction,
    write_manifest,
    write_pair,
    write_reconstruction,
)


def test_default_configuration_is_the_production_study():
    cfg = RunConfig()
    assert cfg.half_width == 0.5
    assert (cfg.slab_bottom, cfg.slab_top) == (1.0, 2.0)
    assert cfg.source_half_width == 0.5
    assert cfg.sigma == 0.05
    assert cfg.anisotropy == 0.5
    assert cfg.mu_s == 5.0
    assert (cfg.letter, cfg.c_a) == ("A", 5.0)
    assert (cfg.h_forward, cfg.h_inverse) == (0.025, 0.05)
    assert cfg.downsample_factor == 2
    assert (cfg.lam, cfg.gamma, cfg.epsilon) == (5.0, 1e-3, 1e-2)
    assert (cfg.delta, cfg.seed, cfg.out) == (0.0, 0, "run")
    assert cfg.geometry == Geometry() and cfg.kernel == KernelModel()
    assert vars(cfg.source) == vars(SourceModel.build(0.05))


def test_configuration_validation():
    with pytest.raises(UsageError):
        RunConfig(h_forward=0.04, h_inverse=0.05)
    with pytest.raises(UsageError):
        RunConfig(letter="Q")
    with pytest.raises(UsageError):
        RunConfig(letter="A", c_a=0.0)
    with pytest.raises(UsageError):
        RunConfig(gamma=1.0)
    with pytest.raises(UsageError):
        RunConfig(out="")
    with pytest.raises(UsageError, match="seed must be an integer"):
        RunConfig(seed=2.5)
    for mu_s in (0.0, -1.0):
        with pytest.raises(UsageError, match="mu_s must be positive"):
            RunConfig(mu_s=mu_s)
    for steps in ({"h_forward": 0.0}, {"h_forward": -0.025}, {"h_inverse": -0.05}):
        with pytest.raises(UsageError, match="grid steps must be positive"):
            RunConfig(**steps)
    with pytest.raises(UsageError, match="noise level delta must be non-negative"):
        RunConfig(delta=-0.01)
    assert RunConfig(letter=None, c_a=0.0).letter is None


def test_geometry_off_the_ray_lattice_is_refused_before_forward_writes(tmp_path, capsys):
    # At h=0.1 the medium's x1 nodes sit half a step off the lattice over
    # P = [-0.75, 0.75]; the forward grid (h=0.05) alone would be fine.
    with pytest.raises(UsageError, match="h_inverse=0.1: medium x1 nodes are off the rays' lattice"):
        RunConfig(source_half_width=0.75, h_forward=0.05, h_inverse=0.1)
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("source_half_width=0.75\nh_forward=0.05\nh_inverse=0.1\n")
    out = tmp_path / "run"
    assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 1
    assert "off the rays' lattice" in capsys.readouterr().err
    assert not out.exists()


def test_zero_scattering_is_refused_before_forward_writes(tmp_path, capsys):
    cfg = tmp_path / "clear.cfg"
    cfg.write_text("h_forward=0.1\nh_inverse=0.1\nmu_s=0\n")
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 1
    assert "mu_s must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("h_forward=1\nh_inverse=1\n", "h_forward=1.0: grid (2, 2, 2) too coarse for the boundary stencils"),
        (
            "h_forward=0.1\nh_inverse=0.1\nsource_half_width=0.05\n",
            "h_forward=0.1: grid (11, 11, 2) too coarse for the boundary stencils",
        ),
        ("h_forward=0.5\nh_inverse=0.5\n", "h_inverse=0.5: grid (3, 3, 3) too small for the inversion stencils"),
    ],
    ids=["unit-step", "narrow-sources", "half-step"],
)
def test_grids_too_coarse_for_the_stencils_are_refused_before_forward_writes(tmp_path, capsys, text, message):
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(text)
    with pytest.raises(UsageError, match=re.escape(message)):
        load_config(cfg)
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# desk-scale study\n"
        "h_forward=0.05\n"
        "h_inverse=0.1\n"
        "lambda=7.5\n"
        "letter=none\n"
        "c_a=0\n"
        "seed=4\n"
        "\n"
        "out=results  # trailing comment\n"
    )
    cfg = load_config(path)
    assert cfg.h_forward == 0.05 and cfg.h_inverse == 0.1
    assert cfg.lam == 7.5
    assert cfg.letter is None
    assert cfg.seed == 4
    assert cfg.out == "results"
    assert "lambda=7.5" in config_lines(cfg)
    assert not any(line.startswith("lam=") for line in config_lines(cfg))


@pytest.mark.parametrize("out", ["r#1", " r", "r ", "a\nb", "a\rb"])
def test_out_the_config_grammar_cannot_hold_is_refused(tmp_path, monkeypatch, capsys, out):
    import rtetomo.cli as cli

    with pytest.raises(UsageError, match=r"^out=.* must hold no '#' or line break"):
        RunConfig(out=out)
    monkeypatch.setattr(cli, "solve_forward", _refuse_to_solve)
    monkeypatch.chdir(tmp_path)
    assert main(["forward", "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: out={out!r} must hold")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["run", "my run/1", "a=b"])
def test_a_manifest_reads_back_its_out(tmp_path, out):
    cfg = RunConfig(h_forward=0.1, h_inverse=0.1, out=out)
    write_manifest(cfg, tmp_path / "manifest.txt")
    back = load_config(tmp_path / "manifest.txt")
    assert back.out == out and back == cfg


@pytest.mark.parametrize(
    "text",
    [
        "turbo=1\n",
        "seed=1\nseed=2\n",
        "gamma=fast\n",
        "just words\n",
        "seed=one\n",
    ],
)
def test_config_file_rejects_bad_lines(tmp_path, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(UsageError):
        load_config(path)


FLOAT_KEYS = ["lambda" if f.name == "lam" else f.name for f in fields(RunConfig) if f.type is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_values_are_usage_errors(tmp_path, capsys, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key}={value}\n")
    with pytest.raises(UsageError, match=f"{key} must be finite"):
        load_config(path)
    assert main(["forward", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert f"{key} must be finite" in capsys.readouterr().err


def test_negative_seed_in_the_config_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("h_forward=0.1\nh_inverse=0.1\ndelta=0.05\nseed=-3\n")
    with pytest.raises(UsageError, match="seed must be non-negative"):
        load_config(path)
    assert main(["forward", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["forward", "verify"])
def test_negative_seed_flag_exits_one(tmp_path, capsys, command):
    cfg_file = tmp_path / "noisy.cfg"
    cfg_file.write_text("h_forward=0.1\nh_inverse=0.1\ndelta=0.05\n")
    argv = [command, "--config", str(cfg_file), "--seed", "-1", "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    assert "seed must be non-negative" in capsys.readouterr().err


CONFIG_KEYS = ["lambda" if f.name == "lam" else f.name for f in fields(RunConfig)]
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_VALUES = st.one_of(
    _TEXT,
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["", "none", "A", "1e308", "1e-308", "5e-324", "-0", "0x10", "1_0", "9" * 5000]),
)
_LINES = st.one_of(
    st.tuples(st.one_of(st.sampled_from(CONFIG_KEYS), _TEXT), _VALUES).map("=".join),
    _TEXT,
)
_CONFIG_BYTES = st.one_of(
    st.lists(_LINES, max_size=6).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.binary(max_size=40),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=_CONFIG_BYTES)
def test_any_config_text_loads_or_is_a_usage_error(tmp_path, blob):
    path = tmp_path / "any.cfg"
    path.write_bytes(blob)
    try:
        cfg = load_config(path)
    except UsageError:
        return
    assert isinstance(cfg, RunConfig)


@pytest.mark.parametrize("half_width", ["57474674.0", "1.4411518807585588e+16", "1e308"])
def test_grid_too_large_to_hold_is_a_usage_error(tmp_path, half_width):
    path = tmp_path / "wide.cfg"
    path.write_text(f"half_width={half_width}\n")
    with pytest.raises(UsageError, match="x1 span .* needs more than 100000 nodes"):
        load_config(path)


@pytest.mark.parametrize(
    "text",
    ["h_forward=5e-324\nh_inverse=1\n", "h_forward=1e-300\nh_inverse=1e300\n"],
)
def test_step_ratio_overflow_is_a_usage_error(tmp_path, text):
    path = tmp_path / "steps.cfg"
    path.write_text(text)
    with pytest.raises(UsageError, match="integer multiple"):
        load_config(path)


def test_undecodable_config_is_a_usage_error(tmp_path):
    path = tmp_path / "latin.cfg"
    path.write_bytes("letter=\u00c5\n".encode("latin-1"))
    with pytest.raises(UsageError, match="cannot read config"):
        load_config(path)


def test_missing_config_file_is_a_usage_error(tmp_path):
    with pytest.raises(UsageError):
        load_config(tmp_path / "absent.cfg")
    assert main(["forward", "--config", str(tmp_path / "absent.cfg")]) == 1


def test_overrides_drop_none_and_coerce_text():
    cfg = RunConfig()
    same = load_config(seed=None, delta=None)
    assert same == cfg
    bumped = load_config(seed="3", delta="0.1", letter="OMEGA")
    assert bumped.seed == 3 and bumped.delta == 0.1 and bumped.letter == "OMEGA"
    assert load_config(letter="none").letter is None
    with pytest.raises(UsageError):
        load_config(c_a="-1")
    with pytest.raises(UsageError):
        load_config(c_a="much")


def test_unparsable_file_value_names_its_line_even_under_a_flag(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("h_forward=0.1\nh_inverse=0.1\ngamma=fast\n")
    with pytest.raises(UsageError, match=r"bad\.cfg:3: gamma expects a number, got 'fast'"):
        load_config(path, gamma=1e-3)
    out = tmp_path / "run"
    assert main(["forward", "--config", str(path), "--gamma", "0.001", "--out", str(out)]) == 1
    assert f"{path}:3: gamma expects a number" in capsys.readouterr().err
    assert not out.exists()


def test_range_rules_apply_to_the_merged_configuration(tmp_path):
    path = desk_config(tmp_path, "c_a=-1\n")
    with pytest.raises(UsageError):
        load_config(path)
    assert load_config(path, c_a=10.0).c_a == 10.0
    out = tmp_path / "run"
    assert main(["forward", "--config", str(path), "--ca", "10", "--out", str(out)]) == 0
    assert read_manifest(out / "manifest.txt")["c_a"] == "10"


def test_each_command_builds_one_configuration(desk_run, tmp_path, monkeypatch):
    calls = []
    original = RunConfig.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(RunConfig, "__post_init__", counted)
    out = tmp_path / "run"
    common = ["--config", str(desk_run / "desk.cfg"), "--seed", "3", "--out"]
    argvs = {
        "forward": ["forward", *common, str(out)],
        "invert": ["invert", *common, str(out)],
        "score": ["score", "--run", str(out)],
        "verify": ["verify", *common, str(tmp_path / "lab"), "--samples", "3", "--pairs", "3"],
    }
    for command, argv in argvs.items():
        calls.clear()
        assert main(argv) == 0, command
        assert len(calls) == 1, command


def test_hash_ignores_the_destination_only():
    assert config_hash(RunConfig(out="a")) == config_hash(RunConfig(out="b"))
    assert config_hash(RunConfig(seed=1)) != config_hash(RunConfig(seed=2))
    assert config_hash(RunConfig(lam=5.0)) != config_hash(RunConfig(lam=5.5))
    assert len(config_hash(RunConfig())) == 16


def test_lambda_flag_maps_to_the_weight_exponent():
    cfg = _configure(build_parser().parse_args(["invert", "--lambda", "7", "--ca", "10"]))
    assert cfg.lam == 7.0
    assert cfg.c_a == 10.0


def test_unknown_flag_exits_one(capsys):
    assert main(["forward", "--turbo"]) == 1
    assert "error:" in capsys.readouterr().err
    # a flag's value is read as a file value is
    assert main(["forward", "--gamma", "fast"]) == 1
    assert capsys.readouterr().err == "error: gamma expects a number, got 'fast'\n"
    assert main([]) == 1
    capsys.readouterr()


def desk_config(tmp_path, extra=""):
    path = tmp_path / "desk.cfg"
    path.write_text("h_forward=0.1\nh_inverse=0.1\ndelta=0.05\nseed=3\n" + extra)
    return path


def test_forward_invert_score_flow(tmp_path, capsys):
    cfg_file = desk_config(tmp_path)
    out = tmp_path / "run"
    assert main(["forward", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert (out / "boundary.csv").is_file()
    manifest = read_manifest(out / "manifest.txt")
    expected = load_config(cfg_file, out=str(out))
    assert manifest["config_hash"] == config_hash(expected)

    assert main(["invert", "--config", str(cfg_file), "--out", str(out)]) == 0
    for name in ("iterations.csv", "pair.csv", "reconstruction.csv", "metrics.txt"):
        assert (out / name).is_file()
    metrics, meta = read_keyvalues(out / "metrics.txt")
    for key in (
        "l2_rel", "contrast", "true_contrast", "centroid_offset",
        "centroid_offset_cells", "iterations", "objective", "grad_inf", "converged",
    ):
        assert key in metrics
    assert metrics["converged"] in ("true", "false")
    assert meta["config_hash"] == config_hash(expected)

    written = (out / "metrics.txt").read_bytes()
    capsys.readouterr()
    assert main(["score", "--run", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "contrast=" in printed
    # score recomputes five keys in place and keeps the descent's diagnostics
    assert (out / "metrics.txt").read_bytes() == written
    (out / "metrics.txt").unlink()
    assert main(["score", "--run", str(out)]) == 0
    rescored, _ = read_keyvalues(out / "metrics.txt")
    assert list(rescored) == ["l2_rel", "contrast", "true_contrast", "centroid_offset", "centroid_offset_cells"]
    assert rescored["contrast"] == metrics["contrast"]


def test_forward_writes_its_sweep_history(desk_run, capsys):
    cfg = load_config(desk_run / "desk.cfg")
    grid = GridSet.uniform(geometry_of(cfg), cfg.h_forward)
    phantom = make_phantom(cfg.letter, cfg.c_a, grid, cfg.mu_s)
    _, info = solve_forward(phantom, SourceModel.build(cfg.sigma), KernelModel(), grid, return_info=True)
    lines = (desk_run / "forward.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash={config_hash(cfg)}"
    assert lines[1] == "sweep,update,ratio"
    rows = [line.split(",") for line in lines[2:]]
    assert [int(r[0]) for r in rows] == list(range(1, info["sweeps"] + 1))
    updates = [float(r[1]) for r in rows]
    assert updates == info["diffs"]
    assert rows[0][2] == "nan"
    assert [float(r[2]) for r in rows[1:]] == [b / a for a, b in zip(updates, updates[1:])]

    out = desk_run.parent / f"{desk_run.name}-again"
    capsys.readouterr()
    assert main(["forward", "--config", str(desk_run / "desk.cfg"), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith(f"forward: {info['sweeps']} sweeps on {grid.shape_medium} nodes, wrote ")
    shutil.rmtree(out)


@pytest.mark.parametrize(
    "command, name, old, new",
    [
        ("invert", "boundary.csv", "bottom,0,0,", "bottom,0,"),
        ("invert", "boundary.csv", "bottom,0,0,", "bottom,99,0,"),
        ("invert", "boundary.csv", "bottom,0,0,", "bottom,x,0,"),
        ("score", "manifest.txt", "c_a=5\n", "c_a=five\n"),
        ("score", "reconstruction.csv", "\n0,0,", "\n0,"),
        ("score", "manifest.txt", "mu_s=5\n", "mu_s=nan\n"),
        ("score", "manifest.txt", "mu_s=5\n", "mu_s=inf\n"),
        ("score", "manifest.txt", "c_a=5\n", "c_a=inf\n"),
    ],
    ids=["truncated-row", "index-99", "index-x", "c_a-five", "truncated-reconstruction",
         "mu_s-nan", "mu_s-inf", "c_a-inf"],
)
def test_malformed_artifacts_exit_one(desk_run, tmp_path, capsys, command, name, old, new):
    out = tmp_path / "run"
    shutil.copytree(desk_run, out)
    cfg_file = desk_config(tmp_path)
    text = (out / name).read_text()
    assert old in text
    (out / name).write_text(text.replace(old, new, 1))
    capsys.readouterr()
    argv = ["--config", str(cfg_file), "--out", str(out)] if command == "invert" else ["--run", str(out)]
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


def test_invert_checks_the_acquisition_step(tmp_path):
    cfg_file = desk_config(tmp_path)
    out = tmp_path / "run"
    assert main(["forward", "--config", str(cfg_file), "--out", str(out)]) == 0
    mismatched = tmp_path / "fine.cfg"
    mismatched.write_text("h_forward=0.05\nh_inverse=0.1\ndelta=0.05\nseed=3\n")
    assert main(["invert", "--config", str(mismatched), "--out", str(out)]) == 1


@pytest.mark.parametrize(
    "changes",
    [
        {"h_forward": "0.05"},
        {"half_width": "1"},
        {"slab_top": "2.5"},
        {"delta": "0.1"},
        {"seed": "9"},
        {"mu_s": "4"},
        {"mu_s": "4", "seed": "9", "letter": "SZ"},
    ],
    ids=lambda changes: "-".join(changes),
)
def test_invert_refuses_data_from_another_configuration(desk_run, tmp_path, capsys, changes):
    keys = {"h_forward": "0.1", "h_inverse": "0.1", "delta": "0.05", "seed": "3", **changes}
    cfg_file = tmp_path / "other.cfg"
    cfg_file.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["invert", "--config", str(cfg_file), "--data", str(desk_run), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {desk_run / 'boundary.csv'} was acquired with ")
    # letter is not recorded in the data, so it is not compared
    named = [key for key in changes if key != "letter"]
    assert [part.split("=")[0] for part in err.split(" with ")[1].split(", ")] == named
    assert not out.exists()


def test_noise_free_data_ignore_the_seed(tmp_path):
    cfg_file = tmp_path / "quiet.cfg"
    cfg_file.write_text("h_forward=0.1\nh_inverse=0.1\ndelta=0\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ["forward", "--config", str(cfg_file)]
    assert main(base + ["--seed", "1", "--out", str(out_a)]) == 0
    assert main(base + ["--seed", "2", "--out", str(out_b)]) == 0
    bds_a = read_boundary(out_a / "boundary.csv")
    bds_b = read_boundary(out_b / "boundary.csv")
    for face in ("bottom", "top", "left", "right"):
        np.testing.assert_array_equal(bds_a.g[face], bds_b.g[face])
    assert bds_a.seed == 1 and bds_b.seed == 2
    # so noiseless data invert under any seed
    assert main(["invert", "--config", str(cfg_file), "--seed", "2", "--data", str(out_a), "--out", str(out_b)]) == 0


def test_supercritical_scattering_exits_two(tmp_path):
    cfg_file = tmp_path / "hot.cfg"
    cfg_file.write_text("h_forward=0.1\nh_inverse=0.1\nmu_s=25\nletter=none\nc_a=0\n")
    assert main(["forward", "--config", str(cfg_file), "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("command", ["forward", "invert", "verify"])
@pytest.mark.parametrize("sigma", ["1.5", "1"])
def test_source_radius_reaching_the_medium_exits_one(tmp_path, capsys, command, sigma):
    # RunConfig refuses it, so no manifest is written that forward could
    # not repeat
    cfg_file = desk_config(tmp_path, f"sigma={sigma}\n")
    capsys.readouterr()
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "run")]) == 1
    assert "source radius" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sigma", ["1e-308", "1e-160"])
def test_source_radius_too_small_to_normalize_exits_one(tmp_path, capsys, sigma):
    cfg_file = desk_config(tmp_path, f"sigma={sigma}\n")
    capsys.readouterr()
    assert main(["forward", "--config", str(cfg_file), "--out", str(tmp_path / "run")]) == 1
    assert "source radius" in capsys.readouterr().err


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rtetomo import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(rtetomo.__all__)
    assert len(set(rtetomo.__all__)) == len(rtetomo.__all__) == 41
    for name in rtetomo.__all__:
        assert namespace[name] is getattr(rtetomo, name)


def test_cli_import_leaves_scipy_out():
    """Start-up pays for numpy only; scipy serves the tests."""
    paths = [str(Path(rtetomo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = "import sys, rtetomo.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_unconverged_descent_writes_its_artifacts_and_exits_two(desk_run, tmp_path, monkeypatch, capsys):
    import rtetomo.cli as cli

    original = cli.minimize
    monkeypatch.setattr(cli, "minimize", lambda objective: original(objective, grad_tol=0.0, max_iters=1))
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(desk_run / "boundary.csv", out)
    capsys.readouterr()
    assert main(["invert", "--config", str(desk_run / "desk.cfg"), "--out", str(out)]) == 2
    assert "descent stopped after 1 iteration(s)" in capsys.readouterr().err
    for name in ("iterations.csv", "pair.csv", "reconstruction.csv", "metrics.txt", "manifest.txt"):
        assert (out / name).is_file()
    metrics, _ = read_keyvalues(out / "metrics.txt")
    assert (metrics["converged"], metrics["iterations"]) == ("false", "1")


def test_verify_writes_a_report_and_passes(tmp_path):
    out = tmp_path / "lab"
    code = main(["verify", "--samples", "5", "--pairs", "5", "--out", str(out)])
    assert code == 0
    report, meta = read_keyvalues(out / "report.txt")
    assert report["passed"] == "true"
    assert float(report["gradient_max_rel_error"]) < 1e-5
    assert float(report["convexity_min_margin"]) >= 0.0
    for tag in ("2", "5", "10"):
        assert float(report[f"carleman_min_ratio_lam_{tag}"]) > 0.0
    assert meta["verify_step"] == "0.10000000000000001"
    # verify labels the probes' tables: the meta lines the sweeps ran with,
    # then the run's hash
    head = f"# config_hash={meta['config_hash']}\n"
    assert (out / "ratios.csv").read_text().startswith("# samples=5\n# seed=0\n" + head + "lam,sample,")
    assert (out / "convexity.csv").read_text().startswith("# radius=10\n# seed=0\n" + head + "couple,")


def test_verify_probes_the_configured_geometry(tmp_path, monkeypatch):
    import rtetomo.cli as cli

    grids = []
    original = cli.empirical_carleman_constant

    def spy(samples, seed, grid=None):
        grids.append(grid)
        return original(samples, seed, grid)

    monkeypatch.setattr(cli, "empirical_carleman_constant", spy)
    cfg_file = tmp_path / "wide.cfg"
    cfg_file.write_text("half_width=1.0\n")
    argv = ["verify", "--config", str(cfg_file), "--samples", "3", "--pairs", "3", "--out", str(tmp_path / "lab")]
    assert main(argv) == 0
    (grid,) = grids
    assert grid is not None
    assert grid.geometry == geometry_of(load_config(cfg_file))
    assert (grid.h, grid.x1[0], grid.x1[-1]) == (1.0 / 40.0, -1.0, 1.0)


def test_broken_gradient_exits_three(tmp_path, monkeypatch):
    import rtetomo.cli as cli

    monkeypatch.setattr(cli, "gradient_check", lambda *a, **k: np.ones(20))
    out = tmp_path / "lab"
    code = main(["verify", "--samples", "3", "--pairs", "3", "--out", str(out)])
    assert code == 3
    report, _ = read_keyvalues(out / "report.txt")
    assert report["passed"] == "false"


def _failing_convexity(original):
    def sweep(*a, **k):
        out = original(*a, **k)
        out[:, 2] += 1e6  # the bound column
        return out

    return sweep


def _failing_estimate(original):
    def probe(*a, **k):
        sides = original(*a, **k)
        sides[..., 3] = -1.0  # the ratio column
        return sides

    return probe


def _nan_gradient(original):
    return lambda *a, **k: np.full(20, np.nan)


def _nan_gap(original):
    def sweep(*a, **k):
        out = original(*a, **k)
        out[0, 0] = np.nan
        return out

    return sweep


@pytest.mark.parametrize(
    "name, patch, named",
    [
        ("convexity_sweep", _failing_convexity, "convexity: gap fell below the bound"),
        ("empirical_carleman_constant", _failing_estimate, "estimate sweep: nonpositive minimum ratio"),
        ("gradient_check", _nan_gradient, "gradient check: max relative error nan"),
        ("convexity_sweep", _nan_gap, "convexity: gap fell below the bound by nan"),
    ],
    ids=["convexity", "estimate", "nan-gradient", "nan-gap"],
)
def test_failed_probe_exits_three(tmp_path, monkeypatch, capsys, name, patch, named):
    import rtetomo.cli as cli

    monkeypatch.setattr(cli, name, patch(getattr(cli, name)))
    out = tmp_path / "lab"
    capsys.readouterr()
    assert main(["verify", "--samples", "3", "--pairs", "3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("verification failed: ") and named in err
    report, _ = read_keyvalues(out / "report.txt")
    assert report["passed"] == "false"


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("\nc_a=5\n", "\nc_a=6\n", "config_hash"),
        # without its hash line a manifest is a plain config file
        ("\nmu_s=5\n", "\nmu_s=nan\n", "mu_s must be finite"),
    ],
    ids=["changed-since-hash", "unhashed"],
)
def test_score_checks_the_whole_manifest(desk_run, tmp_path, capsys, old, new, named):
    out = tmp_path / "run"
    shutil.copytree(desk_run, out)
    manifest = out / "manifest.txt"
    text = manifest.read_text()
    assert old in text
    text = text.replace(old, new)
    if named != "config_hash":
        text = "\n".join(line for line in text.splitlines() if not line.startswith("config_hash="))
    manifest.write_text(text)
    written = (out / "metrics.txt").read_bytes()
    capsys.readouterr()
    assert main(["score", "--run", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}") and err.count("manifest.txt") == 1
    assert named in err
    assert (out / "metrics.txt").read_bytes() == written


@pytest.mark.parametrize(
    "geometry, h, mu_s, named",
    [
        (Geometry(), 0.05, 5.0, "h_inverse=0.05 (config: 0.1)"),
        (Geometry(half_width=1.0), 0.1, 5.0, "half_width=1.0 (config: 0.5)"),
        (Geometry(), 0.1, 4.0, "mu_s=4.0 (config: 5.0)"),
    ],
    ids=["h", "geometry", "mu_s"],
)
def test_score_refuses_a_reconstruction_from_another_run(desk_run, tmp_path, capsys, geometry, h, mu_s, named):
    out = tmp_path / "run"
    shutil.copytree(desk_run, out)
    grid = GridSet.uniform(geometry, h)
    ones = np.ones(grid.shape_medium[:2])
    path = out / "reconstruction.csv"
    write_reconstruction(Reconstruction(ones, 0.0 * ones, mu_s, grid), path)
    written = (out / "metrics.txt").read_bytes()
    capsys.readouterr()
    assert main(["score", "--run", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} was reconstructed with ") and named in err
    assert (out / "metrics.txt").read_bytes() == written


def test_score_accepts_the_step_invert_reconstructs_on(tmp_path):
    # invert reconstructs on h_forward * 7 = 0.19999999999999998, one ulp
    # below 0.2; the manifest records that step, and so do pair.csv and
    # reconstruction.csv
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"h_forward={1 / 35!r}\nh_inverse=0.2\n")
    out = tmp_path / "run"
    for command in ("forward", "invert"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["score", "--run", str(out)]) == 0
    steps = [read_manifest(out / "manifest.txt")["h_inverse"]]
    for name in ("pair.csv", "reconstruction.csv"):
        steps += [line[len("# h="):] for line in (out / name).read_text().splitlines() if line.startswith("# h=")]
    assert steps == [format(1 / 35 * 7, ".17g")] * 3


def test_config_checks_the_inversion_grid_invert_builds(monkeypatch, tmp_path):
    steps = []
    check = rtetomo.config.check_inversion_grid

    def spy(grid):
        steps.append(grid.h)
        return check(grid)

    monkeypatch.setattr(rtetomo.config, "check_inversion_grid", spy)
    cfg = RunConfig(h_forward=1 / 70, h_inverse=0.1)
    # the grid invert reconstructs on, as its pair.csv records it
    fine = GridSet.uniform(cfg.geometry, cfg.h_forward)
    data = derive_boundary_data(extract_boundary(np.ones(fine.shape_medium)), fine, cfg.kernel)
    coarse = downsample_boundary(data, cfg.downsample_factor).grid
    zeros = np.zeros(coarse.shape_medium)
    write_pair(PairField(zeros, zeros, coarse), tmp_path / "pair.csv")
    recorded = read_pair(tmp_path / "pair.csv").grid.h
    # one step, the product, where 0.1 itself is one ulp away
    assert steps == [recorded] == [cfg.h_inverse] == [1 / 70 * 7] != [0.1]


def test_score_reads_a_run_annotated_by_hand(desk_run, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(desk_run, out)
    for name in ("manifest.txt", "metrics.txt"):
        with open(out / name, "a") as f:
            f.write("# checked by hand\n")
    assert main(["score", "--run", str(out)]) == 0
    assert read_manifest(out / "manifest.txt") == read_manifest(desk_run / "manifest.txt")


def test_score_keeps_the_meta_lines_of_metrics(desk_run, tmp_path):
    # config_hash is rewritten where it stands; a '#' line without '=' is
    # a comment and is dropped
    out = tmp_path / "run"
    shutil.copytree(desk_run, out)
    lines = (desk_run / "metrics.txt").read_text().splitlines()
    (out / "metrics.txt").write_text("\n".join(lines + ["# reviewer=me", "# checked by hand"]) + "\n")
    assert main(["score", "--run", str(out)]) == 0
    assert (out / "metrics.txt").read_text().splitlines() == [lines[0], "# reviewer=me", *lines[1:]]


def test_a_manifest_is_a_config_file(desk_run, tmp_path):
    out = tmp_path / "again"
    assert main(["forward", "--config", str(desk_run / "manifest.txt"), "--out", str(out)]) == 0
    assert (out / "boundary.csv").read_bytes() == (desk_run / "boundary.csv").read_bytes()
    assert read_manifest(out / "manifest.txt")["out"] == str(out)


@pytest.mark.parametrize(
    "command, name, tail",
    [("score", "metrics.txt", None), ("invert", "boundary.csv", b"\xff")],
    ids=["score-metrics", "invert-boundary"],
)
def test_undecodable_artifacts_exit_one(desk_run, tmp_path, capsys, command, name, tail):
    out = tmp_path / "run"
    shutil.copytree(desk_run, out)
    # a byte-order mark of UTF-16 alone, or one stray byte after the data
    (out / name).write_bytes(b"\xff\xfe" if tail is None else (out / name).read_bytes() + tail)
    argv = ["--config", str(desk_run / "desk.cfg"), "--out", str(out)] if command == "invert" else ["--run", str(out)]
    capsys.readouterr()
    assert main([command, *argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {out / name}: ")


def test_commands_use_no_locale_encoding(tmp_path):
    """A desk session under EncodingWarning-as-error: every artifact is
    opened with an explicit encoding."""
    cfg = desk_config(tmp_path)
    code = (
        "import sys\n"
        "from rtetomo.cli import main\n"
        "cfg = sys.argv[1]\n"
        "for argv in (['forward', '--config', cfg, '--out', 'run'], ['invert', '--config', cfg, '--out', 'run'],\n"
        "             ['score', '--run', 'run'],\n"
        "             ['verify', '--config', cfg, '--samples', '3', '--pairs', '3', '--out', 'lab']):\n"
        "    if main(argv) != 0:\n"
        "        sys.exit(f'{argv[0]} failed')\n"
    )
    paths = [str(Path(rtetomo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    flags = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, str(cfg)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run" / "metrics.txt").is_file() and (tmp_path / "lab" / "report.txt").is_file()


def _refuse_to_solve(*args, **kwargs):
    raise AssertionError("solve_forward was called")


@pytest.mark.parametrize("command", ["forward", "verify"])
def test_out_that_is_not_a_directory_is_refused_before_solving(tmp_path, monkeypatch, capsys, command):
    import rtetomo.cli as cli

    monkeypatch.setattr(cli, "solve_forward", _refuse_to_solve)
    cfg_file = desk_config(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    capsys.readouterr()
    assert main([command, "--config", str(cfg_file), "--out", str(afile)]) == 1
    assert capsys.readouterr().err == f"error: out={str(afile)!r} exists and is not a directory\n"
    assert afile.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "desk.cfg"]


@pytest.mark.parametrize("flag", ["--samples", "--pairs"])
@pytest.mark.parametrize("value", ["0", "-2", "many"])
def test_verify_counts_are_positive_integers_checked_before_solving(tmp_path, monkeypatch, capsys, flag, value):
    import rtetomo.cli as cli

    monkeypatch.setattr(cli, "solve_forward", _refuse_to_solve)
    out = tmp_path / "lab"
    capsys.readouterr()
    assert main(["verify", "--config", str(desk_config(tmp_path)), flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: rtetomo verify: argument {flag}: expects a positive integer, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("source_half_width=0.05\n", "grid (11, 11, 2) too coarse for the boundary stencils (3 x1, 3 alpha nodes)"),
        ("half_width=0.525\n", "x1 span 1.05 is not a multiple of step 0.1"),
        ("slab_top=1.3\n", "grid (11, 4, 11) too small for the inversion stencils"),
    ],
    ids=["narrow-source", "off-step-width", "thin-slab"],
)
def test_verify_refuses_a_probe_grid_before_solving(tmp_path, monkeypatch, capsys, text, message):
    import rtetomo.cli as cli

    monkeypatch.setattr(cli, "solve_forward", _refuse_to_solve)
    cfg_file = tmp_path / "probe.cfg"
    cfg_file.write_text(text)
    out = tmp_path / "lab"
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: verify step 0.1: {message}\n"
    assert not out.exists()
