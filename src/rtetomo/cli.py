"""Command-line front end: synthesize, invert, verify, score.

``forward`` runs the transport solver for the configured phantom and
writes the derived boundary data; ``invert`` reads such data, minimizes
the weighted objective, and writes the recovered maps with metrics;
``verify`` runs the property suite (gradient check, convexity sweep,
weighted-estimate sweep) and fails loudly when any check breaks;
``score`` recomputes metrics for a finished run directory.

Exit codes: 0 success, 1 usage problems, 2 numerical failures, 3 failed
property verification.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .boundary import check_acquisition_grid, derive_boundary_data, downsample_boundary, extract_boundary
from .carleman import BALL_RADIUS, LAMBDAS, convexity_sweep, empirical_carleman_constant, gradient_check
from .config import RunConfig, config_hash, load_config
from .errors import NumericalError, UsageError, VerificationError
from .forward import solve_forward
from .geometry import GridSet
from .inverse import CarlemanObjective, check_inversion_grid, minimize
from .phantom import make_phantom
from .recovery import recover_attenuation, score
from .serialize import (
    fnum,
    read_boundary,
    read_keyvalues,
    read_reconstruction,
    write_boundary,
    write_carleman_table,
    write_convexity_table,
    write_iterations,
    write_keyvalues,
    write_manifest,
    write_pair,
    write_reconstruction,
    write_sweeps,
)

VERIFY_STEP = 0.1
# The estimate probe's grid step; every geometry the VERIFY_STEP grid
# accepts is also a multiple of it.
ESTIMATE_STEP = 1.0 / 40.0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; remap onto the usage exit code."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _positive_int(text):
    """A count flag's value: a whole number of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expects a positive integer, got {text!r}")
    return int(text)


def _add_common(sp):
    sp.add_argument("--config", help="key=value configuration file")
    sp.add_argument("--seed", help="run seed feeding every named stream")
    sp.add_argument("--delta", help="multiplicative boundary noise level")
    sp.add_argument("--letter", help="absorber letter (A, SZ, OMEGA, or none)")
    sp.add_argument("--ca", dest="c_a", help="absorber level inside the letter")
    sp.add_argument("--lambda", dest="lam", help="weight exponent")
    sp.add_argument("--gamma", help="Tikhonov weight")
    sp.add_argument("--epsilon", help="viscosity")
    sp.add_argument("--out", help="output directory")


def build_parser():
    parser = _Parser(prog="rtetomo", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    fwd = sub.add_parser("forward", help="synthesize boundary data for the configured phantom")
    _add_common(fwd)
    inv = sub.add_parser("invert", help="reconstruct the attenuation from boundary data")
    _add_common(inv)
    inv.add_argument("--data", help="directory holding boundary.csv (default: the output directory)")
    ver = sub.add_parser("verify", help="run the gradient, convexity, and estimate checks")
    _add_common(ver)
    ver.add_argument("--samples", type=_positive_int, default=50, help="estimate-sweep sample count")
    ver.add_argument("--pairs", type=_positive_int, default=100, help="convexity-sweep couple count")
    sco = sub.add_parser("score", help="recompute metrics for a finished run directory")
    sco.add_argument("--run", required=True, help="run directory with reconstruction.csv and manifest.txt")
    return parser


def _configure(args):
    # Every flag's dest is the attribute it sets; flags left unset are None,
    # and load_config reads the others' text as it reads file values.
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    cfg = load_config(args.config, **flags)
    # A destination that cannot hold the artifacts is refused before any
    # command computes.
    if Path(cfg.out).exists() and not Path(cfg.out).is_dir():
        raise UsageError(f"out={cfg.out!r} exists and is not a directory")
    return cfg


def _refuse_other_run(path, verb, recorded, expected):
    """Refuse the file at ``path`` unless every value it records equals the
    expected one; both mappings are keyed by config attribute."""
    differ = [
        f"{key}={value!r} (config: {expected[key]!r})"
        for key, value in recorded.items()
        if value != expected[key]
    ]
    if differ:
        raise UsageError(f"{path} was {verb} with " + ", ".join(differ))


def _synthesize(cfg, grid):
    """Boundary data of the configured phantom, solved on ``grid``; returns
    (data, solver info)."""
    phantom = make_phantom(cfg.letter, cfg.c_a, grid, cfg.mu_s)
    field, info = solve_forward(phantom, cfg.source, cfg.kernel, grid, return_info=True)
    bds = derive_boundary_data(
        extract_boundary(field), grid, cfg.kernel, mu_s_value=cfg.mu_s, delta=cfg.delta, seed=cfg.seed
    )
    return bds, info


def cmd_forward(args):
    cfg = _configure(args)
    out = Path(cfg.out)
    bds, info = _synthesize(cfg, GridSet.uniform(cfg.geometry, cfg.h_forward))
    meta = {"config_hash": config_hash(cfg)}
    write_boundary(bds, out / "boundary.csv", meta=meta)
    write_sweeps(info["diffs"], out / "forward.csv", meta=meta)
    write_manifest(cfg, out / "manifest.txt")
    print(
        f"forward: {info['sweeps']} sweeps on {bds.grid.shape_medium} nodes, "
        f"wrote {out / 'boundary.csv'}"
    )
    return 0


def cmd_invert(args):
    cfg = _configure(args)
    out = Path(cfg.out)
    data_dir = Path(args.data) if args.data else out
    path = data_dir / "boundary.csv"
    bds = read_boundary(path)
    # Every acquisition value the file records, under the config key it
    # came from; noiseless data do not depend on the seed.
    fine = bds.grid
    recorded = dict(vars(fine.geometry), h_forward=fine.h, delta=bds.delta, mu_s=bds.attenuation_trace)
    if bds.delta > 0:
        recorded["seed"] = bds.seed
    _refuse_other_run(path, "acquired", recorded, vars(cfg))
    coarse = downsample_boundary(bds, cfg.downsample_factor)
    objective = CarlemanObjective(
        coarse, cfg.kernel, mu_s_value=cfg.mu_s, lam=cfg.lam, gamma=cfg.gamma, epsilon=cfg.epsilon
    )
    state = minimize(objective)
    rec = recover_attenuation(state.pair, cfg.kernel, mu_s_value=cfg.mu_s)
    mask = make_phantom(cfg.letter, cfg.c_a, coarse.grid, cfg.mu_s).mask
    metrics = score(rec, mask, cfg.c_a, mu_s_value=cfg.mu_s)
    meta = {"config_hash": config_hash(cfg)}
    write_iterations(state.history, out / "iterations.csv", meta=meta)
    write_pair(state.pair, out / "pair.csv", meta=meta)
    write_reconstruction(rec, out / "reconstruction.csv", meta=meta)
    write_keyvalues(
        out / "metrics.txt",
        {
            **metrics,
            "iterations": state.iterations,
            "objective": state.value,
            "grad_inf": state.grad_norm,
            "converged": str(bool(state.converged)).lower(),
        },
        meta=meta,
    )
    write_manifest(cfg, out / "manifest.txt")
    print(
        f"invert: {state.iterations} iteration(s) on {coarse.grid.shape_medium} nodes, "
        f"J={state.value:.6e}, grad={state.grad_norm:.3e}, "
        f"contrast={metrics['contrast']:.3f}"
    )
    if not state.converged:
        raise NumericalError(f"descent stopped after {state.iterations} iteration(s) without converging")
    return 0


def cmd_verify(args):
    cfg = _configure(args)
    out = Path(cfg.out)
    # The probe grid must suit both stencils, as the run's two grids must,
    # so a configuration verify cannot probe is refused before it solves.
    try:
        grid = GridSet.uniform(cfg.geometry, VERIFY_STEP)
        check_acquisition_grid(grid)
        check_inversion_grid(grid)
    except UsageError as exc:
        raise UsageError(f"verify step {VERIFY_STEP!r}: {exc}") from None
    bds, _ = _synthesize(cfg, grid)
    objective = CarlemanObjective(
        bds, cfg.kernel, mu_s_value=cfg.mu_s, lam=cfg.lam, gamma=cfg.gamma, epsilon=cfg.epsilon
    )

    # Each verdict is written so that a NaN fails it.
    failures = []
    errors = gradient_check(objective, seed=cfg.seed)
    grad_max = float(np.max(errors))
    if not grad_max < 1e-5:
        failures.append(f"gradient check: max relative error {grad_max:.3e} >= 1e-5")

    # (count, 4): gap_forward, gap_reverse, bound, gradient_ratio
    sweep = convexity_sweep(objective, count=args.pairs, seed=cfg.seed)
    margin = float(np.min(sweep[:, :2] - sweep[:, 2:3]))
    if not margin >= 0.0:
        failures.append(f"convexity: gap fell below the bound by {-margin:.3e}")

    estimate_grid = GridSet.uniform(cfg.geometry, ESTIMATE_STEP)
    # (lam, sample, 4): lhs, interior, boundary, ratio; NaN ratios are excluded
    sides = empirical_carleman_constant(args.samples, cfg.seed, estimate_grid)
    ratios = sides[..., 3]
    minima = np.fmin.reduce(ratios, axis=1).tolist()
    used = np.count_nonzero(~np.isnan(ratios), axis=1).tolist()
    bad = [lam for lam, ratio in zip(LAMBDAS, minima) if not ratio > 0.0]
    if bad:
        failures.append(f"estimate sweep: nonpositive minimum ratio at lam in {bad}")

    body = {
        "gradient_directions": str(errors.size),
        "gradient_max_rel_error": grad_max,
        "convexity_pairs": str(args.pairs),
        "convexity_min_margin": margin,
        "convexity_max_gradient_ratio": float(np.max(sweep[:, 3])),
        "carleman_samples": str(args.samples),
    }
    for lam, ratio, n in zip(LAMBDAS, minima, used):
        tag = format(lam, "g")
        body[f"carleman_min_ratio_lam_{tag}"] = ratio
        body[f"carleman_used_lam_{tag}"] = str(n)
        body[f"carleman_excluded_lam_{tag}"] = str(args.samples - n)
    body["passed"] = str(not failures).lower()
    meta = {"config_hash": config_hash(cfg)}
    write_keyvalues(out / "report.txt", body, meta={**meta, "verify_step": format(VERIFY_STEP, ".17g")})
    seed = str(cfg.seed)
    write_carleman_table(sides, out / "ratios.csv", meta={"samples": str(args.samples), "seed": seed, **meta})
    write_convexity_table(sweep, out / "convexity.csv", meta={"radius": fnum(BALL_RADIUS), "seed": seed, **meta})
    print(
        f"verify: gradient {grad_max:.3e}, convexity margin {margin:.3e}, "
        f"estimate minima {[round(ratio, 2) for ratio in minima]}, "
        f"wrote {out / 'report.txt'}"
    )
    if failures:
        raise VerificationError("; ".join(failures))
    return 0


def cmd_score(args):
    run = Path(args.run)
    path = run / "manifest.txt"
    # The manifest is the run's configuration, hash included: a value the
    # configuration's rules refuse, or one changed since, is not scored.
    try:
        cfg = load_config(path)
    except UsageError as exc:
        raise UsageError(str(exc) if str(path) in str(exc) else f"{path}: {exc}") from None
    path = run / "reconstruction.csv"
    rec = read_reconstruction(path)
    recorded = dict(vars(rec.grid.geometry), h_inverse=rec.grid.h, mu_s=rec.mu_s_value)
    _refuse_other_run(path, "reconstructed", recorded, vars(cfg))
    mask = make_phantom(cfg.letter, cfg.c_a, rec.grid, cfg.mu_s).mask
    metrics = score(rec, mask, cfg.c_a, mu_s_value=cfg.mu_s)
    # Keys score does not recompute (the descent's diagnostics) and meta lines stay as written.
    out = run / "metrics.txt"
    kept, meta = read_keyvalues(out) if out.is_file() else ({}, {})
    write_keyvalues(out, {**kept, **metrics}, meta={**meta, "config_hash": config_hash(cfg)})
    for key, value in metrics.items():
        print(f"{key}={format(value, '.17g') if isinstance(value, float) else value}")
    return 0


_COMMANDS = {
    "forward": cmd_forward,
    "invert": cmd_invert,
    "verify": cmd_verify,
    "score": cmd_score,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
