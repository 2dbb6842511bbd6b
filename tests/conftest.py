"""Shared fixtures: geometries, models, and cached forward solves.

The transport solves dominate the suite's runtime, so every grid's
forward field is computed once per session and shared; tests must treat
fixture arrays as read-only (copy before mutating).
"""

import numpy as np
import pytest

from rtetomo import (
    CarlemanObjective,
    Geometry,
    GridSet,
    KernelModel,
    SourceModel,
    derive_boundary_data,
    extract_boundary,
    make_phantom,
    solve_forward,
)

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_report():
    """Record one pass/fail line per criterion and assert it."""

    def _report(number, ok, detail):
        line = f"criterion {number:2d}: {'pass' if ok else 'FAIL'}  ({detail})"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return _report


@pytest.fixture(scope="session")
def geometry():
    return Geometry()


@pytest.fixture(scope="session")
def source():
    return SourceModel.build(0.05)


@pytest.fixture(scope="session")
def kernel():
    return KernelModel()


@pytest.fixture(scope="session")
def grid10(geometry):
    return GridSet.uniform(geometry, 0.1)


@pytest.fixture(scope="session")
def grid20(geometry):
    return GridSet.uniform(geometry, 0.05)


@pytest.fixture(scope="session")
def field10(grid10, source, kernel):
    """Letter-A forward field on the 11-node desk grid."""
    phantom = make_phantom("A", 5.0, grid10)
    return solve_forward(phantom, source, kernel, grid10)


@pytest.fixture(scope="session")
def field20(grid20, source, kernel):
    """Letter-A forward field on the 21-node desk grid."""
    phantom = make_phantom("A", 5.0, grid20)
    return solve_forward(phantom, source, kernel, grid20)


@pytest.fixture(scope="session")
def field40(geometry, source, kernel):
    """Letter-A forward field at the production acquisition step 1/40,
    returned as (field, solve seconds) so tests can report the cost."""
    import time

    grid = GridSet.uniform(geometry, 0.025)
    phantom = make_phantom("A", 5.0, grid)
    t0 = time.monotonic()
    field = solve_forward(phantom, source, kernel, grid)
    return field, time.monotonic() - t0


@pytest.fixture(scope="session")
def boundary10(field10, grid10, kernel):
    return derive_boundary_data(extract_boundary(field10), grid10, kernel)


@pytest.fixture(scope="session")
def boundary20(field20, grid20, kernel):
    return derive_boundary_data(extract_boundary(field20), grid20, kernel)


@pytest.fixture(scope="session")
def objective10(boundary10, kernel):
    """Default-parameter objective on the 11x11x11 inversion grid."""
    return CarlemanObjective(boundary10, kernel)


@pytest.fixture(scope="session")
def truth_pair20(field20, grid20):
    """Exact log pair (p, q) of the letter-A field at h = 1/20."""
    from rtetomo.inverse import PairField
    from rtetomo.stencils import diff_axis

    p = np.log(field20.values)
    q = diff_axis(p, grid20.h, axis=2)
    return PairField(p, q, grid20)


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """Artifacts of a desk forward + invert run at h = 0.1 with 5% noise.
    Shared: copy the directory before changing anything in it."""
    from rtetomo.cli import main

    out = tmp_path_factory.mktemp("desk")
    cfg = out / "desk.cfg"
    cfg.write_text("h_forward=0.1\nh_inverse=0.1\ndelta=0.05\nseed=3\n")
    for command in ("forward", "invert"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out
