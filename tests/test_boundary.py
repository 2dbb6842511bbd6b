"""Boundary traces, noise, and the derived inversion data."""

import numpy as np
import pytest

from rtetomo import (
    UsageError,
    add_noise,
    derive_boundary_data,
    downsample_boundary,
    extract_boundary,
)
from rtetomo.boundary import FACE_ORDER
from rtetomo.forward import scatter_matrix
from rtetomo.seeding import stream
from rtetomo.stencils import diff_axis, second_diff_axis


def test_extract_boundary_shapes_and_values(field10, grid10):
    faces = extract_boundary(field10)
    n1, nz, nk = grid10.shape_medium
    assert faces["bottom"].shape == faces["top"].shape == (n1, nk)
    assert faces["left"].shape == faces["right"].shape == (nz - 2, nk)
    np.testing.assert_array_equal(faces["top"], field10[:, -1, :])
    np.testing.assert_array_equal(faces["left"], field10[0, 1:-1, :])


def test_add_noise_bounds_and_determinism(field10):
    faces = extract_boundary(field10)
    noisy = add_noise(faces, 0.05, seed=3)
    again = add_noise(faces, 0.05, seed=3)
    other = add_noise(faces, 0.05, seed=4)
    for name in FACE_ORDER:
        g = faces[name]
        assert np.all(noisy[name] >= g)
        assert np.all(noisy[name] < g * 1.05)
        np.testing.assert_array_equal(noisy[name], again[name])
        assert np.any(noisy[name] != other[name])


def test_add_noise_zero_level_copies(field10):
    faces = extract_boundary(field10)
    clean = add_noise(faces, 0.0, seed=9)
    for name in FACE_ORDER:
        np.testing.assert_array_equal(clean[name], faces[name])
        assert clean[name] is not faces[name]
    with pytest.raises(UsageError):
        add_noise(faces, -0.01, seed=0)


@pytest.mark.parametrize("delta", [-0.1, np.nan, np.inf])
def test_noise_level_must_be_finite_and_non_negative(field10, grid10, kernel, delta):
    # unrefused, derive_boundary_data would return noiseless traces that
    # record the bad delta, and write_boundary would write it out
    faces = extract_boundary(field10)
    with pytest.raises(UsageError, match="noise level delta must be non-negative and finite"):
        derive_boundary_data(faces, grid10, kernel, delta=delta)
    with pytest.raises(UsageError, match="noise level delta must be non-negative and finite"):
        add_noise(faces, delta, seed=0)


def test_derive_applies_the_requested_noise(field10, grid10, kernel):
    faces = extract_boundary(field10)
    clean = derive_boundary_data(faces, grid10, kernel)
    noisy = derive_boundary_data(faces, grid10, kernel, delta=0.05, seed=3)
    assert clean.delta == 0.0 and noisy.delta == 0.05
    assert np.any(noisy.g["top"] != clean.g["top"])
    assert np.any(noisy.g1["top"] != clean.g1["top"])
    np.testing.assert_array_equal(
        noisy.g["top"], add_noise(faces, 0.05, seed=3)["top"]
    )


def test_log_data_and_alpha_quotient(boundary10, field10, grid10):
    np.testing.assert_allclose(boundary10.g1["top"], np.log(field10[:, -1, :]), atol=1e-14)
    # d_alpha ln g and (d_alpha g) / g agree up to the O(h^2) stencil error
    gap = boundary10.g2["top"] - diff_axis(boundary10.g1["top"], grid10.h, axis=1)
    assert np.max(np.abs(gap)) < 0.05


def test_normal_derivative_median_converges(field10, field20, grid10, grid20, kernel):
    def median_error(field, grid):
        bds = derive_boundary_data(extract_boundary(field), grid, kernel)
        lnu = np.log(field)
        oracle = diff_axis(lnu, grid.h, axis=1)[:, -1]
        return float(np.median(np.abs(bds.g3 - oracle)))

    coarse = median_error(field10, grid10)
    fine = median_error(field20, grid20)
    # interior aperture-edge spikes keep the sup norm large; the bulk error
    # is second order, so halving h should quarter the median
    assert fine < 0.25 * coarse
    assert fine < 0.3


def test_attenuation_trace_shifts_g3_by_a_over_nu(field10, grid10, kernel):
    faces = extract_boundary(field10)
    with_trace = derive_boundary_data(faces, grid10, kernel)
    zb = grid10.geometry.slab_top
    dx = grid10.x1[:, None] - grid10.alpha[None, :]
    r = np.hypot(dx, zb)
    # g3 without the a_top term: the tangential and scattering terms alone
    top = faces["top"]
    tangential = -(dx / r) * diff_axis(np.log(top), grid10.h, axis=0)
    scattering = 5.0 * (top @ scatter_matrix(kernel, grid10.alpha, grid10.h).T) / top
    without = (tangential + scattering) / (zb / r)
    np.testing.assert_allclose(without - with_trace.g3, 5.0 * r / zb, atol=1e-10)
    assert with_trace.attenuation_trace == 5.0


def test_derive_rejects_nonpositive_traces(field10, grid10, kernel):
    faces = extract_boundary(field10)
    faces["left"] = faces["left"].copy()
    faces["left"][0, 0] = 0.0
    with pytest.raises(UsageError):
        derive_boundary_data(faces, grid10, kernel)


def test_downsample_restricts_without_recomputing(boundary20, grid10):
    coarse = downsample_boundary(boundary20, 2)
    assert coarse.grid.h == grid10.h
    np.testing.assert_array_equal(coarse.g["top"], boundary20.g["top"][::2, ::2])
    np.testing.assert_array_equal(coarse.g1["left"], boundary20.g1["left"][1::2, ::2])
    np.testing.assert_array_equal(coarse.g3, boundary20.g3[::2, ::2])
    np.testing.assert_array_equal(coarse.g4, boundary20.g4[::2, ::2])
    assert coarse.delta == boundary20.delta


def test_downsample_factor_validation(boundary20, grid10):
    same = downsample_boundary(boundary20, 1)
    np.testing.assert_array_equal(same.g3, boundary20.g3)
    with pytest.raises(UsageError):
        downsample_boundary(boundary20, 3)
    with pytest.raises(UsageError):
        downsample_boundary(boundary20, 0)
    # A fractional factor is refused, not truncated to the integer below it.
    with pytest.raises(UsageError, match="2.5 is not an integer"):
        downsample_boundary(boundary20, 2.5)
    for factor in (2, 2.0):
        assert downsample_boundary(boundary20, factor).grid.h == grid10.h


def test_short_axes_and_unnamed_streams_are_usage_errors():
    # a 3-node axis has a first derivative but no one-sided second one
    f = np.arange(12.0).reshape(3, 4)
    assert diff_axis(f, 0.1, 0).shape == f.shape
    with pytest.raises(UsageError, match="need at least four nodes"):
        second_diff_axis(f, 0.1, 0)
    with pytest.raises(UsageError, match="need at least three nodes"):
        diff_axis(f[:2], 0.1, 0)
    with pytest.raises(UsageError, match="stream name must be a non-empty string"):
        stream(0, "")


# Max / RMS of noisy - clean derived data at delta = 0.05, seed 1, letter
# A: g1 and g2 over every face, g3 and g4 on the top face.  Each finite
# difference of the noisy traces divides their noise by the step, so the
# derivative data grow as h shrinks (Hanke & Scherzer, "Inverse problems
# light: numerical differentiation", Amer. Math. Monthly 108, 2001).
NOISE_AMPLIFICATION = {
    "field20": {"g1": (0.0488, 0.0281), "g2": (1.52, 0.290), "g3": (1.06, 0.205), "g4": (43.8, 4.47)},
    "field40": {"g1": (0.0488, 0.0283), "g2": (3.73, 0.507), "g3": (2.07, 0.221), "g4": (54.7, 7.43)},
}


@pytest.mark.parametrize("fixture, grid", [("field20", "grid20"), ("field40", "grid40")])
def test_noise_amplification_of_the_derived_data(request, fixture, grid, kernel):
    field, grid = request.getfixturevalue(fixture), request.getfixturevalue(grid)
    faces = extract_boundary(field[0] if fixture == "field40" else field)  # field40 carries its solve time
    clean = derive_boundary_data(faces, grid, kernel)
    noisy = derive_boundary_data(faces, grid, kernel, delta=0.05, seed=1)
    measured = {}
    for name in ("g1", "g2", "g3", "g4"):
        diff = [getattr(noisy, name), getattr(clean, name)]
        if name in ("g1", "g2"):
            diff = [np.concatenate([np.ravel(data[face]) for face in FACE_ORDER]) for data in diff]
        err = np.abs(diff[0] - diff[1])
        measured[name] = tuple(float(f"{x:.3g}") for x in (err.max(), np.sqrt(np.mean(err**2))))
    assert measured == NOISE_AMPLIFICATION[fixture]
