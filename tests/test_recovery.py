"""Attenuation recovery and the scoring metrics."""

import numpy as np
import pytest

from rtetomo import (
    PairField,
    UsageError,
    computed_contrast,
    letter_mask,
    recover_attenuation,
    score,
    support_centroid,
)
from rtetomo import recovery
from rtetomo.recovery import mask_centroid


def test_truth_pair_recovers_the_phantom(truth_pair20, grid20, kernel, monkeypatch):
    monkeypatch.setattr(recovery, "SMOOTH_PASSES", 0)
    recon = recover_attenuation(truth_pair20, kernel)
    metrics = score(recon, letter_mask("A", grid20), 5.0)
    assert metrics["true_contrast"] == 2.0
    # differentiation error of the exact log field concentrates at stroke
    # edges; the bulk values are right, so contrast and centroid are sharp
    assert 1.8 <= metrics["contrast"] <= 2.3
    assert metrics["centroid_offset_cells"] < 0.5
    assert metrics["l2_rel"] < 0.5


def test_recovery_is_shift_invariant(truth_pair20, grid20, kernel):
    shifted = PairField(truth_pair20.p + 3.0, truth_pair20.q.copy(), grid20)
    base = recover_attenuation(truth_pair20, kernel)
    moved = recover_attenuation(shifted, kernel)
    # a(x) depends on grad p and on p only through e^{-p} int G e^{p},
    # so constant shifts of the log field cancel exactly
    np.testing.assert_allclose(moved.attenuation, base.attenuation, atol=1e-10)


def test_absorber_is_attenuation_minus_background(truth_pair20, kernel):
    recon = recover_attenuation(truth_pair20, kernel, mu_s_value=5.0)
    np.testing.assert_array_equal(recon.absorber, recon.attenuation - 5.0)
    assert recon.mu_s_value == 5.0


def test_smoothing_shrinks_top_face_ripples(truth_pair20, grid20, kernel, monkeypatch):
    smooth = recover_attenuation(truth_pair20, kernel)
    monkeypatch.setattr(recovery, "SMOOTH_PASSES", 0)
    raw = recover_attenuation(truth_pair20, kernel)
    top_raw = np.abs(raw.absorber[:, -1])
    top_smooth = np.abs(smooth.absorber[:, -1])
    assert top_smooth.max() < top_raw.max()


def test_computed_contrast_values():
    assert computed_contrast(np.array([0.0, 5.0])) == 2.0
    assert computed_contrast(np.array([-3.0, -1.0])) == 1.0
    assert computed_contrast(np.array([10.0]), mu_s_value=5.0) == 3.0
    with pytest.raises(UsageError):
        computed_contrast(np.array([1.0]), mu_s_value=0.0)


def test_support_centroid_and_mask_centroid(grid20):
    mask = letter_mask("A", grid20)
    values = np.where(mask, 2.0, 0.0)
    c_sup = support_centroid(values, grid20)
    c_mask = mask_centroid(mask, grid20)
    np.testing.assert_allclose(c_sup, c_mask, atol=1e-14)
    assert support_centroid(np.zeros_like(values), grid20) is None
    assert mask_centroid(np.zeros_like(mask, dtype=bool), grid20) is None


def test_score_of_the_exact_absorber_is_zero(grid20):
    from rtetomo.recovery import Reconstruction

    mask = letter_mask("A", grid20)
    absorber = np.where(mask, 5.0, 0.0)
    recon = Reconstruction(
        attenuation=absorber + 5.0, absorber=absorber, mu_s_value=5.0, grid=grid20
    )
    metrics = score(recon, mask, 5.0)
    assert metrics["l2_rel"] == 0.0
    assert metrics["contrast"] == 2.0
    assert metrics["centroid_offset"] == 0.0
    assert metrics["centroid_offset_cells"] == 0.0


def test_score_of_a_doubled_absorber(grid20):
    from rtetomo.recovery import Reconstruction

    mask = letter_mask("A", grid20)
    absorber = np.where(mask, 10.0, 0.0)
    recon = Reconstruction(
        attenuation=absorber + 5.0, absorber=absorber, mu_s_value=5.0, grid=grid20
    )
    metrics = score(recon, mask, 5.0)
    np.testing.assert_allclose(metrics["l2_rel"], 1.0, atol=1e-12)
    assert metrics["contrast"] == 3.0
    assert metrics["centroid_offset"] == 0.0


def test_score_with_empty_supports(grid20):
    from rtetomo.recovery import Reconstruction

    empty = np.zeros((grid20.x1.size, grid20.z.size))
    recon = Reconstruction(
        attenuation=empty + 5.0, absorber=empty, mu_s_value=5.0, grid=grid20
    )
    mask = letter_mask("A", grid20)
    metrics = score(recon, mask, 5.0)
    assert np.isnan(metrics["centroid_offset"])
    assert np.isnan(metrics["centroid_offset_cells"])
    assert metrics["l2_rel"] == 1.0
    no_truth = score(recon, np.zeros_like(mask, dtype=bool), 0.0)
    assert no_truth["l2_rel"] == 0.0
