"""Channel model tests: path loss, fading draws, delivery probabilities.

Proves:
  1.  Slow fading follows d^(-p) exactly
  2.  Placement respects the area box and the minimum-distance clamp
  3.  Rayleigh fast fading has the right mean (3-sigma band, 2e5 draws)
  4.  Delivery probability at snr 1 equals 1 - 1/e (frozen constant)
  5.  Delivery probability is monotone in power and saturates at 1
  6.  Empirical delivery frequency tracks 1 - exp(-snr) over 1e5 draws
  7.  Negative allocations are rejected
  8.  Gains compose slow and fast parts multiplicatively and are seeded
  9.  snr and delivery_probability on NaN and empty inputs: a NaN passes
      through unless a negative entry sits beside it (snr's error then
      names the most negative entry), and empty arrays give empty results
"""
from __future__ import annotations

import re

import numpy as np
import pytest

from wcsrl.wireless import (
    ChannelModel,
    delivery_probability,
    place_plants,
    slow_fading,
    snr,
)
from oracles import sample_delivery

DELIVERY_AT_UNIT_SNR = 0.6321205588285577  # 1 - 1/e
RAYLEIGH_UNIT_MEAN = 1.2533141373155003  # sqrt(pi / 2)


def test_slow_fading_power_law():
    d = np.array([0.5, 1.0, 2.0, 10.0])
    assert np.allclose(slow_fading(d, 2.0), [4.0, 1.0, 0.25, 0.01], atol=1e-15)
    assert np.allclose(slow_fading(d, 0.0), np.ones(4), atol=1e-15)


def test_placement_box_and_clamp():
    rng = np.random.Generator(np.random.PCG64(2))
    positions, distances = place_plants(200, 2.5, rng, min_distance=0.1)
    assert positions.shape == (200, 2)
    assert np.all(np.abs(positions) <= 2.5)
    assert np.all(distances >= 0.1)
    # distances match positions except where clamped
    raw = np.linalg.norm(positions, axis=1)
    assert np.allclose(distances, np.maximum(raw, 0.1), atol=1e-15)


def test_rayleigh_mean():
    model = ChannelModel(distances=np.ones(1), path_loss_exponent=2.0, rayleigh_scale=1.0)
    rng = np.random.Generator(np.random.PCG64(9))
    draws = np.array([model.sample_gains(rng)[0] for _ in range(200_000)])
    # mean of Rayleigh(1) is sqrt(pi/2), std sqrt((4-pi)/2)
    sem = np.sqrt((4 - np.pi) / 2) / np.sqrt(draws.size)
    assert abs(draws.mean() - RAYLEIGH_UNIT_MEAN) < 3 * sem
    assert np.all(draws >= 0)


def test_delivery_probability_unit_snr():
    assert delivery_probability(np.array([1.0]))[0] == pytest.approx(
        DELIVERY_AT_UNIT_SNR, abs=1e-15
    )
    assert delivery_probability(np.array([0.0]))[0] == 0.0


def test_delivery_probability_monotone_saturating():
    levels = delivery_probability(np.linspace(0.0, 60.0, 200))
    assert np.all(np.diff(levels) >= 0)
    assert levels[-1] <= 1.0
    assert levels[-1] > 1 - 1e-12
    with pytest.raises(ValueError):
        delivery_probability(np.array([-0.1]))


def test_delivery_frequency_tracks_probability():
    rng = np.random.Generator(np.random.PCG64(17))
    n = 100_000
    for level in (0.25, 1.0, 3.0):
        outcomes = sample_delivery(np.full(n, level), rng)
        p = 1.0 - np.exp(-level)
        band = 3 * np.sqrt(p * (1 - p) / n)
        assert abs(outcomes.mean() - p) < band


def test_snr_rejects_negative_power():
    with pytest.raises(ValueError):
        snr(np.ones(2), np.array([0.5, -0.01]))
    with pytest.raises(ValueError):
        snr(np.ones(2), np.ones(3))


def test_gains_compose_and_seed():
    distances = np.array([1.0, 2.0])
    model = ChannelModel(distances=distances, path_loss_exponent=2.0, rayleigh_scale=1.0)
    assert np.allclose(model.slow_gains, [1.0, 0.25], atol=1e-15)
    g1 = model.sample_gains(np.random.Generator(np.random.PCG64(4)))
    g2 = model.sample_gains(np.random.Generator(np.random.PCG64(4)))
    assert np.array_equal(g1, g2)
    # fast part is the gain divided by the slow part, and is plant-iid
    assert g1.shape == (2,)
    assert np.all(g1 >= 0)


def test_snr_and_delivery_on_nan_and_empty():
    nan = np.nan
    got = snr(np.ones(3), np.array([nan, 0.5, -0.0]))
    assert np.array_equal(got, [nan, 0.5, -0.0], equal_nan=True)
    # a NaN beside the negative entries does not hide the most negative one
    for alpha, least in (([-1.0, nan], "-1.000e+00"), ([nan, -1.0, -3.0], "-3.000e+00"),
                         ([[0.5, nan], [-2.0, 1.0]], "-2.000e+00")):
        alpha = np.array(alpha)
        with pytest.raises(ValueError, match=re.escape(f"negative allocation: min entry {least}")):
            snr(np.ones(alpha.shape), alpha)
    with pytest.raises(ValueError, match=re.escape("negative allocation: min entry -2.000e+00")):
        snr(np.ones((2, 2)), np.array([[0.5, 1.0], [-2.0, 1.0]]))
    assert np.isnan(delivery_probability(np.array(nan)))
    assert np.array_equal(delivery_probability(np.array([nan, 0.0])), [nan, 0.0], equal_nan=True)
    for values in ([-1.0, nan], [nan, -1.0], -1.0):
        with pytest.raises(ValueError, match="snr must be nonnegative"):
            delivery_probability(np.array(values))
    for shape in ((0,), (2, 0)):
        assert snr(np.ones(shape), np.ones(shape)).shape == shape
        assert delivery_probability(np.ones(shape)).shape == shape
