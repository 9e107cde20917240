"""Fading downlink model.

Each plant's channel gain is the product of a fixed distance-based
slow component and a per-step Rayleigh fast component. A packet sent
with power alpha over gain h succeeds with probability 1 - exp(-h * alpha).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def place_plants(
    m: int,
    half_width: float,
    rng: np.random.Generator,
    min_distance: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop m plants uniformly in [-half_width, half_width]^2 around the access point.

    Returns (positions (m, 2), distances (m,)). Distances are clamped
    below by min_distance so the path-loss gain stays finite.
    """
    if m < 1:
        raise ValueError("need at least one plant")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    positions = rng.uniform(-half_width, half_width, size=(m, 2))
    distances = np.maximum(np.hypot(positions[:, 0], positions[:, 1]), min_distance)
    return positions, distances


def slow_fading(distances: np.ndarray, path_loss_exponent: float) -> np.ndarray:
    """Distance-based gain d^(-p) per plant."""
    distances = np.asarray(distances, dtype=float)
    if (distances <= 0).any():
        raise ValueError("distances must be positive")
    return distances ** (-path_loss_exponent)


@dataclass
class ChannelModel:
    """Static channel description: plant distances plus fading parameters."""

    distances: np.ndarray
    path_loss_exponent: float = 2.0
    rayleigh_scale: float = 1.0
    slow_gains: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.distances = np.asarray(self.distances, dtype=float)
        if self.distances.ndim != 1 or self.distances.size < 1:
            raise ValueError("distances must be a non-empty 1-D array")
        if self.rayleigh_scale <= 0:
            raise ValueError("rayleigh_scale must be positive")
        self.slow_gains = slow_fading(self.distances, self.path_loss_exponent)

    @property
    def n_plants(self) -> int:
        return self.distances.size

    def sample_gains(self, rng: np.random.Generator) -> np.ndarray:
        """Fresh i.i.d. channel gains: slow gain times a Rayleigh fast-fading draw."""
        fast = rng.rayleigh(scale=self.rayleigh_scale, size=self.n_plants)
        return self.slow_gains * fast


def snr(gains: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Per-plant receive SNR h * alpha. Allocations must be nonnegative."""
    gains = np.asarray(gains, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if gains.shape != alpha.shape:
        raise ValueError(f"gain shape {gains.shape} != allocation shape {alpha.shape}")
    if np.count_nonzero(alpha < 0.0):
        raise ValueError(f"negative allocation: min entry {alpha[alpha < 0.0].min():.3e}")
    return gains * alpha


def delivery_probability(snr_values: np.ndarray) -> np.ndarray:
    """Packet success probability 1 - exp(-snr), elementwise."""
    snr_values = np.asarray(snr_values, dtype=float)
    if np.count_nonzero(snr_values < 0.0):
        raise ValueError("snr must be nonnegative")
    return -np.expm1(-snr_values)
