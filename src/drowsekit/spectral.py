"""Welch PSD estimation and the per-session EEG feature matrix.

Per channel, an epoch yields the absolute power (in microvolts squared)
of the five classic bands and the relative power of each band against
the 0.1..40 Hz total, for 10 features per channel and 40 per epoch.
The Welch settings are the reference method's and fixed (Hann segments of
``DEFAULT_NFFT`` samples, 50% overlap). ``extract_features`` computes one
Welch PSD per epoch over all channels and integrates every band over the
whole session at once; the result is bit-identical to integrating each
channel's PSD on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.signal import welch

from .errors import DegeneratePower, TooShort
from .features import FeatureMatrix
from .preprocess import Epochs
from .session import EEG_CHANNELS, EEG_SAMPLE_RATE_HZ

# Welch segment length of the reference method, in samples.
DEFAULT_NFFT = 1024

# Total power over this range is the denominator of every relative power.
TOTAL_BAND_HZ = (0.1, 40.0)

# Below this total power (in uV^2) an epoch is considered degenerate.
DEGENERATE_POWER_UV2 = 1e-12


@dataclass(frozen=True)
class Band:
    """A named frequency band, half-open conventions resolved by integration."""

    name: str
    lo_hz: float
    hi_hz: float


BANDS = (
    Band("delta", 0.1, 4.0),
    Band("theta", 4.0, 8.0),
    Band("alpha", 8.0, 13.0),
    Band("beta", 13.0, 30.0),
    Band("gamma", 30.0, 40.0),
)

FEATURE_KINDS = ("abs", "rel")


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided power spectral density on a uniform frequency grid.

    Density is in uV^2/Hz and window-power compensated, so the integral
    over the full grid matches the mean square of the signal.
    """

    freqs_hz: np.ndarray
    density: np.ndarray


def eeg_feature_names(channel_names: Sequence[str] = EEG_CHANNELS) -> tuple[str, ...]:
    """Feature names in column order, like ``TP9_delta_abs``.

    Ordering is channel-major: for each channel (TP9, AF7, AF8, TP10),
    for each band (delta..gamma), the absolute then the relative power.
    The last entry (index 39) is the TP10 gamma relative power.
    """
    return tuple(
        f"{ch}_{band.name}_{kind}"
        for ch in channel_names
        for band in BANDS
        for kind in FEATURE_KINDS
    )


def welch_psd(samples: np.ndarray) -> PsdEstimate:
    """Estimate a one-sided PSD of 256 Hz EEG by Welch's method.

    Segments are ``DEFAULT_NFFT`` samples long, Hann windowed, 50%
    overlapped, and their periodograms averaged; a 30 s epoch yields 14
    segments. No detrending is applied, so DC power is preserved and the
    integral of the density equals the signal's mean square.

    Raises:
        TooShort: Fewer samples than one segment.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[-1] < DEFAULT_NFFT:
        raise TooShort(f"need at least {DEFAULT_NFFT} samples, got {samples.shape[-1]}")
    freqs, density = welch(
        samples,
        fs=EEG_SAMPLE_RATE_HZ,
        window="hann",
        nperseg=DEFAULT_NFFT,
        noverlap=DEFAULT_NFFT // 2,
        nfft=DEFAULT_NFFT,
        detrend=False,
        scaling="density",
        return_onesided=True,
    )
    return PsdEstimate(freqs_hz=freqs, density=density)


def _interp_at(f: np.ndarray, density: np.ndarray, x: float) -> np.ndarray:
    """``np.interp(x, f, d)`` for every 1-D slice ``d`` along the last axis.

    Uses np.interp's own arithmetic, so the values match it bit for bit.
    ``x`` must lie within ``[f[0], f[-1]]``.
    """
    j = int(np.searchsorted(f, x))
    if f[j] == x:
        return density[..., j]
    slope = (density[..., j] - density[..., j - 1]) / (f[j] - f[j - 1])
    return slope * (x - f[j - 1]) + density[..., j - 1]


def _integrate(psd: PsdEstimate, lo_hz: float, hi_hz: float) -> np.ndarray:
    """Trapezoidal integral of the density over [lo, hi] along the last axis.

    The grid is augmented with linearly interpolated points at the exact
    band edges, so adjacent bands share edge mass half-half and partition
    the total exactly. The result has the density's leading shape.
    """
    f = psd.freqs_hz
    lo = max(lo_hz, float(f[0]))
    hi = min(hi_hz, float(f[-1]))
    if hi <= lo:
        return np.zeros(psd.density.shape[:-1])
    inner = (f > lo) & (f < hi)
    grid = np.concatenate(([lo], f[inner], [hi]))
    # Masking the last axis yields a non-C memory order that np.concatenate
    # keeps; a C-contiguous integrand sums each row in the same order as a
    # lone 1-D density, which keeps batched and per-channel results
    # bit-identical.
    dens = np.ascontiguousarray(np.concatenate(
        (_interp_at(f, psd.density, lo)[..., None], psd.density[..., inner],
         _interp_at(f, psd.density, hi)[..., None]), axis=-1))
    return np.trapezoid(dens, grid, axis=-1)


def extract_features(epochs: Epochs, session_id: str = "") -> FeatureMatrix:
    """Compute the 40 features of each filtered, kept epoch of a session.

    Returns one row per epoch, in epoch order, with the columns of
    ``eeg_feature_names()``; no epochs give a ``(0, 40)`` matrix. The
    Welch PSD is taken one epoch at a time, which keeps its temporaries
    epoch-sized.

    Raises:
        DegeneratePower: Any channel's total power is degenerate.
    """
    names = eeg_feature_names()
    n = len(epochs)
    values = np.empty((0, len(names)))
    if n:
        psds = [welch_psd(x) for x in epochs.samples]
        psd = PsdEstimate(freqs_hz=psds[0].freqs_hz, density=np.stack([p.density for p in psds]))
        powers = np.stack([_integrate(psd, b.lo_hz, b.hi_hz) for b in BANDS]
                          + [_integrate(psd, *TOTAL_BAND_HZ)], axis=-1)
        absolute, total = powers[..., :-1], powers[..., -1]
        degenerate = np.argwhere(total <= DEGENERATE_POWER_UV2)
        if len(degenerate):
            k, ch = degenerate[0]
            raise DegeneratePower(
                f"channel {EEG_CHANNELS[ch]} of epoch {epochs.interval_index[k]} "
                f"has degenerate total power {total[k, ch]:g}"
            )
        values = np.stack([absolute, absolute / total[..., None]], axis=-1).reshape(n, -1)
    return FeatureMatrix(feature_names=names, values=values, states=tuple(epochs.state),
                         interval_indices=tuple(epochs.interval_index.tolist()),
                         session_ids=(session_id,) * n)
