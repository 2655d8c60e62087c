"""Welch PSD estimation and the per-session EEG feature matrix.

Per channel, an epoch yields the absolute power (in microvolts squared)
of the five classic bands and the relative power of each band against
the 0.1..40 Hz total, for 10 features per channel and 40 per epoch.
The Welch settings are the reference method's and fixed (Hann segments of
``DEFAULT_NFFT`` samples, 50% overlap). ``preprocess.filter_epoch`` takes
``welch_psd`` of each band-limited epoch over all channels on its worker
threads, in each worker's two blocks and into one density block per
session, and ``extract_features`` integrates every band over the kept
epochs' block at once; the result is bit-identical to integrating each
channel's PSD on its own, whatever the worker count.

The Welch estimate is a plain density array on the fixed grid
``FREQS_HZ`` (0..128 Hz in 0.25 Hz steps), inside which every band edge
lies. It is computed directly with ``numpy.fft``: strided segment views,
one module-level scaled Hann window and one ``rfft`` over all segments.
numpy and scipy run the same pocketfft, so it is bit-identical to
``scipy.signal.welch`` with the reference settings; the oracle tests pin
that and were checked against numpy 2.4.6 and scipy 1.17.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.fft import rfft, rfftfreq
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegeneratePower, NonFinitePower
from .features import FeatureMatrix
from .session import EEG_CHANNELS, EEG_SAMPLE_RATE_HZ

if TYPE_CHECKING:
    from .preprocess import EpochSpectra

# Welch segment length of the reference method, in samples.
DEFAULT_NFFT = 1024

# Welch hop between segment starts: 50% overlap.
_HOP = DEFAULT_NFFT // 2

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


def eeg_feature_names() -> tuple[str, ...]:
    """Feature names in column order, like ``TP9_delta_abs``.

    Ordering is channel-major: for each channel (TP9, AF7, AF8, TP10),
    for each band (delta..gamma), the absolute then the relative power.
    The last entry (index 39) is the TP10 gamma relative power.
    """
    return tuple(
        f"{ch}_{band.name}_{kind}"
        for ch in EEG_CHANNELS
        for band in BANDS
        for kind in FEATURE_KINDS
    )


def _density_window() -> np.ndarray:
    """The periodic Hann window scaled so that a segment's squared rfft
    magnitudes are a PSD in uV^2/Hz.

    The window is scipy's ``get_window("hann", DEFAULT_NFFT)`` (the
    general-cosine formula on an extended grid) and the scale is
    ``ShortTimeFFT.fac_psd``, whose sum of squares is Python's builtin
    ``sum``; ``np.sum`` adds pairwise and would change the last bits.
    """
    w = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, DEFAULT_NFFT + 1)[:-1])
    return w * (1 / np.sqrt(sum(w**2) * EEG_SAMPLE_RATE_HZ))


_WINDOW = _density_window()
_WINDOW.setflags(write=False)

# The frequency of every Welch density bin: 0..128 Hz in 0.25 Hz steps.
FREQS_HZ = rfftfreq(DEFAULT_NFFT, 1.0 / EEG_SAMPLE_RATE_HZ)
FREQS_HZ.setflags(write=False)


def _carve(block: np.ndarray, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A view of the start of each row of the float64 ``block`` (its last axis
    contiguous) as an array of ``block.shape[:-1] + shape`` of ``dtype``.

    Raises:
        ValueError: The rows are too short for ``shape``.
    """
    size = math.prod(shape) * np.dtype(dtype).itemsize // 8
    return block[..., :size].view(dtype).reshape(block.shape[:-1] + shape, copy=False)


def welch_psd(samples: np.ndarray, out: np.ndarray | None = None,
              work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Estimate the one-sided PSD of 256 Hz EEG by Welch's method, in
    uV^2/Hz at the frequencies ``FREQS_HZ``.

    Segments are ``DEFAULT_NFFT`` samples long, Hann windowed, 50%
    overlapped, and their periodograms averaged; a 30 s epoch yields 14
    segments. No detrending is applied, so DC power is preserved, and the
    window power is compensated, so the integral of the density equals the
    signal's mean square. Works along the last axis of any shape.

    The segments are strided views of the input and are transformed in one
    ``rfft``; the periodograms are averaged in scipy's ``(freq, segment)``
    memory order, so the result is bit-identical to ``scipy.signal.welch``
    with these settings. The last axis must hold at least one segment;
    a shorter one raises ``ValueError``.

    ``out``, when given, receives the density (shape ``samples.shape[:-1] +
    (513,)``) and is returned. ``work``, when given, is a pair of float64
    blocks of shape ``samples.shape[:-1] + (w,)`` with contiguous rows, ``w``
    at least the ``2 * 513`` floats per segment of the segments' complex
    spectra (14364 for an epoch; ``preprocess.WORK_WIDTH`` is wider): the
    first holds the windowed segments and then the ``(freq, segment)``
    power, the second the segments' spectra. ``samples`` may lie in the
    second block, which is written only once they are read, but not in the
    first. Without ``work`` the call allocates both.
    """
    samples = np.asarray(samples, dtype=np.float64)
    lead, n = samples.shape[:-1], samples.shape[-1]
    m, bins = (n - _HOP) // _HOP, DEFAULT_NFFT // 2 + 1
    segments = sliding_window_view(samples, DEFAULT_NFFT, axis=-1)[..., ::_HOP, :][..., :m, :]
    if work is None:
        work = (np.empty(lead + (2 * m * bins,)), np.empty(lead + (2 * m * bins,)))
    windowed = np.multiply(segments, _WINDOW, out=_carve(work[0], (m, DEFAULT_NFFT)))
    spectra = rfft(windowed, out=_carve(work[1], (m, bins), np.complex128))
    # |X|^2 as re^2 + im^2 in (freq, segment) order. The in-place steps go
    # through views with the blocks' own rows, which numpy updates without
    # the temporary copy it makes of a strided 3-D view.
    squares = work[1][..., :2 * m * bins]
    np.square(squares, out=squares)
    parts = spectra.view(np.float64)
    power = _carve(work[0], (bins, m))
    np.add(parts[..., ::2], parts[..., 1::2], out=power.swapaxes(-1, -2))
    folded = work[0][..., m:(bins - 1) * m]  # bins 1 to bins - 2
    folded *= 2  # one-sided: fold in the negative frequencies
    return power.mean(axis=-1, out=out)


def _interp_at(density: np.ndarray, x: float) -> np.ndarray:
    """``np.interp(x, FREQS_HZ, d)`` for every 1-D slice ``d`` along the last
    axis. Uses np.interp's own arithmetic, so the values match it bit for
    bit. ``x`` must lie within ``FREQS_HZ``.
    """
    f = FREQS_HZ
    j = int(np.searchsorted(f, x))
    if f[j] == x:
        return density[..., j]
    slope = (density[..., j] - density[..., j - 1]) / (f[j] - f[j - 1])
    return slope * (x - f[j - 1]) + density[..., j - 1]


def _integrate(density: np.ndarray, lo_hz: float, hi_hz: float) -> np.ndarray:
    """Trapezoidal integral over [lo, hi] of a density on ``FREQS_HZ`` along
    the last axis; both edges must lie strictly inside the grid.

    The grid is augmented with linearly interpolated points at the exact
    band edges, so adjacent bands share edge mass half-half and partition
    the total exactly. The result has the density's leading shape.
    """
    f = FREQS_HZ
    inner = (f > lo_hz) & (f < hi_hz)
    grid = np.concatenate(([lo_hz], f[inner], [hi_hz]))
    # Masking the last axis yields a non-C memory order that np.concatenate
    # keeps; a C-contiguous integrand sums each row in the same order as a
    # lone 1-D density, which keeps batched and per-channel results
    # bit-identical.
    dens = np.ascontiguousarray(np.concatenate(
        (_interp_at(density, lo_hz)[..., None], density[..., inner],
         _interp_at(density, hi_hz)[..., None]), axis=-1))
    return np.trapezoid(dens, grid, axis=-1)


def extract_features(epochs: EpochSpectra) -> FeatureMatrix:
    """Compute the 40 features of each kept epoch of a session from its
    Welch PSD (``preprocess.filter_epoch``).

    Returns one row per epoch, in epoch order, with the columns of
    ``eeg_feature_names()``; no epochs give a ``(0, 40)`` matrix. Every band
    is integrated over the whole density block at once. numpy does not warn
    about an overflowing or invalid PSD; a non-finite power raises
    ``NonFinitePower`` instead.

    Raises:
        NonFinitePower: Any channel's band or total power is not finite:
            a sample so large that its squared spectrum overflows float64.
        DegeneratePower: Any channel's total power is degenerate.
    """
    names = eeg_feature_names()
    n = len(epochs)
    values = np.empty((0, len(names)))
    if n:
        density = epochs.density
        with np.errstate(over="ignore", invalid="ignore"):
            powers = np.stack([_integrate(density, b.lo_hz, b.hi_hz) for b in BANDS]
                              + [_integrate(density, *TOTAL_BAND_HZ)], axis=-1)
        absolute, total = powers[..., :-1], powers[..., -1]
        nonfinite = np.argwhere(~np.isfinite(powers).all(axis=-1))
        if len(nonfinite):
            k, ch = nonfinite[0]
            raise NonFinitePower(
                f"channel {EEG_CHANNELS[ch]} of epoch {epochs.interval_index[k]} "
                f"has a non-finite band or total power (total {total[k, ch]:g})"
            )
        degenerate = np.argwhere(total <= DEGENERATE_POWER_UV2)
        if len(degenerate):
            k, ch = degenerate[0]
            raise DegeneratePower(
                f"channel {EEG_CHANNELS[ch]} of epoch {epochs.interval_index[k]} "
                f"has degenerate total power {total[k, ch]:g}"
            )
        values = np.stack([absolute, absolute / total[..., None]], axis=-1).reshape(n, -1)
    return FeatureMatrix(feature_names=names, values=values, drowsy=epochs.drowsy,
                         interval_index=epochs.interval_index)
