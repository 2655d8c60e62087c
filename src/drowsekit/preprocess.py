"""Epoching, FIR band-limiting, and amplitude-based artifact rejection.

The pipeline order is: cut the recording into 30-second epochs aligned to
the labeling grid, band-limit each epoch with the reference 0.1 Hz
high-pass and 40 Hz low-pass (``reference_kernels``), then drop epochs in
which more than 30% of the post-filter samples exceed +/-70 uV. These
values are the reference method's and fixed as the module constants
below. A session's epochs travel as one ``Epochs`` block; the filter and
the Welch PSD work on one epoch at a time, which keeps their temporaries
epoch-sized. All operations are pure.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum

import numpy as np
from scipy.signal import fftconvolve

from .errors import InvalidCutoff, InvalidTransition
from .session import (
    EEG_SAMPLE_RATE_HZ,
    ORD_INTERVAL_SECONDS,
    BinaryState,
    EegRecording,
    OrdLabelTrack,
    majority_label,
)

logger = logging.getLogger(__name__)

EPOCH_SAMPLES = int(ORD_INTERVAL_SECONDS * EEG_SAMPLE_RATE_HZ)  # 7680

# The reference band-limit: -6 dB points and transition widths of the
# high-pass and low-pass kernels.
HP_CUTOFF_HZ = 0.1
HP_TRANSITION_HZ = 0.2
LP_CUTOFF_HZ = 40.0
LP_TRANSITION_HZ = 4.0

# The reference artifact rule: drop an epoch when more than this fraction
# of its samples exceed this absolute amplitude.
DEFAULT_AMPLITUDE_THRESHOLD_UV = 70.0
DEFAULT_MAX_OUTLIER_FRACTION = 0.30

# Hamming-window design: tap count N ~ 3.3 * fs / transition width.
_HAMMING_TAP_FACTOR = 3.3


class FilterKind(Enum):
    LOW_PASS = "low_pass"
    HIGH_PASS = "high_pass"


@dataclass(frozen=True)
class Epochs:
    """A session's 30-second, 4-channel EEG epochs with their binary states."""

    samples: np.ndarray  # shape (n, 4, 7680), microvolts
    interval_index: np.ndarray  # shape (n,), label-grid index of each epoch
    state: np.ndarray  # shape (n,), the BinaryState of each epoch

    def __len__(self) -> int:
        return len(self.interval_index)


@dataclass(frozen=True)
class EpochSet:
    """Kept epochs plus the rejection record for dropped ones."""

    epochs: Epochs
    dropped: tuple[np.ndarray, np.ndarray]  # (interval_index, outlier_fraction)


@dataclass(frozen=True)
class FilterKernel:
    """Linear-phase FIR kernel with an odd tap count (integer group delay)."""

    taps: np.ndarray
    kind: FilterKind
    cutoff_hz: float
    sample_rate_hz: float

    @property
    def delay(self) -> int:
        return (len(self.taps) - 1) // 2


@dataclass(frozen=True)
class DenoiseSummary:
    """Pre/post epoch counts split by state, with the removal fraction."""

    pre_alert: int
    pre_drowsy: int
    post_alert: int
    post_drowsy: int
    removal_fraction: float

    @classmethod
    def from_counts(cls, pre_alert: int, pre_drowsy: int,
                    post_alert: int, post_drowsy: int) -> "DenoiseSummary":
        pre_total = pre_alert + pre_drowsy
        fraction = 0.0
        if pre_total > 0:
            fraction = 1.0 - (post_alert + post_drowsy) / pre_total
        return cls(pre_alert, pre_drowsy, post_alert, post_drowsy, fraction)

    @property
    def pre_total(self) -> int:
        return self.pre_alert + self.pre_drowsy

    @property
    def post_total(self) -> int:
        return self.post_alert + self.post_drowsy

    @property
    def removal_percent(self) -> float:
        """Removal fraction as a percentage, rounded half-up to 2 decimals."""
        return float(Decimal(repr(self.removal_fraction * 100.0))
                     .quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))

    def combine(self, other: "DenoiseSummary") -> "DenoiseSummary":
        return DenoiseSummary.from_counts(
            self.pre_alert + other.pre_alert,
            self.pre_drowsy + other.pre_drowsy,
            self.post_alert + other.post_alert,
            self.post_drowsy + other.post_drowsy,
        )

    def to_json_dict(self) -> dict:
        return {
            "pre_alert": self.pre_alert,
            "pre_drowsy": self.pre_drowsy,
            "pre_total": self.pre_total,
            "post_alert": self.post_alert,
            "post_drowsy": self.post_drowsy,
            "post_total": self.post_total,
            "removal_percent": self.removal_percent,
        }


def epoch_signal(recording: EegRecording, labels: OrdLabelTrack) -> Epochs:
    """Cut the recording into one epoch per fully covered label interval.

    Each epoch carries the majority vote of its interval's ratings.
    Trailing samples that do not fill an interval are discarded; intervals
    extending past the recording are skipped (a warning logs the count).
    """
    n = recording.n_samples
    rate = recording.sample_rate_hz
    starts: list[int] = []
    index: list[int] = []
    state: list[BinaryState] = []
    for iv in labels.intervals:
        t0 = iv.index * labels.interval_seconds
        s0 = int(round((t0 - recording.start_time_s) * rate))
        if 0 <= s0 and s0 + EPOCH_SAMPLES <= n:
            starts.append(s0)
            index.append(iv.index)
            state.append(majority_label(iv.ratings))
    skipped = len(labels.intervals) - len(starts)
    if skipped:
        logger.warning("skipped %d label interval(s) not fully covered by the recording", skipped)
    samples = np.empty((len(starts), len(recording.channels), EPOCH_SAMPLES))
    for c, channel in enumerate(recording.channels):
        for k, s0 in enumerate(starts):
            samples[k, c] = channel[s0:s0 + EPOCH_SAMPLES]
    return Epochs(samples=samples, interval_index=np.array(index, dtype=np.int64),
                  state=np.array(state, dtype=object))


def design_fir(kind: FilterKind, cutoff_hz: float,
               sample_rate_hz: float = EEG_SAMPLE_RATE_HZ,
               transition_hz: float = 1.0) -> FilterKernel:
    """Design a linear-phase windowed-sinc FIR kernel.

    A Hamming-windowed sinc gives the low-pass prototype; the tap count is
    the smallest odd integer >= 3.3 * sample_rate / transition width. The
    high-pass is the spectral inversion of the complementary low-pass, so
    its taps sum to zero exactly (DC null). Either kind passes half
    amplitude (-6 dB) at the cutoff.

    Args:
        kind: LOW_PASS or HIGH_PASS.
        cutoff_hz: -6 dB point; must lie in (0, sample_rate / 2).
        sample_rate_hz: Design rate of the kernel.
        transition_hz: Transition band width; sets the tap count.

    Raises:
        InvalidCutoff: Cutoff outside (0, Nyquist).
        InvalidTransition: Non-positive transition width.
    """
    if not 0.0 < cutoff_hz < sample_rate_hz / 2.0:
        raise InvalidCutoff(f"cutoff {cutoff_hz} Hz outside (0, {sample_rate_hz / 2:g})")
    if transition_hz <= 0.0:
        raise InvalidTransition(f"transition width must be positive, got {transition_hz}")

    n = math.ceil(_HAMMING_TAP_FACTOR * sample_rate_hz / transition_hz)
    if n % 2 == 0:
        n += 1
    k = np.arange(n) - (n - 1) // 2
    fc = 2.0 * cutoff_hz / sample_rate_hz
    taps = fc * np.sinc(fc * k) * np.hamming(n)
    taps /= taps.sum()  # exact unit DC gain
    if kind is FilterKind.HIGH_PASS:
        taps = -taps
        taps[(n - 1) // 2] += 1.0
    return FilterKernel(taps=taps, kind=kind, cutoff_hz=cutoff_hz,
                        sample_rate_hz=sample_rate_hz)


def reference_kernels() -> tuple[FilterKernel, FilterKernel]:
    """The (high-pass, low-pass) kernel pair of the reference band-limit."""
    return (design_fir(FilterKind.HIGH_PASS, HP_CUTOFF_HZ, transition_hz=HP_TRANSITION_HZ),
            design_fir(FilterKind.LOW_PASS, LP_CUTOFF_HZ, transition_hz=LP_TRANSITION_HZ))


def apply_kernel(samples: np.ndarray, kernel: FilterKernel) -> np.ndarray:
    """Convolve along the last axis with mirror padding and zero net delay.

    Padding by the group delay on each side and taking the valid part of
    the convolution aligns output sample k with input sample k and keeps
    the length unchanged.
    """
    pad = [(0, 0)] * (samples.ndim - 1) + [(kernel.delay, kernel.delay)]
    padded = np.pad(samples, pad, mode="reflect")
    taps = kernel.taps.reshape((1,) * (samples.ndim - 1) + (-1,))
    return fftconvolve(padded, taps, mode="valid", axes=-1)


def filter_epoch(epochs: Epochs, hp: FilterKernel, lp: FilterKernel) -> Epochs:
    """Band-limit every epoch: high-pass then low-pass on every channel.

    Epochs are filtered one at a time into one new block, so the
    convolution temporaries stay the size of one epoch.
    """
    out = np.empty_like(epochs.samples)
    for k, x in enumerate(epochs.samples):
        out[k] = apply_kernel(apply_kernel(x, hp), lp)
    return replace(epochs, samples=out)


def outlier_fraction(samples: np.ndarray, per_channel: bool = False) -> np.ndarray:
    """Per epoch of an ``(n, channels, time)`` block, the fraction of samples
    beyond +/-70 uV.

    By default outliers are pooled across all channels; with
    ``per_channel`` an epoch's fraction is its worst single channel's.
    """
    # two boolean blocks instead of np.abs, which would copy the float block
    threshold = DEFAULT_AMPLITUDE_THRESHOLD_UV
    outliers = (samples > threshold) | (samples < -threshold)
    if per_channel:
        return np.max(np.mean(outliers, axis=-1), axis=-1)
    return np.mean(outliers, axis=(1, 2))


def denoise_epochs(epochs: Epochs, per_channel: bool = False) -> EpochSet:
    """Keep the filtered epochs whose outlier fraction is at most 30%.

    Dropped epochs are recorded by interval index and outlier fraction.
    """
    fraction = outlier_fraction(epochs.samples, per_channel)
    keep = fraction <= DEFAULT_MAX_OUTLIER_FRACTION
    kept = Epochs(samples=epochs.samples[keep], interval_index=epochs.interval_index[keep],
                  state=epochs.state[keep])
    return EpochSet(epochs=kept, dropped=(epochs.interval_index[~keep], fraction[~keep]))


def denoise_summary(pre: Epochs, post: EpochSet) -> DenoiseSummary:
    """Tabulate pre/post denoising epoch counts by state."""
    pre_alert = int(np.count_nonzero(pre.state == BinaryState.ALERT))
    post_alert = int(np.count_nonzero(post.epochs.state == BinaryState.ALERT))
    return DenoiseSummary.from_counts(pre_alert, len(pre) - pre_alert,
                                      post_alert, len(post.epochs) - post_alert)
