"""Epoching, FIR band-limiting, and amplitude-based artifact rejection.

The pipeline order is: find the recording's 30-second epochs aligned to
the labeling grid, band-limit each epoch with the reference 0.1 Hz
high-pass and 40 Hz low-pass (``HP_TAPS``, ``LP_TAPS``), then drop epochs in
which more than 30% of the post-filter samples exceed +/-70 uV. These
values are the reference method's and fixed as the module constants
below. ``denoise_epochs`` returns the kept epochs and the record of the
dropped ones; ``pipeline`` counts the cohort's epochs before and after the
rule from the epochs' labels. No session-sized sample block is built:
``Epochs`` holds where each epoch starts in the recording, and
``filter_epoch`` takes every epoch in one pass from the recording to what
the later stages read of it, its per-channel outlier counts and its Welch
PSD (``EpochSpectra``). The pass splits the epochs into one contiguous chunk per available CPU
(``for_each_chunk``) and runs the chunks on threads, since numpy's FFTs
release the GIL; each worker holds one epoch's buffers, so the temporaries
stay epoch-sized per worker. Each epoch goes through the same arithmetic
whichever thread runs it, so the output bytes do not depend on the worker
count. All operations are pure: nothing here logs, and
``pipeline.process_session`` reports the label intervals a session's epochs
leave out.

The filter uses ``numpy.fft`` alone: the taps and each kernel's spectrum
at its fixed transform length for an epoch are read-only constants built at
import, and ``_band_limit`` mirror-pads every epoch straight from
the recording into its worker's reused blocks and convolves it with one
forward and one inverse real FFT per kernel. numpy and scipy run the same
pocketfft, so the values are bit-identical to ``np.pad(mode="reflect")``
plus ``scipy.signal.fftconvolve(mode="valid")``; the oracle tests pin that
and were checked against numpy 2.4.6 and scipy 1.17.1.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.fft import irfft, rfft

from .session import (
    EEG_SAMPLE_RATE_HZ,
    EPOCH_SAMPLES,
    EegRecording,
    OrdLabelTrack,
    epoch_starts,
)
from .spectral import FREQS_HZ, welch_psd

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


@dataclass(frozen=True)
class Epochs:
    """Where a session's 30-second epochs lie in its recording, with their
    drowsiness labels."""

    start: np.ndarray  # shape (n,), first recording sample of each epoch
    interval_index: np.ndarray  # shape (n,), int64 label-grid index of each epoch
    drowsy: np.ndarray  # shape (n,), bool majority vote of each epoch's interval

    def __len__(self) -> int:
        return len(self.interval_index)


@dataclass(frozen=True)
class EpochSpectra:
    """What the artifact rule and the features read of each band-limited
    epoch: its outlier counts and its Welch PSD."""

    interval_index: np.ndarray  # shape (n,), int64 label-grid index of each epoch
    drowsy: np.ndarray  # shape (n,), bool majority vote of each epoch's interval
    outliers: np.ndarray  # shape (n, 4), samples per channel beyond +/-70 uV or not finite
    density: np.ndarray  # shape (n, 4, 513), uV^2/Hz at spectral.FREQS_HZ

    def __len__(self) -> int:
        return len(self.interval_index)


@dataclass(frozen=True)
class EpochSet:
    """Kept epochs plus the rejection record for dropped ones."""

    epochs: EpochSpectra
    dropped: tuple[np.ndarray, np.ndarray]  # (interval_index, outlier_fraction)


def epoch_signal(recording: EegRecording, labels: OrdLabelTrack) -> Epochs:
    """Find one epoch per fully covered label interval; no sample is copied.

    ``session.epoch_starts`` decides the covered intervals and their first
    samples, as it does for ``validate_session``; the others are skipped
    without a log record, and ``Epochs.interval_index`` says which were
    kept. Each epoch carries its interval's index and the track's majority
    vote at that index.
    """
    index, start = epoch_starts(recording, labels)
    return Epochs(start, index, labels.drowsy[index])


def _hamming_lowpass(cutoff_hz: float, transition_hz: float) -> np.ndarray:
    """Taps of a linear-phase Hamming-windowed sinc low-pass at the EEG rate,
    with unit DC gain and half amplitude (-6 dB) at ``cutoff_hz``; the tap
    count is the smallest odd integer >= 3.3 * sample_rate / transition width."""
    n = math.ceil(3.3 * EEG_SAMPLE_RATE_HZ / transition_hz)
    if n % 2 == 0:
        n += 1
    k = np.arange(n) - (n - 1) // 2
    fc = 2.0 * cutoff_hz / EEG_SAMPLE_RATE_HZ
    taps = fc * np.sinc(fc * k) * np.hamming(n)
    taps /= taps.sum()  # exact unit DC gain
    return taps


# The reference band-limit, built once: the low-pass (213 taps) and the
# high-pass (4225 taps), the spectral inversion of the complementary
# low-pass, so its taps sum to zero exactly (DC null) and it too passes half
# amplitude at its cutoff.
LP_TAPS = _hamming_lowpass(LP_CUTOFF_HZ, LP_TRANSITION_HZ)
LP_TAPS.setflags(write=False)
HP_TAPS = -_hamming_lowpass(HP_CUTOFF_HZ, HP_TRANSITION_HZ)
HP_TAPS[len(HP_TAPS) // 2] += 1.0
HP_TAPS.setflags(write=False)


def _fft_kernel(taps: np.ndarray, size: int) -> tuple[int, int, np.ndarray]:
    """The group delay of the odd-length, linear-phase ``taps``, the transform
    length ``size`` and the read-only ``rfft`` of the taps at that length."""
    spectrum = rfft(taps, size)
    spectrum.setflags(write=False)
    return (len(taps) - 1) // 2, size, spectrum


# (group delay, transform length, spectrum) of the high-pass (2112, 16200)
# and the low-pass (106, 8192), in the order the filter applies them. Each
# length is the one ``fftconvolve`` takes for an epoch mirror-padded by the
# kernel's delay on each side, ``scipy.fft.next_fast_len(EPOCH_SAMPLES +
# 4 * delay, real=True)``.
_KERNELS = (_fft_kernel(HP_TAPS, 16200), _fft_kernel(LP_TAPS, 8192))

# The float64s per row of each of a filter worker's two blocks: the
# high-pass spectrum, the widest array of the pass (the low-pass spectrum
# takes 8194 and the Welch segments' spectra 14364).
WORK_WIDTH = 2 * (_KERNELS[0][1] // 2 + 1)


def _band_limit(x: np.ndarray, work: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The reference band-limit of one ``(..., EPOCH_SAMPLES)`` epoch:
    ``HP_TAPS`` then ``LP_TAPS`` along the last axis, each mirror-padded by
    its group delay on both sides, so that output sample k aligns with
    input sample k.

    ``work`` is a pair of float64 blocks of shape ``x.shape[:-1] +
    (WORK_WIDTH,)`` with contiguous rows. The high-pass pads into the start
    of each row of ``work[0]`` and transforms into ``work[1]``; the low-pass
    pads into ``work[1]`` and transforms into ``work[0]``. Each kernel
    copies its input and both mirror pads into the pad buffer and zeroes
    the rest, takes one forward real FFT, multiplies it by the kernel's
    spectrum in place and takes one inverse real FFT back into the pad
    buffer. This is ``np.pad(mode="reflect")`` followed by
    ``scipy.signal.fftconvolve(mode="valid")``, bit for bit. ``x`` may lie
    in ``work[1]`` but not in ``work[0]``. The returned array is a view of
    ``work[1]``, which the next call overwrites.

    Raises:
        ValueError: The last axis of ``x`` is not ``EPOCH_SAMPLES`` long.
    """
    n = EPOCH_SAMPLES
    if x.shape[-1] != n:
        raise ValueError(f"need an epoch of {n} samples, got {x.shape[-1]}")
    for (d, size, spectrum), (buf, freq) in zip(_KERNELS, (work, work[::-1])):
        buf = buf[..., :size]
        freq = freq[..., :2 * (size // 2 + 1)].view(np.complex128)
        buf[..., d:d + n] = x
        buf[..., :d] = x[..., d:0:-1]
        buf[..., d + n:n + 2 * d] = x[..., -2:-d - 2:-1]
        buf[..., n + 2 * d:] = 0.0
        rfft(buf, out=freq)
        np.multiply(freq, spectrum, out=freq)
        x = irfft(freq, size, out=buf)[..., 2 * d:2 * d + n]
    return x


def available_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask
    (``taskset`` narrows it) where the platform has one, else
    ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def for_each_chunk(n: int, work: Callable[[int, int], None]) -> None:
    """Call ``work(lo, hi)`` on contiguous chunks that cover ``range(n)`` in
    order, one chunk per worker and ``min(available_cpus(), n)`` workers.

    The calling thread runs the first chunk; one ``threading.Thread`` per
    other chunk, started by this call, runs each of the rest in a copy of
    the caller's ``contextvars`` context, so the caller's numpy error state
    applies there too. The chunks run at once, so ``work`` may write only
    its own chunk's part of a shared array and must keep other state local.

    Raises:
        Exception: Once every thread has joined, the exception of the first
            chunk, in chunk order, that raised one; so a caller never gets
            a block that only some chunks filled.
    """
    workers = min(available_cpus(), n)
    if workers == 0:
        return
    bounds = [n * i // workers for i in range(workers + 1)]
    errors: list[BaseException | None] = [None] * workers

    def run(i: int) -> None:
        try:
            work(bounds[i], bounds[i + 1])
        except BaseException as exc:  # re-raised in the caller after the join
            errors[i] = exc

    threads = []
    try:
        for i in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, i))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def filter_epoch(recording: EegRecording, epochs: Epochs) -> EpochSpectra:
    """Band-limit every epoch of ``recording`` with the reference filter
    (``HP_TAPS`` then ``LP_TAPS`` on every channel) and reduce it to its
    per-channel outlier counts (``outlier_counts``) and its Welch PSD.

    One pass by ``for_each_chunk``. Each worker allocates one workspace per
    call: two float64 blocks of one epoch's channels by ``WORK_WIDTH`` and
    one boolean mask. Every per-epoch array is a view of whichever block is
    free at its stage: ``_band_limit`` leaves the filtered epoch in the
    second block, ``|x|`` goes into the first, and ``welch_psd`` windows
    into the first, transforms into the second and averages the power from
    the first straight into the epoch's row of the density block. No
    filtered block is kept. Each epoch goes through the same arithmetic whichever worker
    runs it, so the output does not depend on the worker count, and
    concurrent calls share no mutable state. numpy does not warn about a
    sample so large that the filter overflows; its channel's samples count
    as outliers, and its density is not finite. An epoch that runs past the
    end of the recording raises ``ValueError``.
    """
    n, channels = len(epochs), recording.channels
    outliers = np.empty((n, len(channels)), dtype=np.int64)
    density = np.empty((n, len(channels), len(FREQS_HZ)))

    def work(lo: int, hi: int) -> None:
        blocks = (np.empty((len(channels), WORK_WIDTH)), np.empty((len(channels), WORK_WIDTH)))
        within = np.empty((len(channels), EPOCH_SAMPLES), dtype=bool)
        for k in range(lo, hi):
            s0 = epochs.start[k]
            filtered = _band_limit(channels[:, s0:s0 + EPOCH_SAMPLES], blocks)  # in blocks[1]
            outliers[k] = outlier_counts(filtered, blocks[0][:, :EPOCH_SAMPLES], within)
            welch_psd(filtered, density[k], blocks)

    with np.errstate(over="ignore", invalid="ignore"):
        for_each_chunk(n, work)
    return EpochSpectra(interval_index=epochs.interval_index, drowsy=epochs.drowsy,
                        outliers=outliers, density=density)


def outlier_counts(filtered: np.ndarray, magnitude: np.ndarray | None = None,
                   within: np.ndarray | None = None) -> np.ndarray:
    """The samples along the last axis beyond +/-70 uV or not finite, so that
    an overflowed filter output counts as an outlier whether inf or NaN.

    ``magnitude`` (float64) and ``within`` (bool), when given, are arrays of
    ``filtered``'s shape that receive ``|filtered|`` and its in-range mask;
    without them the call allocates both.
    """
    within = np.less_equal(np.abs(filtered, out=magnitude), DEFAULT_AMPLITUDE_THRESHOLD_UV,
                           out=within)
    return filtered.shape[-1] - np.count_nonzero(within, axis=-1)


def outlier_fraction(counts: np.ndarray, per_channel: bool = False) -> np.ndarray:
    """Per epoch of an ``(n, channels)`` array of ``outlier_counts``, the
    fraction of its samples that are outliers.

    By default outliers are pooled across all channels; with
    ``per_channel`` an epoch's fraction is its worst single channel's. The
    counts are exact in float64, so either is the mean of the epoch's
    boolean outlier mask, bit for bit.
    """
    if per_channel:
        return np.max(counts / EPOCH_SAMPLES, axis=-1)
    return counts.sum(axis=-1) / (counts.shape[-1] * EPOCH_SAMPLES)


def denoise_epochs(epochs: EpochSpectra, per_channel: bool = False) -> EpochSet:
    """Keep the filtered epochs whose outlier fraction is at most 30%.

    Dropped epochs are recorded by interval index and outlier fraction.
    """
    fraction = outlier_fraction(epochs.outliers, per_channel)
    keep = fraction <= DEFAULT_MAX_OUTLIER_FRACTION
    kept = EpochSpectra(interval_index=epochs.interval_index[keep], drowsy=epochs.drowsy[keep],
                        outliers=epochs.outliers[keep], density=epochs.density[keep])
    return EpochSet(epochs=kept, dropped=(epochs.interval_index[~keep], fraction[~keep]))
