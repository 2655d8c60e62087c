"""Independent oracles and small builders shared by the test modules."""

import itertools
import math
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve, welch
from scipy.special import ndtr
from scipy.stats import norm, rankdata

from drowsekit.errors import (
    DegeneratePower,
    InconsistentRowLength,
    InvalidEncoding,
    MissingHeader,
    NonFiniteValue,
    NonNumericValue,
    WrongColumnSet,
)
from drowsekit.features import FeatureMatrix
from drowsekit.ingest import NUMBER
from drowsekit.preprocess import (
    EPOCH_SAMPLES,
    HP_TAPS,
    LP_TAPS,
    EpochSpectra,
    epoch_signal,
    outlier_counts,
)
from drowsekit.session import (
    EEG_CHANNELS,
    EEG_SAMPLE_RATE_HZ,
    MIN_COVERAGE,
    ORD_INTERVAL_SECONDS,
    VEHICLE_SERIES,
    EegRecording,
    OrdLabelTrack,
    Session,
    VehicleTelemetry,
)
from drowsekit.spectral import (
    BANDS,
    DEFAULT_NFFT,
    DEGENERATE_POWER_UV2,
    TOTAL_BAND_HZ,
    _integrate,
    welch_psd,
)
from drowsekit.stats import _lilliefors_p
from drowsekit.synthgen import (
    ALERT_RATING,
    COMB_PLACEMENT_HZ,
    DROWSY_RATING,
    EPOCH_SECONDS,
    OUTLIER_BLOCK_AMPLITUDE_UV,
    OUTLIER_BLOCK_HZ,
    SECOND_SAMPLES,
    _comb_tables,
)

# Largest pooled size accepted by the brute-force enumeration oracle.
BRUTE_FORCE_MAX_N = 16


def freq_response_db(taps, freq_hz, sample_rate_hz=EEG_SAMPLE_RATE_HZ):
    """Gain in dB at one frequency by direct evaluation of the DFT sum."""
    phases = np.exp(-2j * np.pi * freq_hz * np.arange(len(taps)) / sample_rate_hz)
    mag = np.abs(np.dot(np.asarray(taps), phases))
    return 20.0 * np.log10(mag) if mag > 0 else -np.inf


def apply_kernel_scipy(samples, taps):
    """One kernel of ``preprocess._band_limit`` as ``np.pad`` (reflect) by
    the group delay plus ``scipy.signal.fftconvolve(mode="valid")``; the
    reference for the band-limit built on ``numpy.fft``."""
    delay = (len(taps) - 1) // 2
    pad = [(0, 0)] * (samples.ndim - 1) + [(delay, delay)]
    padded = np.pad(samples, pad, mode="reflect")
    taps = taps.reshape((1,) * (samples.ndim - 1) + (-1,))
    return fftconvolve(padded, taps, mode="valid", axes=-1)


def welch_psd_scipy(samples):
    """``(FREQS_HZ, welch_psd(samples))`` of ``spectral`` as
    ``scipy.signal.welch`` with the reference method's settings; the
    reference for the direct Welch."""
    return welch(
        np.asarray(samples, dtype=np.float64),
        fs=EEG_SAMPLE_RATE_HZ,
        window="hann",
        nperseg=DEFAULT_NFFT,
        noverlap=DEFAULT_NFFT // 2,
        nfft=DEFAULT_NFFT,
        detrend=False,
        scaling="density",
        return_onesided=True,
    )


def normal_tails_scipy(z):
    """``(cdf, sf, pdf)`` of the standard normal at ``z`` from
    ``scipy.stats.norm``; the reference for ``stats``' tails."""
    return norm.cdf(z), norm.sf(z), norm.pdf(z)


def average_ranks_scipy(x):
    """Midranks from ``scipy.stats.rankdata``; the reference for ``stats``'
    rank helper."""
    return rankdata(x, method="average")


def _epoch_block(epochs):
    """An ``(n, 4, 7680)`` block of epochs, each a (4, 7680) array or a
    7680-sample array repeated on all four channels."""
    return np.array([np.broadcast_to(np.asarray(x, dtype=np.float64), (4, EPOCH_SAMPLES))
                     for x in epochs]).reshape(len(epochs), 4, EPOCH_SAMPLES)


def _drowsy(n, drowsy):
    return np.zeros(n, dtype=bool) if drowsy is None else np.array(drowsy, dtype=bool)


def make_recording(epochs, drowsy=None):
    """A recording of ``epochs`` (see ``_epoch_block``) back to back, and
    its ``Epochs``, with interval indices 0, 1, ...; every epoch is alert
    unless the bools ``drowsy`` say otherwise."""
    block = _epoch_block(epochs)
    recording = EegRecording(channels=np.ascontiguousarray(
        block.transpose(1, 0, 2).reshape(4, len(block) * EPOCH_SAMPLES)))
    labels = OrdLabelTrack(intervals=tuple(
        (5, 5, 5) if d else (1, 1, 1) for d in _drowsy(len(block), drowsy).tolist()))
    return recording, epoch_signal(recording, labels)


def make_spectra(epochs, drowsy=None):
    """An ``EpochSpectra`` of ``epochs`` (see ``_epoch_block``) taken as
    already band-limited: the outlier counts and the Welch PSD of each as
    given, interval indices 0, 1, ..., and every epoch alert unless the
    bools ``drowsy`` say otherwise."""
    block = _epoch_block(epochs)
    return EpochSpectra(interval_index=np.arange(len(block), dtype=np.int64),
                        drowsy=_drowsy(len(block), drowsy),
                        outliers=outlier_counts(block), density=welch_psd(block))


def band_limit(x):
    """The reference filter on one epoch as the ``apply_kernel_scipy``
    chain: high-pass, then low-pass."""
    return apply_kernel_scipy(apply_kernel_scipy(x, HP_TAPS), LP_TAPS)


def sine_wave(freq_hz, amplitude=1.0, n=EPOCH_SAMPLES, phase=0.0):
    t = np.arange(n) / EEG_SAMPLE_RATE_HZ
    return amplitude * np.sin(2.0 * np.pi * freq_hz * t + phase)


def band_power(density, band):
    """Absolute band power in uV^2 (integral of the density over the band)."""
    return float(_integrate(density, band.lo_hz, band.hi_hz))


def total_power(density):
    """Power over the full 0.1..40 Hz analysis range."""
    return float(_integrate(density, *TOTAL_BAND_HZ))


def relative_band_power(density, band):
    """Band power as a fraction of the 0.1..40 Hz total.

    Raises:
        DegeneratePower: Total power at or below the degeneracy floor.
    """
    total = total_power(density)
    if total <= DEGENERATE_POWER_UV2:
        raise DegeneratePower(f"total power {total:g} uV^2 is degenerate")
    return band_power(density, band) / total


def ks_normal_1d(sample):
    """``(D, p)`` for one finite, non-constant 1-D sample: the KS statistic
    and the p-value that ``stats.ks_normal_test`` returns for that sample as
    any row of a block, computed by sort, mean, std and maxima over the
    sample alone; the reference for the block KS pass."""
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = len(x)
    z = (x - x.mean()) / float(x.std(ddof=1))
    cdf = ndtr(z)
    i = np.arange(1, n + 1)
    d = float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
    return d, _lilliefors_p(d, n)


def exact_rank_sum_p(a, b):
    """Brute-force two-sided rank-sum p-value over all rank assignments.

    Enumerates every way of assigning the pooled midranks to the first
    group; an independent oracle for small problems.

    Raises:
        ValueError: Either sample is empty, or more than 16 pooled
            observations.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        raise ValueError(f"both samples must be non-empty, got sizes ({n_a}, {n_b})")
    total_n = n_a + n_b
    if total_n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"enumeration limited to {BRUTE_FORCE_MAX_N} pooled samples, got {total_n}")

    ranks = rankdata(np.concatenate([a, b]), method="average")
    w_obs = ranks[:n_a].sum()  # midrank sums are exact multiples of 0.5
    n_le = n_ge = total = 0
    for combo in itertools.combinations(range(total_n), n_a):
        w = sum(ranks[i] for i in combo)
        total += 1
        if w <= w_obs:
            n_le += 1
        if w >= w_obs:
            n_ge += 1
    return min(1.0, 2.0 * min(n_le, n_ge) / total)


def rank_sum_counts_dp(n_a, n_b):
    """Tie-free rank-sum null counts indexed by the rank sum W.

    Counts n_a-subsets of the ranks 1..n_a+n_b by their sum with a
    dynamic program over all ranks; a reference for sizes the brute-force
    oracle cannot reach.
    """
    total_n = n_a + n_b
    w_max = sum(range(total_n - n_a + 1, total_n + 1))
    counts = [[0] * (w_max + 1) for _ in range(n_a + 1)]
    counts[0][0] = 1
    for r in range(1, total_n + 1):
        for k in range(min(r, n_a), 0, -1):
            row, prev = counts[k], counts[k - 1]
            for s in range(w_max, r - 1, -1):
                c = prev[s - r]
                if c:
                    row[s] += c
    return counts[n_a]


def epoch_starts_loop(eeg, labels):
    """``session.epoch_starts`` one interval at a time in Python floats, as
    ``(interval_index, start)`` lists; the reference for the array version."""
    index, starts = [], []
    for k in range(len(labels)):
        offset = (k * ORD_INTERVAL_SECONDS - eeg.start_time_s) * eeg.sample_rate_hz
        s0 = int(round(offset)) if math.isfinite(offset) else -1  # no finite clock: uncovered
        if 0 <= s0 and s0 + EPOCH_SAMPLES <= eeg.n_samples:
            index.append(k)
            starts.append(s0)
    return index, starts


def interval_slices_loop(telemetry, labels):
    """``session.interval_slices`` one interval at a time, as
    ``(interval_index, start, end)`` lists; the reference for the array version."""
    t = telemetry.timestamps()
    expected = telemetry.sample_rate_hz * ORD_INTERVAL_SECONDS
    lo = np.arange(len(labels)) * ORD_INTERVAL_SECONDS
    bounds = zip(np.searchsorted(t, lo).tolist(),
                 np.searchsorted(t, lo + ORD_INTERVAL_SECONDS).tolist())
    rows = [(k, start, end) for k, (start, end) in enumerate(bounds)
            if end - start >= MIN_COVERAGE * expected]
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]


def interval_aggregate_mask(telemetry, labels, abs_mean=False):
    """``vehicle.interval_aggregate`` with a full-length boolean mask per
    interval and a ``(series, samples)`` gather; the reference for the
    sliced aggregate."""
    t = telemetry.timestamps()
    step = ORD_INTERVAL_SECONDS
    expected = telemetry.sample_rate_hz * step
    data = telemetry.series
    if abs_mean:
        data = np.abs(data)
    rows = []
    for k, drowsy in enumerate(labels.drowsy.tolist()):
        lo = k * step
        mask = (t >= lo) & (t < lo + step)
        if int(mask.sum()) < MIN_COVERAGE * expected:
            continue
        rows.append((k, drowsy, data[:, mask].mean(axis=1)))
    return FeatureMatrix(feature_names=VEHICLE_SERIES,
                         values=np.array([r[2] for r in rows]).reshape(len(rows), -1),
                         drowsy=np.array([r[1] for r in rows], dtype=bool),
                         interval_index=np.array([r[0] for r in rows], dtype=np.int64))


def _direct_comb(rng, lo_hz, hi_hz, amplitude_uv, t):
    m = max(3, int(round((hi_hz - lo_hz) * 2.0)))
    freqs = np.linspace(lo_hz, hi_hz, m)
    phases = rng.uniform(0.0, 2.0 * np.pi, m)
    per_tone = amplitude_uv / math.sqrt(m)
    return per_tone * np.sin(
        2.0 * np.pi * freqs[:, None] * t[None, :] + phases[:, None]
    ).sum(axis=0)


def _direct_outlier_block(rng, rate):
    n_out = int(round(rate * EPOCH_SAMPLES))
    start = int(rng.integers(0, EPOCH_SAMPLES - n_out + 1)) if n_out < EPOCH_SAMPLES else 0
    t = np.arange(n_out) / EEG_SAMPLE_RATE_HZ
    block = OUTLIER_BLOCK_AMPLITUDE_UV * np.sign(
        np.sin(2.0 * np.pi * OUTLIER_BLOCK_HZ * t + 0.25 * np.pi))
    return start, block


def add_combs_session_wide(x, phases, amplitudes):
    """``synthgen._add_combs`` as two ``(second, tone) @ (tone, sample)``
    products per band over every channel and interval of the session at
    once; the reference for the block-wise combs."""
    seconds = x.reshape(-1, SECOND_SAMPLES)  # rows: (channel, interval, second)
    j = np.arange(EPOCH_SECONDS)[:, None]
    product = np.empty_like(seconds)
    for band in BANDS:
        omega, sin_tab, cos_tab = _comb_tables(*COMB_PLACEMENT_HZ[band.name])
        angle = omega * j + phases[band.name][:, :, None, :]
        scale = amplitudes[band.name][:, :, None, None] / math.sqrt(len(omega))
        np.matmul((scale * np.sin(angle)).reshape(-1, len(omega)), cos_tab, out=product)
        seconds += product
        np.matmul((scale * np.cos(angle)).reshape(-1, len(omega)), sin_tab, out=product)
        seconds += product


def generate_session_direct(spec, seed):
    """``synthgen.generate_session`` evaluating every tone with ``sin`` on
    the full epoch time grid, one interval and channel at a time; the
    reference for the table-based generator.
    """
    rng = np.random.default_rng(seed)
    n = spec.n_intervals

    n_drowsy = int(round(n * spec.drowsy_fraction))
    drowsy = np.zeros(n, dtype=bool)
    drowsy[rng.permutation(n)[:n_drowsy]] = True

    t_epoch = np.arange(EPOCH_SAMPLES) / EEG_SAMPLE_RATE_HZ
    channels = np.empty((len(EEG_CHANNELS), n * EPOCH_SAMPLES))
    for k in range(n):
        for ci, ch in enumerate(EEG_CHANNELS):
            x = rng.normal(0.0, spec.noise_floor_uv, EPOCH_SAMPLES)
            for band in BANDS:
                amp = spec.band_amplitudes_uv[ch][band.name]
                if drowsy[k]:
                    amp *= spec.drowsy_band_multipliers[band.name]
                lo, hi = COMB_PLACEMENT_HZ[band.name]
                x += _direct_comb(rng, lo, hi, amp, t_epoch)
            if spec.outlier_rate > 0.0:
                start, block = _direct_outlier_block(rng, spec.outlier_rate)
                x[start:start + len(block)] += block
            channels[ci, k * EPOCH_SAMPLES:(k + 1) * EPOCH_SAMPLES] = x

    eeg = EegRecording(channels=channels)

    intervals = tuple(
        (DROWSY_RATING,) * 3 if drowsy[k] else (ALERT_RATING,) * 3
        for k in range(n)
    )
    labels = OrdLabelTrack(intervals=intervals)

    telemetry = None
    if spec.include_telemetry:
        per_interval = int(round(spec.telemetry_rate_hz * ORD_INTERVAL_SECONDS))
        n_samples = per_interval * n
        drowsy_mask = np.repeat(drowsy, per_interval)
        series = []
        for name in VEHICLE_SERIES:
            values = spec.telemetry_baseline[name] + rng.normal(
                0.0, spec.telemetry_noise, n_samples)
            values[drowsy_mask] += spec.drowsy_telemetry_shift[name]
            series.append(values)
        telemetry = VehicleTelemetry(series=np.array(series),
                                     sample_rate_hz=spec.telemetry_rate_hz)

    return Session(id=f"synth-{seed}", eeg=eeg, labels=labels, telemetry=telemetry)


def format_cell(v):
    """One CSV cell as the writers rendered it cell by cell: ``repr`` of
    the Python float for floats, ``str`` otherwise."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_rows_per_cell(header, rows):
    """CSV text built one ``format_cell`` at a time; the reference for the
    float writers."""
    return "".join([",".join(header) + "\n"]
                   + [",".join(format_cell(v) for v in row) + "\n" for row in rows])


def numeric_csv_oracle(path, header, what):
    """What ``ingest._load_numeric_csv(path, header, what)`` makes of a file
    whose header line ends in the scan's first block, read line by line: the
    ``(n, len(header))`` array of ``float`` of each cell, when every cell
    matches ``ingest.NUMBER`` and is finite, or else ``(error type, row,
    message)`` of the first fault. Only ``\\n``, ``\\r\\n`` and ``\\r`` end a
    line, only empty lines are skipped, and header cells lose the blanks
    ``NUMBER`` allows around a number."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        return InvalidEncoding, None, f"{path}: not valid UTF-8 at byte {exc.start}"
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    blanks = " \t\v\f"
    if not lines or not lines[0].strip(blanks):
        return MissingHeader, None, f"{what}: no header line"
    found = tuple(f.strip(blanks) for f in lines[0].split(","))
    if found != header:
        return (WrongColumnSet, None,
                f"{what}: header {','.join(found)!r}, expected {','.join(header)!r}")
    rows, first_non_finite = [], None
    for i, line in enumerate(lines[1:], start=1):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            return (InconsistentRowLength, i,
                    f"{what}: row {i} has {len(fields)} fields, expected {len(header)}")
        if not all(NUMBER.fullmatch(f) for f in fields):
            return NonNumericValue, i, f"{what}: non-numeric value in row {i}: {line!r}"
        rows.append([float(f) for f in fields])
        if first_non_finite is None and not all(map(math.isfinite, rows[-1])):
            first_non_finite = i, line
    if first_non_finite is not None:
        i, line = first_non_finite
        return NonFiniteValue, i, f"{what}: NaN or infinite value in row {i}: {line!r}"
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
