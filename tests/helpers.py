"""Independent oracles and small builders shared by the test modules."""

import itertools
import math

import numpy as np
from scipy.stats import rankdata

from drowsekit.errors import DegeneratePower, EmptySample
from drowsekit.preprocess import EPOCH_SAMPLES, Epochs
from drowsekit.session import (
    EEG_CHANNELS,
    EEG_SAMPLE_RATE_HZ,
    ORD_INTERVAL_SECONDS,
    VEHICLE_SERIES,
    BinaryState,
    EegRecording,
    OrdInterval,
    OrdLabelTrack,
    Session,
    VehicleTelemetry,
)
from drowsekit.spectral import BANDS, DEGENERATE_POWER_UV2, TOTAL_BAND_HZ, _integrate
from drowsekit.synthgen import (
    ALERT_RATING,
    COMB_PLACEMENT_HZ,
    DROWSY_RATING,
    OUTLIER_BLOCK_AMPLITUDE_UV,
    OUTLIER_BLOCK_HZ,
)

# Largest pooled size accepted by the brute-force enumeration oracle.
BRUTE_FORCE_MAX_N = 16


def freq_response_db(taps, freq_hz, sample_rate_hz=EEG_SAMPLE_RATE_HZ):
    """Gain in dB at one frequency by direct evaluation of the DFT sum."""
    phases = np.exp(-2j * np.pi * freq_hz * np.arange(len(taps)) / sample_rate_hz)
    mag = np.abs(np.dot(np.asarray(taps), phases))
    return 20.0 * np.log10(mag) if mag > 0 else -np.inf


def make_epochs(epochs, states=None):
    """An ``Epochs`` block with interval indices 0, 1, ...; each epoch is a
    (4, 7680) array, or a 7680-sample array repeated on all four channels.
    Every epoch is alert unless ``states`` says otherwise."""
    samples = np.array([np.broadcast_to(np.asarray(x, dtype=np.float64), (4, EPOCH_SAMPLES))
                        for x in epochs]).reshape(len(epochs), 4, EPOCH_SAMPLES)
    if states is None:
        states = [BinaryState.ALERT] * len(epochs)
    return Epochs(samples=samples, interval_index=np.arange(len(epochs)),
                  state=np.array(states, dtype=object))


def sine_wave(freq_hz, amplitude=1.0, n=EPOCH_SAMPLES, phase=0.0):
    t = np.arange(n) / EEG_SAMPLE_RATE_HZ
    return amplitude * np.sin(2.0 * np.pi * freq_hz * t + phase)


def band_power(psd, band):
    """Absolute band power in uV^2 (integral of the density over the band)."""
    return float(_integrate(psd, band.lo_hz, band.hi_hz))


def total_power(psd):
    """Power over the full 0.1..40 Hz analysis range."""
    return float(_integrate(psd, *TOTAL_BAND_HZ))


def relative_band_power(psd, band):
    """Band power as a fraction of the 0.1..40 Hz total.

    Raises:
        DegeneratePower: Total power at or below the degeneracy floor.
    """
    total = total_power(psd)
    if total <= DEGENERATE_POWER_UV2:
        raise DegeneratePower(f"total power {total:g} uV^2 is degenerate")
    return band_power(psd, band) / total


def exact_rank_sum_p(a, b):
    """Brute-force two-sided rank-sum p-value over all rank assignments.

    Enumerates every way of assigning the pooled midranks to the first
    group; an independent oracle for small problems.

    Raises:
        EmptySample: Either sample is empty.
        ValueError: More than 16 pooled observations.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        raise EmptySample(f"both samples must be non-empty, got sizes ({n_a}, {n_b})")
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


def generate_session_direct(spec, seed):
    """``synthgen.generate_session`` evaluating every tone with ``sin`` on
    the full epoch time grid, one interval and channel at a time; the
    reference for the table-based generator.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    n = spec.n_intervals

    n_drowsy = int(round(n * spec.drowsy_fraction))
    drowsy = np.zeros(n, dtype=bool)
    drowsy[rng.permutation(n)[:n_drowsy]] = True

    t_epoch = np.arange(EPOCH_SAMPLES) / EEG_SAMPLE_RATE_HZ
    channels = [np.empty(n * EPOCH_SAMPLES) for _ in EEG_CHANNELS]
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
            channels[ci][k * EPOCH_SAMPLES:(k + 1) * EPOCH_SAMPLES] = x

    eeg = EegRecording(channels=tuple(channels))

    intervals = tuple(
        OrdInterval(index=k, ratings=(DROWSY_RATING,) * 3 if drowsy[k] else (ALERT_RATING,) * 3)
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
        telemetry = VehicleTelemetry(series=tuple(series),
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
