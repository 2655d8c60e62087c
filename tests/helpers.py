"""Independent oracles and small builders shared by the test modules."""

import itertools

import numpy as np
from scipy.stats import rankdata

from drowsekit.errors import EmptySample
from drowsekit.preprocess import EPOCH_SAMPLES, Epoch
from drowsekit.session import EEG_SAMPLE_RATE_HZ, BinaryState

# Largest pooled size accepted by the brute-force enumeration oracle.
BRUTE_FORCE_MAX_N = 16


def freq_response_db(taps, freq_hz, sample_rate_hz=EEG_SAMPLE_RATE_HZ):
    """Gain in dB at one frequency by direct evaluation of the DFT sum."""
    phases = np.exp(-2j * np.pi * freq_hz * np.arange(len(taps)) / sample_rate_hz)
    mag = np.abs(np.dot(np.asarray(taps), phases))
    return 20.0 * np.log10(mag) if mag > 0 else -np.inf


def make_epoch(samples, interval_index=0, state=BinaryState.ALERT, filtered=False):
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = np.tile(samples, (4, 1))
    assert samples.shape == (4, EPOCH_SAMPLES)
    return Epoch(interval_index=interval_index, state=state,
                 samples=samples, filtered=filtered)


def noise_epoch(rng, scale=1.0, **kwargs):
    return make_epoch(rng.normal(0.0, scale, (4, EPOCH_SAMPLES)), **kwargs)


def sine_wave(freq_hz, amplitude=1.0, n=EPOCH_SAMPLES, phase=0.0):
    t = np.arange(n) / EEG_SAMPLE_RATE_HZ
    return amplitude * np.sin(2.0 * np.pi * freq_hz * t + phase)


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
