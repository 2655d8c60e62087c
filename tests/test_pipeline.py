"""The session pipeline on one epoch block against a per-epoch reference."""

import numpy as np
import pytest
from helpers import band_power, sine_wave, total_power

from drowsekit.cli import RunConfig, process_session
from drowsekit.preprocess import (
    DEFAULT_AMPLITUDE_THRESHOLD_UV,
    DEFAULT_MAX_OUTLIER_FRACTION,
    EPOCH_SAMPLES,
    apply_kernel,
    denoise_epochs,
    epoch_signal,
    filter_epoch,
    reference_kernels,
)
from drowsekit.session import BinaryState, Session, make_eeg_recording, majority_label
from drowsekit.spectral import BANDS, welch_psd
from drowsekit.synthgen import SynthSpec, generate_session

# a 150 uV tone exceeds 70 uV for about 69% of its samples
TONE = sine_wave(10.0, amplitude=150.0)


def _session_with_tones(seed, all_channels, channel0):
    """A synthetic session with the tone added to every channel of the
    ``all_channels`` intervals and to channel 0 of the ``channel0`` ones."""
    session = generate_session(SynthSpec(n_intervals=8, drowsy_fraction=0.5), seed)
    channels = [np.array(c) for c in session.eeg.channels]
    for k in all_channels:
        for c in channels:
            c[k * EPOCH_SAMPLES:(k + 1) * EPOCH_SAMPLES] += TONE
    for k in channel0:
        channels[0][k * EPOCH_SAMPLES:(k + 1) * EPOCH_SAMPLES] += TONE
    return Session(id=session.id, eeg=make_eeg_recording(channels), labels=session.labels,
                   telemetry=session.telemetry)


def _per_epoch_reference(session, per_channel):
    """Features, dropped record and state counts, one epoch at a time."""
    hp, lp = reference_kernels()
    rows, dropped_index, dropped_fraction = [], [], []
    pre = {BinaryState.ALERT: 0, BinaryState.DROWSY: 0}
    post = dict(pre)
    for iv in session.labels.intervals:
        span = slice(iv.index * EPOCH_SAMPLES, (iv.index + 1) * EPOCH_SAMPLES)
        x = np.stack([c[span] for c in session.eeg.channels])
        x = apply_kernel(apply_kernel(x, hp), lp)
        outliers = np.abs(x) > DEFAULT_AMPLITUDE_THRESHOLD_UV
        fraction = (float(np.max(np.mean(outliers, axis=-1))) if per_channel
                    else float(np.mean(outliers)))
        state = majority_label(iv.ratings)
        pre[state] += 1
        if fraction > DEFAULT_MAX_OUTLIER_FRACTION:
            dropped_index.append(iv.index)
            dropped_fraction.append(fraction)
            continue
        post[state] += 1
        row = []
        for channel in x:
            psd = welch_psd(channel)
            total = total_power(psd)
            for band in BANDS:
                power = band_power(psd, band)
                row += [power, power / total]
        rows.append(row)
    counts = (pre[BinaryState.ALERT], pre[BinaryState.DROWSY],
              post[BinaryState.ALERT], post[BinaryState.DROWSY])
    return np.array(rows).reshape(-1, 40), (dropped_index, dropped_fraction), counts


@pytest.mark.parametrize("per_channel", [False, True], ids=["pooled", "per-channel"])
@pytest.mark.parametrize("seed, all_channels, channel0", [
    (3, (1, 6), (2, 5)),
    (4, (), (0, 7)),
    (5, tuple(range(8)), ()),
])
def test_block_pipeline_matches_per_epoch_reference(seed, all_channels, channel0, per_channel):
    session = _session_with_tones(seed, all_channels, channel0)
    values, dropped, counts = _per_epoch_reference(session, per_channel)

    result = process_session(session, RunConfig(per_channel_outliers=per_channel))
    assert result.eeg_features.values.tobytes() == values.tobytes()
    summary = result.denoise
    assert (summary.pre_alert, summary.pre_drowsy, summary.post_alert,
            summary.post_drowsy) == counts

    hp, lp = reference_kernels()
    kept = denoise_epochs(filter_epoch(epoch_signal(session.eeg, session.labels), hp, lp),
                          per_channel=per_channel)
    assert [a.tolist() for a in kept.dropped] == list(dropped)
    assert kept.epochs.interval_index.tolist() == list(result.eeg_features.interval_indices)
    # the tones drop what the rule says: every all-channel one, and the
    # channel-0 ones only per channel
    expected = sorted(all_channels + (channel0 if per_channel else ()))
    assert dropped[0] == expected
