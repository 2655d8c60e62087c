"""Domain model: recordings, telemetry, observer ratings, and sessions.

A recording is one ``(channels, samples)`` float64 array, so it cannot be
ragged; ``make_eeg_recording`` and ``make_telemetry`` build one from
array-likes. All types are immutable after construction and safe to share
across threads. Construction checks only that layout; use
:func:`validate_session` to obtain a machine-readable violation listing.
``epoch_starts`` and ``interval_slices`` decide which label intervals the
EEG and the telemetry cover, for validation and the pipeline alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InvalidRating

EEG_CHANNELS = ("TP9", "AF7", "AF8", "TP10")
EEG_SAMPLE_RATE_HZ = 256.0
ORD_INTERVAL_SECONDS = 30.0
EPOCH_SAMPLES = int(ORD_INTERVAL_SECONDS * EEG_SAMPLE_RATE_HZ)  # 7680
NUM_RATERS = 3
RATING_MIN = 1
RATING_MAX = 5

VEHICLE_SERIES = ("steer_angle", "steer_speed", "lane_deviation", "torque")

# Minimum fraction of an interval's expected telemetry samples required for its mean.
MIN_COVERAGE = 0.5


class BinaryState(Enum):
    """Two-valued drowsiness state derived from observer ratings."""

    ALERT = "alert"
    DROWSY = "drowsy"


@dataclass(frozen=True)
class EegRecording:
    """Multi-channel EEG amplitudes in microvolts.

    Attributes:
        channels: A ``(channels, samples)`` float64 array whose rows follow
            ``EEG_CHANNELS``; any other value raises ValueError.
        sample_rate_hz: Samples per second; the supported devices record
            at 256 Hz and other rates are flagged by validation.
        start_time_s: Offset of the first sample on the session clock.
    """

    channels: np.ndarray
    sample_rate_hz: float = EEG_SAMPLE_RATE_HZ
    start_time_s: float = 0.0

    def __post_init__(self) -> None:
        _check_rows("channels", self.channels)

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]


@dataclass(frozen=True)
class VehicleTelemetry:
    """Simulator telemetry: a ``(series, samples)`` float64 array whose rows
    follow ``VEHICLE_SERIES``; any other value raises ValueError.

    Units: degrees, degrees/second, meters, newton-meters. The telemetry
    clock is independent of the EEG clock; ``sample_rate_hz`` is whatever
    the simulator exported.
    """

    series: np.ndarray
    sample_rate_hz: float
    start_time_s: float = 0.0

    def __post_init__(self) -> None:
        _check_rows("series", self.series)

    @property
    def n_samples(self) -> int:
        return self.series.shape[1]

    def timestamps(self) -> np.ndarray:
        """Session-clock timestamp of every sample."""
        return self.start_time_s + np.arange(self.n_samples) / self.sample_rate_hz


def _check_rows(name: str, value: object) -> None:
    if not (isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == np.float64):
        raise ValueError(f"{name} must be a 2-D float64 array, got {type(value).__name__} "
                         f"{getattr(value, 'shape', '')} {getattr(value, 'dtype', '')}")


@dataclass(frozen=True)
class OrdInterval:
    """One labeling interval: index on the 30 s grid plus three observer ratings."""

    index: int
    ratings: tuple[int, int, int]


@dataclass(frozen=True)
class OrdLabelTrack:
    """Observer drowsiness ratings on a fixed 30-second grid."""

    intervals: tuple[OrdInterval, ...]

    def __len__(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class Session:
    """One subject's aligned EEG, optional telemetry, and label track.

    EEG, telemetry, and labels share a session-relative clock starting at
    zero; label interval ``k`` spans ``[30k, 30(k+1))`` seconds.
    """

    id: str
    eeg: EegRecording
    labels: OrdLabelTrack
    telemetry: VehicleTelemetry | None = None


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate_session`."""

    code: str
    message: str


def majority_label(ratings: Sequence[int]) -> BinaryState:
    """Combine three observer ratings into a binary state.

    The vote is the median of the three integer ratings; a median of 1 or
    2 maps to ALERT and 3 through 5 to DROWSY.

    Raises:
        InvalidRating: If any rating is outside 1..5 or not three ratings
            were given.
    """
    if len(ratings) != NUM_RATERS:
        raise InvalidRating(f"expected {NUM_RATERS} ratings, got {len(ratings)}")
    for r in ratings:
        if not (isinstance(r, (int, np.integer)) and RATING_MIN <= r <= RATING_MAX):
            raise InvalidRating(f"rating {r!r} outside {RATING_MIN}..{RATING_MAX}")
    median = sorted(ratings)[1]
    return BinaryState.ALERT if median <= 2 else BinaryState.DROWSY


def validate_session(session: Session) -> list[Violation]:
    """Check every session invariant and return the violations found.

    Never raises and never mutates its input; an empty list means the
    session is well-formed for the downstream pipeline.
    """
    out: list[Violation] = []
    eeg = session.eeg

    if eeg.channels.shape[0] != len(EEG_CHANNELS):
        out.append(Violation(
            "WrongChannelCount",
            f"expected {len(EEG_CHANNELS)} EEG channels, got {eeg.channels.shape[0]}",
        ))
    if eeg.sample_rate_hz != EEG_SAMPLE_RATE_HZ:
        out.append(Violation(
            "WrongSampleRate",
            f"EEG sample rate {eeg.sample_rate_hz} Hz, expected {EEG_SAMPLE_RATE_HZ:g} Hz",
        ))

    tel = session.telemetry
    tel_rate_ok = tel is not None and math.isfinite(tel.sample_rate_hz) and tel.sample_rate_hz > 0
    if tel is not None:
        if not tel_rate_ok:
            out.append(Violation(
                "InvalidTelemetryRate",
                f"telemetry sample rate must be finite and positive, got {tel.sample_rate_hz}",
            ))
        if tel.series.shape[0] != len(VEHICLE_SERIES):
            out.append(Violation(
                "WrongTelemetrySeriesCount",
                f"expected {len(VEHICLE_SERIES)} telemetry series, got {tel.series.shape[0]}",
            ))

    for pos, iv in enumerate(session.labels.intervals):
        if iv.index != pos:
            out.append(Violation(
                "NonContiguousIntervals",
                f"interval at position {pos} has index {iv.index}",
            ))
            break
    for iv in session.labels.intervals:
        bad = [r for r in iv.ratings if not RATING_MIN <= r <= RATING_MAX]
        if bad:
            out.append(Violation(
                "InvalidRating",
                f"interval {iv.index} has out-of-range ratings {bad}",
            ))

    # A recording may leave one label interval, a partial last one, uncovered.
    def coverage(code: str, what: str, recording: EegRecording | VehicleTelemetry,
                 n_covered: int) -> None:
        uncovered = len(session.labels) - n_covered
        if uncovered > 1:
            start = recording.start_time_s
            end = start + recording.n_samples / recording.sample_rate_hz
            out.append(Violation(code, f"{uncovered} of {len(session.labels)} label intervals "
                                       f"lie outside the {what} ({start:g} to {end:g} s)"))

    if eeg.sample_rate_hz == EEG_SAMPLE_RATE_HZ:
        coverage("CoverageMismatch", "EEG", eeg, len(epoch_starts(eeg, session.labels)))
    if tel_rate_ok:
        coverage("TelemetryCoverageMismatch", "telemetry", tel,
                 len(interval_slices(tel, session.labels)))
    return out


def epoch_starts(eeg: EegRecording, labels: OrdLabelTrack) -> list[tuple[OrdInterval, int]]:
    """The label intervals that the recording covers in full, in label order, each
    with the recording's sample nearest the interval's start on the session clock."""
    starts = []
    for iv in labels.intervals:
        offset = (iv.index * ORD_INTERVAL_SECONDS - eeg.start_time_s) * eeg.sample_rate_hz
        s0 = int(round(offset)) if math.isfinite(offset) else -1  # no finite clock: uncovered
        if 0 <= s0 and s0 + EPOCH_SAMPLES <= eeg.n_samples:
            starts.append((iv, s0))
    return starts


def interval_slices(telemetry: VehicleTelemetry,
                    labels: OrdLabelTrack) -> list[tuple[OrdInterval, int, int]]:
    """The label intervals that hold at least ``MIN_COVERAGE`` of their
    expected telemetry samples, in label order, each with the ``[start,
    end)`` slice of those samples.

    A sample belongs to interval k when its timestamp falls in
    ``[30k, 30(k+1))``. The sample rate must be finite and positive, which
    makes the timestamps ascend.
    """
    t = telemetry.timestamps()
    expected = telemetry.sample_rate_hz * ORD_INTERVAL_SECONDS
    lo = np.array([iv.index for iv in labels.intervals]) * ORD_INTERVAL_SECONDS
    bounds = zip(np.searchsorted(t, lo).tolist(),
                 np.searchsorted(t, lo + ORD_INTERVAL_SECONDS).tolist())
    return [(iv, start, end) for iv, (start, end) in zip(labels.intervals, bounds)
            if end - start >= MIN_COVERAGE * expected]


def make_eeg_recording(channels: Sequence[Sequence[float]],
                       sample_rate_hz: float = EEG_SAMPLE_RATE_HZ,
                       start_time_s: float = 0.0) -> EegRecording:
    """Build a recording from one row per channel, coerced to a float64
    array (a float64 array is not copied); ragged rows raise ValueError."""
    return EegRecording(np.asarray(channels, dtype=np.float64), sample_rate_hz, start_time_s)


def make_telemetry(series: Sequence[Sequence[float]],
                   sample_rate_hz: float,
                   start_time_s: float = 0.0) -> VehicleTelemetry:
    """Build telemetry from one row per series, coerced to a float64 array
    (a float64 array is not copied); ragged rows raise ValueError."""
    return VehicleTelemetry(np.asarray(series, dtype=np.float64), sample_rate_hz, start_time_s)
