"""Domain model: recordings, telemetry, observer ratings, and sessions.

A recording is one ``(channels, samples)`` float64 array, so it cannot be
ragged; ``make_eeg_recording`` and ``make_telemetry`` build one from
array-likes. All types are immutable after construction and safe to share
across threads. Each type checks its own structure when it is built: a
recording's rows follow ``EEG_CHANNELS`` / ``VEHICLE_SERIES``, telemetry has a
finite, positive rate, an interval holds three ratings in 1..5, and a label
track numbers its intervals 0, 1, 2, ... :func:`validate_session` lists what
a well-formed session can still get wrong: the EEG rate and the coverage of
the labels. ``epoch_starts`` and ``interval_slices`` decide which label
intervals the EEG and the telemetry cover, for validation and the pipeline
alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class EegRecording:
    """Multi-channel EEG amplitudes in microvolts.

    Attributes:
        channels: A ``(channels, samples)`` float64 array with one row per
            ``EEG_CHANNELS`` entry; any other value raises ValueError.
        sample_rate_hz: Samples per second; the supported devices record
            at 256 Hz and other rates are flagged by validation.
        start_time_s: Offset of the first sample on the session clock.
    """

    channels: np.ndarray
    sample_rate_hz: float = EEG_SAMPLE_RATE_HZ
    start_time_s: float = 0.0

    def __post_init__(self) -> None:
        _check_rows("channels", self.channels, EEG_CHANNELS)

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]


@dataclass(frozen=True)
class VehicleTelemetry:
    """Simulator telemetry: a ``(series, samples)`` float64 array with one
    row per ``VEHICLE_SERIES`` entry; any other value raises ValueError.

    Units: degrees, degrees/second, meters, newton-meters. The telemetry
    clock is independent of the EEG clock; ``sample_rate_hz`` is whatever
    the simulator exported, and a rate that is not finite and positive
    raises ValueError.
    """

    series: np.ndarray
    sample_rate_hz: float
    start_time_s: float = 0.0

    def __post_init__(self) -> None:
        _check_rows("series", self.series, VEHICLE_SERIES)
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ValueError(
                f"telemetry sample rate must be finite and positive, got {self.sample_rate_hz}")

    @property
    def n_samples(self) -> int:
        return self.series.shape[1]

    def timestamps(self) -> np.ndarray:
        """Session-clock timestamp of every sample."""
        return self.start_time_s + np.arange(self.n_samples) / self.sample_rate_hz


def _check_rows(name: str, value: object, rows: tuple[str, ...]) -> None:
    if not (isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype == np.float64
            and value.shape[0] == len(rows)):
        raise ValueError(f"{name} must be a 2-D float64 array of {len(rows)} rows "
                         f"({', '.join(rows)}), got {type(value).__name__} "
                         f"{getattr(value, 'shape', '')} {getattr(value, 'dtype', '')}")


@dataclass(frozen=True)
class OrdInterval:
    """One labeling interval: index on the 30 s grid plus three observer
    ratings, each an integer in 1..5; anything else raises InvalidRating."""

    index: int
    ratings: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.ratings) != NUM_RATERS:
            raise InvalidRating(f"expected {NUM_RATERS} ratings, got {len(self.ratings)}")
        for r in self.ratings:
            if not (isinstance(r, (int, np.integer)) and RATING_MIN <= r <= RATING_MAX):
                raise InvalidRating(f"rating {r!r} outside {RATING_MIN}..{RATING_MAX}")

    @property
    def drowsy(self) -> bool:
        """The majority vote: the median rating, 1 or 2 alert and 3 through 5 drowsy."""
        return sorted(self.ratings)[1] >= 3


@dataclass(frozen=True)
class OrdLabelTrack:
    """Observer drowsiness ratings on a fixed 30-second grid; interval ``k``
    must have index ``k``, or ValueError is raised."""

    intervals: tuple[OrdInterval, ...]

    def __post_init__(self) -> None:
        for pos, iv in enumerate(self.intervals):
            if iv.index != pos:
                raise ValueError(f"interval at position {pos} has index {iv.index}")

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


def validate_session(session: Session) -> list[Violation]:
    """List what a well-formed session can still get wrong: an EEG rate
    other than 256 Hz (``WrongSampleRate``), and EEG or telemetry that leaves
    more than one label interval uncovered (``CoverageMismatch``,
    ``TelemetryCoverageMismatch``). The types check everything else when
    they are built.

    Never raises and never mutates its input; an empty list means the
    session is well-formed for the downstream pipeline.
    """
    out: list[Violation] = []

    # A recording may leave one label interval, a partial last one, uncovered.
    def coverage(code: str, what: str, recording: EegRecording | VehicleTelemetry,
                 n_covered: int) -> None:
        uncovered = len(session.labels) - n_covered
        if uncovered > 1:
            start = recording.start_time_s
            end = start + recording.n_samples / recording.sample_rate_hz
            out.append(Violation(code, f"{uncovered} of {len(session.labels)} label intervals "
                                       f"lie outside the {what} ({start:g} to {end:g} s)"))

    eeg = session.eeg
    if eeg.sample_rate_hz != EEG_SAMPLE_RATE_HZ:
        out.append(Violation(
            "WrongSampleRate",
            f"EEG sample rate {eeg.sample_rate_hz} Hz, expected {EEG_SAMPLE_RATE_HZ:g} Hz",
        ))
    else:
        coverage("CoverageMismatch", "EEG", eeg, len(epoch_starts(eeg, session.labels)))
    tel = session.telemetry
    if tel is not None:
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
    ``[30k, 30(k+1))``; the timestamps ascend, as the rate is finite and
    positive.
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
