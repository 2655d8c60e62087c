"""Domain model: recordings, telemetry, observer ratings, and sessions.

A recording is one ``(channels, samples)`` float64 array, so it cannot be
ragged; ``make_eeg_recording`` and ``make_telemetry`` build one from
array-likes. All types are immutable after construction and safe to share
across threads. Each type checks its own structure when it is built: a
recording's rows follow ``EEG_CHANNELS`` / ``VEHICLE_SERIES``, telemetry has a
finite, positive rate, and a label track holds three ratings in 1..5 per
interval. A label track numbers its intervals 0, 1, 2, ...: interval k is its
k-th entry. :func:`validate_session` lists what a well-formed session can
still get wrong: the EEG rate and the coverage of the labels.
``epoch_starts`` and ``interval_slices`` decide which label intervals the EEG
and the telemetry cover, as index arrays, for validation and the pipeline
alike.
"""

from __future__ import annotations

import math
import numbers
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
class OrdLabelTrack:
    """Observer drowsiness ratings on a fixed 30-second grid: ``intervals[k]``
    holds the three ratings of interval ``k``, each an integer in 1..5;
    anything else raises InvalidRating."""

    intervals: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for k, ratings in enumerate(self.intervals):
            if not (isinstance(ratings, tuple) and len(ratings) == NUM_RATERS):
                raise InvalidRating(f"interval {k}: expected {NUM_RATERS} ratings, got {ratings!r}")
            for r in ratings:
                if (isinstance(r, bool) or not isinstance(r, numbers.Integral)
                        or not RATING_MIN <= r <= RATING_MAX):
                    raise InvalidRating(f"interval {k}: rating {r!r} is not an integer in "
                                        f"{RATING_MIN}..{RATING_MAX}")

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def drowsy(self) -> np.ndarray:
        """Every interval's majority vote as one bool array: the median
        rating, 1 or 2 alert and 3 through 5 drowsy."""
        ratings = np.array(self.intervals, dtype=np.int64).reshape(len(self), NUM_RATERS)
        return np.sort(ratings, axis=1)[:, 1] >= 3


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
        coverage("CoverageMismatch", "EEG", eeg, len(epoch_starts(eeg, session.labels)[0]))
    tel = session.telemetry
    if tel is not None:
        coverage("TelemetryCoverageMismatch", "telemetry", tel,
                 len(interval_slices(tel, session.labels)[0]))
    return out


def epoch_starts(eeg: EegRecording, labels: OrdLabelTrack) -> tuple[np.ndarray, np.ndarray]:
    """The label intervals that the recording covers in full, as ``(interval_index,
    start)`` int64 arrays in label order: each interval's index and the recording's
    sample nearest its start on the session clock."""
    index = np.arange(len(labels), dtype=np.int64)
    # a clock start near -1.7e308 overflows to inf, an uncovered interval, not a warning
    with np.errstate(all="ignore"):
        offset = np.rint((index * ORD_INTERVAL_SECONDS - eeg.start_time_s) * eeg.sample_rate_hz)
        # compared before the cast, so NaN, +-inf and offsets beyond int64 stay uncovered
        covered = (offset >= 0) & (offset <= eeg.n_samples - EPOCH_SAMPLES)
    return index[covered], offset[covered].astype(np.int64)


def interval_slices(telemetry: VehicleTelemetry,
                    labels: OrdLabelTrack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The label intervals that hold at least ``MIN_COVERAGE`` of their
    expected telemetry samples, as ``(interval_index, start, end)`` int64
    arrays in label order: each interval's index and the ``[start, end)``
    slice of its samples.

    A sample belongs to interval k when its timestamp falls in
    ``[30k, 30(k+1))``; the timestamps ascend, as the rate is finite and
    positive.
    """
    index = np.arange(len(labels), dtype=np.int64)
    with np.errstate(all="ignore"):
        t = telemetry.timestamps()
        lo = index * ORD_INTERVAL_SECONDS
        start = np.searchsorted(t, lo)
        end = np.searchsorted(t, lo + ORD_INTERVAL_SECONDS)
        covered = end - start >= MIN_COVERAGE * (telemetry.sample_rate_hz * ORD_INTERVAL_SECONDS)
    return index[covered], start[covered], end[covered]


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
