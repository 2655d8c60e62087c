"""Per-interval telemetry means as a feature matrix.

Telemetry is reduced to one mean value per series per 30-second labeling
interval so vehicle features line up with the EEG epochs for comparison.
The timestamps ascend, so each interval's samples are one contiguous
slice, found by binary search: one pass over the record in all.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import InvalidTelemetryRate
from .features import FeatureMatrix
from .session import (
    ORD_INTERVAL_SECONDS,
    VEHICLE_SERIES,
    OrdInterval,
    OrdLabelTrack,
    VehicleTelemetry,
    majority_label,
)

logger = logging.getLogger(__name__)

# Minimum fraction of an interval's expected samples required for its mean.
MIN_COVERAGE = 0.5


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


def interval_aggregate(telemetry: VehicleTelemetry, labels: OrdLabelTrack,
                       abs_mean: bool = False) -> FeatureMatrix:
    """Average each telemetry series over every labeling interval that
    ``interval_slices`` finds covered.

    Intervals holding less than half their expected samples are skipped
    (a warning logs the count). ``abs_mean`` switches to the mean of
    absolute values, removing signed cancellation.

    Returns one row per emitted interval, in label order, with the
    ``VEHICLE_SERIES`` columns.

    Raises:
        InvalidTelemetryRate: A sample rate that is not finite and positive,
            which gives no ascending timestamps or expected sample count.
    """
    rate = telemetry.sample_rate_hz
    if not (math.isfinite(rate) and rate > 0):
        raise InvalidTelemetryRate(
            f"telemetry sample rate must be finite and positive, got {rate}")
    # (samples, series): an interval is a row slice, and mean(axis=0) adds
    # its samples one by one in time order, the order report bytes depend on
    data = np.stack([np.asarray(s)[:telemetry.n_samples] for s in telemetry.series], axis=1)
    if abs_mean:
        data = np.abs(data)

    slices = interval_slices(telemetry, labels)
    rows = [(iv.index, majority_label(iv.ratings), data[start:end].mean(axis=0))
            for iv, start, end in slices]
    skipped = len(labels.intervals) - len(slices)
    if skipped:
        logger.warning("skipped %d interval(s) with telemetry coverage below %.0f%%",
                       skipped, MIN_COVERAGE * 100)
    return FeatureMatrix.from_rows(VEHICLE_SERIES, rows)
