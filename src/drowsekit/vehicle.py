"""Per-interval telemetry means as a feature matrix.

Telemetry is reduced to one mean value per series per 30-second labeling
interval so vehicle features line up with the EEG epochs for comparison.
"""

from __future__ import annotations

import logging

import numpy as np

from .features import FeatureMatrix
from .session import (
    VEHICLE_SERIES,
    OrdLabelTrack,
    VehicleTelemetry,
    majority_label,
)

logger = logging.getLogger(__name__)

# Minimum fraction of an interval's expected samples required for its mean.
MIN_COVERAGE = 0.5


def interval_aggregate(telemetry: VehicleTelemetry, labels: OrdLabelTrack,
                       abs_mean: bool = False, session_id: str = "") -> FeatureMatrix:
    """Average each telemetry series over every labeling interval.

    A sample belongs to interval k when its timestamp falls in
    ``[30k, 30(k+1))``. Intervals holding less than half their expected
    samples are skipped (a warning logs the count). ``abs_mean`` switches
    to the mean of absolute values, removing signed cancellation.

    Returns one row per emitted interval, in label order, with the
    ``VEHICLE_SERIES`` columns.
    """
    t = telemetry.timestamps()
    step = labels.interval_seconds
    expected = telemetry.sample_rate_hz * step
    data = np.stack([np.asarray(s)[:telemetry.n_samples] for s in telemetry.series])
    if abs_mean:
        data = np.abs(data)

    rows = []
    skipped = 0
    for iv in labels.intervals:
        lo = iv.index * step
        mask = (t >= lo) & (t < lo + step)
        count = int(mask.sum())
        if count < MIN_COVERAGE * expected:
            skipped += 1
            continue
        rows.append((iv.index, majority_label(iv.ratings), data[:, mask].mean(axis=1)))
    if skipped:
        logger.warning("skipped %d interval(s) with telemetry coverage below %.0f%%",
                       skipped, MIN_COVERAGE * 100)
    return FeatureMatrix.from_rows(VEHICLE_SERIES, rows, session_id=session_id)
