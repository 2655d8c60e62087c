"""Per-interval telemetry means as a feature matrix.

Telemetry is reduced to one mean value per series per 30-second labeling
interval so vehicle features line up with the EEG epochs for comparison.
The timestamps ascend, so each interval's samples are one contiguous
slice, found by binary search: one pass over the record in all.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteSample
from .features import FeatureMatrix
from .session import (
    VEHICLE_SERIES,
    OrdLabelTrack,
    VehicleTelemetry,
    interval_slices,
)


def interval_aggregate(telemetry: VehicleTelemetry, labels: OrdLabelTrack,
                       abs_mean: bool = False) -> FeatureMatrix:
    """Average each telemetry series over every labeling interval that
    ``session.interval_slices`` finds covered.

    Intervals holding less than half their expected samples
    (``session.MIN_COVERAGE``) are skipped without a log record; the
    returned ``interval_index`` says which were kept. ``abs_mean``
    switches to the mean of absolute values, removing signed cancellation.

    Returns one row per emitted interval, in label order, with the
    ``VEHICLE_SERIES`` columns, the interval's index as ``interval_index``
    and the track's majority vote at that index as ``drowsy``.

    Raises:
        NonFiniteSample: An interval mean overflows float64 (numpy does not
            warn about it).
    """
    index, start, end = interval_slices(telemetry, labels)
    values = np.empty((len(index), len(VEHICLE_SERIES)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (s0, s1) in enumerate(zip(start.tolist(), end.tolist())):
            # one interval at a time as a C-contiguous (samples, series) block:
            # mean(axis=0) adds its samples one by one in time order, the order
            # report bytes depend on (on a transposed view numpy would sum pairwise)
            block = np.ascontiguousarray(telemetry.series[:, s0:s1].T)
            if abs_mean:
                np.abs(block, out=block)
            values[k] = block.mean(axis=0)
    nonfinite = np.argwhere(~np.isfinite(values))
    if len(nonfinite):
        k, j = nonfinite[0]
        raise NonFiniteSample(f"series {VEHICLE_SERIES[j]} of interval {index[k]} "
                              f"has a non-finite mean ({values[k, j]:g})")
    return FeatureMatrix(feature_names=VEHICLE_SERIES, values=values,
                         drowsy=labels.drowsy[index], interval_index=index)
