"""Labeled feature matrices shared by the EEG and vehicle pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-epoch feature rows with their drowsiness labels.

    ``values`` has one row per epoch (or telemetry interval) and one
    column per named feature; row order is ingestion order and is never
    reshuffled. ``drowsy`` and ``interval_index`` hold one bool and one int64
    per row; anything else raises ValueError, as an int mask picks wrong rows.
    """

    feature_names: tuple[str, ...]
    values: np.ndarray  # shape (n_rows, n_features)
    drowsy: np.ndarray  # shape (n_rows,), bool
    interval_index: np.ndarray  # shape (n_rows,), int64 label-grid index

    def __post_init__(self):
        n = len(self.values)
        if self.values.shape != (n, len(self.feature_names)):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{n} rows x {len(self.feature_names)} features"
            )
        for name, dtype in (("drowsy", np.bool_), ("interval_index", np.int64)):
            a = getattr(self, name)
            if not (isinstance(a, np.ndarray) and a.shape == (n,) and a.dtype == dtype):
                raise ValueError(f"{name} must be a 1-D {np.dtype(dtype)} array of {n} rows, got "
                                 f"shape {np.shape(a)} {getattr(a, 'dtype', type(a).__name__)}")

    def __len__(self) -> int:
        return len(self.values)

    def select(self, names: Sequence[str]) -> "FeatureMatrix":
        """Project onto a subset of features, keeping the given order."""
        idx = [self.feature_names.index(n) for n in names]
        return FeatureMatrix(feature_names=tuple(names), values=self.values[:, idx],
                             drowsy=self.drowsy, interval_index=self.interval_index)

    @classmethod
    def concat(cls, matrices: Sequence["FeatureMatrix"]) -> "FeatureMatrix":
        """Stack matrices with identical feature sets, preserving order."""
        if not matrices:
            raise ValueError("nothing to concatenate")
        names = matrices[0].feature_names
        if any(m.feature_names != names for m in matrices):
            raise ValueError("feature name mismatch across matrices")
        return cls(
            feature_names=names,
            values=np.concatenate([m.values for m in matrices], axis=0),
            drowsy=np.concatenate([m.drowsy for m in matrices]),
            interval_index=np.concatenate([m.interval_index for m in matrices]),
        )
