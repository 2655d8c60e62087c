"""Labeled feature matrices shared by the EEG and vehicle pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .session import BinaryState


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-epoch feature rows with state labels.

    ``values`` has one row per epoch (or telemetry interval) and one
    column per named feature; row order is ingestion order and is never
    reshuffled.
    """

    feature_names: tuple[str, ...]
    values: np.ndarray  # shape (n_rows, n_features)
    states: tuple[BinaryState, ...]
    interval_indices: tuple[int, ...]
    session_ids: tuple[str, ...]

    def __post_init__(self):
        n = len(self.states)
        if self.values.shape != (n, len(self.feature_names)):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{n} rows x {len(self.feature_names)} features"
            )
        if len(self.interval_indices) != n or len(self.session_ids) != n:
            raise ValueError("row metadata lengths differ from the number of rows")

    def __len__(self) -> int:
        return len(self.states)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.feature_names.index(name)]

    def select(self, names: Sequence[str]) -> "FeatureMatrix":
        """Project onto a subset of features, keeping the given order."""
        idx = [self.feature_names.index(n) for n in names]
        return FeatureMatrix(
            feature_names=tuple(names),
            values=self.values[:, idx],
            states=self.states,
            interval_indices=self.interval_indices,
            session_ids=self.session_ids,
        )

    def by_state(self, name: str) -> dict[BinaryState, np.ndarray]:
        """Split one feature column into per-state value arrays."""
        col = self.column(name)
        mask = np.array([s is BinaryState.ALERT for s in self.states])
        return {BinaryState.ALERT: col[mask], BinaryState.DROWSY: col[~mask]}

    @classmethod
    def from_rows(cls, feature_names: Sequence[str],
                  rows: Iterable[tuple[int, BinaryState, Sequence[float]]],
                  session_id: str = "") -> "FeatureMatrix":
        rows = list(rows)
        values = (np.asarray([r[2] for r in rows], dtype=np.float64)
                  if rows else np.empty((0, len(feature_names))))
        return cls(
            feature_names=tuple(feature_names),
            values=values.reshape(len(rows), len(feature_names)),
            states=tuple(r[1] for r in rows),
            interval_indices=tuple(r[0] for r in rows),
            session_ids=(session_id,) * len(rows),
        )

    @classmethod
    def concat(cls, matrices: Sequence["FeatureMatrix"]) -> "FeatureMatrix":
        """Stack matrices with identical feature sets, preserving order."""
        if not matrices:
            raise ValueError("nothing to concatenate")
        names = matrices[0].feature_names
        for m in matrices[1:]:
            if m.feature_names != names:
                raise ValueError("feature name mismatch across matrices")
        return cls(
            feature_names=names,
            values=np.concatenate([m.values for m in matrices], axis=0),
            states=tuple(s for m in matrices for s in m.states),
            interval_indices=tuple(i for m in matrices for i in m.interval_indices),
            session_ids=tuple(s for m in matrices for s in m.session_ids),
        )

    def write_csv(self, dest: IO[str] | str | Path) -> None:
        """Write ``interval,state,<feature names...>`` rows."""
        f = open(dest, "w", encoding="utf-8", newline="") if isinstance(dest, (str, Path)) else dest
        try:
            f.write(",".join(("interval", "state") + self.feature_names) + "\n")
            for i in range(len(self)):
                cells = [str(self.interval_indices[i]), self.states[i].value]
                cells += [repr(float(v)) for v in self.values[i]]
                f.write(",".join(cells) + "\n")
        finally:
            if isinstance(dest, (str, Path)):
                f.close()
