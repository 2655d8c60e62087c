"""The analysis pipeline and the files it writes.

``analyze_cohort`` runs ``process_session`` (validation, epochs, filter,
artifact rule, features) on each session as the iterable yields it and
keeps only its ``SessionResult``, so a generator of sessions holds one
session in memory at a time. A result carries the features and the
session's record: its epochs cut and kept by state, the epochs the
artifact rule dropped and the label intervals each path skipped, a few
hundred bytes. The report lists the records under ``sessions`` in the
order the sessions came, and its ``denoise_table`` is their sum. Nothing
here logs: the report says what happened to each session.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__, ingest, preprocess, session, spectral, stats
from .errors import DegeneratePower, NonFinitePower, NonFiniteSample
from .features import FeatureMatrix
from .preprocess import denoise_epochs, epoch_signal, filter_epoch
from .session import EEG_CHANNELS, VEHICLE_SERIES, Session, validate_session
from .spectral import BANDS, extract_features
from .stats import separation_report
from .vehicle import interval_aggregate


@dataclass(frozen=True)
class RunConfig:
    """The settable pipeline parameters; the defaults reproduce the reference
    procedure, whose filter, artifact and Welch values are fixed constants.

    Raises:
        ValueError: ``alpha`` outside (0, 1).
    """

    alpha: float = stats.DEFAULT_ALPHA
    abs_mean: bool = False
    per_channel_outliers: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    def to_param_dict(self) -> dict:
        """The settable values plus the fixed method constants, read now."""
        return {
            "hp_cutoff_hz": preprocess.HP_CUTOFF_HZ,
            "hp_transition_hz": preprocess.HP_TRANSITION_HZ,
            "lp_cutoff_hz": preprocess.LP_CUTOFF_HZ,
            "lp_transition_hz": preprocess.LP_TRANSITION_HZ,
            "amplitude_threshold_uv": preprocess.DEFAULT_AMPLITUDE_THRESHOLD_UV,
            "max_outlier_fraction": preprocess.DEFAULT_MAX_OUTLIER_FRACTION,
            "nfft": spectral.DEFAULT_NFFT,
            "alpha": self.alpha,
            "abs_mean": self.abs_mean,
            "per_channel_outliers": self.per_channel_outliers,
        }

    def digest(self) -> str:
        """Hex digest that changes iff a pipeline parameter, a module constant
        that changes results, the bytes of the filter taps or the Welch
        window, the package version or the numpy version (whose FFT and
        ``exp`` set the last bits) changes."""
        constants = {
            "version": __version__,
            "numpy_version": np.__version__,
            "min_coverage": session.MIN_COVERAGE,
            "exact_path_max_min_n": stats.EXACT_PATH_MAX_MIN_N,
            "bands": [[b.name, b.lo_hz, b.hi_hz] for b in spectral.BANDS],
            "taps_and_window_sha256": [hashlib.sha256(a.tobytes()).hexdigest() for a in
                                       (preprocess.HP_TAPS, preprocess.LP_TAPS, spectral._WINDOW)],
        }
        canonical = json.dumps({"params": self.to_param_dict(), "constants": constants},
                               sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SessionResult:
    """Per-session pipeline outputs: the feature matrices and the session's
    entry in the report's ``sessions`` list. The record holds, in this key
    order: ``id``; ``pre_alert``, ``pre_drowsy``, ``post_alert`` and
    ``post_drowsy``, the epochs of each state before and after the artifact
    rule; ``dropped``, an ``[interval, outlier_fraction]`` pair per dropped
    epoch in interval order; ``eeg_skipped``, the label intervals the EEG
    does not fully cover; and ``telemetry_skipped``, those whose telemetry
    holds under ``session.MIN_COVERAGE`` of its samples, or None without
    telemetry."""

    eeg_features: FeatureMatrix
    vehicle_features: FeatureMatrix | None
    record: dict


def process_session(session: Session, config: RunConfig) -> SessionResult:
    """Validate one session, then run epoching, filtering, denoising and
    feature extraction on it.

    Raises:
        ValueError: The session is invalid (see ``validate_session``).
        NonFinitePower, DegeneratePower, NonFiniteSample: As the stage
            raised it, with ``session <id>: `` in front of its message.
        DrowsekitError: A stage precondition failure.
    """
    violations = validate_session(session)
    if violations:
        listing = "; ".join(f"{v.code}: {v.message}" for v in violations)
        raise ValueError(f"session {session.id} is invalid: {listing}")
    try:
        epochs = epoch_signal(session.eeg, session.labels)
        spectra = filter_epoch(session.eeg, epochs)
        kept = denoise_epochs(spectra, per_channel=config.per_channel_outliers)
        eeg_matrix = extract_features(kept.epochs)
        vehicle_matrix = None
        if session.telemetry is not None:
            vehicle_matrix = interval_aggregate(session.telemetry, session.labels,
                                                abs_mean=config.abs_mean)
    except (NonFinitePower, DegeneratePower, NonFiniteSample) as exc:
        raise type(exc)(f"session {session.id}: {exc}") from exc
    # sets, not np.setdiff1d, whose first call adds about 2 MB to the peak RSS
    intervals = set(range(len(session.labels)))
    cut, kept_drowsy = spectra.drowsy, kept.epochs.drowsy
    record = {
        "id": session.id,
        "pre_alert": int(np.count_nonzero(~cut)),
        "pre_drowsy": int(np.count_nonzero(cut)),
        "post_alert": int(np.count_nonzero(~kept_drowsy)),
        "post_drowsy": int(np.count_nonzero(kept_drowsy)),
        "dropped": [list(pair) for pair in zip(*(a.tolist() for a in kept.dropped))],
        "eeg_skipped": sorted(intervals - set(epochs.interval_index.tolist())),
        # a 0-row matrix is falsy, so test for None
        "telemetry_skipped": (None if vehicle_matrix is None
                              else sorted(intervals - set(vehicle_matrix.interval_index.tolist()))),
    }
    return SessionResult(eeg_features=eeg_matrix, vehicle_features=vehicle_matrix, record=record)


def analyze_cohort(sessions: Iterable[Session], config: RunConfig,
                   cohort_id: str) -> dict:
    """Process each session as ``sessions`` yields it, keeping only its
    result and no reference to the session itself while the next one is
    asked for, then pool the results and build the full report structure.

    Raises:
        DrowsekitError: Any stage precondition failure (for example a
            single-state cohort).
        ValueError: An empty cohort or an invalid session.
    """
    # map holds no session between calls, so a generator's session k is
    # released before it loads session k + 1
    results = list(map(functools.partial(process_session, config=config), sessions))
    if not results:
        raise ValueError("cohort is empty")
    records = [r.record for r in results]

    eeg_all = FeatureMatrix.concat([r.eeg_features for r in results])

    names = eeg_all.feature_names
    abs_matrix = eeg_all.select([n for n in names if n.endswith("_abs")])
    rel_matrix = eeg_all.select([n for n in names if n.endswith("_rel")])

    eeg_abs_rows = separation_report(abs_matrix, alpha=config.alpha)
    eeg_rel_rows = separation_report(rel_matrix, alpha=config.alpha)

    vehicle_matrices = [r.vehicle_features for r in results if r.vehicle_features is not None]
    vehicle_rows = []
    if vehicle_matrices:
        vehicle_all = FeatureMatrix.concat(vehicle_matrices)
        if len(vehicle_all):
            vehicle_rows = separation_report(vehicle_all, alpha=config.alpha)

    return {
        "cohort": cohort_id,
        "config_digest": config.digest(),
        "config": config.to_param_dict(),
        "n_sessions": len(results),
        "eeg_absolute": eeg_abs_rows,
        "eeg_relative": eeg_rel_rows,
        "vehicle": vehicle_rows,
        "denoise_table": denoise_table(records),
        "sessions": records,
    }


def denoise_table(records: list[dict]) -> dict:
    """The cohort's epochs of each state before and after the artifact rule,
    the sums of the session records' counts (at least one epoch cut), and
    the share removed as a percentage rounded half-up to 2 decimals."""
    pre_alert, pre_drowsy, post_alert, post_drowsy = (
        sum(r[key] for r in records)
        for key in ("pre_alert", "pre_drowsy", "post_alert", "post_drowsy"))
    pre_total, post_total = pre_alert + pre_drowsy, post_alert + post_drowsy
    removed = 1.0 - post_total / pre_total
    return {
        "pre_alert": pre_alert,
        "pre_drowsy": pre_drowsy,
        "pre_total": pre_total,
        "post_alert": post_alert,
        "post_drowsy": post_drowsy,
        "post_total": post_total,
        "removal_percent": float(Decimal(repr(removed * 100.0))
                                 .quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)),
    }


# ---- output files ------------------------------------------------------------

def format_p(p: float) -> str:
    """Render a p-value the way the summary tables print them."""
    return f"{p:.4e}" if p < 1e-3 else f"{p:.4f}"


def _cell(row: dict, significant: bool) -> str:
    return str(row["significant"]).lower() if significant else format_p(row["p_value"])


def _eeg_table(rows: list[dict], significant: bool) -> list[list[str]]:
    by_feature = {row["feature"]: row for row in rows}
    suffix = rows[0]["feature"].rsplit("_", 1)[1] if rows else "abs"
    return [[band.name] + [_cell(by_feature[f"{ch}_{band.name}_{suffix}"], significant)
                           for ch in EEG_CHANNELS]
            for band in BANDS]


def _vehicle_table(rows: list[dict], significant: bool) -> list[list[str]]:
    by_feature = {row["feature"]: row for row in rows}
    return [["significant" if significant else "p_value"]
            + [_cell(by_feature[name], significant) for name in VEHICLE_SERIES]]


def write_report_files(report: dict, out_dir: Path) -> list[Path]:
    """Write report.json plus the table-shaped CSV mirrors; returns the paths.

    Raises:
        ValueError: The report holds a NaN or infinite number; nothing is
            written then.
        OSError: ``out_dir`` cannot be created or written.
    """
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.write_text(text, encoding="utf-8")

    # (file stem, header, rows)
    tables = [(key + ("_significant" if significant else ""), ("band",) + EEG_CHANNELS,
               _eeg_table(report[key], significant))
              for key in ("eeg_absolute", "eeg_relative") for significant in (False, True)]
    if report["vehicle"]:
        tables += [("vehicle" + ("_significant" if significant else ""), ("",) + VEHICLE_SERIES,
                    _vehicle_table(report["vehicle"], significant))
                   for significant in (False, True)]
    d = report["denoise_table"]
    tables.append(("denoise", ("stage", "alert_epochs", "drowsy_epochs", "total_epochs"), [
        ("pre_denoising", d["pre_alert"], d["pre_drowsy"], d["pre_total"]),
        ("post_denoising", d["post_alert"], d["post_drowsy"], d["post_total"]),
        ("removal_percent", "", "", d["removal_percent"]),
    ]))

    written = [report_path]
    for stem, header, rows in tables:
        path = out_dir / f"{stem}.csv"
        ingest.write_rows(path, header, rows)
        written.append(path)
    return written


def write_features(matrix: FeatureMatrix, path: Path) -> None:
    """Write ``interval,state,<feature names...>`` rows; state is alert or drowsy."""
    ingest.write_rows(path, ("interval", "state") + matrix.feature_names,
                      ((i, "drowsy" if d else "alert", *v)
                       for i, d, v in zip(matrix.interval_index.tolist(), matrix.drowsy.tolist(),
                                          matrix.values.tolist())))
