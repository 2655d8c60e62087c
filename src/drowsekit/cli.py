"""Command-line surface for cohort-level analysis.

Commands:
    validate  Check every session in a manifest and list violations.
    analyze   Run the full pipeline and write the report JSON and CSV tables.
    features  Dump per-session feature matrices as CSV.
    synth     Generate a synthetic session in the ingest CSV formats.

Exit codes: 0 success, 1 analysis or validation failure, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from . import __version__, ingest, preprocess, spectral, stats, vehicle
from .errors import DrowsekitError
from .features import FeatureMatrix
from .preprocess import (
    DenoiseSummary,
    denoise_epochs,
    denoise_summary,
    epoch_signal,
    filter_epoch,
    reference_kernels,
)
from .session import EEG_CHANNELS, VEHICLE_SERIES, Session, validate_session
from .spectral import BANDS, extract_features
from .stats import separation_report
from .synthgen import SynthSpec, generate_session, load_synth_spec
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
        that changes results, the package version or the numpy version (whose
        FFT and ``exp`` set the last bits) changes."""
        constants = {
            "version": __version__,
            "numpy_version": np.__version__,
            "min_coverage": vehicle.MIN_COVERAGE,
            "exact_path_max_min_n": stats.EXACT_PATH_MAX_MIN_N,
            "bands": [[b.name, b.lo_hz, b.hi_hz] for b in spectral.BANDS],
        }
        canonical = json.dumps({"params": self.to_param_dict(), "constants": constants},
                               sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SessionResult:
    """Per-session pipeline outputs."""

    eeg_features: FeatureMatrix
    vehicle_features: FeatureMatrix | None
    denoise: DenoiseSummary


def process_session(session: Session, config: RunConfig) -> SessionResult:
    """Run epoching, filtering, denoising, and feature extraction for one session."""
    hp, lp = reference_kernels()
    # the raw block is not kept, so only one sample block outlives the filter
    filtered = filter_epoch(epoch_signal(session.eeg, session.labels), hp, lp)
    kept = denoise_epochs(filtered, per_channel=config.per_channel_outliers)
    summary = denoise_summary(filtered, kept)
    eeg_matrix = extract_features(kept.epochs)
    vehicle_matrix = None
    if session.telemetry is not None:
        vehicle_matrix = interval_aggregate(session.telemetry, session.labels,
                                            abs_mean=config.abs_mean)
    return SessionResult(eeg_features=eeg_matrix, vehicle_features=vehicle_matrix,
                         denoise=summary)


def analyze_cohort(sessions: Sequence[Session], config: RunConfig,
                   cohort_id: str) -> dict:
    """Pool per-session results and build the full report structure.

    Raises:
        DrowsekitError: Any stage precondition failure (for example a
            single-state cohort).
        ValueError: An empty cohort or an invalid session.
    """
    if not sessions:
        raise ValueError("cohort is empty")
    for session in sessions:
        violations = validate_session(session)
        if violations:
            listing = "; ".join(f"{v.code}: {v.message}" for v in violations)
            raise ValueError(f"session {session.id} is invalid: {listing}")

    results = [process_session(s, config) for s in sessions]

    eeg_all = FeatureMatrix.concat([r.eeg_features for r in results])
    denoise = results[0].denoise
    for r in results[1:]:
        denoise = denoise.combine(r.denoise)

    names = eeg_all.feature_names
    abs_matrix = eeg_all.select([n for n in names if n.endswith("_abs")])
    rel_matrix = eeg_all.select([n for n in names if n.endswith("_rel")])

    def report_rows(matrix: FeatureMatrix) -> list[dict]:
        return [row.to_json_dict() for row in separation_report(matrix, alpha=config.alpha)]

    eeg_abs_rows = report_rows(abs_matrix)
    eeg_rel_rows = report_rows(rel_matrix)

    vehicle_matrices = [r.vehicle_features for r in results if r.vehicle_features is not None]
    vehicle_rows = []
    if vehicle_matrices:
        vehicle_all = FeatureMatrix.concat(vehicle_matrices)
        if len(vehicle_all):
            vehicle_rows = report_rows(vehicle_all)

    return {
        "cohort": cohort_id,
        "config_digest": config.digest(),
        "config": config.to_param_dict(),
        "n_sessions": len(sessions),
        "eeg_absolute": eeg_abs_rows,
        "eeg_relative": eeg_rel_rows,
        "vehicle": vehicle_rows,
        "denoise_table": denoise.to_json_dict(),
    }


# ---- report rendering ------------------------------------------------------

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


def _write_features(matrix: FeatureMatrix, path: Path) -> None:
    """Write ``interval,state,<feature names...>`` rows."""
    ingest.write_rows(path, ("interval", "state") + matrix.feature_names,
                      ((i, s.value, *v) for i, s, v in zip(matrix.interval_indices,
                                                           matrix.states,
                                                           matrix.values.tolist())))


# ---- commands ---------------------------------------------------------------

def _load_cohort(manifest_path: Path) -> list[Session]:
    entries = ingest.load_manifest(manifest_path)
    return [ingest.load_session(e) for e in entries]


def cmd_validate(manifest_path: Path, out: IO[str] | None = None) -> int:
    """List per-session validity; exit 0 only when every session is valid."""
    out = out if out is not None else sys.stdout
    try:
        entries = ingest.load_manifest(manifest_path)
    except (OSError, DrowsekitError) as exc:
        print(f"error: cannot read manifest {manifest_path}: {exc}", file=sys.stderr)
        return 2
    failures = 0
    for entry in entries:
        try:
            session = ingest.load_session(entry)
        except (OSError, DrowsekitError) as exc:
            code = getattr(exc, "code", type(exc).__name__)
            out.write(f"{entry.session_id}: LOAD FAILED {code}: {exc}\n")
            failures += 1
            continue
        violations = validate_session(session)
        if violations:
            for v in violations:
                out.write(f"{entry.session_id}: {v.code}: {v.message}\n")
            failures += 1
        else:
            out.write(f"{entry.session_id}: OK\n")
    return 1 if failures else 0


def cmd_analyze(manifest_path: Path, out_dir: Path, config: RunConfig,
                out: IO[str] | None = None) -> int:
    """Run the pipeline over a cohort and write all report files."""
    out = out if out is not None else sys.stdout
    try:
        sessions = _load_cohort(manifest_path)
    except (OSError, DrowsekitError) as exc:
        print(f"error: cannot load cohort from {manifest_path}: {exc}", file=sys.stderr)
        return 2
    try:
        report = analyze_cohort(sessions, config, cohort_id=manifest_path.stem)
    except (DrowsekitError, ValueError) as exc:
        code = getattr(exc, "code", type(exc).__name__)
        print(f"error: analysis failed ({code}): {exc}", file=sys.stderr)
        return 1
    try:
        paths = write_report_files(report, out_dir)
    except OSError as exc:
        print(f"error: cannot write {out_dir}: {exc}", file=sys.stderr)
        return 2
    n_sig = sum(row["significant"]
                for key in ("eeg_absolute", "eeg_relative", "vehicle")
                for row in report[key])
    out.write(f"analyzed {report['n_sessions']} session(s); "
              f"{n_sig} significant feature(s) at alpha={config.alpha:g}\n")
    for p in paths:
        out.write(f"wrote {p}\n")
    return 0


def cmd_features(manifest_path: Path, out_dir: Path, config: RunConfig,
                 out: IO[str] | None = None) -> int:
    """Dump per-session EEG and vehicle feature matrices as CSV."""
    out = out if out is not None else sys.stdout
    try:
        sessions = _load_cohort(manifest_path)
    except (OSError, DrowsekitError) as exc:
        print(f"error: cannot load cohort from {manifest_path}: {exc}", file=sys.stderr)
        return 2
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for session in sessions:
            result = process_session(session, config)
            eeg_path = out_dir / f"{session.id}_eeg_features.csv"
            _write_features(result.eeg_features, eeg_path)
            out.write(f"wrote {eeg_path}\n")
            if result.vehicle_features is not None:
                veh_path = out_dir / f"{session.id}_vehicle_features.csv"
                _write_features(result.vehicle_features, veh_path)
                out.write(f"wrote {veh_path}\n")
    except (DrowsekitError, ValueError) as exc:
        code = getattr(exc, "code", type(exc).__name__)
        print(f"error: feature extraction failed ({code}): {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write {out_dir}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_synth(out_dir: Path, seed: int, spec_path: Path | None = None,
              out: IO[str] | None = None) -> int:
    """Generate a synthetic session and write it in the ingest formats."""
    out = out if out is not None else sys.stdout
    if seed < 0:  # np.random.default_rng takes non-negative seeds only
        print(f"error: --seed must be non-negative, got {seed}", file=sys.stderr)
        return 2
    try:
        spec = load_synth_spec(spec_path) if spec_path is not None else SynthSpec()
        spec.validate()
    except (OSError, DrowsekitError, ValueError, TypeError) as exc:
        # ValueError: malformed JSON, or an integer past Python's digit limit
        print(f"error: invalid synth spec: {exc}", file=sys.stderr)
        return 2
    session = generate_session(spec, seed)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        eeg_path = out_dir / "eeg.csv"
        labels_path = out_dir / "labels.csv"
        ingest.write_eeg_csv(session.eeg, eeg_path)
        ingest.write_ord_csv(session.labels, labels_path)
        telemetry_path = None
        if session.telemetry is not None:
            telemetry_path = out_dir / "telemetry.csv"
            ingest.write_telemetry_csv(session.telemetry, telemetry_path)
        manifest_path = out_dir / "manifest.csv"
        ingest.write_manifest(
            [ingest.SessionManifest(session_id=session.id, eeg_path=eeg_path,
                                    telemetry_path=telemetry_path, labels_path=labels_path)],
            manifest_path, relative_to=out_dir)
    except OSError as exc:
        print(f"error: cannot write {out_dir}: {exc}", file=sys.stderr)
        return 2
    for p in (eeg_path, telemetry_path, labels_path, manifest_path):
        if p is not None:
            out.write(f"wrote {p}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drowsekit",
        description="Alert-vs-drowsy separation analysis of EEG and vehicle features",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pipeline_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--abs-mean", action="store_true",
                       help="aggregate telemetry with the mean of absolute values")
        p.add_argument("--per-channel-outliers", action="store_true",
                       help="apply the outlier fraction per channel instead of pooled")

    p_val = sub.add_parser("validate", help="validate every session in a manifest")
    p_val.add_argument("--manifest", type=Path, required=True)

    p_ana = sub.add_parser("analyze", help="run the full analysis pipeline")
    p_ana.add_argument("--manifest", type=Path, required=True)
    p_ana.add_argument("--out", type=Path, required=True, help="output directory")
    p_ana.add_argument("--alpha", type=float, default=RunConfig.alpha,
                       help="significance level (default %(default)s)")
    add_pipeline_flags(p_ana)

    p_fea = sub.add_parser("features", help="dump per-session feature CSVs")
    p_fea.add_argument("--manifest", type=Path, required=True)
    p_fea.add_argument("--out", type=Path, required=True, help="output directory")
    add_pipeline_flags(p_fea)

    p_syn = sub.add_parser("synth", help="generate a synthetic session")
    p_syn.add_argument("--out", type=Path, required=True, help="output directory")
    p_syn.add_argument("--seed", type=int, default=1)
    p_syn.add_argument("--spec", type=Path, default=None, help="synth spec JSON")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.manifest)
    if args.command == "analyze":
        try:
            config = RunConfig(alpha=args.alpha, abs_mean=args.abs_mean,
                               per_channel_outliers=args.per_channel_outliers)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return cmd_analyze(args.manifest, args.out, config)
    if args.command == "features":
        config = RunConfig(abs_mean=args.abs_mean, per_channel_outliers=args.per_channel_outliers)
        return cmd_features(args.manifest, args.out, config)
    if args.command == "synth":
        return cmd_synth(args.out, args.seed, args.spec)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
