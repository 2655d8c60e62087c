"""Command-line interface: argument parsing, the commands, their messages
and exit codes; the pipeline they run is ``drowsekit.pipeline``.

Commands:
    validate  Check every session in a manifest and list violations.
    analyze   Run the full pipeline and write the report JSON and CSV tables.
    features  Dump per-session feature matrices as CSV.
    synth     Generate a synthetic session in the ingest CSV formats.

Exit codes: 0 success, 1 analysis or validation failure, 2 usage or
input error. ``analyze`` and ``features`` take the sessions one at a time
in manifest order, so the first session that fails decides the code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from . import ingest
from .errors import DrowsekitError
from .pipeline import RunConfig, analyze_cohort, process_session, write_features, write_report_files
from .session import Session, validate_session
from .synthgen import SynthSpec, generate_session, load_synth_spec


class _LoadFailed(Exception):
    """Carries the error of a session that could not be loaded."""


def _load(entry: ingest.SessionManifest) -> Session:
    """Load one manifest entry; a load error becomes ``_LoadFailed``, with
    ``session <id>: `` in front of its message."""
    try:
        return ingest.load_session(entry)
    except (OSError, DrowsekitError) as exc:
        raise _LoadFailed(f"session {entry.session_id}: {exc}") from exc


def _cannot_load(manifest_path: Path, exc: Exception) -> int:
    print(f"error: cannot load cohort from {manifest_path}: {exc}", file=sys.stderr)
    return 2


def cmd_validate(manifest_path: Path) -> int:
    """List per-session validity; exit 0 only when every session is valid."""
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
            print(f"{entry.session_id}: LOAD FAILED {code}: {exc}")
            failures += 1
            continue
        violations = validate_session(session)
        del session  # released before the next session loads
        if violations:
            for v in violations:
                print(f"{entry.session_id}: {v.code}: {v.message}")
            failures += 1
        else:
            print(f"{entry.session_id}: OK")
    return 1 if failures else 0


def cmd_analyze(manifest_path: Path, out_dir: Path, config: RunConfig) -> int:
    """Run the pipeline over a cohort and write all report files."""
    try:
        entries = ingest.load_manifest(manifest_path)
    except (OSError, DrowsekitError) as exc:
        return _cannot_load(manifest_path, exc)
    try:
        # map holds no session between calls, so each is released before
        # the next one loads
        report = analyze_cohort(map(_load, entries), config, cohort_id=manifest_path.stem)
    except _LoadFailed as exc:
        return _cannot_load(manifest_path, exc)
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
    print(f"analyzed {report['n_sessions']} session(s); "
          f"{n_sig} significant feature(s) at alpha={config.alpha:g}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_features(manifest_path: Path, out_dir: Path, config: RunConfig) -> int:
    """Dump per-session EEG and vehicle feature matrices as CSV."""
    try:
        entries = ingest.load_manifest(manifest_path)
    except (OSError, DrowsekitError) as exc:
        return _cannot_load(manifest_path, exc)
    try:
        for entry in entries:
            # the session is released when process_session returns
            result = process_session(_load(entry), config)
            out_dir.mkdir(parents=True, exist_ok=True)
            for kind, matrix in (("eeg", result.eeg_features),
                                 ("vehicle", result.vehicle_features)):
                if matrix is not None:
                    path = out_dir / f"{entry.session_id}_{kind}_features.csv"
                    write_features(matrix, path)
                    print(f"wrote {path}")
    except _LoadFailed as exc:
        return _cannot_load(manifest_path, exc)
    except (DrowsekitError, ValueError) as exc:
        code = getattr(exc, "code", type(exc).__name__)
        print(f"error: feature extraction failed ({code}): {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write {out_dir}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_synth(out_dir: Path, seed: int, spec_path: Path | None = None) -> int:
    """Generate a synthetic session and write it in the ingest formats."""
    if seed < 0:  # np.random.default_rng takes non-negative seeds only
        print(f"error: --seed must be non-negative, got {seed}", file=sys.stderr)
        return 2
    try:
        spec = load_synth_spec(spec_path) if spec_path is not None else SynthSpec()
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
            print(f"wrote {p}")
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
