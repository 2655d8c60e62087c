"""Load and write sessions in the documented CSV formats.

Formats (all UTF-8, ``\\n`` line endings, ``.`` decimal separator, no
quoting):

* EEG: header ``t,TP9,AF7,AF8,TP10``; one row per sample; ``t`` in seconds
  is informational, the sample index at 256 Hz is authoritative; channel
  values in microvolts.
* Telemetry: header ``t,steer_angle,steer_speed,lane_deviation,torque``;
  the sample rate is inferred from the time column, which must be uniform
  within 1%.
* Labels: header ``interval,rater1,rater2,rater3``; ``interval`` is the
  0-based 30-second interval index; ratings are integers 1..5.
* Cohort manifest: header ``session_id,eeg_path,telemetry_path,labels_path``
  with one session per row; ``telemetry_path`` may be empty; relative paths
  resolve against the manifest's directory.

Loaders never silently drop or reorder rows; writers emit shortest
round-trip float representations so load(write(x)) == x exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import (
    DuplicateSessionId,
    EmptyFile,
    GapInIntervals,
    InconsistentRowLength,
    InvalidEncoding,
    InvalidRating,
    MissingHeader,
    MissingRater,
    NonFiniteValue,
    NonNumericValue,
    NonUniformTimestep,
    WrongColumnSet,
)
from .session import (
    EEG_CHANNELS,
    EEG_SAMPLE_RATE_HZ,
    RATING_MAX,
    RATING_MIN,
    VEHICLE_SERIES,
    EegRecording,
    OrdInterval,
    OrdLabelTrack,
    Session,
    VehicleTelemetry,
    make_eeg_recording,
    make_telemetry,
)

EEG_HEADER = ("t",) + EEG_CHANNELS
TELEMETRY_HEADER = ("t",) + VEHICLE_SERIES
LABELS_HEADER = ("interval", "rater1", "rater2", "rater3")
MANIFEST_HEADER = ("session_id", "eeg_path", "telemetry_path", "labels_path")

# Relative tolerance on time steps when inferring the telemetry rate.
TIMESTEP_TOLERANCE = 0.01


@dataclass(frozen=True)
class SessionManifest:
    """One cohort entry pointing at a session's on-disk files."""

    session_id: str
    eeg_path: Path
    labels_path: Path
    telemetry_path: Path | None = None


def _read_lines(source: IO[bytes] | IO[str] | str | Path) -> list[str]:
    try:
        if isinstance(source, (str, Path)):
            text = Path(source).read_text(encoding="utf-8")
        else:
            raw = source.read()
            text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    except UnicodeDecodeError as exc:
        name = f"{source}: " if isinstance(source, (str, Path)) else ""
        raise InvalidEncoding(f"{name}not valid UTF-8 at byte {exc.start}") from None
    return text.splitlines()


def _parse_header(lines: list[str], expected: tuple[str, ...], what: str) -> None:
    if not lines or not lines[0].strip():
        raise MissingHeader(f"{what}: no header line")
    header = tuple(f.strip() for f in lines[0].split(","))
    if header != expected:
        raise WrongColumnSet(
            f"{what}: header {','.join(header)!r}, expected {','.join(expected)!r}"
        )


def _parse_numeric_rows(lines: list[str], n_cols: int, what: str) -> np.ndarray:
    """Parse data rows (everything after the header) into an (n, n_cols) array.

    Row numbers in errors are 1-based data-row indices.

    Raises:
        InconsistentRowLength, NonNumericValue, NonFiniteValue
    """
    rows: list[list[float]] = []
    for i, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != n_cols:
            raise InconsistentRowLength(i, f"{what}: row {i} has {len(fields)} fields, expected {n_cols}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise NonNumericValue(i, f"{what}: non-numeric value in row {i}: {line!r}") from None
    data = np.asarray(rows, dtype=np.float64).reshape(len(rows), n_cols)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        # map the first bad array row back to its data-row number (blank lines skipped)
        i = [i for i, line in enumerate(lines[1:], start=1) if line.strip()][int(np.argmin(finite))]
        raise NonFiniteValue(i, f"{what}: NaN or infinite value in row {i}: {lines[i]!r}")
    return data


def load_eeg_csv(source: IO[bytes] | IO[str] | str | Path) -> EegRecording:
    """Parse an EEG CSV into a 4-channel 256 Hz recording.

    Row order defines sample order; the time column is not used for
    alignment.

    Raises:
        InvalidEncoding, MissingHeader, WrongColumnSet, NonNumericValue,
        NonFiniteValue, InconsistentRowLength
    """
    lines = _read_lines(source)
    _parse_header(lines, EEG_HEADER, "EEG CSV")
    data = _parse_numeric_rows(lines, len(EEG_HEADER), "EEG CSV")
    return make_eeg_recording(
        channels=[data[:, k + 1] for k in range(len(EEG_CHANNELS))],
        sample_rate_hz=EEG_SAMPLE_RATE_HZ,
        start_time_s=float(data[0, 0]) if len(data) else 0.0,
    )


def load_telemetry_csv(source: IO[bytes] | IO[str] | str | Path) -> VehicleTelemetry:
    """Parse a telemetry CSV, inferring the sample rate from the time column.

    The rate is the reciprocal of the median time step; every step must
    match the median within 1% or the file is rejected.

    Raises:
        InvalidEncoding, MissingHeader, WrongColumnSet, NonNumericValue,
        NonFiniteValue, InconsistentRowLength, EmptyFile, NonUniformTimestep
    """
    lines = _read_lines(source)
    _parse_header(lines, TELEMETRY_HEADER, "telemetry CSV")
    data = _parse_numeric_rows(lines, len(TELEMETRY_HEADER), "telemetry CSV")
    if len(data) < 2:
        raise EmptyFile(f"telemetry CSV: {len(data)} data rows, need at least 2 to infer a rate")
    steps = np.diff(data[:, 0])
    median_step = float(np.median(steps))
    if median_step <= 0:
        raise NonUniformTimestep("telemetry CSV: non-increasing time column")
    if np.max(np.abs(steps - median_step)) > TIMESTEP_TOLERANCE * median_step:
        raise NonUniformTimestep(
            f"telemetry CSV: time steps deviate more than {TIMESTEP_TOLERANCE:.0%} "
            f"from the median step {median_step:g} s"
        )
    return make_telemetry(
        series=[data[:, k + 1] for k in range(len(VEHICLE_SERIES))],
        sample_rate_hz=1.0 / median_step,
        start_time_s=float(data[0, 0]),
    )


def load_ord_csv(source: IO[bytes] | IO[str] | str | Path) -> OrdLabelTrack:
    """Parse a labels CSV into an observer-rating track.

    Raises:
        InvalidEncoding, MissingHeader, WrongColumnSet, GapInIntervals,
        InvalidRating, MissingRater
    """
    lines = _read_lines(source)
    _parse_header(lines, LABELS_HEADER, "labels CSV")
    intervals: list[OrdInterval] = []
    for i, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < len(LABELS_HEADER) or any(f == "" for f in fields[1:]):
            raise MissingRater(f"labels CSV: row {i} does not carry three ratings: {line!r}")
        if len(fields) > len(LABELS_HEADER):
            raise InconsistentRowLength(i, f"labels CSV: row {i} has {len(fields)} fields")
        try:
            index = int(fields[0])
            ratings = tuple(int(f) for f in fields[1:4])
        except ValueError:
            raise InvalidRating(f"labels CSV: row {i} has a non-integer value: {line!r}") from None
        expected = len(intervals)
        if index != expected:
            raise GapInIntervals(
                f"labels CSV: row {i} has interval {index}, expected {expected}"
            )
        for r in ratings:
            if not RATING_MIN <= r <= RATING_MAX:
                raise InvalidRating(f"labels CSV: interval {index} rating {r} outside 1..5")
        intervals.append(OrdInterval(index=index, ratings=ratings))  # type: ignore[arg-type]
    return OrdLabelTrack(intervals=tuple(intervals))


def load_manifest(path: str | Path) -> list[SessionManifest]:
    """Parse a cohort manifest; relative paths resolve against its directory.

    Raises:
        InvalidEncoding, MissingHeader, WrongColumnSet, InconsistentRowLength,
        DuplicateSessionId
    """
    path = Path(path)
    lines = _read_lines(path)
    _parse_header(lines, MANIFEST_HEADER, "manifest")
    base = path.parent
    entries: list[SessionManifest] = []
    first_row: dict[str, int] = {}
    for i, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(MANIFEST_HEADER):
            raise InconsistentRowLength(i, f"manifest: row {i} has {len(fields)} fields")
        sid, eeg_p, tel_p, lab_p = fields
        if not sid or not eeg_p or not lab_p:
            raise WrongColumnSet(f"manifest: row {i} is missing a session id or required path")
        if sid in first_row:
            raise DuplicateSessionId(
                f"manifest: row {i} repeats session id {sid!r} from row {first_row[sid]}"
            )
        first_row[sid] = i
        entries.append(SessionManifest(
            session_id=sid,
            eeg_path=base / eeg_p,
            telemetry_path=(base / tel_p) if tel_p else None,
            labels_path=base / lab_p,
        ))
    return entries


def load_session(manifest: SessionManifest) -> Session:
    """Load every file referenced by one manifest entry."""
    eeg = load_eeg_csv(manifest.eeg_path)
    labels = load_ord_csv(manifest.labels_path)
    telemetry = None
    if manifest.telemetry_path is not None:
        telemetry = load_telemetry_csv(manifest.telemetry_path)
    return Session(id=manifest.session_id, eeg=eeg, labels=labels, telemetry=telemetry)


# ---- writers -------------------------------------------------------------

def _open_out(dest: IO[str] | str | Path):
    if isinstance(dest, (str, Path)):
        return open(dest, "w", encoding="utf-8", newline=""), True
    return dest, False


def _write_rows(dest: IO[str] | str | Path, header: Iterable[str],
                rows: Iterable[Iterable[object]]) -> None:
    f, close = _open_out(dest)
    try:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_format_cell(v) for v in row) + "\n")
    finally:
        if close:
            f.close()


def _format_cell(v: object) -> str:
    # repr of a float is its shortest exact round-trip form
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_eeg_csv(recording: EegRecording, dest: IO[str] | str | Path) -> None:
    """Write a recording in the EEG CSV format (exact round-trip)."""
    n = recording.n_samples
    t = recording.start_time_s + np.arange(n) / recording.sample_rate_hz
    cols = [t] + [np.asarray(c)[:n] for c in recording.channels]
    _write_rows(dest, EEG_HEADER, zip(*[c.tolist() for c in cols]))


def write_telemetry_csv(telemetry: VehicleTelemetry, dest: IO[str] | str | Path) -> None:
    """Write telemetry in the telemetry CSV format (exact round-trip)."""
    n = telemetry.n_samples
    t = telemetry.start_time_s + np.arange(n) / telemetry.sample_rate_hz
    cols = [t] + [np.asarray(s)[:n] for s in telemetry.series]
    _write_rows(dest, TELEMETRY_HEADER, zip(*[c.tolist() for c in cols]))


def write_ord_csv(track: OrdLabelTrack, dest: IO[str] | str | Path) -> None:
    """Write a label track in the labels CSV format."""
    _write_rows(dest, LABELS_HEADER,
                ((iv.index, *iv.ratings) for iv in track.intervals))


def write_manifest(entries: Iterable[SessionManifest], dest: IO[str] | str | Path,
                   relative_to: str | Path | None = None) -> None:
    """Write a cohort manifest, optionally with paths relative to a directory."""
    def rel(p: Path | None) -> str:
        if p is None:
            return ""
        return str(p.relative_to(relative_to)) if relative_to is not None else str(p)

    _write_rows(dest, MANIFEST_HEADER,
                ((e.session_id, rel(e.eeg_path), rel(e.telemetry_path), rel(e.labels_path))
                 for e in entries))
