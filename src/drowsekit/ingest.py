"""Load and write sessions in the documented CSV formats.

Formats (all UTF-8, ``\\n`` line endings, ``.`` decimal separator, no
quoting):

* EEG: header ``t,TP9,AF7,AF8,TP10``; one row per sample; ``t`` in seconds
  must step uniformly within 1%, and its rate must be 256 Hz within 1%
  (the recording then reads as exactly 256 Hz; other rates load as
  inferred, and validation flags them); channel values in microvolts.
* Telemetry: header ``t,steer_angle,steer_speed,lane_deviation,torque``;
  the sample rate is inferred from the time column, which must be uniform
  within 1%.
* Labels: header ``interval,rater1,rater2,rater3``; ``interval`` is the
  0-based 30-second interval index; ratings are integers 1..5.
* Cohort manifest: header ``session_id,eeg_path,telemetry_path,labels_path``
  with one session per row; ``telemetry_path`` may be empty; relative paths
  resolve against the manifest's directory.

Loaders never silently drop or reorder rows; writers emit shortest
round-trip float representations so load(write(x)) == x exactly. Numeric
bodies (EEG, telemetry) are parsed by numpy's C parser; the row-by-row
``float`` parser runs only when that one fails, to build the row-numbered
error, so both give the same arrays and the same errors.
"""

from __future__ import annotations

import warnings
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
    UnsafeSessionId,
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

# Relative tolerance on time steps when inferring a sample rate, and of an
# inferred EEG rate against 256 Hz.
TIMESTEP_TOLERANCE = 0.01


@dataclass(frozen=True)
class SessionManifest:
    """One cohort entry pointing at a session's on-disk files."""

    session_id: str
    eeg_path: Path
    labels_path: Path
    telemetry_path: Path | None = None


def _read_lines(source: IO[bytes] | IO[str] | str | Path) -> list[str]:
    """The lines of ``source``; only ``\\n``, ``\\r\\n`` and ``\\r`` end one."""
    try:
        if isinstance(source, (str, Path)):
            # text mode already turns \r\n and \r into \n
            text = Path(source).read_text(encoding="utf-8")
        else:
            raw = source.read()
            text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
            text = text.replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        name = f"{source}: " if isinstance(source, (str, Path)) else ""
        raise InvalidEncoding(f"{name}not valid UTF-8 at byte {exc.start}") from None
    lines = text.split("\n")
    if not lines[-1]:  # a final \n ends a line, it starts none; popping copies no text
        lines.pop()
    return lines


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

    numpy's C parser reads the non-blank rows. A body it rejects, warns
    about, shapes differently or reads as non-finite, and one holding a
    character in ``\\x1c``-``\\x1f``, goes to ``_parse_row_by_row``
    unchanged, which raises the row-numbered error (or returns its own
    array, e.g. for ``1_0``, which only ``float`` accepts). Row numbers in
    errors are 1-based data-row indices.

    Raises:
        InconsistentRowLength, NonNumericValue, NonFiniteValue
    """
    body = [line for line in lines[1:] if line.strip()]
    if body and not _has_numpy_only_separator(body):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                data = np.loadtxt(body, delimiter=",", dtype=np.float64, comments=None,
                                  quotechar=None, ndmin=2)
        except (ValueError, Warning):
            pass
        else:
            if data.shape == (len(body), n_cols) and np.isfinite(data).all():
                return data
    return _parse_row_by_row(lines, n_cols, what)


def _has_numpy_only_separator(lines: list[str]) -> bool:
    # numpy strips \x1c-\x1f next to a number, float() does not; four scans
    # of one string beat one scan per line
    text = "".join(lines)
    return any(c in text for c in "\x1c\x1d\x1e\x1f")


def _parse_row_by_row(lines: list[str], n_cols: int, what: str) -> np.ndarray:
    """Parse data rows one ``float`` at a time; the error reporter of
    ``_parse_numeric_rows``.

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


def _sample_rate(t: np.ndarray, what: str) -> float:
    """The sample rate of a time column of at least 2 values: the
    reciprocal of the median step.

    Raises:
        NonUniformTimestep: Steps that overflow, a non-increasing column, a
            median step whose reciprocal overflows, or a step that deviates
            more than 1% from the median.
    """
    # huge finite times can overflow the steps; that is reported, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(t)
        median_step = float(np.median(steps))
        deviation = np.max(np.abs(steps - median_step))
    if not (np.isfinite(steps).all() and np.isfinite(median_step)):
        raise NonUniformTimestep(f"{what}: time steps overflow")
    if median_step <= 0:
        raise NonUniformTimestep(f"{what}: non-increasing time column")
    if not np.isfinite(1.0 / median_step):
        raise NonUniformTimestep(
            f"{what}: median step {median_step:g} s gives no finite sample rate")
    if deviation > TIMESTEP_TOLERANCE * median_step:
        raise NonUniformTimestep(
            f"{what}: time steps deviate more than {TIMESTEP_TOLERANCE:.0%} "
            f"from the median step {median_step:g} s"
        )
    return 1.0 / median_step


def load_eeg_csv(source: IO[bytes] | IO[str] | str | Path) -> EegRecording:
    """Parse an EEG CSV into a 4-channel recording.

    Row order defines sample order. The sample rate is inferred from the
    time column as for telemetry; a rate within 1% of 256 Hz reads as
    exactly 256 Hz, and a file with fewer than 2 rows is taken as 256 Hz.

    Raises:
        InvalidEncoding, MissingHeader, WrongColumnSet, NonNumericValue,
        NonFiniteValue, InconsistentRowLength, NonUniformTimestep
    """
    lines = _read_lines(source)
    _parse_header(lines, EEG_HEADER, "EEG CSV")
    data = _parse_numeric_rows(lines, len(EEG_HEADER), "EEG CSV")
    rate = EEG_SAMPLE_RATE_HZ
    if len(data) >= 2:
        rate = _sample_rate(data[:, 0], "EEG CSV")
        if abs(rate - EEG_SAMPLE_RATE_HZ) <= TIMESTEP_TOLERANCE * EEG_SAMPLE_RATE_HZ:
            rate = EEG_SAMPLE_RATE_HZ
    return make_eeg_recording(
        channels=[data[:, k + 1] for k in range(len(EEG_CHANNELS))],
        sample_rate_hz=rate,
        start_time_s=float(data[0, 0]) if len(data) else 0.0,
    )


def load_telemetry_csv(source: IO[bytes] | IO[str] | str | Path) -> VehicleTelemetry:
    """Parse a telemetry CSV, inferring the sample rate from the time column.

    The rate is the reciprocal of the median time step; every step must
    match the median within 1% or the file is rejected. Steps that
    overflow, and a median step whose reciprocal overflows, are rejected
    too.

    Raises:
        InvalidEncoding, MissingHeader, WrongColumnSet, NonNumericValue,
        NonFiniteValue, InconsistentRowLength, EmptyFile, NonUniformTimestep
    """
    lines = _read_lines(source)
    _parse_header(lines, TELEMETRY_HEADER, "telemetry CSV")
    data = _parse_numeric_rows(lines, len(TELEMETRY_HEADER), "telemetry CSV")
    if len(data) < 2:
        raise EmptyFile(f"telemetry CSV: {len(data)} data rows, need at least 2 to infer a rate")
    return make_telemetry(
        series=[data[:, k + 1] for k in range(len(VEHICLE_SERIES))],
        sample_rate_hz=_sample_rate(data[:, 0], "telemetry CSV"),
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
        DuplicateSessionId, UnsafeSessionId
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
        if sid in (".", "..") or any(c in sid for c in "/\\\0"):
            # ``features`` writes <out>/<session id>_*.csv, so the id must not be a path
            raise UnsafeSessionId(f"manifest: row {i} has session id {sid!r}, which is not a plain name")
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


def _write_lines(dest: IO[str] | str | Path, header: Iterable[str],
                 lines: Iterable[str]) -> None:
    f, close = _open_out(dest)
    try:
        f.write(",".join(header) + "\n")
        f.writelines(lines)
    finally:
        if close:
            f.close()


def _write_rows(dest: IO[str] | str | Path, header: Iterable[str],
                rows: Iterable[Iterable[object]]) -> None:
    _write_lines(dest, header, (",".join(map(str, row)) + "\n" for row in rows))


def _write_float_columns(dest: IO[str] | str | Path, header: Iterable[str],
                         columns: list[np.ndarray]) -> None:
    # %r of a Python float is its shortest exact round-trip form; one row
    # template over the tolist() columns formats a row in one call
    template = ",".join(["%r"] * len(columns)) + "\n"
    _write_lines(dest, header, (template % row for row in zip(*[c.tolist() for c in columns])))


def write_eeg_csv(recording: EegRecording, dest: IO[str] | str | Path) -> None:
    """Write a recording in the EEG CSV format (exact round-trip)."""
    n = recording.n_samples
    t = recording.start_time_s + np.arange(n) / recording.sample_rate_hz
    _write_float_columns(dest, EEG_HEADER,
                         [t] + [np.asarray(c)[:n] for c in recording.channels])


def write_telemetry_csv(telemetry: VehicleTelemetry, dest: IO[str] | str | Path) -> None:
    """Write telemetry in the telemetry CSV format (exact round-trip)."""
    n = telemetry.n_samples
    t = telemetry.start_time_s + np.arange(n) / telemetry.sample_rate_hz
    _write_float_columns(dest, TELEMETRY_HEADER,
                         [t] + [np.asarray(s)[:n] for s in telemetry.series])


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
