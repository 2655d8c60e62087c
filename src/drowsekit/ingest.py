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

Every loader and writer takes a file path. Loaders never silently drop or
reorder rows; writers emit shortest round-trip float representations so
load(write(x)) == x exactly. Every CSV row goes through ``write_rows`` or
the float writers, which format a fixed number of rows at a time.

One parser decides what a number is: only ``np.loadtxt`` returns a numeric
array. A numeric file (EEG, telemetry) is first scanned once in fixed-size
binary blocks; when its header line ends in the first block and matches,
and every byte is ASCII outside ``\\x1c``-``\\x1f``, numpy parses it from
the path, so a load holds no copy of the text. On such text numpy reads the
cells ``NUMBER`` matches. A file the scan or numpy turns down is read into
lines only to name its first bad row (a wrong field count, else a cell
``NUMBER`` does not match, else a NaN or infinite value); one without data
rows loads as an empty block. ``_data_rows``, which reads the labels and
manifest rows too, skips only empty lines: a line of blanks is a row, as
numpy reads it. Header, label and manifest cells lose the blanks ``NUMBER``
allows, and label cells must match ``INTEGER``.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DuplicateSessionFiles,
    DuplicateSessionId,
    EmptyFile,
    GapInIntervals,
    InconsistentRowLength,
    IngestError,
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

# Bytes per read of the scan that decides whether numpy may parse a file
# from its path; the scan holds one block at a time.
_SCAN_BLOCK_BYTES = 1 << 20

# Rows the float writers format and write per block: a block's tolist()
# values and text take about a megabyte whatever the file's length.
_WRITE_BLOCK_ROWS = 4096

# numpy strips these next to a number as it does blanks; the scan keeps
# them from numpy, so that NUMBER describes what numpy reads
_NUMPY_ONLY_SEPARATORS = "\x1c\x1d\x1e\x1f"

# The blanks around a cell, which numpy strips next to a number in ASCII text
_BLANKS = " \t\v\f"

# A cell numpy reads as a float64 from ASCII text: optional blanks, a sign,
# then a decimal with an optional exponent, or inf, infinity or nan in any case
NUMBER = re.compile(r"[ \t\v\f]*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                    r"|(?i:inf|infinity|nan))[ \t\v\f]*")

# A label's interval index or rating
INTEGER = re.compile(r"[ \t\v\f]*[+-]?[0-9]+[ \t\v\f]*")

_FIRST_LINE = re.compile(rb"[^\r\n]*")


@dataclass(frozen=True)
class SessionManifest:
    """One cohort entry pointing at a session's on-disk files."""

    session_id: str
    eeg_path: Path
    labels_path: Path
    telemetry_path: Path | None = None


def _read_lines(path: str | Path) -> list[str]:
    """The lines of the file at ``path``; only ``\\n``, ``\\r\\n`` and ``\\r`` end one."""
    try:
        # text mode turns \r\n and \r into \n
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidEncoding(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    lines = text.split("\n")
    if not lines[-1]:  # a final \n ends a line, it starts none; popping copies no text
        lines.pop()
    return lines


def _header_fields(line: str) -> tuple[str, ...]:
    return tuple(f.strip(_BLANKS) for f in line.split(","))


def _data_rows(path: str | Path, header: tuple[str, ...], what: str) -> Iterator[tuple[int, str]]:
    """Check that the first line of the file at ``path`` is ``header``, then
    give each non-empty data row with its 1-based row number (empty rows
    count).

    Raises:
        InvalidEncoding, MissingHeader, WrongColumnSet
    """
    lines = _read_lines(path)
    if not lines or not lines[0].strip(_BLANKS):
        raise MissingHeader(f"{what}: no header line")
    found = _header_fields(lines[0])
    if found != header:
        raise WrongColumnSet(
            f"{what}: header {','.join(found)!r}, expected {','.join(header)!r}"
        )
    for i, line in enumerate(lines[1:], start=1):
        if line:
            yield i, line


def _load_numeric_csv(path: str | Path, header: tuple[str, ...], what: str) -> np.ndarray:
    """Check the header of a numeric CSV and parse its data rows into an
    (n, len(header)) array.

    Only ``np.loadtxt`` returns values: it parses a file whose header matches
    and whose bytes pass ``_numpy_may_parse`` from the path, in numpy's
    own chunks. When the scan or numpy turns a file down, its lines are read
    to find the fault: row numbers are 1-based data-row indices (empty rows
    count), and a non-finite value is reported only when every row parses.
    A file with no data rows gives the empty (0, len(header)) block. A file
    with rows and no faulty one is still an error: its header line does not
    end in the scan's first block, or numpy turned it down for a cause no
    row shows.

    Raises:
        InvalidEncoding, MissingHeader, WrongColumnSet, InconsistentRowLength,
        NonNumericValue, NonFiniteValue, IngestError
    """
    n_cols = len(header)
    if _numpy_may_parse(path, header):
        data = _loadtxt(path, n_cols)
        if data is not None:
            return data
    has_rows = False
    first_non_finite: tuple[int, str] | None = None
    for i, line in _data_rows(path, header, what):
        fields = line.split(",")
        if len(fields) != n_cols:
            raise InconsistentRowLength(f"{what}: row {i} has {len(fields)} fields, expected {n_cols}", i)
        if not all(map(NUMBER.fullmatch, fields)):
            raise NonNumericValue(f"{what}: non-numeric value in row {i}: {line!r}", i)
        if first_non_finite is None and not all(math.isfinite(float(f)) for f in fields):
            first_non_finite = i, line
        has_rows = True
    if first_non_finite is not None:
        i, line = first_non_finite
        raise NonFiniteValue(f"{what}: NaN or infinite value in row {i}: {line!r}", i)
    if not has_rows:
        return np.empty((0, n_cols))
    with open(path, "rb") as f:
        block = f.read(_SCAN_BLOCK_BYTES)
    if len(_FIRST_LINE.match(block).group()) == len(block):
        raise WrongColumnSet(
            f"{what}: the header line does not end in the first {_SCAN_BLOCK_BYTES} bytes")
    raise IngestError(f"{what}: numpy turned the file down, and no row is at fault")


def _numpy_may_parse(path: str | Path, header: tuple[str, ...]) -> bool:
    """Whether numpy may parse the file at ``path``: the first line ends in
    the first block and is ``header``, and every byte is ASCII (so valid
    UTF-8 without a BOM) outside ``\\x1c``-``\\x1f``, where ``NUMBER``
    describes what numpy reads.

    Reads the file once, ``_SCAN_BLOCK_BYTES`` at a time.
    """
    with open(path, "rb") as f:
        block = f.read(_SCAN_BLOCK_BYTES)
        first = _FIRST_LINE.match(block).group()
        if (len(first) == len(block) or not first.isascii()
                or _header_fields(first.decode("ascii")) != header):
            return False  # no line end in the first block, or a header to report
        while block:
            if not block.isascii() or any(ord(c) in block for c in _NUMPY_ONLY_SEPARATORS):
                return False
            block = f.read(_SCAN_BLOCK_BYTES)
    return True


def _loadtxt(path: str | Path, n_cols: int) -> np.ndarray | None:
    """numpy's parse of the data rows of the file at ``path`` as an
    (n, n_cols) array of finite values, or None when numpy raises, warns,
    or reads another shape or a non-finite value: the cases
    the line reader names."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(path, delimiter=",", dtype=np.float64, comments=None,
                              quotechar=None, ndmin=2, skiprows=1, encoding="utf-8")
    except (ValueError, Warning):
        return None
    if data.shape[1] != n_cols or not np.isfinite(data).all():
        return None
    return data


def _sample_rate(t: np.ndarray, what: str) -> float:
    """The sample rate of a time column of at least 2 values: the
    reciprocal of the median step.

    Raises:
        NonUniformTimestep: Steps that overflow, a non-increasing column, a
            median step whose reciprocal overflows, or a step that deviates
            more than 1% from the median.
    """
    # huge finite times can overflow the steps; that is reported, not warned
    # about. The steps are the one full-length array: the median partitions
    # them in place, and rounding is monotone, so the largest deviation lies
    # at the smallest or the largest step.
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(t)
        median_step = float(np.median(steps, overwrite_input=True))
        deviation = max(steps.max() - median_step, median_step - steps.min())
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


def load_eeg_csv(source: str | Path) -> EegRecording:
    """Parse an EEG CSV into a 4-channel recording.

    Row order defines sample order. The sample rate is inferred from the
    time column as for telemetry; a rate within 1% of 256 Hz reads as
    exactly 256 Hz, and a file with fewer than 2 rows is taken as 256 Hz.

    Raises:
        InvalidEncoding, MissingHeader, WrongColumnSet, NonNumericValue,
        NonFiniteValue, InconsistentRowLength, NonUniformTimestep, IngestError
    """
    data = _load_numeric_csv(source, EEG_HEADER, "EEG CSV")
    rate = EEG_SAMPLE_RATE_HZ
    if len(data) >= 2:
        rate = _sample_rate(data[:, 0], "EEG CSV")
        if abs(rate - EEG_SAMPLE_RATE_HZ) <= TIMESTEP_TOLERANCE * EEG_SAMPLE_RATE_HZ:
            rate = EEG_SAMPLE_RATE_HZ
    return make_eeg_recording(
        channels=data[:, 1:].T,  # a view: the load holds one copy of the values
        sample_rate_hz=rate,
        start_time_s=float(data[0, 0]) if len(data) else 0.0,
    )


def load_telemetry_csv(source: str | Path) -> VehicleTelemetry:
    """Parse a telemetry CSV, inferring the sample rate from the time column.

    The rate is the reciprocal of the median time step; every step must
    match the median within 1% or the file is rejected. Steps that
    overflow, and a median step whose reciprocal overflows, are rejected
    too.

    Raises:
        InvalidEncoding, MissingHeader, WrongColumnSet, NonNumericValue,
        NonFiniteValue, InconsistentRowLength, EmptyFile, NonUniformTimestep,
        IngestError
    """
    data = _load_numeric_csv(source, TELEMETRY_HEADER, "telemetry CSV")
    if len(data) < 2:
        raise EmptyFile(f"telemetry CSV: {len(data)} data rows, need at least 2 to infer a rate")
    return make_telemetry(
        series=data[:, 1:].T,
        sample_rate_hz=_sample_rate(data[:, 0], "telemetry CSV"),
        start_time_s=float(data[0, 0]),
    )


def load_ord_csv(source: str | Path) -> OrdLabelTrack:
    """Parse a labels CSV into an observer-rating track.

    Raises:
        InvalidEncoding, MissingHeader, WrongColumnSet, GapInIntervals,
        InvalidRating, MissingRater, InconsistentRowLength
    """
    intervals: list[tuple[int, int, int]] = []
    for i, line in _data_rows(source, LABELS_HEADER, "labels CSV"):
        fields = line.split(",")
        if len(fields) < len(LABELS_HEADER) or not all(f.strip(_BLANKS) for f in fields[1:]):
            raise MissingRater(f"labels CSV: row {i} does not carry three ratings: {line!r}", i)
        if len(fields) > len(LABELS_HEADER):
            raise InconsistentRowLength(f"labels CSV: row {i} has {len(fields)} fields", i)
        if not all(map(INTEGER.fullmatch, fields)):
            raise InvalidRating(f"labels CSV: row {i} has a non-integer value: {line!r}", i)
        index, *ratings = map(int, fields)
        expected = len(intervals)
        if index != expected:
            raise GapInIntervals(f"labels CSV: row {i} has interval {index}, expected {expected}", i)
        for r in ratings:
            if not RATING_MIN <= r <= RATING_MAX:
                raise InvalidRating(f"labels CSV: interval {index} rating {r} outside 1..5", i)
        intervals.append(tuple(ratings))  # type: ignore[arg-type]
    return OrdLabelTrack(intervals=tuple(intervals))


def load_manifest(path: str | Path) -> list[SessionManifest]:
    """Parse a cohort manifest; relative paths resolve against its directory.

    Raises:
        InvalidEncoding, MissingHeader, WrongColumnSet, InconsistentRowLength,
        DuplicateSessionId, DuplicateSessionFiles, UnsafeSessionId, EmptyFile
    """
    base = Path(path).parent
    entries: list[SessionManifest] = []
    first_row: dict[str, int] = {}
    listed_in: dict[Path, int] = {}
    for i, line in _data_rows(path, MANIFEST_HEADER, "manifest"):
        fields = [f.strip(_BLANKS) for f in line.split(",")]
        if len(fields) != len(MANIFEST_HEADER):
            raise InconsistentRowLength(f"manifest: row {i} has {len(fields)} fields", i)
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
        entry = SessionManifest(
            session_id=sid,
            eeg_path=base / eeg_p,
            telemetry_path=(base / tel_p) if tel_p else None,
            labels_path=base / lab_p,
        )
        # one set of files under two ids would pool the session twice
        paths = [p.resolve() for p in (entry.eeg_path, entry.labels_path, entry.telemetry_path)
                 if p is not None]
        for file in paths:
            if file in listed_in:
                raise DuplicateSessionFiles(
                    f"manifest: row {i} repeats file '{file}' from row {listed_in[file]}"
                )
        listed_in.update(dict.fromkeys(paths, i))
        entries.append(entry)
    if not entries:
        raise EmptyFile("manifest: no session rows")
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

def _write_lines(dest: str | Path, header: Iterable[str], lines: Iterable[str]) -> None:
    with open(dest, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        f.writelines(lines)


def write_rows(dest: str | Path, header: Iterable[str],
               rows: Iterable[Iterable[object]]) -> None:
    """Write a header line, then one line of ``str`` of each cell per row,
    comma-separated; a float's ``str`` is its shortest round-trip form."""
    _write_lines(dest, header, (",".join(map(str, row)) + "\n" for row in rows))


def _write_timed_columns(dest: str | Path, header: Iterable[str],
                         start_time_s: float, sample_rate_hz: float,
                         columns: np.ndarray) -> None:
    """Write one row per sample k: ``start_time_s + k / sample_rate_hz``, then
    column k of the ``(columns, samples)`` array, ``_WRITE_BLOCK_ROWS`` rows
    at a time."""
    n = columns.shape[1]
    # %r of a Python float is its shortest exact round-trip form; one row
    # template over a block's tolist() columns formats a row in one call
    template = ",".join(["%r"] * (len(columns) + 1)) + "\n"

    def blocks() -> Iterable[str]:
        for lo in range(0, n, _WRITE_BLOCK_ROWS):
            hi = min(lo + _WRITE_BLOCK_ROWS, n)
            # bit for bit the [lo:hi] slice of start_time_s + np.arange(n) / sample_rate_hz
            t = start_time_s + np.arange(lo, hi) / sample_rate_hz
            rows = zip(t.tolist(), *columns[:, lo:hi].tolist())
            yield "".join([template % row for row in rows])

    _write_lines(dest, header, blocks())


def write_eeg_csv(recording: EegRecording, dest: str | Path) -> None:
    """Write a recording in the EEG CSV format (exact round-trip)."""
    _write_timed_columns(dest, EEG_HEADER, recording.start_time_s,
                         recording.sample_rate_hz, recording.channels)


def write_telemetry_csv(telemetry: VehicleTelemetry, dest: str | Path) -> None:
    """Write telemetry in the telemetry CSV format (exact round-trip)."""
    _write_timed_columns(dest, TELEMETRY_HEADER, telemetry.start_time_s,
                         telemetry.sample_rate_hz, telemetry.series)


def write_ord_csv(track: OrdLabelTrack, dest: str | Path) -> None:
    """Write a label track in the labels CSV format, one row per interval
    numbered by its position."""
    write_rows(dest, LABELS_HEADER, ((k, *ratings) for k, ratings in enumerate(track.intervals)))


def write_manifest(entries: Iterable[SessionManifest], dest: str | Path,
                   relative_to: str | Path) -> None:
    """Write a cohort manifest with paths relative to a directory."""
    def rel(p: Path | None) -> str:
        return "" if p is None else str(p.relative_to(relative_to))

    write_rows(dest, MANIFEST_HEADER,
               ((e.session_id, rel(e.eeg_path), rel(e.telemetry_path), rel(e.labels_path))
                for e in entries))
