import io
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import numeric_csv_oracle, write_rows_per_cell

from drowsekit import ingest
from drowsekit.errors import (
    DrowsekitError,
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
    WrongColumnSet,
)
from drowsekit.session import (
    OrdLabelTrack,
    make_eeg_recording,
    make_telemetry,
)


def _csv(tmp_path, text):
    """A file holding ``text`` (``str`` as UTF-8, or ``bytes``) as written."""
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return path


def _eeg_csv(tmp_path, n_rows, header="t,TP9,AF7,AF8,TP10"):
    lines = [header]
    for k in range(n_rows):
        lines.append(f"{k / 256.0!r},{1.0 * k!r},{2.0!r},{3.0!r},{4.0!r}")
    return _csv(tmp_path, "\n".join(lines) + "\n")


def test_load_eeg_full_epoch_count(tmp_path):
    rec = ingest.load_eeg_csv(_eeg_csv(tmp_path, 7680))
    assert rec.n_samples == 7680
    assert rec.sample_rate_hz == 256.0
    assert len(rec.channels) == 4


def test_load_eeg_single_row(tmp_path):
    # one row must still load as (1, 5), not as a flat 5-vector
    rec = ingest.load_eeg_csv(_eeg_csv(tmp_path, 1))
    assert rec.n_samples == 1
    assert [c.tolist() for c in rec.channels] == [[0.0], [2.0], [3.0], [4.0]]
    assert rec.start_time_s == 0.0


def _eeg_csv_at(tmp_path, times):
    lines = ["t,TP9,AF7,AF8,TP10"] + [f"{t!r},1.0,2.0,3.0,4.0" for t in times]
    return _csv(tmp_path, "\n".join(lines) + "\n")


@pytest.mark.parametrize("start, step, rate", [
    (0.0, 1 / 256, 256.0),
    (1e6, 1 / 256, 256.0),  # rounded steps at large t: 256 Hz within 1%
    (0.0, 1 / 258, 256.0),
    (0.0, 1 / 128, 128.0),
    (0.0, 1 / 512, 512.0),
])
def test_load_eeg_infers_rate(start, step, rate, tmp_path):
    rec = ingest.load_eeg_csv(_eeg_csv_at(tmp_path, [start + k * step for k in range(100)]))
    assert rec.sample_rate_hz == rate


# the steps' distance from the median overflows, but the steps are finite
FAR_STEP = [-1e308, 0.0, 1e308, -0.5e308]

BAD_EEG_STEPS = [
    ([0.0, 0.0, 0.0], "non-increasing"),
    ([0.0, 1 / 256, 0.0], "non-increasing"),
    ([0.0, 1 / 256, 2 / 256, 4 / 256, 5 / 256], "deviate more than 1%"),
    ([-1e308, 1e308], "time steps overflow"),
    ([0.0, 5e-324, 1e-323], "gives no finite sample rate"),
    (FAR_STEP, "deviate more than 1%"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("times, message", BAD_EEG_STEPS,
                         ids=[f"times{k}" for k in range(len(BAD_EEG_STEPS))])
def test_load_eeg_rejects_bad_time_steps(times, message, tmp_path):
    with pytest.raises(NonUniformTimestep, match=message):
        ingest.load_eeg_csv(_eeg_csv_at(tmp_path, times))


def test_load_eeg_preserves_row_order(tmp_path):
    rec = ingest.load_eeg_csv(_eeg_csv(tmp_path, 100))
    np.testing.assert_array_equal(rec.channels[0], np.arange(100, dtype=float))


def test_load_eeg_missing_column(tmp_path):
    with pytest.raises(WrongColumnSet):
        ingest.load_eeg_csv(_eeg_csv(tmp_path, 10, header="t,TP9,AF7,TP10"))


def test_load_eeg_missing_header(tmp_path):
    with pytest.raises(MissingHeader):
        ingest.load_eeg_csv(_csv(tmp_path, ""))


def test_load_eeg_non_numeric_row_index(tmp_path):
    lines = ["t,TP9,AF7,AF8,TP10"]
    for k in range(1, 11):
        v = "abc" if k == 5 else "1.0"
        lines.append(f"0.0,{v},2.0,3.0,4.0")
    with pytest.raises(NonNumericValue) as err:
        ingest.load_eeg_csv(_csv(tmp_path, "\n".join(lines)))
    assert err.value.row == 5


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_load_eeg_non_finite_row_index(token, tmp_path):
    lines = ["t,TP9,AF7,AF8,TP10"]
    for k in range(1, 11):
        # a blank data row still counts, as it does for NonNumericValue
        lines.append("" if k == 3 else f"0.0,1.0,{token if k == 7 else '2.0'},3.0,4.0")
    with pytest.raises(NonFiniteValue) as err:
        ingest.load_eeg_csv(_csv(tmp_path, "\n".join(lines)))
    assert err.value.row == 7


def test_load_eeg_inconsistent_row(tmp_path):
    text = "t,TP9,AF7,AF8,TP10\n0.0,1.0,2.0,3.0,4.0\n0.1,1.0,2.0\n"
    with pytest.raises(InconsistentRowLength) as err:
        ingest.load_eeg_csv(_csv(tmp_path, text))
    assert err.value.row == 2


def _telemetry_csv(tmp_path, times, value=0.5):
    lines = ["t,steer_angle,steer_speed,lane_deviation,torque"]
    for t in times:
        lines.append(f"{t!r},{value!r},{value!r},{value!r},{value!r}")
    return _csv(tmp_path, "\n".join(lines) + "\n")


def test_load_telemetry_infers_rate(tmp_path):
    tel = ingest.load_telemetry_csv(_telemetry_csv(tmp_path, [k * 0.02 for k in range(100)]))
    assert tel.sample_rate_hz == pytest.approx(50.0)
    assert tel.n_samples == 100


def test_load_telemetry_rejects_gap(tmp_path):
    times = [0.0, 0.02, 0.04, 0.24, 0.26]
    with pytest.raises(NonUniformTimestep):
        ingest.load_telemetry_csv(_telemetry_csv(tmp_path, times))


OVERFLOWING_TELEMETRY_STEPS = [
    ([-1e308, 1e308], "time steps overflow"),                # the step overflows to inf
    ([1e308, -1e308, 1e308], "time steps overflow"),         # steps -inf and inf
    # finite steps, their mean (the median) overflows
    ([-1.7e308, -0.2e308, 1.3e308], "time steps overflow"),
    ([0.0, 5e-324, 1e-323], "gives no finite sample rate"),  # the rate 1 / 5e-324 overflows
    (FAR_STEP, "deviate more than 1%"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("times, message", OVERFLOWING_TELEMETRY_STEPS,
                         ids=[f"times{k}" for k in range(len(OVERFLOWING_TELEMETRY_STEPS))])
def test_load_telemetry_overflowing_steps(times, message, tmp_path):
    # the first case used to load with sample_rate_hz 0.0 and two RuntimeWarnings
    with pytest.raises(NonUniformTimestep, match=message):
        ingest.load_telemetry_csv(_telemetry_csv(tmp_path, times))


def test_sample_rate_holds_one_array_of_steps():
    # a 40-interval EEG time column: beside the steps, only a bool mask of
    # them; a first call warms numpy up
    t = np.arange(40 * 7680) / 256.0
    ingest._sample_rate(t[:8], "EEG CSV")
    tracemalloc.start()
    try:
        rate = ingest._sample_rate(t, "EEG CSV")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rate == 256.0
    assert peak < 1.5 * t.nbytes


def test_load_telemetry_nan_timestamp(tmp_path):
    # a NaN time used to load as sample_rate_hz = nan and pass validation
    with pytest.raises(NonFiniteValue) as err:
        ingest.load_telemetry_csv(_telemetry_csv(tmp_path, [0.0, 0.02, float("nan"), 0.06]))
    assert err.value.row == 3


def test_load_telemetry_empty_body(tmp_path):
    with pytest.raises(EmptyFile):
        ingest.load_telemetry_csv(_telemetry_csv(tmp_path, []))


@pytest.mark.parametrize("loader", [ingest.load_eeg_csv, ingest.load_telemetry_csv,
                                    ingest.load_ord_csv])
def test_load_invalid_utf8(loader, tmp_path):
    with pytest.raises(InvalidEncoding):
        loader(_csv(tmp_path, b"t,TP9\n\xff\xfe\n"))


def _labels_csv(tmp_path, rows):
    lines = ["interval,rater1,rater2,rater3"]
    lines += [",".join(str(v) for v in row) for row in rows]
    return _csv(tmp_path, "\n".join(lines) + "\n")


def test_load_ord_two_intervals(tmp_path):
    track = ingest.load_ord_csv(_labels_csv(tmp_path, [(0, 1, 1, 2), (1, 2, 3, 3)]))
    assert len(track) == 2
    assert track.intervals[1] == (2, 3, 3)


def test_load_ord_gap(tmp_path):
    with pytest.raises(GapInIntervals):
        ingest.load_ord_csv(_labels_csv(tmp_path, [(0, 1, 1, 1), (2, 1, 1, 1)]))


def test_load_ord_invalid_rating(tmp_path):
    with pytest.raises(InvalidRating):
        ingest.load_ord_csv(_labels_csv(tmp_path, [(0, 1, 6, 1)]))


@pytest.mark.parametrize("row", ["0,\u0661,1,1", "0,\uff14,1,1", "0,0_1,1,1", "\uff10,1,1,1",
                                 "0,1\xa0,1,1", "0,1.0,1,1", "0,1,1,\u3000"])
def test_load_ord_rejects_what_only_int_reads(row, tmp_path):
    # int() reads each of these; an index or a rating is ASCII digits with a sign
    path = _csv(tmp_path, f"interval,rater1,rater2,rater3\n{row}\n")
    with pytest.raises(InvalidRating, match="^labels CSV: row 1 has a non-integer value"):
        ingest.load_ord_csv(path)


def test_load_ord_reads_signs_and_blanks(tmp_path):
    path = _csv(tmp_path, "interval,rater1,rater2,rater3\n-0, 1 ,\t2\x0b,+3\n+1,5,5,5\n")
    assert ingest.load_ord_csv(path).intervals == ((1, 2, 3), (5, 5, 5))


def test_load_ord_missing_rater(tmp_path):
    text = "interval,rater1,rater2,rater3\n0,1,1\n"
    with pytest.raises(MissingRater):
        ingest.load_ord_csv(_csv(tmp_path, text))


def test_load_ord_empty_rater_cell(tmp_path):
    text = "interval,rater1,rater2,rater3\n0,1,,1\n"
    with pytest.raises(MissingRater):
        ingest.load_ord_csv(_csv(tmp_path, text))


# ---- round trips -----------------------------------------------------------

def test_eeg_round_trip_exact(rng, tmp_path):
    rec = make_eeg_recording(rng.normal(0, 37.5, (4, 2000)), start_time_s=0.0)
    path = tmp_path / "eeg.csv"
    ingest.write_eeg_csv(rec, path)
    back = ingest.load_eeg_csv(path)
    for a, b in zip(rec.channels, back.channels):
        np.testing.assert_array_equal(a, b)
    assert back.start_time_s == rec.start_time_s


def test_telemetry_round_trip_exact(rng, tmp_path):
    tel = make_telemetry(rng.normal(0, 2.0, (4, 500)), sample_rate_hz=50.0)
    path = tmp_path / "telemetry.csv"
    ingest.write_telemetry_csv(tel, path)
    back = ingest.load_telemetry_csv(path)
    assert back.sample_rate_hz == pytest.approx(tel.sample_rate_hz, rel=1e-12)
    for a, b in zip(tel.series, back.series):
        np.testing.assert_array_equal(a, b)


# values whose shortest round-trip form is easy to get wrong
_TRICKY_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1 + 0.2, 1e16, 1e-5, 123456789.0)
_WRITTEN_FLOAT = st.one_of(st.sampled_from(_TRICKY_FLOATS),
                           st.floats(allow_nan=False, allow_infinity=False))


@pytest.mark.parametrize("writer, loader, header, min_rows, rate", [
    (ingest.write_eeg_csv, ingest.load_eeg_csv, ingest.EEG_HEADER, 1, 256.0),
    (ingest.write_telemetry_csv, ingest.load_telemetry_csv, ingest.TELEMETRY_HEADER, 2, 50.0),
], ids=["eeg", "telemetry"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_float_writers_match_per_cell_output(writer, loader, header, min_rows, rate, data):
    n = data.draw(st.integers(min_rows, 12), label="rows")
    columns = np.array(data.draw(st.lists(st.lists(_WRITTEN_FLOAT, min_size=n, max_size=n),
                                          min_size=4, max_size=4), label="columns"))
    # a start time far from 0 would make the telemetry steps non-uniform
    start = data.draw(st.sampled_from((0.0, -0.0, 0.1 + 0.2, 5e-324, -1234.5)), label="start")
    if writer is ingest.write_eeg_csv:
        rec = make_eeg_recording(columns, start_time_s=start)
    else:
        rec = make_telemetry(columns, sample_rate_hz=rate, start_time_s=start)
    t = start + np.arange(n) / rate
    expected = write_rows_per_cell(header, zip(t.tolist(), *columns.tolist())).encode("utf-8")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        writer(rec, path)
        assert path.read_bytes() == expected
        back = loader(path)
    loaded = back.channels if writer is ingest.write_eeg_csv else back.series
    for a, b in zip(columns, loaded):
        assert a.tobytes() == b.tobytes()
    assert back.start_time_s == t[0]


def test_labels_round_trip(tmp_path):
    track = OrdLabelTrack(intervals=tuple((1 + k % 5, 1, 5) for k in range(7)))
    path = tmp_path / "labels.csv"
    ingest.write_ord_csv(track, path)
    assert ingest.load_ord_csv(path) == track


def test_manifest_round_trip(tmp_path):
    entries = [
        ingest.SessionManifest(session_id="a", eeg_path=tmp_path / "a_eeg.csv",
                               telemetry_path=tmp_path / "a_tel.csv",
                               labels_path=tmp_path / "a_lab.csv"),
        ingest.SessionManifest(session_id="b", eeg_path=tmp_path / "b_eeg.csv",
                               telemetry_path=None,
                               labels_path=tmp_path / "b_lab.csv"),
    ]
    path = tmp_path / "manifest.csv"
    ingest.write_manifest(entries, path, relative_to=tmp_path)
    assert ingest.load_manifest(path) == entries


def test_manifest_duplicate_session_id(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("session_id,eeg_path,telemetry_path,labels_path\n"
                    "s1,a.csv,,a_lab.csv\n"
                    "s2,b.csv,,b_lab.csv\n"
                    "s1,c.csv,,c_lab.csv\n")
    with pytest.raises(DuplicateSessionId, match="row 3 repeats session id 's1' from row 1"):
        ingest.load_manifest(path)


@pytest.mark.parametrize("blank", ["\u3000", "\xa0", "\x1c", "\x85"])
def test_manifest_cells_lose_only_ascii_blanks(blank, tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("session_id,eeg_path,telemetry_path,labels_path\n"
                    f" s1{blank}\t,\x0ba.csv\x0c,,a_lab.csv{blank}\n", encoding="utf-8")
    (entry,) = ingest.load_manifest(path)
    assert entry.session_id == f"s1{blank}"
    assert entry.eeg_path == tmp_path / "a.csv"
    assert entry.labels_path == tmp_path / f"a_lab.csv{blank}"


@pytest.mark.parametrize("row2,repeated", [
    ("s2,sub/../a.csv,,b_lab.csv", "a.csv"),  # the same EEG file, spelled otherwise
    ("s2,b.csv,,./a_lab.csv", "a_lab.csv"),
    ("s2,b.csv,a_tel.csv,b_lab.csv", "a_tel.csv"),
    ("s2,b.csv,,a_tel.csv", "a_tel.csv"),  # another entry's telemetry as labels
])
def test_manifest_rejects_files_listed_under_two_session_ids(tmp_path, row2, repeated):
    path = tmp_path / "manifest.csv"
    path.write_text("session_id,eeg_path,telemetry_path,labels_path\n"
                    f"s1,a.csv,a_tel.csv,a_lab.csv\n{row2}\n")
    file = (tmp_path / repeated).resolve()
    with pytest.raises(DuplicateSessionFiles, match=f"^manifest: row 2 repeats file '{file}' "
                                                    "from row 1$"):
        ingest.load_manifest(path)


# ---- loader fuzz -------------------------------------------------------------

# each loader with its valid header
FUZZ_LOADERS = {
    "eeg": (ingest.load_eeg_csv, ingest.EEG_HEADER),
    "telemetry": (ingest.load_telemetry_csv, ingest.TELEMETRY_HEADER),
    "labels": (ingest.load_ord_csv, ingest.LABELS_HEADER),
    "manifest": (ingest.load_manifest, ingest.MANIFEST_HEADER),
}

# raw bytes, and CSV-like text that gets past the header into the row parsers
_FUZZ_BODY = st.one_of(
    st.binary(max_size=400),
    st.text(alphabet="0123456789.,-+eEinfaINFA_ \t\r\n/\xe9", max_size=400)
    .map(lambda t: t.encode("utf-8")),
)


@pytest.mark.parametrize("kind", sorted(FUZZ_LOADERS))
def test_loaders_raise_only_toolkit_errors(kind, tmp_path_factory):
    loader, header = FUZZ_LOADERS[kind]
    path = tmp_path_factory.mktemp("fuzz") / "input.csv"

    @settings(max_examples=200, deadline=None)
    @given(body=_FUZZ_BODY, with_header=st.booleans())
    def check(body, with_header):
        path.write_bytes((",".join(header) + "\n").encode() + body if with_header else body)
        try:
            loader(path)
        except DrowsekitError:
            pass

    check()


# ---- what a number is, and which lines are rows -------------------------------

# cells numpy reads, cells only float() reads, and cells neither reads
_ODD_CELLS = ["1_0", "+3", ".5", "5.", "0x1", "1e400", "-1e400", "nan", "inf", "-inf",
              "Infinity", "", " ", "1 2", "abc", "1e", "-0.0", "5e-324", " 7 ", "\t8",
              "\u20009", "9\x1f", "\x1f9", "\u0661", "1\x00", "12\xa0", "\uff11"]
_FLOAT_CELL = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_CELL = st.one_of(
    _FLOAT_CELL,
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(_ODD_CELLS),
    st.text(alphabet="0123456789.+-eE_xna \t\r\x0b\x0c\x1f\x85", max_size=6),
)
# line ends, and characters inside a row that str.splitlines would break on
_LINE_END = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85",
                             "\u2028", "\u2029"])
# every ASCII character but the comma, the line ends and the separators the
# scan keeps from numpy
_ASCII_CELL = st.text(alphabet=[c for c in map(chr, range(128))
                                if c not in ",\n\r\x1c\x1d\x1e\x1f"], max_size=8)


@settings(max_examples=600, deadline=None)
@given(cell=st.one_of(_ASCII_CELL, _FLOAT_CELL,
                      st.text(alphabet="0123456789.+-eEinfatyINFATY \t\x0b\x0c_", max_size=9)))
def test_number_is_what_numpy_reads_from_ascii(cell):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = np.loadtxt(io.StringIO(f"0,{cell}\n"), delimiter=",", dtype=np.float64,
                             comments=None, quotechar=None, ndmin=2)
    except (ValueError, Warning):
        row = None
    assert (row is not None) == bool(ingest.NUMBER.fullmatch(cell))
    if row is not None:
        assert row.shape == (1, 2)
        value = np.float64(float(cell))
        assert np.isnan(row[0, 1]) if np.isnan(value) else row[0, 1].tobytes() == value.tobytes()


def test_load_eeg_cells_numpy_and_float_read_differently(tmp_path):
    # float() reads these as 10.0 or 12.0; NUMBER, as numpy on ASCII text, does not
    for cell in ("1_0", "\u0661\u0662", "\uff11\uff12", "12\xa0"):
        path = _csv(tmp_path, f"t,TP9,AF7,AF8,TP10\n0.0,1,2,3,4\n\n0.1,{cell},2.0,3.0,4.0\n")
        with pytest.raises(NonNumericValue) as err:
            ingest.load_eeg_csv(path)
        assert err.value.row == 3
    # numpy strips \x1f, float() does not: the scan keeps such files from numpy
    for cell in ("1\x1f", "\x1f1"):
        path = _csv(tmp_path, f"t,TP9,AF7,AF8,TP10\n\n0.0,{cell},2.0,3.0,4.0\n")
        with pytest.raises(NonNumericValue) as err:
            ingest.load_eeg_csv(path)
        assert err.value.row == 2


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x85", "\u2028", "\u2029"])
def test_only_line_ends_end_a_row(sep, tmp_path):
    # str.splitlines would break row 1 in two and report InconsistentRowLength
    # at row 1. \v and \f are blanks next to a number; the others are not
    body = f"0.0,1.0{sep},2.0,3.0,4.0\n0.1,1,2,3,4\n0.2,oops,2,3,4\n"
    path = _csv(tmp_path, "t,TP9,AF7,AF8,TP10\n" + body)
    with pytest.raises(NonNumericValue) as err:
        ingest.load_eeg_csv(path)
    assert err.value.row == (3 if sep in "\x0b\x0c" else 1)


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e"])
def test_load_eeg_cells_only_numpy_reads(sep, tmp_path):
    # numpy strips these next to a number, NUMBER does not match them
    path = _csv(tmp_path, f"t,TP9,AF7,AF8,TP10\n0.0,1.0{sep},2.0,3.0,4.0\n")
    with pytest.raises(NonNumericValue) as err:
        ingest.load_eeg_csv(path)
    assert err.value.row == 1


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_stream_and_path_line_ends_agree(tmp_path, end):
    # \r\n and \r end a line as \n does
    path = _csv(tmp_path, end.join(["t,TP9,AF7,AF8,TP10", "0.0,1,2,3,4", "", "0.1,oops,2,3,4", ""]))
    with pytest.raises(NonNumericValue) as err:
        ingest.load_eeg_csv(path)
    assert err.value.row == 3


_BLANK_LINE_CASES = {
    # kind: (a good first row, the error of a row of blanks after it)
    "eeg": ("0.0,1,2,3,4", InconsistentRowLength),
    "telemetry": ("0.0,1,2,3,4", InconsistentRowLength),
    "labels": ("0,1,1,1", MissingRater),
    "manifest": ("s1,a.csv,,a_lab.csv", InconsistentRowLength),
}


@pytest.mark.parametrize("blanks", [" ", "\t", " \t ", "\x0b"])
@pytest.mark.parametrize("kind", sorted(_BLANK_LINE_CASES))
def test_a_line_of_blanks_is_a_row(kind, blanks, tmp_path):
    # numpy reads a line of blanks as a row of one field; only an empty line
    # is skipped
    loader, header = FUZZ_LOADERS[kind]
    first, error = _BLANK_LINE_CASES[kind]
    path = _csv(tmp_path, f"{','.join(header)}\n{first}\n\n{blanks}\n")
    with pytest.raises(error, match="row 3 ") as err:
        loader(path)
    assert getattr(err.value, "row", 3) == 3


@pytest.mark.parametrize("header", ["t\x1f,TP9,AF7,AF8,TP10", "t,TP9\u3000,AF7,AF8,TP10",
                                    "\xa0t,TP9,AF7,AF8,TP10"])
def test_header_cells_lose_only_ascii_blanks(header, tmp_path):
    with pytest.raises(WrongColumnSet, match="^EEG CSV: header "):
        ingest.load_eeg_csv(_csv(tmp_path, f"{header}\n0.0,1,2,3,4\n"))
    # the blanks NUMBER allows are stripped
    rec = ingest.load_eeg_csv(_csv(tmp_path, " t\t,\x0bTP9\x0c,AF7,AF8,TP10 \n0.0,1,2,3,4\n"))
    assert rec.channels[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]


def test_header_line_must_end_in_the_first_scan_block(tmp_path):
    # a block too short for the header line and its end turns the file down;
    # the line reader returns no values, so a file with no faulty row fails
    header = "t,TP9,AF7,AF8,TP10"
    with mock.patch.object(ingest, "_SCAN_BLOCK_BYTES", len(header)):
        with pytest.raises(WrongColumnSet, match="does not end in the first 18 bytes"):
            ingest.load_eeg_csv(_csv(tmp_path, f"{header}\n0.0,1,2,3,4\n"))
        with pytest.raises(NonNumericValue):
            ingest.load_eeg_csv(_csv(tmp_path, f"{header}\n0.0,1,2,3,x\n"))
        assert ingest.load_eeg_csv(_csv(tmp_path, f"{header}\n\n")).n_samples == 0
    with mock.patch.object(ingest, "_SCAN_BLOCK_BYTES", len(header) + 1):
        assert ingest.load_eeg_csv(_csv(tmp_path, f"{header}\n0.0,1,2,3,4\n")).n_samples == 1


def test_a_file_numpy_turns_down_without_a_faulty_row_fails(tmp_path):
    # the line reader returns no values; the header line ends in the first
    # block, so the error does not blame it
    path = _csv(tmp_path, "t,TP9,AF7,AF8,TP10\n0.0,1,2,3,4\n")
    with mock.patch.object(ingest, "_loadtxt", return_value=None):
        with pytest.raises(IngestError, match="^EEG CSV: numpy turned the file down, "
                                              "and no row is at fault$") as err:
            ingest.load_eeg_csv(path)
    assert type(err.value) is IngestError


# ---- numpy's route against the grammar oracle ---------------------------------

# files of good rows after a uniform time cell, with at most two odd rows or
# raw lines and two spliced byte strings: what the scan before numpy's path
# parse must turn down, or the line reader must find, in files numpy would
# otherwise read
_GOOD_TIMED_ROW = st.tuples(st.lists(_FLOAT_CELL, min_size=4, max_size=4),
                            st.sampled_from(["\n", "\r\n", "\r"]))
_ODD_TIMED_CELLS = st.one_of(
    st.tuples(st.lists(_FLOAT_CELL, min_size=3, max_size=3), _CELL, st.integers(0, 3))
    .map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:]),
    st.lists(_CELL, min_size=3, max_size=5),
)
_RAW_LINE = st.sampled_from(["", " ", "\t ", "\u3000", "\x0c", "\x1c", "nan,1,2,3,4",
                             "0,inf,2,3,4", "0,1,2,3,-1e400", "0,1_0,2,3,4", "0,1,2,\u0663,4",
                             "\xe9"])
_NON_FINITE_ROW = st.tuples(st.lists(_FLOAT_CELL, min_size=3, max_size=3),
                           st.sampled_from(["nan", "-inf", " Infinity", "1e400"]),
                           st.integers(0, 3)).map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
_ODD_ROW = st.tuples(st.one_of(_ODD_TIMED_CELLS, _RAW_LINE, _NON_FINITE_ROW), _LINE_END,
                     st.floats(0, 1))
# a BOM, invalid UTF-8, a valid multi-byte character, the separators only
# numpy strips
_SPLICE = st.tuples(
    st.sampled_from([b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xc3\xa9", b"\x1f", b"\x1c"]),
    st.floats(0, 1), st.booleans())


@pytest.mark.parametrize("kind, step, what", [("eeg", 1 / 256, "EEG CSV"),
                                              ("telemetry", 0.02, "telemetry CSV")],
                         ids=["eeg", "telemetry"])
def test_loads_agree_with_the_grammar_oracle(kind, step, what, tmp_path_factory):
    # each file parses to the oracle's array, or fails with its error, row
    # and message, whichever of numpy and the line reader decides
    _, header = FUZZ_LOADERS[kind]
    path = tmp_path_factory.mktemp("agree") / "input.csv"
    header_text = ",".join(header)

    def outcome():
        try:
            return ingest._load_numeric_csv(path, header, what)
        except DrowsekitError as exc:
            return type(exc), getattr(exc, "row", None), str(exc)

    @settings(max_examples=400, deadline=None)
    @given(header_line=st.sampled_from([header_text] * 10 + [
               " , ".join(header), "\t" + header_text + "\x0b", "\ufeff" + header_text,
               header_text + "\x1f", "\u3000" + header_text, header_text + "0",
               ",".join(header[:-1]), ""]),
           rows=st.lists(_GOOD_TIMED_ROW, max_size=8),
           odd_rows=st.lists(_ODD_ROW, max_size=2),
           final_end=st.booleans(),
           splices=st.lists(_SPLICE, max_size=2),
           # small blocks put flagged bytes past the first block, which
           # holds the header line's end
           extra=st.sampled_from([1, 2, 8, None]))
    def check(header_line, rows, odd_rows, final_end, splices, extra):
        rows = list(rows)
        for row, end, where in odd_rows:
            rows.insert(int(where * len(rows)), (row, end))
        lines = [header_line]
        for i, (row, _) in enumerate(rows, start=1):
            lines.append(row if isinstance(row, str) else ",".join([repr(i * step)] + row))
        ends = ["\n"] + [end for _, end in rows]
        text = "".join(line + end for line, end in zip(lines, ends))
        if not final_end:
            text = text[:-len(ends[-1])]  # a header-only file when there are no rows
        raw = text.encode("utf-8")
        for piece, where, at_comma in splices:
            at = int(where * len(raw))
            if at_comma and raw.find(b",", at) >= 0:
                at = raw.find(b",", at)  # next to a number
            raw = raw[:at] + piece + raw[at:]
        path.write_bytes(raw)
        block = ingest._SCAN_BLOCK_BYTES
        if extra is not None:
            block = ingest._FIRST_LINE.match(raw).end() + extra
        with mock.patch.object(ingest, "_SCAN_BLOCK_BYTES", block):
            loaded = outcome()
        expected = numeric_csv_oracle(path, header, what)
        if isinstance(expected, tuple):
            assert loaded == expected
        else:
            assert isinstance(loaded, np.ndarray)
            assert (loaded.shape, loaded.tobytes()) == (expected.shape, expected.tobytes())

    check()


def test_load_eeg_path_holds_no_copy_of_the_text(tmp_path, rng):
    path = tmp_path / "eeg.csv"
    ingest.write_eeg_csv(make_eeg_recording(rng.normal(0, 37.5, (4, 8 * 7680))), path)
    tracemalloc.start()
    try:
        rec = ingest.load_eeg_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (n, 5) float64 array the channels are views of
    assert peak < 2.5 * rec.n_samples * len(ingest.EEG_HEADER) * 8


def test_write_eeg_memory_does_not_grow_with_the_recording(tmp_path, rng):
    peaks = []
    for n_intervals in (1, 8):
        rec = make_eeg_recording(rng.normal(0, 37.5, (4, n_intervals * 7680)))
        tracemalloc.start()
        try:
            ingest.write_eeg_csv(rec, tmp_path / "eeg.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2**20
