import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import write_rows_per_cell

from drowsekit import ingest
from drowsekit.errors import (
    DrowsekitError,
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
from drowsekit.session import (
    OrdInterval,
    OrdLabelTrack,
    make_eeg_recording,
    make_telemetry,
)


def _eeg_csv(n_rows, header="t,TP9,AF7,AF8,TP10"):
    lines = [header]
    for k in range(n_rows):
        lines.append(f"{k / 256.0!r},{1.0 * k!r},{2.0!r},{3.0!r},{4.0!r}")
    return io.StringIO("\n".join(lines) + "\n")


def test_load_eeg_full_epoch_count():
    rec = ingest.load_eeg_csv(_eeg_csv(7680))
    assert rec.n_samples == 7680
    assert rec.sample_rate_hz == 256.0
    assert len(rec.channels) == 4


def test_load_eeg_single_row():
    # one row must still load as (1, 5), not as a flat 5-vector
    rec = ingest.load_eeg_csv(_eeg_csv(1))
    assert rec.n_samples == 1
    assert [c.tolist() for c in rec.channels] == [[0.0], [2.0], [3.0], [4.0]]
    assert rec.start_time_s == 0.0


def _eeg_csv_at(times):
    lines = ["t,TP9,AF7,AF8,TP10"] + [f"{t!r},1.0,2.0,3.0,4.0" for t in times]
    return io.StringIO("\n".join(lines) + "\n")


@pytest.mark.parametrize("start, step, rate", [
    (0.0, 1 / 256, 256.0),
    (1e6, 1 / 256, 256.0),  # rounded steps at large t: 256 Hz within 1%
    (0.0, 1 / 258, 256.0),
    (0.0, 1 / 128, 128.0),
    (0.0, 1 / 512, 512.0),
])
def test_load_eeg_infers_rate(start, step, rate):
    rec = ingest.load_eeg_csv(_eeg_csv_at([start + k * step for k in range(100)]))
    assert rec.sample_rate_hz == rate


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("times", [
    [0.0, 0.0, 0.0],
    [0.0, 1 / 256, 0.0],
    [0.0, 1 / 256, 2 / 256, 4 / 256, 5 / 256],
    [-1e308, 1e308],
    [0.0, 5e-324, 1e-323],
])
def test_load_eeg_rejects_bad_time_steps(times):
    with pytest.raises(NonUniformTimestep):
        ingest.load_eeg_csv(_eeg_csv_at(times))


def test_load_eeg_preserves_row_order():
    rec = ingest.load_eeg_csv(_eeg_csv(100))
    np.testing.assert_array_equal(rec.channels[0], np.arange(100, dtype=float))


def test_load_eeg_missing_column():
    with pytest.raises(WrongColumnSet):
        ingest.load_eeg_csv(_eeg_csv(10, header="t,TP9,AF7,TP10"))


def test_load_eeg_missing_header():
    with pytest.raises(MissingHeader):
        ingest.load_eeg_csv(io.StringIO(""))


def test_load_eeg_non_numeric_row_index():
    lines = ["t,TP9,AF7,AF8,TP10"]
    for k in range(1, 11):
        v = "abc" if k == 5 else "1.0"
        lines.append(f"0.0,{v},2.0,3.0,4.0")
    with pytest.raises(NonNumericValue) as err:
        ingest.load_eeg_csv(io.StringIO("\n".join(lines)))
    assert err.value.row == 5


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_load_eeg_non_finite_row_index(token):
    lines = ["t,TP9,AF7,AF8,TP10"]
    for k in range(1, 11):
        # a blank data row still counts, as it does for NonNumericValue
        lines.append("" if k == 3 else f"0.0,1.0,{token if k == 7 else '2.0'},3.0,4.0")
    with pytest.raises(NonFiniteValue) as err:
        ingest.load_eeg_csv(io.StringIO("\n".join(lines)))
    assert err.value.row == 7


def test_load_eeg_inconsistent_row():
    text = "t,TP9,AF7,AF8,TP10\n0.0,1.0,2.0,3.0,4.0\n0.1,1.0,2.0\n"
    with pytest.raises(InconsistentRowLength) as err:
        ingest.load_eeg_csv(io.StringIO(text))
    assert err.value.row == 2


def test_load_eeg_accepts_bytes():
    raw = _eeg_csv(3).getvalue().encode("utf-8")
    rec = ingest.load_eeg_csv(io.BytesIO(raw))
    assert rec.n_samples == 3


def _telemetry_csv(times, value=0.5):
    lines = ["t,steer_angle,steer_speed,lane_deviation,torque"]
    for t in times:
        lines.append(f"{t!r},{value!r},{value!r},{value!r},{value!r}")
    return io.StringIO("\n".join(lines) + "\n")


def test_load_telemetry_infers_rate():
    tel = ingest.load_telemetry_csv(_telemetry_csv([k * 0.02 for k in range(100)]))
    assert tel.sample_rate_hz == pytest.approx(50.0)
    assert tel.n_samples == 100


def test_load_telemetry_rejects_gap():
    times = [0.0, 0.02, 0.04, 0.24, 0.26]
    with pytest.raises(NonUniformTimestep):
        ingest.load_telemetry_csv(_telemetry_csv(times))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("times", [
    [-1e308, 1e308],                # the step overflows to inf
    [1e308, -1e308, 1e308],         # steps -inf and inf
    [-1.7e308, -0.2e308, 1.3e308],  # finite steps, their mean (the median) overflows
    [0.0, 5e-324, 1e-323],          # the rate 1 / 5e-324 overflows
])
def test_load_telemetry_overflowing_steps(times):
    # the first case used to load with sample_rate_hz 0.0 and two RuntimeWarnings
    with pytest.raises(NonUniformTimestep):
        ingest.load_telemetry_csv(_telemetry_csv(times))


def test_load_telemetry_nan_timestamp():
    # a NaN time used to load as sample_rate_hz = nan and pass validation
    with pytest.raises(NonFiniteValue) as err:
        ingest.load_telemetry_csv(_telemetry_csv([0.0, 0.02, float("nan"), 0.06]))
    assert err.value.row == 3


def test_load_telemetry_empty_body():
    with pytest.raises(EmptyFile):
        ingest.load_telemetry_csv(_telemetry_csv([]))


@pytest.mark.parametrize("loader", [ingest.load_eeg_csv, ingest.load_telemetry_csv,
                                    ingest.load_ord_csv])
def test_load_invalid_utf8(loader):
    with pytest.raises(InvalidEncoding):
        loader(io.BytesIO(b"t,TP9\n\xff\xfe\n"))


def _labels_csv(rows):
    lines = ["interval,rater1,rater2,rater3"]
    lines += [",".join(str(v) for v in row) for row in rows]
    return io.StringIO("\n".join(lines) + "\n")


def test_load_ord_two_intervals():
    track = ingest.load_ord_csv(_labels_csv([(0, 1, 1, 2), (1, 2, 3, 3)]))
    assert len(track) == 2
    assert track.intervals[1].ratings == (2, 3, 3)


def test_load_ord_gap():
    with pytest.raises(GapInIntervals):
        ingest.load_ord_csv(_labels_csv([(0, 1, 1, 1), (2, 1, 1, 1)]))


def test_load_ord_invalid_rating():
    with pytest.raises(InvalidRating):
        ingest.load_ord_csv(_labels_csv([(0, 1, 6, 1)]))


def test_load_ord_missing_rater():
    text = "interval,rater1,rater2,rater3\n0,1,1\n"
    with pytest.raises(MissingRater):
        ingest.load_ord_csv(io.StringIO(text))


def test_load_ord_empty_rater_cell():
    text = "interval,rater1,rater2,rater3\n0,1,,1\n"
    with pytest.raises(MissingRater):
        ingest.load_ord_csv(io.StringIO(text))


# ---- round trips -----------------------------------------------------------

def test_eeg_round_trip_exact(rng):
    rec = make_eeg_recording(rng.normal(0, 37.5, (4, 2000)), start_time_s=0.0)
    buf = io.StringIO()
    ingest.write_eeg_csv(rec, buf)
    buf.seek(0)
    back = ingest.load_eeg_csv(buf)
    for a, b in zip(rec.channels, back.channels):
        np.testing.assert_array_equal(a, b)
    assert back.start_time_s == rec.start_time_s


def test_telemetry_round_trip_exact(rng):
    tel = make_telemetry(rng.normal(0, 2.0, (4, 500)), sample_rate_hz=50.0)
    buf = io.StringIO()
    ingest.write_telemetry_csv(tel, buf)
    buf.seek(0)
    back = ingest.load_telemetry_csv(buf)
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

    buf = io.StringIO()
    writer(rec, buf)
    assert buf.getvalue().encode("utf-8") == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        writer(rec, path)
        assert path.read_bytes() == expected
        back = loader(path)
    loaded = back.channels if writer is ingest.write_eeg_csv else back.series
    for a, b in zip(columns, loaded):
        assert a.tobytes() == b.tobytes()
    assert back.start_time_s == t[0]


def test_labels_round_trip():
    track = OrdLabelTrack(intervals=tuple(
        OrdInterval(index=k, ratings=(1 + k % 5, 1, 5)) for k in range(7)))
    buf = io.StringIO()
    ingest.write_ord_csv(track, buf)
    buf.seek(0)
    assert ingest.load_ord_csv(buf) == track


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
        data = (",".join(header) + "\n").encode() + body if with_header else body
        if loader is ingest.load_manifest:  # the only loader that takes a path
            path.write_bytes(data)
            source = path
        else:
            source = io.BytesIO(data)
        try:
            loader(source)
        except DrowsekitError:
            pass

    check()


# ---- fast parse against the row-by-row parser ---------------------------------

# cells float() and numpy read alike, read differently, or reject
_ODD_CELLS = ["1_0", "+3", ".5", "5.", "0x1", "1e400", "-1e400", "nan", "inf", "-inf",
              "Infinity", "", " ", "1 2", "abc", "1e", "-0.0", "5e-324", " 7 ", "\t8",
              "\u20009", "9\x1f", "\x1f9", "\u0661", "1\x00"]
_FLOAT_CELL = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_CELL = st.one_of(
    _FLOAT_CELL,
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(_ODD_CELLS),
    st.text(alphabet="0123456789.+-eE_xna \t\r\x0b\x0c\x1f\x85", max_size=6),
)
_GOOD_ROW = st.lists(_FLOAT_CELL, min_size=5, max_size=5).map(",".join)
_ONE_ODD_ROW = st.tuples(
    st.lists(_FLOAT_CELL, min_size=4, max_size=4), _CELL, st.integers(0, 4),
).map(lambda t: ",".join(t[0][:t[2]] + [t[1]] + t[0][t[2]:]))
_ROW = st.one_of(  # mostly bodies the fast path may accept, with an odd cell or not
    _GOOD_ROW,
    _GOOD_ROW,
    _GOOD_ROW,
    _ONE_ODD_ROW,
    _ONE_ODD_ROW,
    st.lists(_CELL, min_size=4, max_size=6).map(",".join),  # short, full and long rows
    st.sampled_from(["", " ", "\t ", "\u3000"]),         # blank and whitespace-only
)
# line ends, and characters inside a row that str.splitlines would break on
_LINE_END = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85",
                             "\u2028", "\u2029"])


def _parse_outcome(parse, lines):
    try:
        data = parse(lines, len(ingest.EEG_HEADER), "EEG CSV")
    except DrowsekitError as exc:
        return type(exc), exc.row, str(exc)
    return data.dtype, data.shape, data.tobytes()


@settings(max_examples=600, deadline=None)
@given(rows=st.lists(st.tuples(_ROW, _LINE_END), max_size=8))  # [] is a header-only body
def test_fast_parse_matches_row_parser(rows):
    text = ",".join(ingest.EEG_HEADER) + "\n" + "".join(row + end for row, end in rows)
    lines = ingest._read_lines(io.StringIO(text))
    assert (_parse_outcome(ingest._parse_numeric_rows, lines)
            == _parse_outcome(ingest._parse_row_by_row, lines))


def test_load_eeg_cells_numpy_and_float_read_differently():
    # float() accepts underscores, numpy does not; numpy strips \x1f, float() does not
    rec = ingest.load_eeg_csv(io.StringIO("t,TP9,AF7,AF8,TP10\n0.0,1_0,2.0,3.0,4.0\n"))
    assert rec.channels[0].tolist() == [10.0]
    for cell in ("1\x1f", "\x1f1"):
        with pytest.raises(NonNumericValue) as err:
            ingest.load_eeg_csv(io.StringIO(f"t,TP9,AF7,AF8,TP10\n\n0.0,{cell},2.0,3.0,4.0\n"))
        assert err.value.row == 2


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x85", "\u2028", "\u2029"])
def test_only_line_ends_end_a_row(sep):
    # str.splitlines would break row 1 in two and report InconsistentRowLength at row 1
    body = f"0.0,1.0{sep},2.0,3.0,4.0\n0.1,1,2,3,4\n0.2,oops,2,3,4\n"
    with pytest.raises(NonNumericValue) as err:
        ingest.load_eeg_csv(io.StringIO("t,TP9,AF7,AF8,TP10\n" + body))
    assert err.value.row == 3


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e"])
def test_load_eeg_cells_only_numpy_reads(sep):
    # numpy strips these next to a number, float() does not
    with pytest.raises(NonNumericValue) as err:
        ingest.load_eeg_csv(io.StringIO(f"t,TP9,AF7,AF8,TP10\n0.0,1.0{sep},2.0,3.0,4.0\n"))
    assert err.value.row == 1


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_stream_and_path_line_ends_agree(tmp_path, end):
    text = end.join(["t,TP9,AF7,AF8,TP10", "0.0,1,2,3,4", "", "0.1,oops,2,3,4", ""])
    path = tmp_path / "eeg.csv"
    path.write_bytes(text.encode())
    rows = []
    for source in (path, io.BytesIO(text.encode()), io.StringIO(text)):
        with pytest.raises(NonNumericValue) as err:
            ingest.load_eeg_csv(source)
        rows.append(err.value.row)
    assert rows == [3, 3, 3]
