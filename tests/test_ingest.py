import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
