"""Cohort-level metamorphic relations of ``analyze_cohort``.

Three relations check the whole pipeline without an expected value:

- the order of the sessions in a cohort does not enter the report;
- mapping every rating r to 6 - r swaps alert and drowsy, and the
  two-sided rank-sum p-value of every row does not depend on which group
  is which;
- scaling every EEG sample by 2 scales every filtered sample and spectrum
  exactly (a power of two), so absolute band powers scale by 4, relative
  powers do not move, and neither do the ranks and standardised values
  behind every p-value, as long as no epoch's artifact verdict flips.

Each is checked on a normal-approximation cohort (both groups larger than
``EXACT_PATH_MAX_MIN_N``) and on an all-exact one (24 alert vs 8 drowsy).
The first is also checked on hypothesis-drawn cohort shapes.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drowsekit import pipeline
from drowsekit.preprocess import denoise_epochs, epoch_signal, filter_epoch
from drowsekit.session import RATING_MAX, RATING_MIN, OrdLabelTrack
from drowsekit.stats import KS_MIN_SAMPLES
from drowsekit.synthgen import SynthSpec, generate_session

THETA_EFFECT = {"delta": 1.0, "theta": 2.0, "alpha": 1.0, "beta": 1.0, "gamma": 1.0}

COHORTS = {
    # 2 x 6 alert vs 2 x 6 drowsy intervals before denoising
    "NormalApprox": (SynthSpec(n_intervals=12, drowsy_fraction=0.5,
                               drowsy_band_multipliers=THETA_EFFECT), 2),
    # 2 x 12 alert vs 2 x 4 drowsy, as in the analyze_exact benchmark cohort
    "ExactEnumeration": (SynthSpec(n_intervals=16, drowsy_fraction=0.25), 2),
}
REPORT_SECTIONS = ("eeg_absolute", "eeg_relative", "vehicle")


@pytest.fixture(scope="module", params=sorted(COHORTS))
def cohort(request):
    spec, n_sessions = COHORTS[request.param]
    sessions = [generate_session(spec, seed) for seed in range(3, 3 + n_sessions)]
    return request.param, sessions


def _report_bytes(sessions, tmp_path, name):
    report = pipeline.analyze_cohort(sessions, pipeline.RunConfig(), cohort_id="metamorphic")
    pipeline.write_report_files(report, tmp_path / name)
    return report, (tmp_path / name / "report.json").read_bytes()


def _rows(report):
    return [row for section in REPORT_SECTIONS for row in report[section]]


def _swap_states(session):
    flipped = tuple(tuple(RATING_MIN + RATING_MAX - r for r in ratings)
                    for ratings in session.labels.intervals)
    return dataclasses.replace(session, labels=OrdLabelTrack(intervals=flipped))


def test_reversed_session_order_leaves_report_identical(cohort, tmp_path):
    method, sessions = cohort
    report, forward = _report_bytes(sessions, tmp_path, "forward")
    _, backward = _report_bytes(sessions[::-1], tmp_path, "backward")
    assert {row["method"] for row in _rows(report)} == {method}
    assert len(_rows(report)) == 44
    assert backward == forward


# (n_intervals, n_drowsy) of one session
_SESSION_SHAPE = st.integers(4, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))


@settings(max_examples=15, deadline=None)
@given(shapes=st.lists(_SESSION_SHAPE, min_size=2, max_size=4),
       seed=st.integers(0, 2**32 - 4))
def test_reversed_session_order_leaves_report_identical_on_any_shape(shapes, seed,
                                                                     tmp_path_factory):
    n_drowsy = sum(d for _, d in shapes)
    assume(min(n_drowsy, sum(n for n, _ in shapes) - n_drowsy) >= KS_MIN_SAMPLES)
    sessions = [generate_session(SynthSpec(n_intervals=n, drowsy_fraction=d / n), seed + k)
                for k, (n, d) in enumerate(shapes)]
    out = tmp_path_factory.mktemp("shapes")
    _, forward = _report_bytes(sessions, out, "forward")
    _, backward = _report_bytes(sessions[::-1], out, "backward")
    assert backward == forward


def test_swapped_ratings_leave_every_p_value_identical(cohort, tmp_path):
    _, sessions = cohort
    report, _ = _report_bytes(sessions, tmp_path, "as-rated")
    swapped, _ = _report_bytes([_swap_states(s) for s in sessions], tmp_path, "swapped")
    rows, swapped_rows = _rows(report), _rows(swapped)
    assert [r["feature"] for r in swapped_rows] == [r["feature"] for r in rows]
    assert [(r["n_drowsy"], r["n_alert"]) for r in swapped_rows] == \
        [(r["n_alert"], r["n_drowsy"]) for r in rows]
    assert [r["p_value"] for r in swapped_rows] == [r["p_value"] for r in rows]


def _scale_eeg(session, factor):
    return dataclasses.replace(
        session, eeg=dataclasses.replace(session.eeg, channels=factor * session.eeg.channels))


def _dropped_intervals(session):
    spectra = filter_epoch(session.eeg, epoch_signal(session.eeg, session.labels))
    return denoise_epochs(spectra).dropped[0].tolist()


def test_doubled_eeg_leaves_every_p_value_identical(cohort, tmp_path):
    _, sessions = cohort
    doubled = [_scale_eeg(s, 2.0) for s in sessions]
    # the relation needs the same epochs on both sides of the 70 uV / 30% rule
    assert [_dropped_intervals(s) for s in doubled] == [_dropped_intervals(s) for s in sessions]
    report, _ = _report_bytes(sessions, tmp_path, "as-recorded")
    scaled, _ = _report_bytes(doubled, tmp_path, "doubled")
    assert scaled["denoise_table"] == report["denoise_table"]
    keys = ("feature", "p_value", "ks_p_alert", "ks_p_drowsy")
    assert [[r[k] for k in keys] for r in _rows(scaled)] == \
        [[r[k] for k in keys] for r in _rows(report)]
