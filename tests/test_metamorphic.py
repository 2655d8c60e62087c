"""Cohort-level metamorphic relations of ``analyze_cohort``.

Two relations hold whatever the data, so they check the whole pipeline
without an expected value:

- the order of the sessions in a cohort does not enter the report;
- mapping every rating r to 6 - r swaps alert and drowsy, and the
  two-sided rank-sum p-value of every row does not depend on which group
  is which.

Each is checked on a normal-approximation cohort (both groups larger than
``EXACT_PATH_MAX_MIN_N``) and on an all-exact one (24 alert vs 8 drowsy).
"""

import dataclasses

import pytest

from drowsekit import cli
from drowsekit.session import RATING_MAX, RATING_MIN, OrdInterval, OrdLabelTrack
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
    report = cli.analyze_cohort(sessions, cli.RunConfig(), cohort_id="metamorphic")
    cli.write_report_files(report, tmp_path / name)
    return report, (tmp_path / name / "report.json").read_bytes()


def _rows(report):
    return [row for section in REPORT_SECTIONS for row in report[section]]


def _swap_states(session):
    flipped = tuple(OrdInterval(index=iv.index,
                                ratings=tuple(RATING_MIN + RATING_MAX - r for r in iv.ratings))
                    for iv in session.labels.intervals)
    labels = OrdLabelTrack(intervals=flipped, interval_seconds=session.labels.interval_seconds)
    return dataclasses.replace(session, labels=labels)


def test_reversed_session_order_leaves_report_identical(cohort, tmp_path):
    method, sessions = cohort
    report, forward = _report_bytes(sessions, tmp_path, "forward")
    _, backward = _report_bytes(sessions[::-1], tmp_path, "backward")
    assert {row["method"] for row in _rows(report)} == {method}
    assert len(_rows(report)) == 44
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
