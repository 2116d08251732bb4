"""Bootstrap stability study and fidelity reporting."""

import csv
from statistics import fmean

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snvse.analysis import (
    StabilityReport,
    StabilityRow,
    bootstrap_stability,
    fidelity_report,
    recommend_sample_size,
    write_stability_csv,
)
from snvse import sim
from snvse.errors import PreconditionViolation


def test_full_population_subset_collapses_to_mean():
    values = [28, 30, 35, 31]
    report = bootstrap_stability(values, (4, 4), iterations=200, seed=1)
    row = report.rows[0]
    assert row.crf_min == row.crf_max == row.crf_mean == pytest.approx(31.0)
    assert row.crf_stddev == 0.0


def test_singleton_subsets_reach_population_extremes():
    # 1000 draws of size 1 from 3 values: all values appear w.p. ~1.
    report = bootstrap_stability([28, 30, 35], (1, 1), iterations=1000, seed=3)
    row = report.rows[0]
    assert row.crf_min == 28.0
    assert row.crf_max == 35.0


def test_rows_cover_range_ascending():
    report = bootstrap_stability(list(range(21, 41)), (1, 10), iterations=50, seed=0)
    assert [r.n_prime for r in report.rows] == list(range(1, 11))
    for row in report.rows:
        assert row.crf_min <= row.crf_mean <= row.crf_max


def test_same_seed_reproduces_bit_identically():
    crfs = [29, 31, 33, 30, 28, 35, 27, 32]
    a = bootstrap_stability(crfs, (1, 8), iterations=300, seed=11)
    b = bootstrap_stability(crfs, (1, 8), iterations=300, seed=11)
    assert a == b
    c = bootstrap_stability(crfs, (1, 8), iterations=300, seed=12)
    assert a != c


def test_range_width_shrinks_with_subset_size():
    values = [28, 30, 35, 31, 27, 33, 29, 30, 32, 34, 26, 31]
    report = bootstrap_stability(values, (1, 12), iterations=1000, seed=5)
    widths = [row.range_width for row in report.rows]
    tolerance = 0.05 * widths[0]
    inversions = sum(1 for a, b in zip(widths, widths[1:]) if b - a > tolerance)
    assert inversions <= 1
    assert widths[-1] <= widths[0]


@st.composite
def population_and_subset_size(draw):
    values = draw(st.lists(st.integers(21, 50), min_size=2, max_size=12))
    return values, draw(st.integers(1, len(values)))


@settings(max_examples=60, deadline=None)
@example(([21, 21, 22], 3))
@given(population_and_subset_size())
def test_rows_are_consistent_without_tolerance(case):
    # Every subset mean lies between the means of the n' smallest and the n'
    # largest values, and the row's mean between its min and max; at n' = N
    # every subset is the population, so the row is one value, exactly.
    values, n_prime = case
    report = bootstrap_stability(values, (1, n_prime), iterations=50, seed=7)
    ordered = sorted(values)
    for row in report.rows:
        k = row.n_prime
        assert fmean(ordered[:k]) <= row.crf_min <= row.crf_mean <= row.crf_max <= fmean(ordered[-k:])
        assert row.crf_stddev >= 0.0
    first, last = report.rows[0], report.rows[-1]
    assert first.crf_min in values and first.crf_max in values
    if n_prime == len(values):
        assert last.crf_min == last.crf_max == last.crf_mean
        assert last.crf_stddev == 0.0


def test_bootstrap_spawns_no_tool_processes(monkeypatch):
    # The study works on stored estimates only; any prober/encoder call is a bug.
    import snvse.runner as runner_mod

    def forbidden(argv):
        raise AssertionError(f"tool invoked during bootstrap: {argv}")

    monkeypatch.setattr(runner_mod, "run_tool", forbidden)
    report = bootstrap_stability([30, 31, 32, 33], (1, 4), iterations=50, seed=0)
    assert len(report.rows) == 4


def test_population_bounds_enforced():
    with pytest.raises(PreconditionViolation, match="at least 2 estimates"):
        bootstrap_stability([30], (1, 1), iterations=10, seed=0)
    with pytest.raises(PreconditionViolation, match="exceeds population"):
        bootstrap_stability([30, 31], (1, 5), iterations=10, seed=0)
    with pytest.raises(PreconditionViolation, match="need at least 2 estimates, got 0"):
        bootstrap_stability([], (1, 1), iterations=10, seed=0)
    with pytest.raises(PreconditionViolation, match="iterations must be positive"):
        bootstrap_stability([30, 31], (1, 2), iterations=0, seed=0)


def _report(widths):
    rows = [
        StabilityRow(n_prime=n, crf_min=30.0, crf_max=30.0 + w, crf_mean=30.0 + w / 2,
                     crf_stddev=w / 4)
        for n, w in widths
    ]
    return StabilityReport(iterations=1000, rows=rows, seed=0)


def test_recommend_crossing_threshold():
    report = _report([(5, 6.0), (10, 4.0), (20, 2.5), (30, 1.4), (40, 1.2)])
    assert recommend_sample_size(report, 1.5) == 30


def test_recommend_generous_threshold_returns_smallest():
    report = _report([(5, 6.0), (10, 4.0)])
    assert recommend_sample_size(report, 100.0) == 5


def test_recommend_unreachable_flags_largest():
    report = _report([(5, 6.0), (10, 4.0)])
    assert recommend_sample_size(report, 0.5) is None
    with pytest.raises(PreconditionViolation, match="empty stability report"):
        recommend_sample_size(_report([]), 0.5)


def test_stability_csv_columns(tmp_path):
    report = bootstrap_stability([28, 30, 33, 31], (1, 3), iterations=20, seed=0)
    path = tmp_path / "report.csv"
    write_stability_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n_prime", "crf_min", "crf_max", "crf_mean", "crf_stddev"]
    assert len(rows) == 4


# --- fidelity ---

def test_fidelity_identity_lists(config, clips):
    files = [clips["hd"], clips["sd"]]
    summary = fidelity_report(files, files, config).summary()
    assert summary["pairs"] == 2
    assert summary["resolution_equality_rate"] == 1.0
    assert summary["codec_match_rate"] == 1.0
    assert summary["pixel_format_match_rate"] == 1.0
    assert summary["median_bitrate_rel_diff"] == 0.0


def test_fidelity_reports_mismatch_without_judging(config, clips):
    report = fidelity_report([clips["hd"]], [clips["sd"]], config)
    assert report.summary()["resolution_equality_rate"] < 1.0


def test_fidelity_length_mismatch(config, clips):
    with pytest.raises(PreconditionViolation, match="1 emulated vs 0 shared"):
        fidelity_report([clips["hd"]], [], config)
    with pytest.raises(PreconditionViolation, match="empty file lists"):
        fidelity_report([], [], config)



def test_fidelity_rejects_a_shared_file_at_zero_bit_rate(config, backend, clips, tmp_path):
    # A video stream of empty packets measures 0 bit/s, which ProfileEntry
    # accepts as a target; no relative difference can be taken against it.
    if backend != "sim":
        pytest.skip("the empty stream is written into a sim container")
    shared = tmp_path / "silent.mp4"
    [stream] = sim.read_container(clips["sd"])["streams"]
    sim.write_container(shared, [dict(stream, payload=0, bit_rate=0.0)])
    with pytest.raises(PreconditionViolation, match=f"shared file {shared} measures 0 bit/s"):
        fidelity_report([clips["sd"]], [shared], config)
