"""CRF search: hidden-parameter recovery, saturation, batch semantics."""

import dataclasses
import datetime as dt
import json
import logging
import math
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

import snvse.estimator
from snvse.bitrate import measure_bitrate
from snvse.encoder import EncodeSpec, encode, normalize_dimensions
from snvse.errors import AllItemsFailed, EncoderFailure, InvalidRange, PreconditionViolation
from snvse.estimator import (
    SearchStrategy,
    VideoPair,
    estimate_batch,
    estimate_crf,
)
from snvse.probe import probe_media
from snvse.profile_db import PlatformProfile, load_profile, save_profile

from conftest import make_abr_clip, make_clip, strip_x264_settings

HIDDEN_RHO = (640, 360)
HIDDEN_CRF = 33.0


@pytest.fixture(scope="module")
def hidden_pair(config, tmp_path_factory):
    """One (original, mock-shared) pair with a known hidden CRF."""
    root = tmp_path_factory.mktemp("hidden")
    original = make_clip(config, root / "orig.mp4", source="testsrc2", size=(1280, 720), duration=6)
    info = probe_media(original, config)
    spec = EncodeSpec(
        target_width=HIDDEN_RHO[0],
        target_height=HIDDEN_RHO[1],
        crf=HIDDEN_CRF,
        frame_rate=info.frame_rate,
    )
    shared = root / "shared.mp4"
    encode(original, spec, shared, config)
    return VideoPair(original, shared, pair_id="hidden")


def test_invalid_range_rejected(hidden_pair, config):
    # Empty ranges, and ranges reaching outside the [21, 50] a profile
    # entry holds.
    for c_min, c_max in [(30, 30), (-2, 50), (15, 50), (20, 50), (21, 51), (0, 51)]:
        with pytest.raises(InvalidRange):
            estimate_crf(hidden_pair, c_min=c_min, c_max=c_max, config=config)


@pytest.mark.parametrize("bounds", [{"c_min": 15}, {"c_max": 51}],
                         ids=["below-schema", "above-schema"])
def test_batch_rejects_crf_range_before_any_work(hidden_pair, config, tool_calls, bounds):
    # A library caller gets the same range contract as the CLI: refused
    # before the first probe, not after every encode when the profile is saved.
    with pytest.raises(InvalidRange):
        estimate_batch([hidden_pair], config=config, **bounds)
    assert tool_calls == []


def test_hidden_crf_recovered(hidden_pair, config):
    result = estimate_crf(hidden_pair, config=config)
    assert 32 <= result.crf_hat <= 34
    assert not result.saturated
    assert result.rho_in == (1280, 720)
    assert result.rho_out == HIDDEN_RHO


def test_minimality_witnessed_by_trial_log(hidden_pair, config):
    result = estimate_crf(hidden_pair, config=config)
    trials = dict(result.trial_log)
    assert trials[result.crf_hat] <= result.target_bitrate
    if result.crf_hat > 21 and not result.saturated:
        assert trials[result.crf_hat - 1] > result.target_bitrate


def test_trial_log_sorted_and_nonempty(hidden_pair, config):
    result = estimate_crf(hidden_pair, config=config)
    crfs = [crf for crf, _ in result.trial_log]
    assert crfs == sorted(crfs)
    assert crfs


def test_estimate_survives_a_profile_round_trip(hidden_pair, config, tmp_path):
    # The estimate is the profile entry; its trial log stays out of the file
    # and out of equality, so the entry loads back equal to itself.
    result = estimate_crf(hidden_pair, strategy=SearchStrategy.BISECTION_WITH_VERIFY,
                          config=config)
    path = tmp_path / "p.json"
    save_profile(PlatformProfile("x", dt.date(2025, 6, 1), config.preset, [result]), path)
    loaded = load_profile(path).entries[0]
    assert loaded == result
    assert loaded.trial_log == [] and result.trial_log
    assert "trial_log" not in json.loads(path.read_text())["entries"][0]


def test_high_bitrate_shared_hits_lower_bound(config, tmp_path):
    # Shared generated at CRF 10 carries far more bitrate than a CRF-21 trial.
    original = make_clip(config, tmp_path / "orig.mp4", source="testsrc2", size=(640, 360), duration=4)
    info = probe_media(original, config)
    shared = tmp_path / "shared.mp4"
    encode(original, EncodeSpec(640, 360, 10.0, info.frame_rate), shared, config)
    result = estimate_crf(VideoPair(original, shared, "floor"),
                          strategy=SearchStrategy.LINEAR_SWEEP, config=config)
    assert result.crf_hat == 21
    assert not result.saturated
    assert len(result.trial_log) == 1


def test_adversarial_pair_saturates(config, clips, tmp_path):
    # High-motion original vs a flat black "shared" clip at CRF 50: even the
    # weakest trial overshoots the target, so the estimate clamps and flags.
    flat_info = probe_media(clips["flat"], config)
    tiny_shared = tmp_path / "tiny.mp4"
    encode(clips["flat"], EncodeSpec(640, 360, 50.0, flat_info.frame_rate), tiny_shared, config)
    result = estimate_crf(VideoPair(clips["textured"], tiny_shared, "sat"),
                          strategy=SearchStrategy.LINEAR_SWEEP, config=config)
    assert result.crf_hat == 50
    assert result.saturated
    assert len(result.trial_log) == 30


def test_rho_out_is_even(hidden_pair, config):
    result = estimate_crf(hidden_pair, config=config)
    assert result.rho_out[0] % 2 == 0
    assert result.rho_out[1] % 2 == 0


def test_strategies_agree_on_monotone_pair(hidden_pair, config):
    linear = estimate_crf(hidden_pair, strategy=SearchStrategy.LINEAR_SWEEP, config=config)
    bisect = estimate_crf(hidden_pair, strategy=SearchStrategy.BISECTION_WITH_VERIFY, config=config)
    assert linear.crf_hat == bisect.crf_hat
    assert bisect.trial_log == sorted(bisect.trial_log)
    assert len(bisect.trial_log) <= 3
    trials = dict(bisect.trial_log)
    assert trials[bisect.crf_hat] <= bisect.target_bitrate
    assert trials[bisect.crf_hat - 1] > bisect.target_bitrate


def test_bisection_is_the_default_search(hidden_pair, config):
    bisect = estimate_crf(hidden_pair, strategy=SearchStrategy.BISECTION_WITH_VERIFY, config=config)
    assert estimate_crf(hidden_pair, config=config).trial_log == bisect.trial_log
    [outcome] = estimate_batch([hidden_pair], config=config)
    assert outcome.result.trial_log == bisect.trial_log


def _stated_lines(caplog) -> list[str]:
    """The estimator's messages about what shared videos state, and any it logged at INFO or above."""
    return [r.getMessage() for r in caplog.records if r.name == "snvse.estimator"
            and ("x264 settings" in r.getMessage() or r.levelno >= logging.INFO)]


def test_the_stated_crf_starts_the_search(hidden_pair, config, backend, tmp_path, trial_events,
                                          caplog):
    # The shared video states crf=33.0: the bisection trials it, then the
    # CRF below it. A copy that states nothing searches cold from c_max, as
    # every pair did before the statement was read. Each pair logs one
    # DEBUG line about it, and nothing at INFO.
    stripped = dataclasses.replace(hidden_pair, pair_id="stripped", shared_path=strip_x264_settings(
        hidden_pair.shared_path, tmp_path / "stripped.mp4"))
    with caplog.at_level(logging.DEBUG, logger="snvse.estimator"):
        stated = estimate_crf(hidden_pair, config=config)
        cold = estimate_crf(stripped, config=config)
    assert (stated.crf_hat, stated.saturated) == (cold.crf_hat, cold.saturated)
    assert set(stated.trial_log) <= set(cold.trial_log)
    [log] = trial_events.values()
    crfs = [event[1] for event in log]
    assert crfs[0] == 33 and crfs[len(stated.trial_log)] == 50
    if backend == "sim":
        assert crfs == [33, 32, 50, 33, 32]
    assert _stated_lines(caplog) == [
        "pair hidden: x264 settings state rc=crf crf=33.0, first trial at crf 33",
        "pair stripped: no x264 settings, cold start"]


def test_an_abr_shared_video_searches_cold(config, tmp_path, trial_events, caplog):
    original = make_clip(config, tmp_path / "orig.mp4", size=(640, 360), duration=2)
    shared = make_abr_clip(config, tmp_path / "abr.mp4", bitrate="300k", size=(640, 360),
                           duration=2)
    with caplog.at_level(logging.DEBUG, logger="snvse.estimator"):
        estimate_crf(VideoPair(original, shared, "abr"), config=config)
    [log] = trial_events.values()
    assert log[0][1] == 50
    [line] = _stated_lines(caplog)
    assert line.startswith("pair abr: x264 settings state rc=") and line.endswith(
        " crf=None, cold start")


@pytest.fixture(scope="module")
def cold_search(config, budget_pairs, tmp_path_factory):
    """budget_pairs[0] with a shared video that states nothing, and its estimate."""
    pair = budget_pairs[0]
    pair = dataclasses.replace(pair, shared_path=strip_x264_settings(
        pair.shared_path, tmp_path_factory.mktemp("cold") / "shared.mp4"))
    return pair, estimate_crf(pair, config=config)


@pytest.mark.parametrize("settings, first", [
    ({"rc": "crf", "crf": "51.0"}, 50),
    ({"rc": "crf", "crf": "18.0"}, 21),
    ({"rc": "crf", "crf": "nan"}, 50),
    ({"rc": "crf", "crf": "inf"}, 50),
    ({"rc": "crf", "crf": "1e999"}, 50),
    ({"rc": "crf", "crf": "abc"}, 50),
    ({"rc": "crf", "crf": ""}, 50),
    ({"rc": "abr", "crf": "30.0"}, 50),
], ids=["above-c_max", "below-c_min", "nan", "inf", "1e999", "abc", "empty", "abr"])
def test_a_stated_crf_is_clamped_into_the_range_or_ignored(config, cold_search, trial_events,
                                                           monkeypatch, settings, first):
    # A stated CRF outside [c_min, c_max] is clamped to its nearer end; one
    # that is not a finite number, or stated under another rate control,
    # starts the search cold at c_max. The answer is the cold search's.
    pair, cold = cold_search
    monkeypatch.setattr(snvse.estimator, "x264_settings", lambda path: settings)
    got = estimate_crf(pair, config=config)
    [log] = trial_events.values()
    assert log[0][1] == first
    assert (got.crf_hat, got.saturated) == (cold.crf_hat, cold.saturated)


def test_trial_seconds_truncation_still_recovers(hidden_pair, config):
    result = estimate_crf(hidden_pair, config=config, trial_seconds=3.0)
    assert 32 <= result.crf_hat <= 34


def test_trials_mirror_shared_frame_rate(config, tmp_path, tool_calls, monkeypatch, caplog):
    # The platform emitted 24 fps from a 30 fps source; trial encodes must
    # match the shared side, which is what the bitrate target reflects.
    # They stay h264 when the shared side reads as another codec, with a warning.
    original = make_clip(config, tmp_path / "orig.mp4", size=(640, 360), fps=30, duration=4)
    shared = tmp_path / "shared.mp4"
    encode(original, EncodeSpec(640, 360, 28.0, Fraction(24, 1)), shared, config)
    scratch = tmp_path / "scratch"
    cfg = dataclasses.replace(config, scratch_dir=scratch)

    def shared_as_vp9(path, config):
        info = probe_media(path, config)
        return dataclasses.replace(info, codec_name="vp9") if path == shared else info

    monkeypatch.setattr(snvse.estimator, "media_info", shared_as_vp9)
    tool_calls.clear()
    with caplog.at_level(logging.WARNING, logger="snvse.estimator"):
        estimate_crf(VideoPair(original, shared, "fps"), config=cfg)
    trials = [" ".join(argv) for argv in tool_calls if "-crf" in argv]
    assert trials
    assert all("-r 24/1" in argv and "scale=640:360" in argv and "-c:v libx264" in argv
               for argv in trials)
    assert list(scratch.iterdir()) == []
    assert "pair fps: shared video codec is 'vp9', not h264; trial encodes still use h264" in [
        r.getMessage() for r in caplog.records]


def test_pair_with_a_long_stem_estimates(config, backend, tmp_path):
    # Trial names leave out the pair id: a 240-character stem in them
    # would pass the 255-byte file-name limit.
    stem = "p" * 240
    original = make_clip(config, tmp_path / f"{stem}.mp4", size=(320, 180), duration=2)
    shared = tmp_path / "shared.mp4"
    encode(original, EncodeSpec(320, 180, 30.0, Fraction(30, 1)), shared, config)
    scratch = tmp_path / "scratch"
    got = estimate_crf(VideoPair(original, shared, stem), c_min=26, c_max=36,
                       config=dataclasses.replace(config, scratch_dir=scratch))
    assert got.pair_id == stem
    if backend == "sim":
        assert (got.crf_hat, got.saturated) == (30, False)
    assert list(scratch.iterdir()) == []


@pytest.mark.parametrize("seconds", [0.0, -2.0, float("nan"), float("inf")])
def test_bad_trial_seconds_rejected_before_any_tool_runs(hidden_pair, config, tool_calls,
                                                         seconds):
    with pytest.raises(PreconditionViolation, match="trial_seconds"):
        estimate_crf(hidden_pair, config=config, trial_seconds=seconds)
    with pytest.raises(PreconditionViolation, match="trial_seconds"):
        estimate_batch([hidden_pair], config=config, trial_seconds=seconds)
    assert tool_calls == []


def test_batch_preserves_order(config, clips, tmp_path):
    pairs = []
    for index, name in enumerate(["flat", "textured", "sd"]):
        original = clips[name]
        info = probe_media(original, config)
        shared = tmp_path / f"s{index}.mp4"
        rho = (480, 360)
        encode(original, EncodeSpec(*rho, 30.0, info.frame_rate), shared, config)
        pairs.append(VideoPair(original, shared, pair_id=f"pair{index}"))
    outcomes = estimate_batch(pairs, config=config)
    assert [o.item.pair_id for o in outcomes] == ["pair0", "pair1", "pair2"]
    assert all(o.ok for o in outcomes)


def test_batch_records_partial_failures(config, clips, tmp_path):
    info = probe_media(clips["flat"], config)
    shared = tmp_path / "ok.mp4"
    encode(clips["flat"], EncodeSpec(640, 360, 30.0, info.frame_rate), shared, config)
    bad = tmp_path / "bad.mp4"
    bad.write_bytes(b"nope")
    outcomes = estimate_batch(
        [
            VideoPair(clips["flat"], shared, "good"),
            VideoPair(clips["flat"], bad, "broken"),
        ],
        config=config,
    )
    assert outcomes[0].ok
    assert not outcomes[1].ok
    assert "broken" == outcomes[1].item.pair_id
    assert outcomes[1].error


def test_batch_all_failed_raises(config, tmp_path):
    bad = tmp_path / "bad.mp4"
    bad.write_bytes(b"nope")
    with pytest.raises(AllItemsFailed):
        estimate_batch([VideoPair(bad, bad, "x")], config=config)
    with pytest.raises(AllItemsFailed):
        estimate_batch([], config=config)


# Trials read from their sample tables: the same estimates as probing every trial.

BUDGET_RANGE = {"c_min": 26, "c_max": 36}
# pair id -> hidden CRF: an integer, a half step, above c_max, below c_min,
# one whose crf_hat - 1 is c_min, the first trial, and one whose answer is
# c_max.
BUDGET_HIDDEN = {"integer": 30.0, "half-step": 30.5, "saturated": 40.0, "at-c_min": 24.0,
                 "above-c_min": 27.0, "at-c_max": 35.5}


@pytest.fixture(scope="module")
def budget_pairs(config, tmp_path_factory):
    root = tmp_path_factory.mktemp("budget")
    pairs = []
    for (name, hidden), source in zip(BUDGET_HIDDEN.items(),
                                      ["testsrc2", "gradients", "smptebars", "testsrc", "mandelbrot",
                                       "rgbtestsrc"]):
        original = make_clip(config, root / f"{name}.mp4", source=source, size=(640, 360), duration=3)
        shared = root / f"{name}-shared.mp4"
        encode(original, EncodeSpec(640, 360, hidden, Fraction(30, 1)), shared, config)
        pairs.append(VideoPair(original, shared, pair_id=name))
    return pairs


@pytest.fixture(scope="module")
def probed_everywhere(config, budget_pairs, tmp_path_factory):
    """Per (trial window, pair id): the target, the measured rate of every
    CRF in BUDGET_RANGE, and the answer by the paper's definition, the
    first CRF at or under the target (else c_max, saturated).

    Every CRF is encoded with the trial's spec and probed, without the
    estimator's code.
    """
    root = tmp_path_factory.mktemp("probed")
    crfs = range(BUDGET_RANGE["c_min"], BUDGET_RANGE["c_max"] + 1)

    def sweep(seconds, pair):
        shared = probe_media(pair.shared_path, config)
        target = measure_bitrate(shared, config).value
        measured = {}
        for crf in crfs:
            spec = EncodeSpec(*normalize_dimensions(shared.width, shared.height), float(crf),
                              shared.frame_rate)
            out = encode(pair.original_path, spec, root / f"{pair.pair_id}-{seconds}-{crf}.mp4",
                         config, max_seconds=seconds)
            measured[crf] = measure_bitrate(probe_media(out.path, config), config).value
        answer = next((crf for crf in crfs if measured[crf] <= target), None)
        return target, measured, (crfs[-1], True) if answer is None else (answer, False)

    items = [(seconds, pair) for seconds in (None, 1.0) for pair in budget_pairs]
    with ThreadPoolExecutor(config.workers) as pool:
        results = pool.map(lambda item: sweep(*item), items)
        return {(seconds, pair.pair_id): result for (seconds, pair), result in zip(items, results)}


@pytest.fixture
def trial_events(monkeypatch):
    """Per thread, in order: each trial encode ("encode", crf, output name, input stem)."""
    events = defaultdict(list)
    encode_trial = snvse.estimator.encode

    def spy(source, spec, out, *args, **kwargs):
        result = encode_trial(source, spec, out, *args, **kwargs)
        events[threading.get_ident()].append(("encode", int(spec.crf), out.name, Path(source).stem))
        return result

    monkeypatch.setattr(snvse.estimator, "encode", spy)
    return events


@pytest.mark.parametrize("seconds", [None, 1.0], ids=["whole", "1s"])
@pytest.mark.parametrize("strategy", list(SearchStrategy), ids=lambda s: s.value)
def test_budget_keeps_every_estimate(config, budget_pairs, probed_everywhere, backend, tool_calls,
                                     caplog, strategy, seconds):
    # One rule for both strategies: the answer of probing every CRF, with
    # the failing CRF below it logged, and every logged rate the one a probe
    # measures, though no trial is probed. Under 1 s trials, the trial at
    # above-c_min's hidden CRF reads a few bit/s above its target: its bytes
    # cover another window than the shared video's (ROADMAP item 3).
    answers = {"integer": (30, False), "half-step": (31, False), "saturated": (36, True),
               "at-c_min": (26, False), "above-c_min": (27 if seconds is None else 28, False),
               "at-c_max": (36, False)}
    assert {pair: answer for (window, pair), (*_, answer) in probed_everywhere.items()
            if window == seconds} == answers
    with caplog.at_level(logging.WARNING, logger="snvse.probe"):
        outcomes = estimate_batch(budget_pairs, strategy=strategy, config=config,
                                  trial_seconds=seconds, **BUDGET_RANGE)
    for outcome in outcomes:
        got = outcome.result
        target, measured, answer = probed_everywhere[seconds, got.pair_id]
        assert (got.target_bitrate, (got.crf_hat, got.saturated)) == (target, answer)
        rates = dict(got.trial_log)
        assert rates == {crf: measured[crf] for crf in rates}
        if not got.saturated and got.crf_hat > BUDGET_RANGE["c_min"]:
            assert rates[got.crf_hat - 1] > target
        if backend == "sim" and got.pair_id == "integer" and seconds is None:
            assert rates[got.crf_hat] == target  # a rate equal to the target passes
    prober = config.ffprobe_argv()
    assert [argv for argv in tool_calls if argv[:len(prober)] == prober
            and Path(argv[-1]).name.startswith("trial-")] == []
    if backend == "sim":  # no read of an input or a trial logs at WARNING
        assert [r for r in caplog.records if r.name == "snvse.probe"] == []


def test_search_failing_after_a_settled_pass_leaves_no_trial_file(config, budget_pairs, tmp_path,
                                                                  trial_events, monkeypatch):
    # The bisection's first trial, at the CRF the shared video states,
    # passes and its file is read and removed; the next encode fails.
    encode_trial = snvse.estimator.encode

    def fail_second(*args, **kwargs):
        if any(trial_events.values()):
            raise EncoderFailure("second trial fails")
        return encode_trial(*args, **kwargs)

    monkeypatch.setattr(snvse.estimator, "encode", fail_second)
    scratch = tmp_path / "scratch"
    with pytest.raises(EncoderFailure):
        estimate_crf(budget_pairs[0], strategy=SearchStrategy.BISECTION_WITH_VERIFY,
                     config=dataclasses.replace(config, scratch_dir=scratch), **BUDGET_RANGE)
    [log] = trial_events.values()
    assert [event[:2] for event in log] == [("encode", BUDGET_HIDDEN["integer"])]
    assert list(scratch.iterdir()) == []


def test_interrupt_mid_search_leaves_the_scratch_dir_empty(config, budget_pairs, tmp_path,
                                                         monkeypatch):
    # The second trial encode of a bisection, the last it needs, is interrupted.
    scratch = tmp_path / "scratch"
    encode_trial = snvse.estimator.encode
    calls = []

    def interrupt_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return encode_trial(*args, **kwargs)

    monkeypatch.setattr(snvse.estimator, "encode", interrupt_second)
    with pytest.raises(KeyboardInterrupt):
        estimate_crf(budget_pairs[0], strategy=SearchStrategy.BISECTION_WITH_VERIFY,
                     config=dataclasses.replace(config, scratch_dir=scratch), **BUDGET_RANGE)
    assert list(scratch.iterdir()) == []


def test_concurrent_pairs_never_share_a_trial_path(config, budget_pairs, tmp_path, monkeypatch):
    # Neither pair's shared video states its CRF, so both bisections trial
    # c_max first, at once, under one scratch dir.
    scratch = tmp_path / "scratch"
    encode_trial = snvse.estimator.encode
    outputs = defaultdict(list)  # input stem -> trial output paths

    def spy(source, spec, out, *args, **kwargs):
        outputs[Path(source).stem].append(out)
        return encode_trial(source, spec, out, *args, **kwargs)

    monkeypatch.setattr(snvse.estimator, "encode", spy)
    pairs = [dataclasses.replace(pair, shared_path=strip_x264_settings(
        pair.shared_path, tmp_path / f"{pair.pair_id}.mp4")) for pair in budget_pairs[:2]]
    outcomes = estimate_batch(pairs, strategy=SearchStrategy.BISECTION_WITH_VERIFY,
                              config=dataclasses.replace(config, workers=2, scratch_dir=scratch),
                              **BUDGET_RANGE)
    assert all(o.ok for o in outcomes)
    dirs = set()
    for pair in pairs:
        paths = outputs[pair.original_path.stem]
        assert paths[0].name == f"trial-crf{BUDGET_RANGE['c_max']}.mp4"
        assert len(set(paths)) == len(paths)
        [directory] = {path.parent for path in paths}
        assert directory.parent == scratch and directory.name.startswith("trials-")
        dirs.add(directory)
    assert len(dirs) == len(pairs)
    assert list(scratch.iterdir()) == []


# The trial at a stated start encodes the CRF below it in the same run.


@pytest.mark.parametrize("seconds", [None, 1.0], ids=["whole", "1s"])
def test_encoding_the_crf_below_the_start_beside_it_changes_no_estimate(
        config, budget_pairs, cold_search, tmp_path_factory, monkeypatch, tool_calls, seconds):
    # Stated pairs (one stated below c_min, one above c_max), a stripped one
    # and an ABR one: the same answers and trial logs as one run per trial,
    # in fewer runs.
    root = tmp_path_factory.mktemp("abr")
    abr = VideoPair(make_clip(config, root / "orig.mp4", size=(640, 360), duration=3),
                    make_abr_clip(config, root / "abr.mp4", bitrate="300k", size=(640, 360),
                                  duration=3), "abr")
    pairs = [*budget_pairs, dataclasses.replace(cold_search[0], pair_id="stripped"), abr]

    def estimates():
        tool_calls.clear()
        outcomes = estimate_batch(pairs, config=config, trial_seconds=seconds, **BUDGET_RANGE)
        encodes = sum(argv.count("-crf") for argv in tool_calls)
        return [(o.item.pair_id, o.result.crf_hat, o.result.saturated, o.result.trial_log)
                for o in outcomes], (len(tool_calls), encodes)

    together, (runs, encodes) = estimates()
    encode_trial = snvse.estimator.encode

    def alone(*args, siblings=(), written=False, **kwargs):
        return encode_trial(*args, **kwargs)

    monkeypatch.setattr(snvse.estimator, "encode", alone)  # every trial in a run of its own
    apart, (runs_apart, encodes_apart) = estimates()
    assert together == apart
    # Each pair stated in (c_min, c_max] encodes the CRF below its start;
    # that saves a run where the search asks for it, and is an encode more
    # where it does not: above-c_min's, under 1 s trials, whose start fails.
    starts = {pair: math.ceil(crf) for pair, crf in BUDGET_HIDDEN.items()
              if BUDGET_RANGE["c_min"] < math.ceil(crf) <= BUDGET_RANGE["c_max"]}
    used = [pair for pair, _, _, log in together
            if pair in starts and starts[pair] - 1 in dict(log)]
    assert len(starts) == 4 and len(used) == (4 if seconds is None else 3)
    assert (runs, encodes) == (runs_apart - len(used), encodes_apart + len(starts) - len(used))


def test_a_stated_pair_whose_start_passes_costs_one_tool_run(hidden_pair, config, tool_calls,
                                                             trial_events):
    result = estimate_crf(hidden_pair, config=config)
    [log] = trial_events.values()
    assert [event[1] for event in log] == [result.crf_hat, result.crf_hat - 1]
    assert [argv.count("-crf") for argv in tool_calls] == [2]
    # The linear sweep encodes one CRF per run.
    tool_calls.clear()
    linear = estimate_crf(hidden_pair, strategy=SearchStrategy.LINEAR_SWEEP, config=config)
    assert [argv.count("-crf") for argv in tool_calls] == [1] * len(linear.trial_log)


def test_a_failing_start_leaves_the_crf_below_it_out(hidden_pair, config, tmp_path, monkeypatch,
                                                     tool_calls, caplog):
    # A shared video at CRF 33 that states 30: the start fails, so the
    # search never asks for 29. Its file goes with the pair's trial dir.
    monkeypatch.setattr(snvse.estimator, "x264_settings", lambda path: {"rc": "crf", "crf": "30"})
    scratch = tmp_path / "scratch"
    with caplog.at_level(logging.DEBUG, logger="snvse.estimator"):
        got = estimate_crf(hidden_pair, config=dataclasses.replace(config, scratch_dir=scratch))
    crfs = [crf for crf, _ in got.trial_log]
    assert 30 in crfs and 29 not in crfs
    assert [argv.count("-crf") for argv in tool_calls] == [2] + [1] * (len(crfs) - 1)
    assert "pair hidden: crf=29, encoded beside crf=30, was not needed" in [
        r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert list(scratch.iterdir()) == []
