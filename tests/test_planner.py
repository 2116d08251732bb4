"""Resolution/CRF selection vs independent brute force, plan and batch behavior."""

import datetime as dt
import itertools
import json
import math
import random
import shutil
from dataclasses import replace
from fractions import Fraction

import pytest

from snvse.errors import (
    AllItemsFailed,
    NoSupport,
    PreconditionViolation,
    PresetMismatch,
    SchemaViolation,
)
from snvse.planner import (
    emulate_batch,
    plan_emulation,
    select_crf,
    select_resolution,
    supporting_entries,
)
from snvse.probe import probe_media
from snvse.profile_db import PlatformProfile, ProfileEntry

from conftest import fake_encoder


_pair_ids = itertools.count()


def entry(rho_in, rho_out, crf_hat=30, saturated=False, pair_id=None):
    return ProfileEntry(
        rho_in=tuple(rho_in), rho_out=tuple(rho_out), crf_hat=crf_hat,
        saturated=saturated, pair_id=pair_id or f"p{next(_pair_ids)}",
        target_bitrate=500_000.0,
    )


def profile(entries, preset="medium", platform="testnet"):
    return PlatformProfile(
        platform_name=platform, captured_at=dt.date(2025, 6, 1),
        preset=preset, entries=entries,
    )


# --- independent brute-force re-implementations (kept deliberately naive) ---

def brute_force_resolution(rho, entries):
    exact = [e for e in entries if e.rho_in == rho]
    if exact:
        return _brute_majority_out(exact), True
    best = None
    for candidate in {e.rho_in for e in entries}:
        dist = math.sqrt((candidate[0] - rho[0]) ** 2 + (candidate[1] - rho[1]) ** 2)
        key = (dist, -(candidate[0] * candidate[1]), -candidate[0])
        if best is None or key < best[0]:
            best = (key, candidate)
    chosen = [e for e in entries if e.rho_in == best[1]]
    return _brute_majority_out(chosen), False


def _brute_majority_out(group):
    tally = {}
    for e in group:
        tally[e.rho_out] = tally.get(e.rho_out, 0) + 1
    best = None
    for rho_out, count in tally.items():
        key = (count, rho_out[0] * rho_out[1], rho_out[0])
        if best is None or key > best[0]:
            best = (key, rho_out)
    return best[1]


def brute_force_crf(rho_star, entries, include_saturated=False):
    values = [
        e.crf_hat for e in entries
        if e.rho_out == rho_star and (include_saturated or not e.saturated)
    ]
    if not values:
        return None
    return sum(values) / len(values), len(values)


# --- select_resolution ---

def test_exact_match_wins():
    prof = profile([entry((640, 480), (640, 480)), entry((1280, 720), (1280, 720))])
    rho_out, matched = select_resolution((640, 480), prof)
    assert rho_out == (640, 480)
    assert matched is True


def test_nearest_by_euclidean_distance():
    prof = profile([entry((1280, 720), (1280, 720)), entry((640, 480), (640, 480))])
    rho_out, matched = select_resolution((1276, 720), prof)
    assert rho_out == (1280, 720)
    assert matched is False


def test_distance_tie_breaks_on_pixel_count():
    prof = profile([entry((832, 480), (832, 480)), entry((1088, 480), (1088, 480))])
    rho_out, matched = select_resolution((960, 480), prof)
    assert rho_out == (1088, 480)
    assert matched is False


def test_conflicting_exact_matches_use_majority():
    prof = profile([
        entry((1280, 720), (1280, 720)),
        entry((1280, 720), (960, 540)),
        entry((1280, 720), (960, 540)),
    ])
    rho_out, matched = select_resolution((1280, 720), prof)
    assert rho_out == (960, 540)
    assert matched is True


def test_empty_profile_rejected():
    with pytest.raises(PreconditionViolation, match="profile has no entries"):
        select_resolution((640, 480), profile([]))


def _random_profile(rng):
    dims = [320, 360, 480, 640, 654, 720, 832, 854, 960, 1088, 1280, 1920]
    entries = []
    for i in range(rng.randint(1, 20)):
        rho_in = (rng.choice(dims), rng.choice(dims))
        rho_out = (rng.choice(dims) // 2 * 2, rng.choice(dims) // 2 * 2)
        entries.append(entry(rho_in, rho_out, crf_hat=rng.randint(21, 50),
                             saturated=rng.random() < 0.15, pair_id=f"r{i}"))
    return profile(entries)


def test_resolution_matches_brute_force_on_random_instances():
    rng = random.Random(1138)
    for _ in range(300):
        prof = _random_profile(rng)
        rho = (rng.randint(300, 2000), rng.randint(200, 1200))
        assert select_resolution(rho, prof) == brute_force_resolution(rho, prof.entries)


def test_exact_match_dominance_on_random_instances():
    rng = random.Random(99)
    for _ in range(200):
        prof = _random_profile(rng)
        rho = rng.choice(prof.entries).rho_in
        _, matched = select_resolution(rho, prof)
        assert matched is True


# --- select_crf ---

def test_crf_mean():
    prof = profile([entry((1, 1), (640, 480), 28, pair_id="a"),
                    entry((1, 1), (640, 480), 30, pair_id="b")])
    assert select_crf((640, 480), prof) == (29.0, 2)


def test_crf_single_entry():
    prof = profile([entry((1, 1), (640, 480), 33)])
    assert select_crf((640, 480), prof) == (33.0, 1)


def test_crf_excludes_saturated_by_default():
    prof = profile([
        entry((1, 1), (640, 480), 30, pair_id="a"),
        entry((1, 1), (640, 480), 31, pair_id="b"),
        entry((1, 1), (640, 480), 50, saturated=True, pair_id="c"),
    ])
    assert select_crf((640, 480), prof) == (30.5, 2)
    crf_star, support = select_crf((640, 480), prof, include_saturated=True)
    assert support == 3
    assert crf_star == pytest.approx(37.0)


def test_crf_no_support():
    prof = profile([entry((1, 1), (640, 480), 50, saturated=True)])
    with pytest.raises(NoSupport):
        select_crf((640, 480), prof)
    assert select_crf((640, 480), prof, include_saturated=True) == (50.0, 1)


def test_empty_group_names_only_usable_resolutions():
    prof = profile([
        entry((1, 1), (640, 360), 50, saturated=True, pair_id="a"),
        entry((1, 1), (1280, 720), 30, pair_id="b"),
        entry((1, 1), (854, 480), 50, saturated=True, pair_id="c"),
        entry((1, 1), (1280, 720), 31, pair_id="d"),
    ])
    with pytest.raises(NoSupport) as raised:
        select_crf((640, 360), prof)
    assert str(raised.value) == ("no entries at 640x360 (saturated ones excluded); "
                                 "usable output resolutions: 1280x720")
    with pytest.raises(NoSupport) as raised:
        supporting_entries((320, 240), prof, include_saturated=True)
    assert str(raised.value) == ("no entries at 320x240; usable output resolutions: "
                                 "640x360, 1280x720, 854x480")
    with pytest.raises(NoSupport, match="usable output resolutions: none$"):
        supporting_entries((640, 360), profile([prof.entries[0]]), include_saturated=False)


def test_crf_matches_brute_force_on_random_instances():
    rng = random.Random(7)
    checked = 0
    for _ in range(300):
        prof = _random_profile(rng)
        rho_star = rng.choice(prof.entries).rho_out
        expected = brute_force_crf(rho_star, prof.entries)
        if expected is None:
            with pytest.raises(NoSupport):
                select_crf(rho_star, prof)
        else:
            assert select_crf(rho_star, prof) == expected
            checked += 1
    assert checked > 100


# --- plan_emulation / emulate_batch ---

def test_plan_uses_input_frame_rate_and_profile_mapping(config, clips):
    prof = profile([
        entry((1280, 720), (640, 360), 31, pair_id="a"),
        entry((1280, 720), (640, 360), 33, pair_id="b"),
    ])
    plan = plan_emulation(clips["hd25"], prof, config)
    assert plan.rho_star == (640, 360)
    assert plan.crf_star == 32.0
    assert plan.matched_exactly is True
    assert plan.support_count == 2
    assert plan.spec.frame_rate == Fraction(25, 1)


def test_plan_nearest_branch_flags_inexact(config, clips):
    prof = profile([entry((1300, 720), (1280, 720), 30)])
    plan = plan_emulation(clips["hd"], prof, config)
    assert plan.matched_exactly is False
    assert plan.rho_star == (1280, 720)


def test_plan_reports_aspect_change(config, clips):
    prof = profile([entry((1280, 720), (640, 480), 30)])
    plan = plan_emulation(clips["hd"], prof, config)  # 16:9 -> 4:3
    assert plan.aspect_change > 0.01


def test_emulate_batch_rejects_config_preset_mismatch(config, clips, tmp_path, tool_calls):
    # config runs "medium"; estimates are preset-relative, so a "slow"
    # profile must not be replayed under it.
    prof = profile([entry((1280, 720), (640, 360), 31)], preset="slow")
    out_dir = tmp_path / "out"
    with pytest.raises(PresetMismatch):
        emulate_batch([clips["hd"]], prof, out_dir, config=config)
    assert not out_dir.exists()
    assert tool_calls == []


def test_emulate_batch_rejects_colliding_stems(config, clips, tmp_path, tool_calls):
    # a/clip.mp4 and b/clip.mp4 would both be written to out/clip.testnet.mp4.
    inputs = []
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        inputs.append(shutil.copy(clips["hd"], tmp_path / side / "clip.mp4"))
    prof = profile([entry((1280, 720), (640, 360), 31)])
    out_dir = tmp_path / "out"
    with pytest.raises(PreconditionViolation, match="clip"):
        emulate_batch(inputs, prof, out_dir, config=config)
    assert not out_dir.exists()
    assert tool_calls == []


def test_emulate_batch_rejects_a_platform_with_a_path_separator(config, clips, tmp_path, tool_calls):
    # Outputs are named <stem>.<platform>.mp4 inside out_dir.
    prof = profile([entry((1280, 720), (640, 360), 31)], platform="../escaped")
    out_dir = tmp_path / "out"
    with pytest.raises(SchemaViolation, match="path separator"):
        emulate_batch([clips["hd"]], prof, out_dir, config=config)
    assert not out_dir.exists()
    assert tool_calls == []


@pytest.mark.parametrize("key", ["rho_in", "rho_out"])
def test_emulate_batch_refuses_a_list_built_profile_before_any_work(config, clips, tmp_path,
                                                                   tool_calls, key):
    # The planner hashes resolutions; a list once passed the schema and then
    # ended emulate_batch in a TypeError after its first probe.
    prof = profile([replace(entry((1280, 720), (640, 360), 31), **{key: [640, 360]})])
    out_dir = tmp_path / "out"
    with pytest.raises(SchemaViolation, match=rf"entries\[0\]\.{key} must be \[width, height\] "
                                              r"of positive ints, got \[640, 360\] \(a list"):
        emulate_batch([clips["hd"]], prof, out_dir, config=config)
    assert not out_dir.exists()
    assert tool_calls == []


def test_emulate_batch_outputs_and_manifest(config, clips, tmp_path):
    prof = profile([
        entry((1280, 720), (640, 360), 31, pair_id="a"),
        entry((1280, 720), (640, 360), 33, pair_id="b"),
    ])
    out_dir = tmp_path / "out"
    outcomes = emulate_batch([clips["hd"], clips["hd25"]], prof, out_dir, config=config)
    assert all(o.ok for o in outcomes)
    for outcome in outcomes:
        info = probe_media(outcome.result.output_path, config)
        assert info.resolution == (640, 360)
        assert outcome.result.output_path.name.endswith(".testnet.mp4")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest) == 2
    assert all(r["rho_star"] == [640, 360] and r["crf_star"] == 32.0 for r in manifest)


def test_emulate_batch_plans_are_deterministic(config, clips, tmp_path):
    prof = profile([entry((1280, 720), (640, 360), 31)])
    runs = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        emulate_batch([clips["hd"]], prof, out_dir, config=config)
        records = json.loads((out_dir / "manifest.json").read_text())
        runs.append([(r["rho_star"], r["crf_star"], r["matched_exactly"]) for r in records])
    assert runs[0] == runs[1]


def test_emulate_batch_partial_failure(config, clips, tmp_path):
    prof = profile([entry((1280, 720), (1280, 720), 30)])
    corrupt = tmp_path / "corrupt.mp4"
    corrupt.write_bytes(b"zzz")
    out_dir = tmp_path / "out"
    outcomes = emulate_batch([clips["hd"], corrupt], prof, out_dir, config=config)
    assert outcomes[0].ok
    assert not outcomes[1].ok
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "error" in manifest[1]


def test_emulate_batch_all_failed(config, tmp_path):
    prof = profile([entry((1280, 720), (1280, 720), 30)])
    corrupt = tmp_path / "corrupt.mp4"
    corrupt.write_bytes(b"zzz")
    with pytest.raises(AllItemsFailed):
        emulate_batch([corrupt], prof, tmp_path / "out", config=config)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "error" in manifest[0]
    with pytest.raises(AllItemsFailed, match="no inputs to emulate"):
        emulate_batch([], prof, tmp_path / "none", config=config)
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("workers, runs", [(4, [1, 1, 1]), (1, [3])],
                         ids=["workers=4", "workers=1"])
def test_emulate_batch_encodes_mp4_inputs_in_runs_of_up_to_four(config, clips, tmp_path,
                                                                tool_calls, workers, runs):
    # Each MP4 input is read from its moov, so the encoder runs are the only
    # tool runs: min(n, W·⌈n/4W⌉) of them, so one per input when n <= W.
    prof = profile([entry((1280, 720), (640, 360), 31)])
    inputs = [clips["hd"], clips["hd25"], clips["sd"]]
    outcomes = emulate_batch(inputs, prof, tmp_path / "out",
                             config=replace(config, workers=workers))
    assert all(o.ok for o in outcomes)
    assert [argv.count("-crf") for argv in tool_calls] == runs


def test_emulate_batch_records_an_unfinished_encode(config, clips, tmp_path):
    # An encoder that exits 0 but writes nothing for one input fails that
    # input alone; the others still go through the real encoder.
    hollow = shutil.copy(clips["sd"], tmp_path / "hollow.mp4")
    fake = fake_encoder(config, (
        "import subprocess, sys; argv = sys.argv[1:]; "
        "src = argv[argv.index('-i') + 1]; "
        f"sys.exit(0 if 'hollow' in src else subprocess.call({config.ffmpeg_argv()!r} + argv))"
    ))
    prof = profile([entry((1280, 720), (640, 360), 31)])
    out_dir = tmp_path / "out"
    outcomes = emulate_batch([clips["hd"], hollow, clips["hd25"]], prof, out_dir, config=fake)
    assert [o.ok for o in outcomes] == [True, False, True]
    assert not (out_dir / "hollow.testnet.mp4").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest[1]["error"].startswith("EncoderFailure: encoder exited 0")
    assert "error" not in manifest[0] and "error" not in manifest[2]
