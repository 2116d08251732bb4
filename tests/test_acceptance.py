"""Acceptance criteria for the full pipeline, one test per criterion.

Each test prints an ``ACCEPTANCE Cn ... PASS/FAIL`` line (visible with
``pytest -s`` or in captured output). The mock platform provides ground
truth: a corpus is "shared" with hidden, known parameters and the
pipeline must recover and reproduce them at the stated tolerances.
"""

import datetime as dt
import json
import random
import statistics
from contextlib import contextmanager

import pytest

from snvse.analysis import fidelity_report
from snvse.bitrate import measure_bitrate
from snvse.cli import main
from snvse.encoder import EncodeSpec, encode
from snvse.estimator import estimate_batch
from snvse.planner import select_crf, select_resolution
from snvse.probe import probe_media
from snvse.profile_db import (
    PlatformProfile,
    ProfileEntry,
    load_profile,
    save_profile,
)

from conftest import make_clip
from test_planner import brute_force_crf, brute_force_resolution
from test_profile_db import random_profile

HIDDEN_RHO = (640, 360)
HIDDEN_CRF = 33


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def corpus(config, tmp_path_factory):
    """10 diverse ~10 s clips, mock-shared at hidden (640x360, CRF 33)."""
    root = tmp_path_factory.mktemp("acceptance")
    originals_dir = root / "originals"
    originals_dir.mkdir()
    sources = ["testsrc2", "gradients", "testsrc", "smptebars", "mandelbrot"]
    originals = []
    for index in range(10):
        fps = 30 if index % 2 == 0 else 25
        clip = make_clip(
            config,
            originals_dir / f"clip{index:02d}.mp4",
            source=sources[index % len(sources)],
            size=(1280, 720),
            fps=fps,
            duration=10,
        )
        originals.append(clip)

    shared_dir = root / "shared"
    code = main([
        "--log-level", "error",
        "--ffmpeg-bin", config.ffmpeg, "--ffprobe-bin", config.ffprobe,
        "--workers", str(config.workers),
        "mock-platform", str(originals_dir), "--out", str(shared_dir),
        "--resolution", f"{HIDDEN_RHO[0]}x{HIDDEN_RHO[1]}", "--crf", str(HIDDEN_CRF),
    ])
    assert code == 0, "mock platform must share the whole corpus"
    return {"root": root, "originals": originals, "shared_dir": shared_dir}


@pytest.fixture(scope="module")
def estimated(config, corpus):
    """Estimation results + assembled profile for the mock-shared corpus."""
    from snvse.estimator import VideoPair

    pairs = [
        VideoPair(original, corpus["shared_dir"] / original.name, pair_id=original.stem)
        for original in corpus["originals"]
    ]
    outcomes = estimate_batch(pairs, config=config, trial_seconds=5.0)
    assert all(o.ok for o in outcomes)
    profile = PlatformProfile(
        platform_name="mocknet",
        captured_at=dt.date(2025, 8, 9),
        preset=config.preset,
        entries=[o.result for o in outcomes],
    )
    profile_path = corpus["root"] / "mocknet.json"
    save_profile(profile, profile_path)
    return {"outcomes": outcomes, "profile": profile, "profile_path": profile_path}


def test_c1_hidden_parameter_recovery(estimated):
    with criterion("C1 hidden-parameter recovery"):
        results = [o.result for o in estimated["outcomes"]]
        assert len(results) == 10
        crfs = [r.crf_hat for r in results]
        assert 31 <= statistics.fmean(crfs) <= 35, crfs
        assert all(30 <= c <= 36 for c in crfs), crfs
        for result in results:
            trials = dict(result.trial_log)
            assert trials[result.crf_hat] <= result.target_bitrate
            if result.crf_hat > 21 and not result.saturated:
                assert trials[result.crf_hat - 1] > result.target_bitrate


def test_c2_selection_matches_brute_force():
    with criterion("C2 resolution/CRF selection vs brute force"):
        rng = random.Random(424242)
        dims = [320, 360, 480, 576, 640, 654, 704, 720, 832, 854, 960, 1088, 1280, 1920]
        for _ in range(1000):
            entries = []
            for i in range(rng.randint(1, 20)):
                rho_in = (rng.choice(dims), rng.choice(dims))
                rho_out = (rng.choice(dims) // 2 * 2, rng.choice(dims) // 2 * 2)
                entries.append(ProfileEntry(
                    rho_in=rho_in, rho_out=rho_out, crf_hat=rng.randint(21, 50),
                    saturated=rng.random() < 0.15, pair_id=f"e{i}",
                    target_bitrate=1e6,
                ))
            profile = PlatformProfile(
                platform_name="x", captured_at=dt.date(2025, 1, 1),
                preset="medium", entries=entries,
            )
            query = (rng.randint(160, 2048), rng.randint(120, 1200))
            assert select_resolution(query, profile) == brute_force_resolution(query, entries)
            rho_star = rng.choice(entries).rho_out
            expected = brute_force_crf(rho_star, entries)
            if expected is None:
                from snvse.errors import NoSupport

                with pytest.raises(NoSupport):
                    select_crf(rho_star, profile)
            else:
                assert select_crf(rho_star, profile) == expected


def test_c3_emulation_contract(config, corpus, estimated, tmp_path):
    with criterion("C3 emulation contract (codec/pixfmt/resolution/input fps)"):
        extra = make_clip(config, tmp_path / "sd_in.mp4", source="testsrc",
                          size=(854, 480), fps=30, duration=4)
        inputs = corpus["originals"][:4] + [extra]
        out_dir = tmp_path / "emu"
        code = main([
            "--log-level", "error",
            "emulate", "--profile", str(estimated["profile_path"]),
            "--out", str(out_dir),
            *[str(p) for p in inputs],
        ])
        assert code == 0
        for input_path in inputs:
            source = probe_media(input_path, config)
            emitted = probe_media(out_dir / f"{input_path.stem}.mocknet.mp4", config)
            assert emitted.codec_name == "h264"
            assert emitted.pixel_format == "yuv420p"
            assert emitted.resolution == HIDDEN_RHO
            assert emitted.frame_rate == source.frame_rate  # exact rational


def test_c4_crf_monotonicity(config, clips, tmp_path):
    with criterion("C4 bitrate non-increasing over CRF {21,30,40,50}"):
        for name in ("textured", "hd", "sd"):
            source = clips[name]
            info = probe_media(source, config)
            rates = []
            for crf in (21, 30, 40, 50):
                spec = EncodeSpec(
                    target_width=info.width - info.width % 2,
                    target_height=info.height - info.height % 2,
                    crf=float(crf),
                    frame_rate=info.frame_rate,
                )
                out = encode(source, spec, tmp_path / f"{name}-{crf}.mp4", config).path
                rates.append(measure_bitrate(probe_media(out, config), config).value)
            for earlier, later in zip(rates, rates[1:]):
                assert later <= earlier or abs(later - earlier) / earlier < 0.02, (name, rates)


# Synthetic 54-estimate population, drawn once and frozen (spec-sanctioned
# alternative to re-estimating 54 mock pairs).
FROZEN_CRF_POPULATION = [
    30, 27, 30, 28, 28, 30, 30, 30, 32, 31, 28, 29, 29, 29, 33, 31, 30, 35,
    31, 32, 28, 31, 30, 31, 29, 32, 36, 30, 28, 30, 31, 28, 30, 30, 30, 28,
    28, 31, 31, 31, 32, 31, 31, 32, 33, 30, 31, 32, 31, 34, 27, 31, 33, 30,
]


def test_c5_bootstrap_stability_shape(tmp_path):
    with criterion("C5 bootstrap stability shape + determinism"):
        assert len(FROZEN_CRF_POPULATION) == 54
        entries = [
            ProfileEntry(rho_in=(1280, 720), rho_out=(1280, 720), crf_hat=value,
                         saturated=False, pair_id=f"p{i}", target_bitrate=1e6)
            for i, value in enumerate(FROZEN_CRF_POPULATION)
        ]
        profile_path = tmp_path / "population.json"
        save_profile(
            PlatformProfile(platform_name="mocknet", captured_at=dt.date(2025, 8, 9),
                            preset="medium", entries=entries),
            profile_path,
        )
        out_csv = tmp_path / "stability.csv"
        argv = [
            "--log-level", "error",
            "analyze-stability", "--profile", str(profile_path),
            "--resolution", "1280x720",
            "--n-min", "1", "--n-max", "50",
            "--iterations", "1000", "--seed", "7",
            "--out", str(out_csv),
        ]
        assert main(argv) == 0
        first_bytes = out_csv.read_bytes()
        assert main(argv) == 0
        assert out_csv.read_bytes() == first_bytes  # bit-identical rerun

        import csv as csv_mod

        with open(out_csv, newline="") as fh:
            rows = {int(r["n_prime"]): r for r in csv_mod.DictReader(fh)}
        width_5 = float(rows[5]["crf_max"]) - float(rows[5]["crf_min"])
        width_30 = float(rows[30]["crf_max"]) - float(rows[30]["crf_min"])
        assert width_30 <= 0.60 * width_5, (width_5, width_30)


def test_c6_fidelity_closure(config, corpus, estimated, tmp_path):
    with criterion("C6 fidelity closure (emulated vs mock-shared)"):
        out_dir = tmp_path / "emu"
        code = main([
            "--log-level", "error",
            "emulate", "--profile", str(estimated["profile_path"]),
            "--out", str(out_dir),
            *[str(p) for p in corpus["originals"]],
        ])
        assert code == 0
        emulated = [out_dir / f"{p.stem}.mocknet.mp4" for p in corpus["originals"]]
        shared = [corpus["shared_dir"] / p.name for p in corpus["originals"]]
        summary = fidelity_report(emulated, shared, config).summary()
        assert summary["resolution_equality_rate"] == 1.0
        assert summary["median_bitrate_rel_diff"] <= 0.25, summary


def test_c7_profile_round_trip_bytes(tmp_path):
    with criterion("C7 profile save/load/save byte identity (50 random profiles)"):
        rng = random.Random(7_654_321)
        for index in range(50):
            profile = random_profile(rng)
            first = tmp_path / f"{index}a.json"
            second = tmp_path / f"{index}b.json"
            save_profile(profile, first)
            save_profile(load_profile(first), second)
            assert first.read_bytes() == second.read_bytes(), index


def test_c8_partial_failure_robustness(config, corpus, estimated, tmp_path):
    with criterion("C8 partial-failure robustness + exit codes"):
        corrupt = tmp_path / "corrupt.mp4"
        corrupt.write_bytes(b"\x00garbage\x00" * 32)
        inputs = corpus["originals"][:4] + [corrupt]
        out_dir = tmp_path / "partial"
        code = main([
            "--log-level", "error",
            "emulate", "--profile", str(estimated["profile_path"]),
            "--out", str(out_dir),
            *[str(p) for p in inputs],
        ])
        assert code == 0
        outputs = [p for p in out_dir.glob("*.mocknet.mp4")]
        assert len(outputs) == 4
        manifest = json.loads((out_dir / "manifest.json").read_text())
        errors = [r for r in manifest if "error" in r]
        assert len(errors) == 1
        assert errors[0]["input"].endswith("corrupt.mp4")

        code = main([
            "--log-level", "error",
            "emulate", "--profile", str(estimated["profile_path"]),
            "--out", str(tmp_path / "allbad"),
            str(corrupt),
        ])
        assert code != 0
