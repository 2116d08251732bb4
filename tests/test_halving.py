"""Rate curves other than 6 CRF per halving, in the sim and end to end.

A lavfi source's sim-only ``halving=S`` option sets the CRF per halving of
every encode made from that source, so a platform's encode and the
estimator's trials price with one slope that the bisection's rate model
does not assume.
"""

import json
import math
import shutil
from fractions import Fraction

import pytest

from snvse.bitrate import measure_bitrate
from snvse.cli import main
from snvse.encoder import EncodeSpec, encode
from snvse.estimator import SearchStrategy, VideoPair, estimate_crf
from snvse.probe import probe_media
from snvse.sim import main_ffmpeg, read_container

from conftest import make_clip

JITTER = 1.015 / 0.985  # the sim's largest rate ratio between two settings of one curve


def _sim_encode(out, crf, *inputs):
    argv = ["-y", *inputs, "-c:v", "libx264", "-crf", str(crf), "-pix_fmt", "yuv420p", "-t", "2",
            str(out)]
    assert main_ffmpeg(argv) == 0
    return read_container(out)["streams"][0]


def _lavfi(options):
    return "-f", "lavfi", "-i", f"testsrc2=size=320x180:rate=30{options}"


def test_halving_sets_the_slope_of_every_encode_from_a_source(tmp_path):
    original, plain, six = tmp_path / "original.mp4", tmp_path / "plain.mp4", tmp_path / "six.mp4"
    assert _sim_encode(original, 18, *_lavfi(":halving=4"))["halving"] == 4
    assert "halving" not in _sim_encode(plain, 18, *_lavfi(""))
    low, high = (_sim_encode(tmp_path / f"crf{crf}.mp4", crf, "-i", str(original)) for crf in (30, 38))
    assert low["halving"] == high["halving"] == 4
    # 8 CRF is two halvings at 4 CRF per halving; each rate carries its own jitter.
    assert 1 / JITTER < high["bit_rate"] / low["bit_rate"] / 0.25 < JITTER
    # The default slope is 6: halving=6 prices exactly as no option does.
    _sim_encode(six, 18, *_lavfi(":halving=6"))
    assert (_sim_encode(tmp_path / "six30.mp4", 30, "-i", str(six))["bit_rate"]
            == _sim_encode(tmp_path / "plain30.mp4", 30, "-i", str(plain))["bit_rate"])


@pytest.mark.parametrize("value", ["0", "-3", "nan", "inf"])
def test_halving_must_be_positive_and_finite(tmp_path, capsys, value):
    assert main_ffmpeg(["-y", *_lavfi(f":halving={value}"), "-t", "1", str(tmp_path / "x.mp4")]) == 1
    assert "halving must be positive and finite" in capsys.readouterr().err


# CRF per halving -> hidden CRFs: an integer and a half step each. The
# bisection's rate model assumes 6. The last pair lies above c_max and
# saturates.
HIDDEN = {4: (27.0, 23.5), 5: (24.0, 30.5), 8: (32.0, 25.5), 10: (22.0, 28.5)}
SATURATED = (5, 51.0)  # a slope of HIDDEN


@pytest.fixture(scope="module")
def slope_pairs(config, backend, tmp_path_factory):
    """Originals and mock-shared dirs, paired by stem, and each stem's expected (crf_hat, saturated)."""
    if backend != "sim":
        pytest.skip("halving= is a sim-only source option")
    root = tmp_path_factory.mktemp("slopes")
    originals, shared = root / "originals", root / "shared"
    originals.mkdir()
    shared.mkdir()
    expected = {}
    cases = [(s, crf) for s, crfs in HIDDEN.items() for crf in crfs] + [SATURATED]
    clips = {s: make_clip(config, root / f"s{s}.mp4", size=(320, 180), duration=1, halving=s)
             for s in HIDDEN}
    for s, crf in cases:
        stem = f"s{s}-crf{crf:g}"
        shutil.copyfile(clips[s], originals / f"{stem}.mp4")
        encode(clips[s], EncodeSpec(320, 180, crf, Fraction(30)), shared / f"{stem}.mp4", config)
        assert read_container(shared / f"{stem}.mp4")["streams"][0]["halving"] == s
        expected[stem] = (50, True) if crf > 50 else (math.ceil(crf), False)
    return originals, shared, expected


def test_default_search_writes_the_linear_sweeps_profile(config, slope_pairs, tmp_path, capsys,
                                                         tool_calls):
    originals, shared, expected = slope_pairs
    trials = {}

    def estimate(name, *options):
        tool_calls.clear()
        out = tmp_path / name / "profile.json"
        code = main(["--log-level", "error", "--ffmpeg-bin", config.ffmpeg,
                     "--ffprobe-bin", config.ffprobe, "--scratch-dir", str(tmp_path / "scratch"),
                     "estimate", str(originals), str(shared), "--platform", "p", "--out", str(out),
                     *options])
        stdout = capsys.readouterr().out.replace(str(out.parent), "OUT")
        trials[name] = sum("-crf" in argv for argv in tool_calls)
        return code, stdout, out.read_bytes()

    default = estimate("default")
    assert default == estimate("linear", "--strategy", "linear")
    assert default[0] == 0
    entries = json.loads(default[2])["entries"]
    assert {e["pair_id"]: (e["crf_hat"], e["saturated"]) for e in entries} == expected
    assert trials["default"] < trials["linear"]  # the default is the bisection


@pytest.mark.parametrize("halving", [4, 5])
def test_crf_hat_minus_one_on_steep_curves(config, slope_pairs, tmp_path, halving):
    # One rule for both searches: crf_hat - 1 logs a rate above the target,
    # the probed rate of its encode.
    originals, shared, expected = slope_pairs
    for crf in HIDDEN[halving]:
        stem = f"s{halving}-crf{crf:g}"
        pair = VideoPair(originals / f"{stem}.mp4", shared / f"{stem}.mp4", stem)
        default = estimate_crf(pair, config=config)
        linear = estimate_crf(pair, strategy=SearchStrategy.LINEAR_SWEEP, config=config)
        assert default.crf_hat == linear.crf_hat == expected[stem][0]
        below = default.crf_hat - 1
        info = encode(pair.original_path, EncodeSpec(320, 180, float(below), Fraction(30)),
                      tmp_path / f"{stem}.mp4", config)
        measured = measure_bitrate(probe_media(info.path, config), config).value
        rate = dict(default.trial_log)[below]
        assert rate == dict(linear.trial_log)[below]
        assert default.target_bitrate < rate == measured
