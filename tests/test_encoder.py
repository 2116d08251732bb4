"""Encode operator contract: probed output equals the spec, CRF drives rate."""

import json
import subprocess
import threading
import time
from fractions import Fraction

import pytest

from snvse import sim
from snvse.bitrate import measure_bitrate
from snvse.encoder import EncodeSpec, build_encode_argv, encode, normalize_dimensions
from snvse.errors import EncoderFailure, PreconditionViolation
from snvse.probe import media_info, probe_media
from snvse.runner import run_batch
from conftest import fake_encoder, make_clip
from test_probe import STSD, box, hdlr, mdhd, mp4, stsz, trak


def _spec(**overrides):
    defaults = dict(
        target_width=640,
        target_height=360,
        crf=30.0,
        frame_rate=Fraction(30, 1),
    )
    defaults.update(overrides)
    return EncodeSpec(**defaults)


def _probed(config, source, spec, out):
    """The prober's report of an encode's output, not what encode's own read of it says."""
    return probe_media(encode(source, spec, out, config).path, config)


@pytest.mark.parametrize(
    "given,expected",
    [((641, 480), (640, 480)), ((1280, 718), (1280, 718)), ((855, 481), (854, 480))],
)
def test_normalize_dimensions(given, expected):
    assert normalize_dimensions(*given) == expected


def test_normalize_dimensions_rejects_tiny():
    with pytest.raises(PreconditionViolation):
        normalize_dimensions(1, 480)


def test_encode_output_matches_spec(config, clips, tmp_path):
    spec = _spec(target_width=1280, target_height=720, crf=30.0, frame_rate=Fraction(30, 1))
    info = _probed(config, clips["hd"], spec, tmp_path / "out.mp4")
    assert info.width == 1280
    assert info.height == 720
    assert info.codec_name == "h264"
    assert info.pixel_format == "yuv420p"
    assert info.frame_rate == Fraction(30, 1)


def test_encode_downscale_and_fps_change(config, clips, tmp_path):
    spec = _spec(frame_rate=Fraction(24, 1))
    info = _probed(config, clips["hd"], spec, tmp_path / "out.mp4")
    assert info.resolution == (640, 360)
    assert info.frame_rate == Fraction(24, 1)


def test_higher_crf_means_lower_bitrate(config, clips, tmp_path):
    low = _probed(config, clips["textured"], _spec(crf=23.0), tmp_path / "c23.mp4")
    high = _probed(config, clips["textured"], _spec(crf=45.0), tmp_path / "c45.mp4")
    assert measure_bitrate(low, config).value > measure_bitrate(high, config).value


def test_bitrate_non_increasing_across_crf_grid(config, clips, tmp_path):
    rates = []
    for crf in (21, 30, 40, 50):
        info = _probed(config, clips["textured"], _spec(crf=float(crf)), tmp_path / f"c{crf}.mp4")
        rates.append(measure_bitrate(info, config).value)
    for earlier, later in zip(rates, rates[1:]):
        # Inversions tolerated only when the two rates are within 2%.
        assert later <= earlier or abs(later - earlier) / earlier < 0.02


def test_encode_is_rate_stable(config, clips, tmp_path):
    a = _probed(config, clips["sd"], _spec(), tmp_path / "a.mp4")
    b = _probed(config, clips["sd"], _spec(), tmp_path / "b.mp4")
    rate_a = measure_bitrate(a, config).value
    rate_b = measure_bitrate(b, config).value
    assert abs(rate_a - rate_b) / rate_a < 0.01


def test_odd_target_rejected_before_running(config, clips, tmp_path, tool_calls):
    # So are a frame rate that is not positive and a missing input.
    for spec, message in [(_spec(target_width=641, target_height=480), "target width"),
                          (_spec(target_height=361), "target height"),
                          (_spec(frame_rate=Fraction(0)), "frame rate must be positive")]:
        with pytest.raises(PreconditionViolation, match=message):
            encode(clips["hd"], spec, tmp_path / "x.mp4", config)
    with pytest.raises(FileNotFoundError):
        encode(tmp_path / "missing.mp4", _spec(), tmp_path / "x.mp4", config)
    assert not (tmp_path / "x.mp4").exists()
    assert tool_calls == []


@pytest.mark.parametrize("crf", [-1.0, 52.0])
def test_crf_out_of_range_rejected(crf):
    with pytest.raises(PreconditionViolation):
        _spec(crf=crf).validate()


def test_encoder_failure_cleans_partial_output(config, tmp_path):
    corrupt = tmp_path / "corrupt.mp4"
    corrupt.write_bytes(b"junk" * 64)
    out = tmp_path / "out.mp4"
    with pytest.raises(EncoderFailure):
        encode(corrupt, _spec(), out, config)
    assert not out.exists()


def _copying(config, source):
    """*config* with an encoder that exits 0 after copying *source*, if any, to its output."""
    copy = f"import shutil; shutil.copy({str(source)!r}, sys.argv[-1])" if source else "pass"
    return fake_encoder(config, "import sys; " + copy)


def test_fake_encoder_with_finished_output_is_accepted(config, clips, tmp_path):
    # The control for the rejections below: the same kind of script passes
    # when it writes a whole clip, and encode returns what media_info reads of it.
    out = tmp_path / "out.mp4"
    assert encode(clips["flat"], _spec(), out, _copying(config, clips["flat"])) == media_info(out, config)
    assert out.read_bytes() == clips["flat"].read_bytes()


# An MP4 whose one video trak holds no samples and lasts no time.
_NO_SAMPLES = mp4(trak(mdhd(15360, 0) + hdlr(b"vide"), STSD + box(b"stts", bytes(8)) + stsz()))


@pytest.mark.parametrize("written,reason", [
    (None, "wrote no output"),
    (lambda clip: b"", "is empty"),
    (lambda clip: b"x" * 64, "Invalid data"),
    (lambda clip: clip[:clip.rindex(b"moov") - 4], "Invalid data"),
    (lambda clip: _NO_SAMPLES, ""),  # what the prober names varies with the prober
], ids=["no-output", "empty-output", "not-mp4", "no-moov", "no-samples"])
def test_exit_0_without_finished_output_fails(config, clips, tmp_path, written, reason):
    # encode reads its output as media_info reads any file, and an output it
    # cannot read fails the encode and is removed.
    source = None
    if written is not None:
        source = tmp_path / "written.mp4"
        source.write_bytes(written(clips["flat"].read_bytes()))
    out = tmp_path / "out.mp4"
    with pytest.raises(EncoderFailure, match=f"encoder exited 0 for .*, but .*{reason}"):
        encode(clips["flat"], _spec(), out, _copying(config, source))
    assert not out.exists()


def _stream_types(config, path):
    argv = config.ffprobe_argv() + [
        "-v", "error", "-print_format", "json", "-show_streams", str(path)
    ]
    doc = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)
    return [s["codec_type"] for s in doc["streams"]]


def _clip_with_audio(config, backend, path, duration=2.0):
    """A 640x360 clip that carries a video and an audio stream."""
    sine = f"sine=frequency=440:duration={duration:g}"
    if backend == "real":
        subprocess.run(config.ffmpeg_argv() + [
            "-hide_banner", "-loglevel", "error", "-y",
            "-f", "lavfi", "-i", "testsrc2=size=640x360:rate=30",
            "-f", "lavfi", "-i", sine,
            "-c:v", "libx264", "-pix_fmt", "yuv420p", "-c:a", "aac",
            "-t", f"{duration:g}", str(path),
        ], check=True, capture_output=True, text=True)
        return path
    # The sim encoder takes a single input, so the audio stream is added
    # to the container directly.
    make_clip(config, path, size=(640, 360), duration=duration)
    streams = sim.read_container(path)["streams"]
    sim.write_container(path, streams + [sim.synthesize_source(sine)])
    return path


def test_audio_is_dropped(config, backend, tmp_path):
    src = _clip_with_audio(config, backend, tmp_path / "src.mp4")
    assert sorted(_stream_types(config, src)) == ["audio", "video"]
    dropped = tmp_path / "dropped.mp4"
    encode(src, _spec(), dropped, config)
    assert _stream_types(config, dropped) == ["video"]
    assert "-an" in build_encode_argv(src, _spec(), dropped, config)


def test_argv_pins_the_full_contract(config, tmp_path):
    spec = _spec(crf=32.5, frame_rate=Fraction(30000, 1001))
    argv = build_encode_argv(tmp_path / "in.mp4", spec, tmp_path / "out.mp4", config)
    joined = " ".join(argv)
    assert "-c:v libx264" in joined
    assert "-crf 32.5" in joined
    assert "-vf scale=640:360" in joined
    assert "-pix_fmt yuv420p" in joined
    assert "-r 30000/1001" in joined
    assert "-preset medium" in joined
    assert "-an" in joined
    assert "-y" in joined
    assert "-nostats" in joined
    assert "-progress" not in argv
    # Only trial encodes carry a duration, just before the output path.
    trial = build_encode_argv(tmp_path / "in.mp4", spec, tmp_path / "out.mp4", config,
                              max_seconds=2.0)
    assert trial == argv[:-1] + ["-t", "2", argv[-1]]


def test_every_encode_is_one_tool_run(config, clips, tmp_path, tool_calls):
    # Truncated or not, an encode runs the encoder once and never probes;
    # it returns what the run wrote.
    spec = _spec(crf=20.0)
    whole = encode(clips["textured"], spec, tmp_path / "whole.mp4", config)
    trial = encode(clips["textured"], spec, tmp_path / "trial.mp4", config, max_seconds=2.0)
    assert [argv.count("-crf") for argv in tool_calls] == [1, 1]

    def frames(info):
        return round(info.duration * info.frame_rate)

    # Each output reports the size and frames its probe measures.
    for info in (whole, trial):
        probed = probe_media(info.path, config)
        assert (info.file_size, frames(info)) == (probed.file_size, frames(probed))
        assert (info.resolution, info.frame_rate) == (probed.resolution, probed.frame_rate)
    assert 0 < frames(trial) < frames(whole)


def test_argv_is_logged_verbatim(config, clips, tmp_path, caplog):
    import logging

    with caplog.at_level(logging.DEBUG, logger="snvse.runner"):
        encode(clips["flat"], _spec(), tmp_path / "log.mp4", config)
    exec_lines = [r.message for r in caplog.records if r.message.startswith("exec:")]
    assert any("-crf 30" in line and "scale=640:360" in line for line in exec_lines)


def test_argv_of_two_outputs_repeats_the_output_block(config, tmp_path):
    # One output's argv is the encoder's invocation as pinned above; each
    # sibling adds its own output block, with its own CRF, after it.
    spec, sibling = _spec(crf=33.0), _spec(crf=32.0, frame_rate=Fraction(25, 1))
    source, first, second = tmp_path / "in.mp4", tmp_path / "a.mp4", tmp_path / "b.mp4"

    def block(crf, rate, output):
        return ["-map", "0:v:0", "-an", "-vf", "scale=640:360", "-c:v", "libx264", "-crf", crf,
                "-preset", "medium", "-pix_fmt", "yuv420p", "-r", rate, "-t", "2", str(output)]

    alone = build_encode_argv(source, spec, first, config, max_seconds=2.0)
    assert alone == config.ffmpeg_argv() + [
        "-hide_banner", "-loglevel", "error", "-nostats", "-y", "-i", str(source),
        *block("33", "30/1", first)]
    assert build_encode_argv(source, spec, first, config, max_seconds=2.0,
                             siblings=[(sibling, second)]) == alone + block("32", "25/1", second)


def test_a_two_output_run_writes_what_two_runs_write(config, clips, tmp_path, tool_calls):
    # One run decodes the input once for both outputs. Each matches its
    # encode alone in size and rate, and byte for byte: x264 is
    # deterministic for one input, option set and thread count. The
    # sibling is taken by a second call that runs no tool.
    spec, sibling = _spec(crf=33.0), _spec(crf=32.0, frame_rate=Fraction(25, 1))
    first = encode(clips["hd"], spec, tmp_path / "a.mp4", config, max_seconds=2.0,
                   siblings=[(sibling, tmp_path / "b.mp4")])
    second = encode(clips["hd"], sibling, tmp_path / "b.mp4", config, max_seconds=2.0, written=True)
    assert [argv.count("-crf") for argv in tool_calls] == [2]
    for together, each in [(first, spec), (second, sibling)]:
        alone = encode(clips["hd"], each, tmp_path / f"alone-{together.path.name}", config,
                       max_seconds=2.0)
        assert (together.file_size, measure_bitrate(together, config).value) == (
            alone.file_size, measure_bitrate(alone, config).value)
        assert together.path.read_bytes() == alone.path.read_bytes()
    assert len(tool_calls) == 3


def _writing(config, source, written="outputs", then=""):
    """*config* with an encoder that copies *source* to the *written* slice
    of its outputs, then runs *then*. An output is an operand that follows
    another operand, which is an option's value."""
    return fake_encoder(config, "import shutil, sys, time\n"
                        "args = sys.argv[1:]\n"
                        "outputs = [arg for before, arg in zip(args, args[1:])\n"
                        "           if not before.startswith('-') and not arg.startswith('-')]\n"
                        f"for output in {written}:\n"
                        f"    shutil.copy({str(source)!r}, output)\n"
                        + then)


@pytest.mark.parametrize("written, then, reason", [
    ("outputs", "sys.exit(1)", "encoder exited 1 for .* -> .*a.mp4, .*b.mp4: $"),
    ("outputs[:1]", "", "encoder exited 0 for .* -> .*b.mp4, but it wrote no output"),
], ids=["exit-1", "first-output-only"])
def test_a_failed_two_output_run_leaves_neither_output(config, clips, tmp_path, written, then,
                                                       reason):
    outputs = [tmp_path / "a.mp4", tmp_path / "b.mp4"]
    with pytest.raises(EncoderFailure, match=reason):
        encode(clips["flat"], _spec(), outputs[0], _writing(config, clips["flat"], written, then),
               siblings=[(_spec(crf=29.0), outputs[1])])
    assert list(tmp_path.iterdir()) == []


def test_a_sibling_that_does_not_read_fails_without_an_encoder_run(config, clips, tmp_path,
                                                                  tool_calls):
    # It is checked as a run's own output is, and removed. Only the prober
    # runs, as media_info runs it on any file that is not a whole MP4.
    out = tmp_path / "b.mp4"
    out.write_bytes(b"x" * 64)
    with pytest.raises(EncoderFailure, match="encoder exited 0 for .*, but .*Invalid data"):
        encode(clips["flat"], _spec(), out, config, written=True)
    with pytest.raises(EncoderFailure, match="but it wrote no output"):
        encode(clips["flat"], _spec(), out, config, written=True)
    assert list(tmp_path.iterdir()) == []
    encoder = config.ffmpeg_argv()
    assert [argv for argv in tool_calls if argv[:len(encoder)] == encoder] == []


def test_outputs_of_one_run_are_checked_before_it(config, clips, tmp_path, tool_calls):
    out = tmp_path / "a.mp4"
    for siblings, written, message in [([(_spec(crf=29.0), out)], False, "given twice"),
                                       ([(_spec(crf=29.0), clips["flat"])], False, "is the input"),
                                       ([(_spec(crf=52.0), tmp_path / "b.mp4")], False, "crf"),
                                       ([(_spec(crf=29.0), tmp_path / "b.mp4")], True, "siblings")]:
        with pytest.raises(PreconditionViolation, match=message):
            encode(clips["flat"], _spec(), out, config, siblings=siblings, written=written)
    assert list(tmp_path.iterdir()) == []
    assert tool_calls == []


def test_an_interrupted_pool_leaves_no_output_of_a_two_output_run(config, clips, tmp_path):
    # Item 0 interrupts the batch once item 1's run has written both its
    # outputs; that run is terminated, and its encode removes both.
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    slow = _writing(config, clips["flat"], then="time.sleep(30)")
    finished = threading.Event()

    def work(n):
        if n == 0:
            deadline = time.monotonic() + 10
            while len(list(scratch.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyboardInterrupt
        try:
            encode(clips["flat"], _spec(), scratch / "trial-crf30.mp4", slow,
                   siblings=[(_spec(crf=29.0), scratch / "trial-crf29.mp4")])
        finally:
            finished.set()

    with pytest.raises(KeyboardInterrupt):
        run_batch(work, [0, 1], workers=2)
    assert finished.wait(10)
    assert list(scratch.iterdir()) == []
