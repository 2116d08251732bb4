"""Probe contract: metadata extraction, stream selection, failure modes."""

import json
import logging
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snvse.errors import NoVideoStream, ProberFailure
from snvse.probe import mp4_payload_bytes, probe_media, scan_video_stream_bytes

from conftest import fake_prober, make_audio_only, make_clip


def test_probe_reports_generation_settings(config, tmp_path):
    # Oracle: the clip is generated at known settings; probing must return them.
    clip = make_clip(config, tmp_path / "a.mp4", size=(1280, 720), fps=30, duration=10)
    info = probe_media(clip, config)
    assert info.width == 1280
    assert info.height == 720
    assert info.frame_rate == Fraction(30, 1)
    assert info.codec_name == "h264"
    assert info.pixel_format == "yuv420p"
    assert info.duration == pytest.approx(10.0, rel=0.05)
    assert info.file_size > 0
    if info.stream_bitrate is not None:
        assert info.stream_bitrate > 0


def test_probe_fractional_frame_rate(config, tmp_path):
    clip = make_clip(config, tmp_path / "ntsc.mp4", size=(640, 360), fps="30000/1001", duration=2)
    info = probe_media(clip, config)
    assert info.frame_rate == Fraction(30000, 1001)


def test_probe_is_deterministic(config, clips):
    first = probe_media(clips["hd"], config)
    second = probe_media(clips["hd"], config)
    assert first == second


def test_missing_file_raises(config, tmp_path):
    with pytest.raises(FileNotFoundError):
        probe_media(tmp_path / "nope.mp4", config)


def test_zero_byte_file_raises_prober_failure(config, tmp_path, tool_calls):
    empty = tmp_path / "empty.mp4"
    empty.touch()
    with pytest.raises(ProberFailure, match="is empty"):
        probe_media(empty, config)
    assert tool_calls == []


def test_garbage_file_raises_prober_failure(config, tmp_path):
    garbage = tmp_path / "garbage.mp4"
    garbage.write_bytes(b"\x00\x01not a video" * 100)
    with pytest.raises(ProberFailure):
        probe_media(garbage, config)


def test_audio_only_file_raises_no_video_stream(config, tmp_path):
    audio = make_audio_only(config, tmp_path / "tone.m4a")
    with pytest.raises(NoVideoStream):
        probe_media(audio, config)


def test_default_config_comes_from_env(clips):
    # _tool_env points SNVSE_FFPROBE at the test backend.
    info = probe_media(clips["hd"])
    assert info.resolution == (1280, 720)


# --- hostile prober output ---

def prober_doc(format_duration="2.5", **stream) -> bytes:
    """A prober's JSON for one video stream; a stream field given as None is left out."""
    video = {"codec_type": "video", "codec_name": "h264", "pix_fmt": "yuv420p",
             "width": 640, "height": 360, "avg_frame_rate": "30/1", "r_frame_rate": "30/1",
             "duration": "2.000000", **stream}
    video = {key: value for key, value in video.items() if value is not None}
    return json.dumps({"streams": [video], "format": {"duration": format_duration}}).encode()


@pytest.mark.parametrize("call, stdout, expected", [
    (probe_media, b'{"streams": [', ("raises", "unparseable prober output")),
    (probe_media, prober_doc(width=None), ("raises", "lacks dimensions")),
    (probe_media, prober_doc(height=0), ("raises", "nonpositive dimensions 640x0")),
    (probe_media, prober_doc(avg_frame_rate=None, r_frame_rate="30/0"),
     ("raises", "no usable frame rate")),
    (probe_media, prober_doc(avg_frame_rate="25/1"),
     ("warns", "looks variable-frame-rate (avg 25 vs base 30)")),
    (probe_media, prober_doc(duration=None), ("duration", 2.5)),
    (probe_media, prober_doc(duration="N/A", format_duration="0"),
     ("raises", "no usable duration")),
    (scan_video_stream_bytes, b'{"packets": [{"size": "many"}]}',
     ("raises", "unparseable packet list")),
    (scan_video_stream_bytes, b'{"packets": []}', ("raises", "no video packets")),
], ids=["json", "no-width", "zero-height", "no-rate", "vfr", "format-duration", "no-duration",
        "packet-size", "no-packets"])
def test_hostile_prober_output(config, tmp_path, caplog, call, stdout, expected):
    path = tmp_path / "in.mp4"
    path.write_bytes(b"read by no tool")
    kind, value = expected
    config = fake_prober(config, stdout)
    if kind == "raises":
        with pytest.raises(ProberFailure, match=value):
            call(path, config)
        return
    with caplog.at_level(logging.WARNING, logger="snvse.probe"):
        info = call(path, config)
    if kind == "warns":
        assert value in caplog.text
    else:
        assert (info.duration, caplog.text) == (value, "")


def test_prober_output_that_is_not_utf8_still_probes(config, tmp_path):
    # File names and tags need not be UTF-8; the prober prints them as they are.
    path = tmp_path / "in.mp4"
    path.write_bytes(b"read by no tool")
    stdout = prober_doc(tags={"title": "cafe"}).replace(b"cafe", b"caf\xe9")
    assert probe_media(path, fake_prober(config, stdout)).resolution == (640, 360)


def _with_top(**top) -> bytes:
    """prober_doc without a stream duration, its top-level keys replaced by *top*."""
    return json.dumps({**json.loads(prober_doc(duration=None)), **top}).encode()


@pytest.mark.parametrize("stdout, problem", [
    (b"[]", "is not a JSON object"),
    (_with_top(streams={"0": {}}), "needs a list of stream objects"),
    (_with_top(streams=["video"]), "needs a list of stream objects"),
    (_with_top(format="2.5"), "and a format object"),
    (prober_doc(avg_frame_rate=[30, 1]), "frame rates of .* are not strings"),
    (b"[" * 100_000, "unparseable prober output .*: maximum recursion depth"),
    (prober_doc(duration="1e999", format_duration="inf"), "no usable duration"),
], ids=["list", "streams-object", "stream-string", "format-string", "rate-list", "nested",
        "no-finite-duration"])
def test_unusable_prober_json_is_a_prober_failure(config, tmp_path, stdout, problem):
    # Each of these once ended in an AttributeError, TypeError or RecursionError,
    # or read an infinite duration.
    path = tmp_path / "in.mp4"
    path.write_bytes(b"read by no tool")
    with pytest.raises(ProberFailure, match=problem):
        probe_media(path, fake_prober(config, stdout))


@pytest.mark.parametrize("stream, duration, bit_rate", [
    ({"bit_rate": "800000"}, 2.0, 800000.0),
    ({"bit_rate": "1e999"}, 2.0, None),
    ({"bit_rate": "inf"}, 2.0, None),
    ({"bit_rate": 10 ** 400}, 2.0, None),
    ({"duration": "inf", "bit_rate": "nan"}, 2.5, None),
    ({"duration": 10 ** 400}, 2.5, None),
], ids=["finite", "1e999", "inf", "400-digits", "inf-duration", "400-digit-duration"])
def test_a_number_that_is_not_finite_reads_as_absent(config, tmp_path, stream, duration, bit_rate):
    # An infinite bit rate once ended estimate in an OverflowError; absent, it
    # falls back to the packet scan, and a duration to the container's.
    path = tmp_path / "in.mp4"
    path.write_bytes(b"read by no tool")
    info = probe_media(path, fake_prober(config, prober_doc(**stream)))
    assert (info.duration, info.stream_bitrate) == (duration, bit_rate)


def test_mp4_payload_bytes_of_an_unreadable_file(tmp_path):
    with pytest.raises(ProberFailure, match="cannot read"):
        mp4_payload_bytes(tmp_path)


# --- the in-process mdat reader ---

# One top-level box: its 4CC, its body length, and its size field: 32-bit,
# a 64-bit largesize, or 0 (runs to the end of the file; last box only).
boxes = st.lists(st.tuples(st.sampled_from([b"mdat", b"moov", b"ftyp", b"free", b"moof"]),
                           st.integers(0, 40), st.sampled_from(["32", "64"])),
                 max_size=5)


def box_file(sequence, last_to_eof):
    """The file's bytes, and per box its (start, header end, end, 4CC)."""
    data, spans = b"", []
    for index, (kind, body, width) in enumerate(sequence):
        if index == len(sequence) - 1 and last_to_eof:
            header = struct.pack(">I4s", 0, kind)
        elif width == "64":
            header = struct.pack(">I4sQ", 1, kind, 16 + body)
        else:
            header = struct.pack(">I4s", 8 + body, kind)
        spans.append((len(data), len(data) + len(header), len(data) + len(header) + body, kind))
        data += header + bytes(range(body))
    return data, spans


def expected_payload(spans, cut, last_to_eof):
    """What the reader returns for the file's first *cut* bytes, or None where it raises.

    A cut at a box boundary leaves a shorter valid file, and so does one
    past the header of a last box that runs to the end of the file; any
    other cut falls inside a box and overruns the file.
    """
    payload, found = 0, False
    for index, (start, body_start, end, kind) in enumerate(spans):
        if start >= cut:
            break
        if end > cut and not (last_to_eof and index == len(spans) - 1 and body_start <= cut):
            return None
        if kind == b"mdat":
            payload, found = payload + min(end, cut) - body_start, True
    return payload if found and payload else None


@settings(max_examples=60, deadline=None)
@given(sequence=boxes, last_to_eof=st.booleans())
@example(sequence=[(b"ftyp", 4, "32"), (b"mdat", 30, "64"), (b"moov", 12, "32")], last_to_eof=False)
@example(sequence=[(b"moov", 12, "32"), (b"mdat", 3, "32"), (b"moof", 5, "32"),
                   (b"mdat", 7, "64")], last_to_eof=True)
def test_mp4_payload_bytes_sums_every_mdat_and_rejects_truncation(tmp_path_factory, sequence,
                                                                  last_to_eof):
    data, spans = box_file(sequence, last_to_eof)
    path = tmp_path_factory.mktemp("boxes") / "trial.mp4"
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        expected = expected_payload(spans, cut, last_to_eof)
        if expected is None:
            with pytest.raises(ProberFailure):
                mp4_payload_bytes(path)
        else:
            assert mp4_payload_bytes(path) == expected
    if sequence:  # the whole file: the sum of its mdat payloads
        mdat = sum(body for kind, body, _ in sequence if kind == b"mdat")
        assert expected_payload(spans, len(data), last_to_eof) == (mdat or None)


@pytest.mark.parametrize("data, problem", [
    (struct.pack(">I4s", 4, b"mdat") + b"abcd", "below its 8-byte header"),
    (struct.pack(">I4sQ", 1, b"mdat", 12) + b"abcd", "below its 16-byte header"),
    (struct.pack(">I4s", 20, b"mdat") + b"abcd", "overruns the file"),
    (struct.pack(">I4s", 8, b"mdat") + struct.pack(">I4s", 12, b"moov") + b"abcd",
     "mdat boxes of .* are empty"),
    (struct.pack(">I4s", 12, b"moov") + b"abcd", "no mdat box"),
], ids=["small", "small-largesize", "overrun", "empty", "no-mdat"])
def test_mp4_payload_bytes_names_what_is_wrong(tmp_path, data, problem):
    path = tmp_path / "trial.mp4"
    path.write_bytes(data)
    with pytest.raises(ProberFailure, match=problem):
        mp4_payload_bytes(path)
