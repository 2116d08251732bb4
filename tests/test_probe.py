"""Probe contract: metadata extraction, stream selection, failure modes."""

import contextlib
import dataclasses
import functools
import json
import logging
import struct
import subprocess
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snvse.errors import NoVideoStream, ProberFailure
from snvse.encoder import EncodeSpec, encode
from snvse.probe import (
    MediaInfo,
    media_info,
    probe_media,
    read_mp4,
    scan_video_stream_bytes,
    x264_settings,
)
from snvse.sim import main_ffmpeg, read_container, synthesize_source, write_container

from conftest import X264_UUID, fake_prober, make_abr_clip, make_audio_only, make_clip


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
    (scan_video_stream_bytes, b'{"packets": [{"size": "900"}, {"size": "-5000"}]}',
     ("raises", "negative packet size -5000")),
], ids=["json", "no-width", "zero-height", "no-rate", "vfr", "format-duration", "no-duration",
        "packet-size", "no-packets", "negative-packet"])
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
    (prober_doc(width=1e999), "lacks dimensions"),
], ids=["list", "streams-object", "stream-string", "format-string", "rate-list", "nested",
        "no-finite-duration", "infinite-width"])
def test_unusable_prober_json_is_a_prober_failure(config, tmp_path, stdout, problem):
    # Each of these once ended in an AttributeError, TypeError, RecursionError
    # or OverflowError, or read an infinite duration.
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


# --- the in-process sample-table reader ---

def box(kind: bytes, *parts: bytes) -> bytes:
    body = b"".join(parts)
    return struct.pack(">I4s", 8 + len(body), kind) + body


def mdhd(time_scale: int, duration: int, version: int = 0) -> bytes:
    """An mdhd box: version and flags, creation and modification times, time
    scale, duration, then language and a reserved field."""
    times = ">B3xQQIQ4x" if version == 1 else ">B3xIIII4x"
    return box(b"mdhd", struct.pack(times, version, 0, 0, time_scale, duration))


def hdlr(kind: bytes) -> bytes:
    return box(b"hdlr", struct.pack(">8x4s12x", kind) + b"Handler\0")


def stsz(sizes=(), fixed: int = 0, count: int | None = None) -> bytes:
    count = len(sizes) if count is None else count
    return box(b"stsz", struct.pack(f">4xII{len(sizes)}I", fixed, count, *sizes))


# An stsd of one 320x240 avc1 entry, whose avcC states the Baseline profile
# (4:2:0) and no parameter sets, and an stts of one frame of one tick.
STSD = box(b"stsd", struct.pack(">4xI", 1), box(
    b"avc1", bytes(24), struct.pack(">HH", 320, 240), bytes(50),
    box(b"avcC", bytes([1, 66, 0, 30, 0xFF, 0xE0, 0]))))
STTS = box(b"stts", struct.pack(">4x3I", 1, 1, 1))


def trak(header: bytes, table: bytes) -> bytes:
    return box(b"trak", box(b"mdia", header, box(b"minf", box(b"stbl", table))))


def video(header: bytes, samples: bytes) -> bytes:
    """A video trak of *header* (an mdhd) and *samples* (an stsz), with the
    boxes read_mp4 reads besides."""
    return trak(header + hdlr(b"vide"), STSD + STTS + samples)


def mp4(*traks: bytes) -> bytes:
    """ffmpeg's default box order: ftyp, mdat, then moov."""
    return box(b"ftyp", b"isom") + box(b"mdat", bytes(8)) + box(b"moov", *traks)


# 1500 bytes over 2 s at the time scale ffmpeg's muxer picks for 30 fps.
TWO_SECONDS = mdhd(15360, 30720)
SAMPLES = stsz([1000, 250, 250])


@pytest.mark.parametrize("data, rate", [
    (mp4(video(TWO_SECONDS, SAMPLES)), 6000),
    (mp4(video(mdhd(15360, 30720, version=1), SAMPLES)), 6000),
    (mp4(video(TWO_SECONDS, stsz(fixed=500, count=3))), 6000),
    (box(b"ftyp", b"isom") + box(b"moov", video(TWO_SECONDS, SAMPLES))
     + struct.pack(">I4sQ", 1, b"mdat", 20) + b"abcd"
     + struct.pack(">I4s", 0, b"free") + b"to the end", 6000),
    (mp4(video(mdhd(90000, 2 ** 33, version=1), stsz(fixed=2 ** 31, count=2 ** 20))),
     2 ** 21 * 90000),
    (mp4(video(mdhd(1, 16), stsz([1]))), 1),
    (mp4(video(mdhd(1, 17), stsz([1]))), None),
    (mp4(video(mdhd(3, 16), stsz([1]))), 2),
    (mp4(video(mdhd(1, 3), stsz([1]))), 3),
    (mp4(video(TWO_SECONDS, stsz())), None),
    (mp4(video(TWO_SECONDS, SAMPLES), video(TWO_SECONDS, stsz([9]))), 6000),
], ids=["v0-table", "v1", "fixed-size", "moov-first", "64-bit", "half-up", "under-half",
        "three-halves", "over-half", "no-samples", "two-traks"])
def test_mp4_stream_rate_reads_what_ffprobe_reports(config, tmp_path, tool_calls, data, rate):
    # The stream bitrate read_mp4 reads, and a trial encode's is measured by:
    # the first video trak's stsz sample sizes in bits over its mdhd
    # duration, rounded to the nearest bit/s with halves up, as av_rescale
    # rounds. A rate that rounds to 0 (None here) is left to the prober.
    path = tmp_path / "trial.mp4"
    path.write_bytes(data)
    info = read_mp4(path)
    if rate is not None:
        assert (info.resolution, info.stream_bitrate) == ((320, 240), rate)
        return
    assert info is None
    with contextlib.suppress(NoVideoStream, ProberFailure):
        media_info(path, config)
    assert len(tool_calls) == 1


@pytest.mark.parametrize("data", [
    mp4(trak(TWO_SECONDS, SAMPLES), video(TWO_SECONDS, SAMPLES)),
    mp4(),
    box(b"ftyp", b"isom") + box(b"mdat", bytes(8)),
    b"",
    mp4(video(box(b"free"), SAMPLES)),
    mp4(box(b"trak", box(b"mdia", TWO_SECONDS, hdlr(b"vide")))),
    mp4(video(TWO_SECONDS, box(b"stz2", bytes(12)))),
    mp4(video(mdhd(15360, 0), SAMPLES)),
    mp4(video(mdhd(0, 30720, version=1), SAMPLES)),
    mp4(video(mdhd(15360, 30720, version=2), SAMPLES)),
    mp4(video(box(b"mdhd", bytes(19)), SAMPLES)),
    mp4(video(box(b"mdhd", b"\1" + bytes(30)), SAMPLES)),
    mp4(video(TWO_SECONDS, stsz([1000, 250], count=3))),
    mp4(video(TWO_SECONDS, box(b"stsz", bytes(11)))),
    mp4(video(TWO_SECONDS, SAMPLES))[:-1],
    mp4(box(b"trak", box(b"mdia", TWO_SECONDS, hdlr(b"vide"), struct.pack(">I4s", 99, b"minf")))),
    b"\0\0\0\1mdat" + bytes(4),
    struct.pack(">I4s", 4, b"moov"),
    struct.pack(">I4sQ", 1, b"moov", 12) + b"abcd",
], ids=["two-traks", "no-trak", "no-moov", "empty", "no-mdhd", "no-minf", "no-stsz",
        "zero-duration", "zero-time-scale", "mdhd-v2", "short-mdhd", "short-mdhd-v1",
        "short-table", "short-stsz", "overrun", "truncated-child", "truncated-header",
        "small", "small-largesize"])
def test_mp4_stream_rate_names_what_is_wrong(config, tmp_path, tool_calls, data):
    # Each file differs in one way from mp4(video(TWO_SECONDS, SAMPLES)),
    # which read_mp4 reads (two-traks: a trak with no handler ahead of the
    # video's). read_mp4 leaves it to the prober, which names what is wrong
    # with it: one prober run, or none for an empty file, which media_info
    # refuses itself.
    path = tmp_path / "trial.mp4"
    path.write_bytes(data)
    assert read_mp4(path) is None
    with contextlib.suppress(NoVideoStream, ProberFailure):
        media_info(path, config)
    assert len(tool_calls) == (1 if data else 0)


def test_mp4_stream_rate_of_an_unreadable_file(tmp_path):
    assert read_mp4(tmp_path) is None


# Boxes nested as deep as the readers walk, of the kinds they read and skip.
# A leaf is a box body of raw bytes, or a full box's version, 0 or 1, and
# enough raw bytes for its fields; a bare leaf is a file of raw bytes. A
# file is one of three kinds, alike in number: such a tree; a video trak
# that read_mp4 reads but for the mdhd and stsz leaves it nests; or a sim
# encode, with an audio track after its video or not. Each is cut short or
# not, with up to three bytes overwritten.
full_box = st.builds(lambda version, rest: bytes([version]) + rest,
                     st.integers(0, 1), st.binary(min_size=19, max_size=40))
box_trees = st.recursive(
    st.binary(max_size=24) | full_box,
    lambda children: st.lists(st.tuples(st.sampled_from(
        [b"ftyp", b"moov", b"mvex", b"trak", b"mdia", b"mdhd", b"hdlr", b"minf", b"stbl",
         b"stsd", b"avc1", b"avcC", b"stts", b"stsz", b"mdat"]), children),
        max_size=3),
    max_leaves=12)
readable = st.builds(lambda header, table: [(b"ftyp", b"isom"), (b"moov", [(b"trak", [(b"mdia", [
    (b"mdhd", header), (b"hdlr", hdlr(b"vide")[8:]),
    (b"minf", [(b"stbl", [STSD, STTS, (b"stsz", table)])])])])])], full_box, full_box)


def box_bytes(tree) -> bytes:
    """The bytes of *tree*; a bytes child in a list is a whole box already."""
    if isinstance(tree, bytes):
        return tree
    return b"".join(t if isinstance(t, bytes) else box(t[0], box_bytes(t[1])) for t in tree)


@functools.cache
def sim_encode(audio: bool) -> bytes:
    """The bytes of a tiny sim encode, with an audio track after its video if *audio*."""
    with tempfile.TemporaryDirectory() as folder:
        clip = Path(folder) / "clip.mp4"
        assert main_ffmpeg(["-y", "-f", "lavfi", "-i", "testsrc2=size=16x16:rate=30",
                            "-crf", "51", "-t", "1", str(clip)]) == 0
        if audio:
            write_container(clip, read_container(clip)["streams"]
                            + [synthesize_source("sine=frequency=440:duration=1")])
        return clip.read_bytes()


def mutated(data: bytes, cut: int | None, writes: list[tuple[int, int]]) -> bytes:
    data = bytearray(data[:cut])
    for offset, value in writes if data else ():
        data[offset % len(data)] = value
    return bytes(data)


mp4_files = st.builds(mutated, box_trees.map(box_bytes) | readable.map(box_bytes)
                      | st.booleans().map(sim_encode),
                      st.none() | st.integers(0, 400),
                      st.lists(st.tuples(st.integers(0, 2 ** 12), st.integers(0, 255)), max_size=3))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=mp4_files)
@example(data=sim_encode(audio=True))
@example(data=mp4(video(mdhd(1, 1), stsz(fixed=1, count=1))))
def test_read_mp4_returns_media_info_or_none(tmp_path_factory, data):
    # Whatever the bytes, the reader raises nothing: what it does not read
    # is the prober's.
    path = tmp_path_factory.mktemp("bytes") / "clip.mp4"
    path.write_bytes(data)
    info = read_mp4(path)
    assert info is None or (type(info) is MediaInfo and info.width > 0 and info.height > 0
                            and info.frame_rate > 0 and info.duration > 0
                            and info.stream_bitrate > 0)


# --- read_mp4 against the prober ---

# The bytes before the child boxes of a box that holds some after fields of its own.
_FIELDS = {b"stsd": 8, b"avc1": 78}


def edited(data: bytes, where: str, change) -> bytes:
    """*data* with the first box at *where*, a path of 4CCs, replaced by
    change(the box's bytes), and each box around it resized."""
    kind, _, rest = where.partition("/")
    out, offset, done = [], 0, False
    while offset < len(data):
        size, found = struct.unpack_from(">I4s", data, offset)  # ffmpeg's small files: 32-bit sizes
        whole = data[offset:offset + size]
        if found == kind.encode() and not done:
            done = True
            head = 8 + _FIELDS.get(found, 0)
            whole = box(found, whole[8:head], edited(whole[head:], rest, change)) if rest else change(whole)
        out.append(whole)
        offset += size
    assert done, f"no {kind} box"
    return b"".join(out)


def box_at(data: bytes, where: str) -> bytes:
    found = []
    edited(data, where, lambda whole: found.append(whole) or whole)
    return found[0]


STBL = "moov/trak/mdia/minf/stbl"


def time_scale(data: bytes) -> int:
    header = box_at(data, "moov/trak/mdia/mdhd")
    return struct.unpack_from((">20xI", ">28xI")[header[8]], header)[0]


def with_audio(config, backend, clip: Path, out: Path) -> Path:
    """*clip* with a tone muxed in ahead of its video track."""
    if backend == "sim":
        write_container(out, [synthesize_source("sine=frequency=440:duration=2")]
                        + read_container(clip)["streams"])
        return out
    subprocess.run(config.ffmpeg_argv() + [
        "-hide_banner", "-loglevel", "error", "-y", "-f", "lavfi",
        "-i", "sine=frequency=440:duration=2", "-i", str(clip),
        "-map", "0:a", "-map", "1:v", "-c:v", "copy", str(out)], check=True, capture_output=True)
    return out


@pytest.mark.parametrize("size", [(640, 360), (360, 640), (480, 480)],
                         ids=["landscape", "portrait", "square"])
@pytest.mark.parametrize("fps", ["24", "25", "30", "30000/1001"])
def test_read_mp4_equals_the_prober(config, backend, tmp_path, tool_calls, fps, size):
    # Field by field, on a clip, on a 1 s trial encode of it, and on the clip
    # with an audio track ahead of its video. The prober prints the duration
    # to the microsecond; the reader divides the mdhd's, so the two may differ
    # by up to one tick of the video track's time scale.
    clip = make_clip(config, tmp_path / "clip.mp4", size=size, fps=fps, duration=2.3)
    trial = encode(clip, EncodeSpec(size[0] // 2, size[1] // 2, 30.0, Fraction(fps)),
                   tmp_path / "trial.mp4", config, max_seconds=1).path
    audio = with_audio(config, backend, clip, tmp_path / "audio.mp4")
    for path, video_only in [(clip, clip), (trial, trial), (audio, clip)]:
        tool_calls.clear()
        read = media_info(path, config)
        assert tool_calls == []
        probed = probe_media(path, config)
        assert read_mp4(path) == read
        assert dataclasses.replace(read, duration=probed.duration) == probed
        assert abs(read.duration - probed.duration) <= 1 / time_scale(video_only.read_bytes())


MVEX = box(b"mvex", box(b"trex", bytes(24)))


@pytest.mark.parametrize("change", [
    lambda data: edited(data, "ftyp", lambda whole: box(b"free", whole[8:])),
    lambda data: data + box(b"moof", box(b"mfhd", bytes(8))),
    lambda data: edited(data, "moov", lambda whole: box(b"moov", whole[8:], MVEX)),
    lambda data: edited(data, f"{STBL}/stsd/avc1", lambda whole: box(b"hev1", whole[8:])),
    lambda data: edited(data, f"{STBL}/stsd/avc1/avcC", lambda whole: b""),
    lambda data: edited(data, f"{STBL}/stsd/avc1/avcC", lambda whole: box(b"avcC", whole[8:-4])),
    lambda data: edited(data, f"{STBL}/stsd/avc1/avcC",
                        lambda whole: whole[:-3] + bytes([0xFA]) + whole[-2:]),
    lambda data: edited(data, f"{STBL}/stts", lambda whole: box(b"stts", bytes(8))),
    lambda data: edited(data, "moov/trak/mdia/hdlr", lambda whole: whole[:16] + b"soun" + whole[20:]),
    lambda data: data[:-1],
    None,
], ids=["not-ftyp", "moof", "mvex", "hev1", "no-avcC", "no-extension", "10-bit", "no-frames",
        "no-video-trak", "truncated", "audio-only"])
def test_what_read_mp4_does_not_read_costs_one_probe(config, tmp_path, tool_calls, change):
    # Each file differs from a clip the reader reads in one way it does not
    # read; media_info leaves it to the prober, whatever the prober makes of it.
    path = tmp_path / "in.mp4"
    if change is None:
        make_audio_only(config, path)
    else:
        clip = make_clip(config, tmp_path / "clip.mp4", size=(320, 240), duration=1)
        assert read_mp4(clip) is not None
        path.write_bytes(change(clip.read_bytes()))
    assert read_mp4(path) is None
    tool_calls.clear()
    with contextlib.suppress(NoVideoStream, ProberFailure):
        media_info(path, config)
    assert len(tool_calls) == 1


def test_read_mp4_averages_a_variable_frame_rate(config, tmp_path, caplog):
    # 10 frames of 1000 ticks and 10 of 2000 at 15360 ticks per second, as
    # mov.c averages them: time scale x frames over ticks.
    clip = make_clip(config, tmp_path / "clip.mp4", size=(320, 240), duration=1)
    data = edited(clip.read_bytes(), f"{STBL}/stts",
                  lambda whole: box(b"stts", struct.pack(">4x5I", 2, 10, 1000, 10, 2000)))
    data = edited(data, "moov/trak/mdia/mdhd", lambda whole: TWO_SECONDS)
    clip.write_bytes(data)
    with caplog.at_level(logging.WARNING, logger="snvse.probe"):
        info = read_mp4(clip)
    assert (info.frame_rate, info.duration) == (Fraction(15360 * 20, 30000), 2.0)
    assert "looks variable-frame-rate (2 frame intervals in its stts)" in caplog.text


@pytest.mark.parametrize("fps", ["25", "30000/1001"])
def test_read_mp4_reads_nothing_but_the_box_tree(config, backend, tmp_path, tool_calls, fps):
    # A dataset-scale emulate reads each input's moov, never its samples:
    # with every byte inside the mdat overwritten and every size kept, a clip
    # and the clip with an audio track read alike, with no tool run. Its x264
    # options, which only the first sample states, are gone.
    clip = make_clip(config, tmp_path / "clip.mp4", size=(320, 240), fps=fps, duration=1)
    audio = with_audio(config, backend, clip, tmp_path / "audio.mp4")
    for path in (clip, audio):
        info = read_mp4(path)
        assert info is not None and x264_settings(path) is not None
        path.write_bytes(edited(path.read_bytes(), "mdat",
                                lambda whole: whole[:8] + b"\xa5" * (len(whole) - 8)))
        tool_calls.clear()
        assert read_mp4(path) == media_info(path, config) == info
        assert tool_calls == [] and x264_settings(path) is None


def test_media_info_checks_the_file_before_reading_it(config, tmp_path, tool_calls):
    with pytest.raises(FileNotFoundError):
        media_info(tmp_path / "nope.mp4", config)
    (tmp_path / "empty.mp4").touch()
    with pytest.raises(ProberFailure, match="is empty"):
        media_info(tmp_path / "empty.mp4", config)
    assert tool_calls == []


# --- the x264 settings reader ---

# The version and options x264 (core 164) writes at libx264's defaults, verbatim.
X264_TEXT = (
    b"x264 - core 164 r3095 baf08c1 - H.264/MPEG-4 AVC codec - Copyleft 2003-2022 - "
    b"http://www.videolan.org/x264.html - options: cabac=1 ref=3 deblock=1:0:0 "
    b"analyse=0x3:0x113 me=hex subme=7 psy=1 psy_rd=1.00:0.00 mixed_ref=1 me_range=16 "
    b"chroma_me=1 trellis=1 8x8dct=1 cqm=0 deadzone=21,11 fast_pskip=1 chroma_qp_offset=-2 "
    b"threads=6 lookahead_threads=1 sliced_threads=0 nr=0 decimate=1 interlaced=0 "
    b"bluray_compat=0 constrained_intra=0 bframes=3 b_pyramid=2 b_adapt=1 b_bias=0 direct=1 "
    b"weightb=1 open_gop=0 weightp=2 keyint=250 keyint_min=25 scenecut=40 intra_refresh=0 "
    b"rc_lookahead=40 rc=crf mbtree=1 crf=23.0 qcomp=0.60 qpmin=0 qpmax=69 qpstep=4 "
    b"ip_ratio=1.40 aq=1:1.00")
ABR_TEXT = X264_TEXT.replace(b"rc=crf mbtree=1 crf=23.0", b"rc=abr mbtree=1 bitrate=800 ratetol=1.0")


def stating(text: bytes, *, table: bytes = b"stco", uuid: bytes = X264_UUID,
            handler: bytes = b"vide") -> bytes:
    """An MP4 whose one sample is a length-prefixed SEI NAL of *uuid* and
    *text*, with no terminating NUL added, found from a *table* (stco or
    co64) of one chunk; the moov after it holds zero bytes."""
    payload = uuid + text
    nal = b"\x06\x05" + b"\xff" * (len(payload) // 255) + bytes([len(payload) % 255]) + payload
    sample = struct.pack(">I", len(nal)) + nal
    first = 12 + 8  # after the ftyp box and the mdat's header
    chunks = struct.pack(">4xII" if table == b"stco" else ">4xIQ", 1, first)
    return (box(b"ftyp", b"isom") + box(b"mdat", sample)
            + box(b"moov", trak(TWO_SECONDS + hdlr(handler), stsz([len(sample)]) + box(table, chunks))))


def test_x264_settings_reads_the_full_option_string(tmp_path):
    path = tmp_path / "shared.mp4"
    tokens = X264_TEXT.split(b"options: ")[1].split()
    for table in (b"stco", b"co64"):
        path.write_bytes(stating(X264_TEXT + b"\0\x80", table=table))
        settings = x264_settings(path)
        assert len(settings) == len(tokens) == 47
        assert (settings["rc"], settings["crf"]) == ("crf", "23.0")
        assert (settings["deblock"], settings["aq"], settings["keyint"]) == ("1:0:0", "1:1.00", "250")


def test_an_abr_encode_states_no_crf(tmp_path):
    path = tmp_path / "shared.mp4"
    path.write_bytes(stating(ABR_TEXT + b"\0"))
    settings = x264_settings(path)
    assert (settings["rc"], settings["bitrate"]) == ("abr", "800") and "crf" not in settings


def test_x264_settings_reads_the_first_video_trak(tmp_path):
    # A soun trak ahead of the video trak, with its own stco to a sample that
    # states an ABR encode: the options come from the video trak's first
    # sample, and from the other sample once its trak is the first video one.
    samples = [box_at(stating(text + b"\0"), "mdat")[8:] for text in (ABR_TEXT, X264_TEXT)]
    first = [12 + 8, 12 + 8 + len(samples[0])]  # after the ftyp box and the mdat's header
    path = tmp_path / "shared.mp4"
    for handler, crf in [(b"soun", "23.0"), (b"vide", None)]:
        traks = [trak(TWO_SECONDS + hdlr(kind), stsz([len(sample)])
                      + box(b"stco", struct.pack(">4xII", 1, offset)))
                 for kind, sample, offset in zip((handler, b"vide"), samples, first)]
        path.write_bytes(box(b"ftyp", b"isom") + box(b"mdat", *samples) + box(b"moov", *traks))
        assert x264_settings(path).get("crf") == crf


@pytest.mark.parametrize("data", [
    stating(X264_TEXT + b" pad=" + b"x" * (64 * 1024) + b"\0"),
    stating(X264_TEXT),
    stating(X264_TEXT + b"\0", uuid=bytes(16)),
    stating(X264_TEXT.replace(b"options: ", b"options ") + b"\0"),
    stating(X264_TEXT.replace(b"Copyleft", b"Copyleft \xa9") + b"\0"),
    stating(X264_TEXT + b"\0", handler=b"soun"),
    stating(X264_TEXT + b"\0", table=b"stz2"),
    edited(stating(X264_TEXT + b"\0"), f"{STBL}/stco", lambda whole: box(b"stco", bytes(8))),
    edited(stating(X264_TEXT + b"\0"), f"{STBL}/stco", lambda whole: box(b"stco", bytes(4))),
    edited(stating(X264_TEXT + b"\0"), f"{STBL}/stsz", lambda whole: stsz()),
    stating(X264_TEXT + b"\0")[:-1],
], ids=["no-nul-within-64-KiB", "no-nul-in-the-sample", "no-uuid", "no-options", "not-ascii", "audio-only",
        "no-chunk-table", "no-chunks", "short-stco", "no-samples", "truncated"])
def test_what_x264_settings_does_not_read_fully_is_none(tmp_path, tool_calls, data):
    path = tmp_path / "shared.mp4"
    path.write_bytes(data)
    assert x264_settings(path) is None
    assert tool_calls == []


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=mp4_files)
@example(data=stating(X264_TEXT + b"\0"))
def test_x264_settings_returns_a_dict_or_none(tmp_path_factory, data):
    # Whatever the bytes, the reader raises nothing.
    path = tmp_path_factory.mktemp("bytes") / "shared.mp4"
    path.write_bytes(data)
    settings = x264_settings(path)
    assert settings is None or (type(settings) is dict
                                and all(type(k) is type(v) is str for k, v in settings.items()))


def test_a_libx264_encode_states_its_crf(config, tmp_path, tool_calls):
    # libx264 keeps x264's SEI message in the first sample, and the sim
    # writes one as it does; the real-ffmpeg CI job runs this on real x264.
    clip = make_clip(config, tmp_path / "crf30.mp4", size=(320, 240), duration=1, crf=30)
    abr = make_abr_clip(config, tmp_path / "abr.mp4", size=(320, 240), duration=1)
    tool_calls.clear()
    settings = x264_settings(clip)
    assert (settings["rc"], settings["crf"]) == ("crf", "30.0")
    settings = x264_settings(abr)  # a second pass under real ffmpeg states rc=2pass
    assert settings["rc"] in ("abr", "2pass") and "crf" not in settings
    assert tool_calls == []
