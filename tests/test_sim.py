"""Simulated tool backend: rate model properties and container handling."""

import ast
import contextlib
import io
import json
import struct
import subprocess
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import snvse.probe
import snvse.sim
from snvse.config import RunConfig
from snvse.probe import probe_media, read_mp4, scan_video_stream_bytes
from snvse.sim import (
    _FFMPEG_OPTIONS,
    _FFPROBE_OPTIONS,
    SimError,
    _packetize,
    main_ffmpeg,
    main_ffprobe,
    read_container,
    synthesize_source,
    video_bits_per_second,
    write_container,
)


def test_rate_strictly_decreasing_in_crf():
    fps = Fraction(30, 1)
    for complexity in (0.03, 0.6, 1.25):
        rates = [video_bits_per_second(complexity, 640, 360, fps, float(crf), "medium")
                 for crf in range(0, 52)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


def test_rate_scales_with_resolution_and_complexity():
    fps = Fraction(30, 1)
    small = video_bits_per_second(0.6, 640, 360, fps, 23.0, "medium")
    large = video_bits_per_second(0.6, 1920, 1080, fps, 23.0, "medium")
    assert large > small
    flat = video_bits_per_second(0.03, 640, 360, fps, 23.0, "medium")
    assert flat < small


def test_rate_is_deterministic():
    fps = Fraction(30000, 1001)
    a = video_bits_per_second(0.6, 1280, 720, fps, 31.5, "medium")
    b = video_bits_per_second(0.6, 1280, 720, fps, 31.5, "medium")
    assert a == b


def test_packetize_sums_exactly():
    sizes = _packetize(123_457, 91)
    assert sum(sizes) == 123_457
    assert len(sizes) == 91
    assert sizes[30] < sizes[31] * 5  # keyframes weighted, not absurd


def test_synthesize_known_sources():
    stream = synthesize_source("testsrc2=size=1280x720:rate=30:duration=10")
    assert stream["width"] == 1280
    assert stream["fps"] == [30, 1]
    with pytest.raises(SimError):
        synthesize_source("nosuchsource=size=1x1")


def test_cli_roundtrip(tmp_path, capsys):
    out = tmp_path / "clip.mp4"
    code = main_ffmpeg([
        "-y", "-f", "lavfi", "-i", "testsrc2=size=640x360:rate=30",
        "-c:v", "libx264", "-crf", "23", "-pix_fmt", "yuv420p",
        "-t", "4", str(out),
    ])
    assert code == 0
    header = read_container(out)
    assert header["streams"][0]["width"] == 640
    assert main_ffprobe(["-show_streams", "-print_format", "json", str(out)]) == 0
    assert '"codec_name": "h264"' in capsys.readouterr().out


def _top_level_boxes(data: bytes) -> list[tuple[bytes, int]]:
    """(4CC, size) of each top-level box; the sim writes only 32-bit sizes."""
    boxes, offset = [], 0
    while offset < len(data):
        size, kind = struct.unpack_from(">I4s", data, offset)
        boxes.append((kind, size))
        offset += size
    return boxes


def _moov_layout(data: bytes) -> list:
    """(4CC, children) of each box in *data*, descending into the boxes that
    hold only boxes down to the sample table, and into its sample entries."""
    layout = []
    for kind, size in _top_level_boxes(data):
        body = data[8:size]
        if kind in (b"moov", b"trak", b"mdia", b"minf", b"stbl", b"stsd"):
            layout.append((kind, _moov_layout(body[8:] if kind == b"stsd" else body)))
        else:
            layout.append((kind, _moov_layout(body[78:]) if kind == b"avc1" else []))
        data = data[size:]
    return layout


def test_container_holds_the_payload_in_its_mdat_box(tmp_path):
    # ffmpeg's box order: ftyp, mdat, then moov; the sim's stream header
    # comes last. The moov holds what snvse reads, in ffmpeg's order too.
    out = tmp_path / "clip.mp4"
    assert main_ffmpeg([
        "-y", "-f", "lavfi", "-i", "testsrc2=size=640x360:rate=30",
        "-c:v", "libx264", "-crf", "31", "-pix_fmt", "yuv420p", "-t", "2", str(out),
    ]) == 0
    [stream] = read_container(out)["streams"]
    data = out.read_bytes()
    boxes = _top_level_boxes(data)
    assert [kind for kind, _ in boxes] == [b"ftyp", b"mdat", b"moov", b"snvs"]
    assert boxes[1][1] - 8 == stream["payload"] > 0
    [(_, [trak])] = [box for box in _moov_layout(data) if box[0] == b"moov"]
    assert trak == (b"trak", [(b"mdia", [(b"mdhd", []), (b"hdlr", []), (b"minf", [(b"stbl", [
        (b"stsd", [(b"avc1", [(b"avcC", [])])]), (b"stts", []), (b"stsz", []), (b"stco", [])])])])])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rate=st.sampled_from(["24", "25", "30", "30000/1001", "60"]),
       out_rate=st.sampled_from([None, "25", "24000/1001"]),
       seconds=st.integers(1, 400).map(lambda centis: centis / 100),
       control=st.integers(0, 51).map(lambda crf: ["-crf", str(crf)]) | st.just(["-b:v", "300k"]))
@example(rate="30", out_rate=None, seconds=2.0, control=["-crf", "31"])
def test_the_prober_reports_the_rate_of_the_sample_table(tmp_path_factory, rate, out_rate,
                                                         seconds, control):
    # Every sim encode: the prober's bit_rate is what snvse reads from the
    # moov in-process.
    out = tmp_path_factory.mktemp("encode") / "clip.mp4"
    assert main_ffmpeg(["-y", "-f", "lavfi", "-i", f"testsrc2=size=160x90:rate={rate}",
                        *(["-r", out_rate] if out_rate else []), *control,
                        "-t", f"{seconds:g}", str(out)]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert main_ffprobe(["-show_streams", str(out)]) == 0
    [stream] = json.loads(printed.getvalue())["streams"]
    assert int(stream["bit_rate"]) == read_mp4(out).stream_bitrate


def test_cli_rejects_odd_yuv420p(tmp_path, capsys):
    code = main_ffmpeg([
        "-y", "-f", "lavfi", "-i", "testsrc2=size=640x360:rate=30",
        "-vf", "scale=641:360", "-pix_fmt", "yuv420p", "-t", "2",
        str(tmp_path / "x.mp4"),
    ])
    assert code == 1
    assert "divisible by 2" in capsys.readouterr().err


def test_cli_rejects_garbage_input(tmp_path, capsys):
    bad = tmp_path / "bad.mp4"
    bad.write_bytes(b"not a container")
    assert main_ffprobe(["-show_streams", str(bad)]) == 1
    assert "Invalid data" in capsys.readouterr().err
    assert main_ffmpeg(["-i", str(bad), str(tmp_path / "o.mp4")]) == 1


def _named_outside_sim() -> set[str]:
    """Every string constant in snvse without sim.py, in tests/ and in perfbench/."""
    root = Path(__file__).resolve().parents[1]
    sources = [path for path in Path(snvse.sim.__file__).parent.glob("*.py") if path.name != "sim.py"]
    sources += [*root.glob("tests/*.py"), *root.glob("perfbench/*.py")]
    return {node.value for path in sources for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_simulated_option_is_passed_somewhere():
    # The option tables hold what snvse, its tests and its bench pass, and
    # nothing more: an option that no invocation names is dead sim code.
    passed = _named_outside_sim()
    for table in (_FFMPEG_OPTIONS, _FFPROBE_OPTIONS):
        assert set(table) - passed == set()


def _keys(doc) -> set[str]:
    if isinstance(doc, list):
        return set().union(*map(_keys, doc))
    if isinstance(doc, dict):
        return set(doc).union(*map(_keys, doc.values()))
    return set()


def test_every_printed_key_is_read_somewhere(tmp_path, monkeypatch, capsys):
    # The prober prints what snvse reads, and nothing more: a key that no
    # source names is dead sim code. The sim prober runs in-process, with
    # the invocations probe.py makes, on a container with a video and an
    # audio stream. Limit: the format's size and bit_rate would pass here
    # as the names of stream keys that probe.py reads; they were removed by
    # reading probe.py, which reads only the format's duration.
    clip = tmp_path / "clip.mp4"
    assert main_ffmpeg(["-y", "-f", "lavfi", "-i", "testsrc2=size=320x240:rate=30",
                        "-crf", "30", "-t", "1", str(clip)]) == 0
    write_container(clip, read_container(clip)["streams"]
                    + [synthesize_source("sine=frequency=440:duration=1")])
    printed = []

    def sim_prober(argv):
        code = main_ffprobe(argv[1:])  # argv[0] is the prober command
        out = capsys.readouterr().out
        printed.append(json.loads(out))
        return subprocess.CompletedProcess(argv, code, out, "")

    monkeypatch.setattr(snvse.probe, "run_tool", sim_prober)
    config = RunConfig(ffprobe="sim-ffprobe")
    probe_media(clip, config)
    scan_video_stream_bytes(clip, config)
    assert [sorted(doc) for doc in printed] == [["format", "streams"], ["packets"]]
    assert len(printed[0]["streams"]) == 2
    assert _keys(printed) - _named_outside_sim() == set()


@pytest.mark.parametrize("main, argv, message", [
    (main_ffmpeg, ["-y", "-crf"], "option -crf requires an argument"),
    (main_ffprobe, ["-select_streams"], "option -select_streams requires an argument"),
    (main_ffmpeg, ["-t", "1", "-t", "2"], "option -t given twice is not simulated"),
    (main_ffprobe, ["-show_packets"], "option -show_packets is not simulated"),
    # No caller cuts an encode at a size or asks for a progress report.
    (main_ffmpeg, ["-y", "-fs", "1000"], "option -fs is not simulated"),
    (main_ffmpeg, ["-nostats", "-progress", "pipe:1"], "option -progress is not simulated"),
], ids=["ffmpeg-value", "ffprobe-value", "ffmpeg-twice", "ffprobe-unknown", "ffmpeg-unknown",
        "ffmpeg-progress"])
def test_argv_errors_name_the_option(capsys, main, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err == message + "\n"


def test_a_run_with_two_outputs_writes_each_as_its_run_alone_would(tmp_path):
    # Each output's options are its own: the first group's scale and length
    # do not reach the second, and the shared options reach both.
    source = ["-y", "-hide_banner", "-f", "lavfi", "-i", "testsrc2=size=640x360:rate=30"]
    groups = [["-vf", "scale=320:180", "-crf", "33", "-t", "2"],
              ["-crf", "32", "-r", "25", "-t", "1"]]
    outputs = [tmp_path / "first.mp4", tmp_path / "second.mp4"]
    assert main_ffmpeg(source + groups[0] + [str(outputs[0])] + groups[1] + [str(outputs[1])]) == 0
    for group, output in zip(groups, outputs):
        alone = tmp_path / f"alone-{output.name}"
        assert main_ffmpeg(source + group + [str(alone)]) == 0
        assert output.read_bytes() == alone.read_bytes()
    assert [read_container(output)["streams"][0]["width"] for output in outputs] == [320, 640]


@pytest.mark.parametrize("argv, message", [
    (["-crf", "30", "a.mp4", "-crf", "31", "-crf", "32", "b.mp4"],
     "option -crf given twice is not simulated"),
    (["-t", "1", "a.mp4", "-t", "1"], "option -t after the last output is not simulated"),
    (["-t", "1", "a.mp4", "-i", "color", "-t", "1", "b.mp4"],
     "option -i given twice is not simulated"),
    (["-t", "1", "a.mp4", "-vf", "scale=321:180", "-t", "1", "b.mp4"],
     "width or height not divisible by 2 (321x180) required by yuv420p"),
], ids=["twice-in-a-group", "after-the-last-output", "second-input", "bad-second-output"])
def test_output_groups_are_checked_before_any_output_is_written(tmp_path, monkeypatch, capsys,
                                                                argv, message):
    monkeypatch.chdir(tmp_path)
    assert main_ffmpeg(["-y", "-f", "lavfi", "-i", "testsrc2=size=640x360:rate=30", *argv]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert list(tmp_path.iterdir()) == []
