"""Simulated ffmpeg/ffprobe pair for environments without the real tools.

These are command-line stand-ins installed as ``snvse-sim-ffmpeg`` and
``snvse-sim-ffprobe`` (also runnable as ``python -m snvse.sim_ffmpeg`` /
``sim_ffprobe``). They accept exactly the options snvse passes, and the
encoder prints nothing but its ``-version`` line and its errors. As
ffmpeg does, the encoder writes one input to one or more outputs, each
per the output options before it, and each as it would be written alone.
The options are two tables, ``_FFMPEG_OPTIONS`` and ``_FFPROBE_OPTIONS``: each
holds exactly the options this package, its tests and its bench pass,
with the parser of each option's value, and one argv parser reads both;
any other option is "not simulated". The prober
prints only what ``probe.py`` reads: the fields of a video stream that
``probe_media`` uses, the ``codec_type`` of any other stream, the
container's ``duration``, and each video packet's ``size``. They operate
on a tiny container shaped like the MP4 files ffmpeg writes: top-level
ISO-BMFF boxes in ffmpeg's default order, an ``ftyp`` box, an ``mdat``
box holding the payload bytes of each stream in turn, then a ``moov``
box, and last a private ``snvs`` box holding a JSON stream header. The
``moov`` holds a ``trak`` per stream with only the boxes ``probe.py``'s
readers read, in ffmpeg's order: ``mdia/mdhd`` (time scale and
duration), ``mdia/hdlr`` (``vide`` or ``soun``) and ``mdia/minf/stbl``,
which holds, for a video stream, ``stsd`` (an ``avc1`` entry of its
size, with an ``avcC`` stating its chroma format where it can) and
``stts`` (every frame one interval long), for every stream ``stsz`` (the
packet sizes), and for a video stream ``stco`` (one chunk, where its
payload starts). The prober prints a video stream's ``bit_rate`` from
those fields, as libavformat's mov demuxer computes it. As libx264 does,
an encode begins its first video sample with an SEI message of x264's
option string, ``rc=crf crf=<CRF, to 0.1> keyint=250`` or ``rc=abr
bitrate=<kbit/s> keyint=250``, within the sample's byte count, so sizes
and rates do not change; a first sample too small to hold it gets none.

The encoder prices a video stream with a deterministic rate model:
bits/s scales with a per-source content complexity, resolution, frame
rate, an x264-style halving of rate every +6 CRF, and a preset factor,
plus a tiny bounded jitter derived from a hash of the encode arguments
(so repeat runs are bit-stable but distinct settings do not collide).
A lavfi source may set its own CRF per halving with ``halving=S``, a
sim-only option that real lavfi rejects: it is kept in the stream header
and copied to every encode made from that source, so a platform's encode
and the estimator's trials price with the same slope.
Rate is strictly decreasing in CRF, which is the property the estimator
relies on. None of the production code imports this module; it is wired
in through the same ``--ffmpeg-bin``/``--ffprobe-bin`` seam a real
binary uses.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
import sys
from fractions import Fraction
from pathlib import Path

# ffmpeg's own ftyp: major brand isom, minor version 512, four compatible brands.
_FTYP = struct.pack(">I4s4sI", 32, b"ftyp", b"isom", 512) + b"isomiso2avc1mp41"
_HEADER_BOX = b"snvs"
# The UUID of x264's SEI message of its version and options.
_X264_UUID = bytes.fromhex("dc45e9bde6d948b7962cd820d923eeef")
_VERSION_LINE = "sim-ffmpeg version 0.1.0 (snvse deterministic encoder simulation)"

# Per-pixel content complexity of the lavfi sources the fixtures draw on.
SOURCE_COMPLEXITY = {
    "color": 0.03,
    "rgbtestsrc": 0.12,
    "smptebars": 0.18,
    "gradients": 0.35,
    "testsrc": 0.45,
    "testsrc2": 0.60,
    "mandelbrot": 1.25,
}

_PRESET_FACTOR = {
    "ultrafast": 1.45,
    "superfast": 1.32,
    "veryfast": 1.20,
    "faster": 1.12,
    "fast": 1.06,
    "medium": 1.0,
    "slow": 0.95,
    "slower": 0.91,
    "veryslow": 0.88,
}

_RATE_BASE = 14.0
_CRF_PER_HALVING = 6.0
_AUDIO_TRANSCODE_BPS = 128_000.0


class SimError(Exception):
    """Fatal simulated-tool error; message goes to stderr, exit code 1."""


# ---------------------------------------------------------------------------
# rate model


def _jitter(key: str) -> float:
    digest = hashlib.sha256(key.encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2**64
    return 0.985 + 0.03 * unit


def video_bits_per_second(
    complexity: float,
    width: int,
    height: int,
    fps: Fraction,
    crf: float,
    preset: str,
    halving: float = _CRF_PER_HALVING,
) -> float:
    """Deterministic bits/s for one encode; strictly decreasing in CRF.

    The rate halves every *halving* CRF; the jitter does not depend on it.
    """
    rate = (
        _RATE_BASE
        * complexity
        * (width * height) ** 0.92
        * float(fps / 30) ** 0.55
        * 2.0 ** ((23.0 - crf) / halving)
        * _PRESET_FACTOR.get(preset, 1.0)
    )
    key = f"{complexity:.6f}|{width}x{height}|{fps.numerator}/{fps.denominator}|{crf:.3f}|{preset}"
    return rate * _jitter(key)


def _decay_complexity(complexity: float, crf: float) -> float:
    # Encoding discards detail; stronger compression leaves flatter content.
    return complexity * (0.25 + 0.75 * 2.0 ** (-max(crf - 18.0, 0.0) / 30.0))


# ---------------------------------------------------------------------------
# container


def read_container(path: Path) -> dict:
    """The JSON stream header of a sim container: the ``snvs`` box after its ``ftyp``."""
    try:
        with open(path, "rb") as fh:
            end = os.fstat(fh.fileno()).st_size
            offset, first = 0, None
            while offset + 8 <= end:
                fh.seek(offset)
                size, kind = struct.unpack(">I4s", fh.read(8))
                if not 8 <= size <= end - offset:  # the sim writes only 32-bit sized boxes
                    break
                first = first or kind
                if kind == _HEADER_BOX and first == b"ftyp":
                    return json.loads(fh.read(size - 8).decode())
                offset += size
    except OSError as exc:
        raise SimError(f"{path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SimError(f"{path}: Invalid data found when processing input") from exc
    raise SimError(f"{path}: Invalid data found when processing input")


def _box(kind: bytes, *children: bytes) -> bytes:
    body = b"".join(children)
    return struct.pack(">I4s", 8 + len(body), kind) + body


def _samples(stream: dict) -> tuple[int, int, list[int]]:
    """(time scale, duration in it, sample sizes) of a stream's ``trak``.

    A video stream's time scale is its frame rate's numerator, doubled
    until it reaches 10000, as ffmpeg's MP4 muxer picks it; its samples
    are its packets. Any other stream is one sample at 44.1 kHz.
    """
    time_scale = stream["fps"][0] if stream["type"] == "video" else 44100
    while time_scale < 10000:
        time_scale *= 2
    sizes = _packetize(int(stream.get("payload", 0)), int(stream.get("frames", 1)))
    duration = max(1, round(float(stream.get("duration") or 0) * time_scale))  # one tick at least
    return time_scale, duration, sizes


def _mov_bit_rate(stream: dict) -> int:
    """The stream's bitrate as libavformat's mov demuxer computes it from its ``trak``."""
    time_scale, duration, sizes = _samples(stream)
    return (sum(sizes) * 8 * time_scale + duration // 2) // duration


# The avcC chroma_format_idc of each pixel format the sim writes one for.
_CHROMA_FORMAT = {"yuv420p": 1, "yuv422p": 2, "yuv444p": 3}


def _avc1(stream: dict) -> bytes:
    """A video stream's ``stsd`` entry: an ``avc1`` visual sample entry of its
    size, with an ``avcC`` of the High profile (100) stating its chroma
    format at 8 bits. A pixel format the avcC cannot state gets none."""
    entry = struct.pack(">6xH16xHHIIIH32xHh", 1, stream["width"], stream["height"],
                        0x480000, 0x480000, 0, 1, 0x18, -1)  # 72 dpi, one frame, 24-bit
    chroma = _CHROMA_FORMAT.get(stream.get("pix_fmt"))
    if chroma is None:
        return _box(b"avc1", entry)
    sps, pps = b"\x67\x64\x00\x1e", b"\x68\xeb\xe3\xcb"  # placeholder parameter sets
    avcc = (struct.pack(">BBBBBBH", 1, 100, 0, 30, 0xFF, 0xE1, len(sps)) + sps
            + struct.pack(">BH", 1, len(pps)) + pps
            + bytes([0xFC | chroma, 0xF8, 0xF8, 0]))  # 8-bit luma and chroma, no SPS extension
    return _box(b"avc1", entry, _box(b"avcC", avcc))


def _sei(stream: dict) -> bytes:
    """The start of a video stream's first sample, as libx264 writes it: a
    length-prefixed SEI NAL of x264's UUID and version and option string.
    Empty for a stream with no options, or a first sample too small to hold it."""
    if "x264" not in stream:
        return b""
    text = f"x264 - core 164 - H.264/MPEG-4 AVC codec - options: {stream['x264']}\0".encode()
    payload = _X264_UUID + text
    # NAL type 6 (SEI), payload type 5 (user data unregistered), its size in
    # 255-steps, the payload, then the RBSP stop bit.
    nal = (b"\x06\x05" + b"\xff" * (len(payload) // 255) + bytes([len(payload) % 255])
           + payload + b"\x80")
    sei = struct.pack(">I", len(nal)) + nal
    return sei if len(sei) <= _samples(stream)[2][0] else b""


def _moov(streams: list[dict], offsets: list[int]) -> bytes:
    """The ``moov`` of *streams*, whose payloads start at *offsets* in the
    file: a ``trak`` each, as the module docstring lays it out."""
    traks = []
    for stream, offset in zip(streams, offsets):
        time_scale, duration, sizes = _samples(stream)
        video = stream["type"] == "video"
        mdhd = struct.pack(">4xIIIIHH", 0, 0, time_scale, duration, 0x55C4, 0)  # v0, "und"
        hdlr = struct.pack(">8x4s12x", b"vide" if video else b"soun") + (
            b"VideoHandler\0" if video else b"SoundHandler\0")
        table = [_box(b"stsz", struct.pack(f">4xII{len(sizes)}I", 0, len(sizes), *sizes))]
        if video:
            num, den = stream["fps"]
            stts = struct.pack(">4xIII", 1, len(sizes), time_scale * den // num)
            table = [_box(b"stsd", struct.pack(">4xI", 1), _avc1(stream)), _box(b"stts", stts),
                     *table, _box(b"stco", struct.pack(">4xII", 1, offset))]
        traks.append(_box(b"trak", _box(b"mdia", _box(b"mdhd", mdhd), _box(b"hdlr", hdlr),
                                        _box(b"minf", _box(b"stbl", *table)))))
    return _box(b"moov", *traks)


def write_container(path: Path, streams: list[dict]) -> None:
    header = json.dumps({"streams": streams}, sort_keys=True).encode()
    payloads = [int(s.get("payload", 0)) for s in streams]
    offsets = list(itertools.accumulate(payloads, initial=len(_FTYP) + 8))
    block = hashlib.sha256(header).digest() * 128  # 4 KiB deterministic filler
    try:
        with open(path, "wb") as fh:
            fh.write(_FTYP + struct.pack(">I4s", 8 + sum(payloads), b"mdat"))
            for stream, payload in zip(streams, payloads):
                sei = _sei(stream)
                fh.write(sei)
                remaining = payload - len(sei)
                while remaining > 0:
                    chunk = block[: min(len(block), remaining)]
                    fh.write(chunk)
                    remaining -= len(chunk)
            fh.write(_moov(streams, offsets) + _box(_HEADER_BOX, header))
    except OSError as exc:
        raise SimError(f"{path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# lavfi source synthesis


def _parse_params(text: str) -> dict[str, str]:
    params: dict[str, str] = {}
    if text:
        for item in text.split(":"):
            key, _, value = item.partition("=")
            params[key] = value
    return params


def synthesize_source(desc: str) -> dict:
    """Build the stream dict a lavfi source description denotes."""
    name, _, rest = desc.partition("=")
    params = _parse_params(rest)
    duration = float(params.get("duration", "0") or 0)
    if name == "sine":
        return {"type": "audio", "duration": duration}
    if name not in SOURCE_COMPLEXITY:
        raise SimError(f"lavfi source {name!r} is not simulated")
    width, _, height = params.get("size", "320x240").lower().partition("x")
    rate = Fraction(params.get("rate", "25"))
    stream = {
        "type": "video",
        "width": int(width),
        "height": int(height),
        "pix_fmt": "rgb24" if name == "rgbtestsrc" else "yuv420p",
        "fps": [rate.numerator, rate.denominator],
        "duration": duration,  # 0 means unbounded; -t must cap it
        "complexity": SOURCE_COMPLEXITY[name],
    }
    if "halving" in params:  # absent unless set, so other headers stay as they were
        halving = float(params["halving"])
        if not 0 < halving < math.inf:
            raise SimError(f"halving must be positive and finite, got {params['halving']!r}")
        stream["halving"] = halving
    return stream


# ---------------------------------------------------------------------------
# argv


def _parse_kilobits(text: str) -> float:
    if not text.endswith("k"):
        raise SimError(f"bitrate {text!r} is not simulated")
    return float(text[:-1]) * 1e3


def _parse_scale(expr: str) -> tuple[int, int]:
    if not expr.startswith("scale="):
        raise SimError(f"filter {expr!r} is not simulated")
    w, _, h = expr[len("scale="):].partition(":")
    return int(w), int(h)


# The sims' contract: every option each accepts, mapped to the parser of its
# value, or to None for a bare flag. They hold exactly what snvse, its tests
# and its bench pass; the encoder reads ``-version`` before them, and any
# other option is "not simulated". ``-hide_banner``, ``-nostats`` and
# ``-loglevel`` change nothing: the sim prints no banner, stats or log lines.
# The encoder's options outside ``_FFMPEG_SHARED`` are output options: each
# applies to the next output file on the command line.
_FFMPEG_OPTIONS = {
    "-y": None,
    "-hide_banner": None,
    "-nostats": None,
    "-an": None,
    "-loglevel": str,
    "-f": str,
    "-i": str,
    "-map": str,
    "-c:v": str,
    "-preset": str,
    "-pix_fmt": str,
    "-crf": float,
    "-t": float,
    "-r": Fraction,
    "-b:v": _parse_kilobits,
    "-vf": _parse_scale,
}

# The encoder's options that apply to its whole run, wherever they stand.
_FFMPEG_SHARED = frozenset({"-y", "-hide_banner", "-nostats", "-loglevel", "-f", "-i"})

_FFPROBE_OPTIONS = {
    "-show_format": None,
    "-show_streams": None,
    "-v": str,
    "-print_format": str,
    "-select_streams": str,
    "-show_entries": str,
}


def _parse_argv(argv: list[str], options: dict,
                shared: frozenset) -> tuple[dict, list[tuple[dict, str | None]]]:
    """(values of the *shared* options, output groups) of *argv*; a flag's value is True.

    An output group is the options outside *shared* that precede an
    operand, with that operand; options after the last operand make a last
    group whose operand is None. Each option may be given once among the
    shared options and once in each group, so a single ``-i`` is the only input.
    """
    common: dict = {}
    groups: list[tuple[dict, str | None]] = []
    values: dict = {}
    args = iter(argv)
    for arg in args:
        if not arg.startswith("-"):
            groups.append((values, arg))
            values = {}
            continue
        if arg not in options:
            raise SimError(f"option {arg} is not simulated")
        into = common if arg in shared else values
        if arg in into:
            raise SimError(f"option {arg} given twice is not simulated")
        if options[arg] is None:
            into[arg] = True
        else:
            text = next(args, None)
            if text is None:
                raise SimError(f"option {arg} requires an argument")
            into[arg] = options[arg](text)
    if values:
        groups.append((values, None))
    return common, groups


# ---------------------------------------------------------------------------
# sim ffmpeg


def _packetize(payload: int, frames: int) -> list[int]:
    """Split payload bytes into per-frame packet sizes (big keyframes each GOP)."""
    frames = max(1, frames)
    weights = [4 if i % 30 == 0 else 1 for i in range(frames)]
    total = sum(weights)
    sizes = [payload * w // total for w in weights]
    sizes[0] += payload - sum(sizes)
    return sizes


def _capped(stream: dict, limit: float | None) -> float:
    """The duration of *stream* under ``-t`` *limit*; an unbounded source needs one."""
    duration = float(stream.get("duration") or 0)
    if limit is not None:
        duration = min(duration, limit) if duration > 0 else limit
    if duration <= 0:
        raise SimError("unbounded source requires -t")
    return duration


def run_ffmpeg(argv: list[str]) -> int:
    """Encode the one input to every output, each per its own option group.

    Each output is the file the same encode writes alone; none is written
    unless every group is valid.
    """
    if "-version" in argv:
        print(_VERSION_LINE)
        return 0

    common, groups = _parse_argv(argv, _FFMPEG_OPTIONS, _FFMPEG_SHARED)
    if "-i" not in common:
        raise SimError("no input given")
    if not groups:
        raise SimError("no output given")
    trailing, last = groups[-1]
    if last is None:
        raise SimError(f"option {next(iter(trailing))} after the last output is not simulated")
    if common.get("-f") == "lavfi":
        in_streams = [synthesize_source(common["-i"])]
    else:
        in_streams = read_container(Path(common["-i"]))["streams"]
    outputs = [(Path(output), _encode_streams(in_streams, opts)) for opts, output in groups]
    for output, out_streams in outputs:
        write_container(output, out_streams)
    return 0


def _encode_streams(in_streams: list[dict], opts: dict) -> list[dict]:
    """The streams one output's option group *opts* makes of *in_streams*."""
    video_in = next((s for s in in_streams if s["type"] == "video"), None)
    audio_in = next((s for s in in_streams if s["type"] == "audio"), None)
    out_streams: list[dict] = []

    if video_in is not None:
        width, height = opts.get("-vf") or (video_in["width"], video_in["height"])
        fps = opts.get("-r") or Fraction(*video_in["fps"])
        pix_fmt = opts.get("-pix_fmt") or video_in.get("pix_fmt", "yuv420p")
        duration = _capped(video_in, opts.get("-t"))
        if pix_fmt == "yuv420p" and (width % 2 or height % 2):
            raise SimError(
                f"width or height not divisible by 2 ({width}x{height}) "
                "required by yuv420p"
            )
        complexity = float(video_in.get("complexity", 0.5))
        if "-b:v" in opts:
            b_v = opts["-b:v"]
            bps = b_v * _jitter(f"abr|{complexity:.6f}|{width}x{height}|{b_v:.1f}")
            out_complexity = _decay_complexity(complexity, 28.0)
            x264 = f"rc=abr bitrate={round(b_v / 1e3)} keyint=250"
        else:
            crf = opts.get("-crf", 23.0)
            bps = video_bits_per_second(complexity, width, height, fps, crf,
                                        opts.get("-preset", "medium"),
                                        video_in.get("halving", _CRF_PER_HALVING))
            out_complexity = _decay_complexity(complexity, crf)
            x264 = f"rc=crf crf={crf:.1f} keyint=250"
        frames = max(1, round(duration * fps))
        out_streams.append(
            {
                "type": "video",
                "codec": "h264",
                "width": width,
                "height": height,
                "pix_fmt": pix_fmt,
                "fps": [fps.numerator, fps.denominator],
                "duration": duration,
                "complexity": out_complexity,
                "payload": max(frames, int(round(bps * duration / 8.0))),
                "bit_rate": bps,
                "frames": frames,
                "x264": x264,
            }
        )
        if "halving" in video_in:
            out_streams[-1]["halving"] = video_in["halving"]

    wants_audio = "-an" not in opts and "a" in opts.get("-map", "a")
    if audio_in is not None and (wants_audio or video_in is None):
        duration = _capped(audio_in, opts.get("-t"))
        out_streams.append({"type": "audio", "duration": duration,
                            "payload": int(_AUDIO_TRANSCODE_BPS * duration / 8.0)})

    if not out_streams:
        raise SimError("nothing to encode (no mapped streams)")
    return out_streams


# ---------------------------------------------------------------------------
# sim ffprobe


def _fmt_float(value: float) -> str:
    return f"{value:.6f}"


def run_ffprobe(argv: list[str]) -> int:
    opts, groups = _parse_argv(argv, _FFPROBE_OPTIONS, frozenset(_FFPROBE_OPTIONS))
    if not groups:
        raise SimError("no input given")
    path = groups[-1][1]
    streams = read_container(Path(path))["streams"]
    doc: dict = {}

    if opts.get("-show_entries", "").startswith("packet"):  # only video has packets
        doc["packets"] = [
            {"size": str(size)}
            for stream in streams if stream["type"] == "video"
            for size in _samples(stream)[2]
        ]

    if "-show_streams" in opts:
        out = []
        for stream in streams:
            if stream["type"] != "video":
                out.append({"codec_type": "audio"})
                continue
            rate_text = "{}/{}".format(*stream["fps"])  # stored in lowest terms
            out.append(
                {
                    "codec_name": stream["codec"],
                    "codec_type": "video",
                    "width": stream["width"],
                    "height": stream["height"],
                    "pix_fmt": stream["pix_fmt"],
                    "avg_frame_rate": rate_text,
                    "r_frame_rate": rate_text,
                    "duration": _fmt_float(float(stream.get("duration") or 0)),
                    "bit_rate": str(_mov_bit_rate(stream)),
                }
            )
        doc["streams"] = out

    if "-show_format" in opts:
        duration = max((float(s.get("duration") or 0) for s in streams), default=0.0)
        doc["format"] = {"duration": _fmt_float(duration)}

    json.dump(doc, sys.stdout, indent=1)
    print()
    return 0


# ---------------------------------------------------------------------------
# entry points


def _main(run, name: str, argv: list[str] | None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except SimError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # malformed invocation; mirror a tool crash
        print(f"{name}: {exc}", file=sys.stderr)
        return 1


def main_ffmpeg(argv: list[str] | None = None) -> int:
    return _main(run_ffmpeg, "sim-ffmpeg", argv)


def main_ffprobe(argv: list[str] | None = None) -> int:
    return _main(run_ffprobe, "sim-ffprobe", argv)
