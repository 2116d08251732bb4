"""Simulated ffmpeg/ffprobe pair for environments without the real tools.

These are command-line stand-ins installed as ``snvse-sim-ffmpeg`` and
``snvse-sim-ffprobe`` (also runnable as ``python -m snvse.sim_ffmpeg`` /
``sim_ffprobe``). They accept the exact invocations this package
constructs, plus the lavfi source forms the test fixtures use, and operate
on a tiny container shaped like the MP4 files ffmpeg writes: top-level
ISO-BMFF boxes in ffmpeg's default order, an ``ftyp`` box, an ``mdat``
box holding the payload bytes of every stream, and a private ``snvs``
box (in place of ``moov``) holding a JSON stream header.

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


def write_container(path: Path, streams: list[dict]) -> None:
    header = json.dumps({"streams": streams}, sort_keys=True).encode()
    payload_total = sum(int(s.get("payload", 0)) for s in streams)
    block = hashlib.sha256(header).digest() * 128  # 4 KiB deterministic filler
    try:
        with open(path, "wb") as fh:
            fh.write(_FTYP + struct.pack(">I4s", 8 + payload_total, b"mdat"))
            remaining = payload_total
            while remaining > 0:
                chunk = block[: min(len(block), remaining)]
                fh.write(chunk)
                remaining -= len(chunk)
            fh.write(struct.pack(">I4s", 8 + len(header), _HEADER_BOX) + header)
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


def _parse_size(text: str) -> tuple[int, int]:
    w, _, h = text.lower().partition("x")
    return int(w), int(h)


def synthesize_source(desc: str) -> dict:
    """Build the stream dict a lavfi source description denotes."""
    name, _, rest = desc.partition("=")
    params = _parse_params(rest)
    if name == "sine":
        duration = float(params.get("duration", params.get("d", "0")) or 0)
        return {
            "type": "audio",
            "codec": "pcm_s16le",
            "duration": duration,
            "payload": 0,
            "bit_rate": 1_411_200.0,
        }
    if name not in SOURCE_COMPLEXITY:
        raise SimError(f"lavfi source {name!r} is not simulated")
    width, height = _parse_size(params.get("size", params.get("s", "320x240")))
    rate = Fraction(params.get("rate", params.get("r", "25")))
    duration = float(params.get("duration", params.get("d", "0")) or 0)
    stream = {
        "type": "video",
        "codec": "rawvideo",
        "width": width,
        "height": height,
        "pix_fmt": "rgb24" if name == "rgbtestsrc" else "yuv420p",
        "fps": [rate.numerator, rate.denominator],
        "duration": duration,  # 0 means unbounded; -t must cap it
        "complexity": SOURCE_COMPLEXITY[name],
        "payload": 0,
        "bit_rate": 0.0,
    }
    if "halving" in params:  # absent unless set, so other headers stay as they were
        halving = float(params["halving"])
        if not 0 < halving < math.inf:
            raise SimError(f"halving must be positive and finite, got {params['halving']!r}")
        stream["halving"] = halving
    return stream


# ---------------------------------------------------------------------------
# sim ffmpeg


def _parse_rate_suffix(text: str) -> float:
    text = text.strip().lower()
    factor = 1.0
    if text.endswith("k"):
        factor, text = 1e3, text[:-1]
    elif text.endswith("m"):
        factor, text = 1e6, text[:-1]
    return float(text) * factor


def _packetize(payload: int, frames: int) -> list[int]:
    """Split payload bytes into per-frame packet sizes (big keyframes each GOP)."""
    frames = max(1, frames)
    weights = [4 if i % 30 == 0 else 1 for i in range(frames)]
    total = sum(weights)
    sizes = [payload * w // total for w in weights]
    sizes[0] += payload - sum(sizes)
    return sizes


def run_ffmpeg(argv: list[str]) -> int:
    if "-version" in argv:
        print(_VERSION_LINE)
        return 0

    inputs: list[dict] = []
    opts = {
        "lavfi_next": False,
        "an": False,
        "acodec": None,
        "vcodec": None,
        "crf": None,
        "preset": "medium",
        "pix_fmt": None,
        "scale": None,
        "rate": None,
        "t": None,
        "b_v": None,
        "maps": [],
        "progress": None,
    }
    output: Path | None = None

    i = 0
    while i < len(argv):
        arg = argv[i]

        def value() -> str:
            nonlocal i
            i += 1
            if i >= len(argv):
                raise SimError(f"option {arg} requires an argument")
            return argv[i]

        if arg == "-f":
            fmt = value()
            if fmt == "lavfi":
                opts["lavfi_next"] = True
        elif arg == "-i":
            src = value()
            if opts["lavfi_next"]:
                inputs.append({"streams": [synthesize_source(src)]})
                opts["lavfi_next"] = False
            else:
                path = Path(src)
                if not path.exists():
                    raise SimError(f"{src}: No such file or directory")
                inputs.append(read_container(path))
        elif arg in ("-y", "-n", "-hide_banner", "-nostdin", "-nostats"):
            pass
        elif arg in ("-loglevel", "-v", "-passlogfile", "-threads"):
            value()
        elif arg == "-pass":
            value()
        elif arg == "-an":
            opts["an"] = True
        elif arg in ("-c:a", "-acodec"):
            opts["acodec"] = value()
        elif arg in ("-c:v", "-vcodec"):
            opts["vcodec"] = value()
        elif arg == "-crf":
            opts["crf"] = float(value())
        elif arg == "-preset":
            opts["preset"] = value()
        elif arg == "-pix_fmt":
            opts["pix_fmt"] = value()
        elif arg in ("-vf", "-filter:v"):
            expr = value()
            if not expr.startswith("scale="):
                raise SimError(f"filter {expr!r} is not simulated")
            w, _, h = expr[len("scale="):].partition(":")
            opts["scale"] = (int(w), int(h))
        elif arg == "-r":
            opts["rate"] = Fraction(value())
        elif arg == "-t":
            opts["t"] = float(value())
        elif arg == "-b:v":
            opts["b_v"] = _parse_rate_suffix(value())
        elif arg == "-map":
            opts["maps"].append(value())
        elif arg == "-progress":
            opts["progress"] = value()
            if opts["progress"] != "pipe:1":
                raise SimError(f"progress target {opts['progress']!r} is not simulated")
        elif arg.startswith("-"):
            raise SimError(f"option {arg} is not simulated")
        else:
            output = Path(arg)
        i += 1

    if not inputs:
        raise SimError("no input given")
    if output is None:
        raise SimError("no output given")
    if len(inputs) > 1:
        raise SimError("multiple inputs are not simulated")

    in_streams = inputs[0]["streams"]
    video_in = next((s for s in in_streams if s["type"] == "video"), None)
    audio_in = next((s for s in in_streams if s["type"] == "audio"), None)
    out_streams: list[dict] = []

    if video_in is not None:
        width, height = opts["scale"] or (video_in["width"], video_in["height"])
        fps = opts["rate"] or Fraction(*video_in["fps"])
        pix_fmt = opts["pix_fmt"] or video_in.get("pix_fmt", "yuv420p")
        duration = float(video_in.get("duration") or 0)
        if opts["t"] is not None:
            duration = min(duration, opts["t"]) if duration > 0 else opts["t"]
        if duration <= 0:
            raise SimError("unbounded source requires -t")
        if pix_fmt == "yuv420p" and (width % 2 or height % 2):
            raise SimError(
                f"width or height not divisible by 2 ({width}x{height}) "
                "required by yuv420p"
            )
        complexity = float(video_in.get("complexity", 0.5))
        if opts["b_v"] is not None:
            bps = opts["b_v"] * _jitter(f"abr|{complexity:.6f}|{width}x{height}|{opts['b_v']:.1f}")
            out_complexity = _decay_complexity(complexity, 28.0)
        else:
            crf = opts["crf"] if opts["crf"] is not None else 23.0
            bps = video_bits_per_second(complexity, width, height, fps, crf, opts["preset"],
                                        video_in.get("halving", _CRF_PER_HALVING))
            out_complexity = _decay_complexity(complexity, crf)
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
            }
        )
        if "halving" in video_in:
            out_streams[-1]["halving"] = video_in["halving"]

    wants_audio = not opts["an"] and (not opts["maps"] or any("a" in m for m in opts["maps"]))
    if audio_in is not None and (wants_audio or video_in is None):
        duration = float(audio_in.get("duration") or 0)
        if opts["t"] is not None:
            duration = min(duration, opts["t"]) if duration > 0 else opts["t"]
        if duration <= 0:
            raise SimError("unbounded source requires -t")
        if opts["acodec"] == "copy":
            out = dict(audio_in)
            out["duration"] = duration
            out_streams.append(out)
        else:
            out_streams.append(
                {
                    "type": "audio",
                    "codec": "aac",
                    "duration": duration,
                    "payload": int(_AUDIO_TRANSCODE_BPS * duration / 8.0),
                    "bit_rate": _AUDIO_TRANSCODE_BPS,
                }
            )

    if not out_streams:
        raise SimError("nothing to encode (no mapped streams)")
    write_container(output, out_streams)
    if opts["progress"] is not None:
        # The final block of ffmpeg's -progress report.
        frames = sum(s.get("frames", 0) for s in out_streams)
        print(f"frame={frames}\ntotal_size={output.stat().st_size}\nprogress=end")
    return 0


# ---------------------------------------------------------------------------
# sim ffprobe


def _fmt_float(value: float) -> str:
    return f"{value:.6f}"


def run_ffprobe(argv: list[str]) -> int:
    if "-version" in argv:
        print(_VERSION_LINE.replace("ffmpeg", "ffprobe"))
        return 0

    show_format = "-show_format" in argv
    show_streams = "-show_streams" in argv
    show_packets = False
    select_video = False
    path: Path | None = None

    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("-v", "-loglevel", "-print_format", "-of"):
            i += 1
        elif arg == "-select_streams":
            i += 1
            select_video = argv[i].startswith("v")
        elif arg == "-show_entries":
            i += 1
            if argv[i].startswith("packet"):
                show_packets = True
        elif arg in ("-show_format", "-show_streams", "-show_packets"):
            if arg == "-show_packets":
                show_packets = True
        elif arg.startswith("-"):
            raise SimError(f"option {arg} is not simulated")
        else:
            path = Path(arg)
        i += 1

    if path is None:
        raise SimError("no input given")
    if not path.exists():
        raise SimError(f"{path}: No such file or directory")
    container = read_container(path)
    streams = container["streams"]
    doc: dict = {}

    if show_packets:
        packets = []
        for stream in streams:
            if stream["type"] != "video" and select_video:
                continue
            if stream["type"] == "video":
                sizes = _packetize(int(stream["payload"]), int(stream.get("frames", 1)))
                packets.extend({"size": str(size)} for size in sizes)
        doc["packets"] = packets

    if show_streams:
        out = []
        for index, stream in enumerate(streams):
            duration = float(stream.get("duration") or 0)
            if stream["type"] == "video":
                fps = Fraction(*stream["fps"])
                rate_text = f"{fps.numerator}/{fps.denominator}"
                out.append(
                    {
                        "index": index,
                        "codec_name": stream["codec"],
                        "codec_type": "video",
                        "width": stream["width"],
                        "height": stream["height"],
                        "pix_fmt": stream["pix_fmt"],
                        "avg_frame_rate": rate_text,
                        "r_frame_rate": rate_text,
                        "duration": _fmt_float(duration),
                        "bit_rate": str(int(round(float(stream["bit_rate"])))),
                        "nb_frames": str(int(stream.get("frames", max(1, round(duration * fps))))),
                    }
                )
            else:
                out.append(
                    {
                        "index": index,
                        "codec_name": stream["codec"],
                        "codec_type": "audio",
                        "duration": _fmt_float(duration),
                        "bit_rate": str(int(round(float(stream.get("bit_rate", 0.0))))),
                    }
                )
        doc["streams"] = out

    if show_format:
        duration = max((float(s.get("duration") or 0) for s in streams), default=0.0)
        size = path.stat().st_size
        doc["format"] = {
            "filename": str(path),
            "nb_streams": len(streams),
            "format_name": "mov,mp4,m4a,3gp,3g2,mj2",
            "duration": _fmt_float(duration),
            "size": str(size),
            "bit_rate": str(int(round(size * 8.0 / duration))) if duration > 0 else "0",
        }

    json.dump(doc, sys.stdout, indent=1)
    print()
    return 0


# ---------------------------------------------------------------------------
# entry points


def main_ffmpeg(argv: list[str] | None = None) -> int:
    try:
        return run_ffmpeg(sys.argv[1:] if argv is None else argv)
    except SimError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # malformed invocation; mirror a tool crash
        print(f"sim-ffmpeg: {exc}", file=sys.stderr)
        return 1


def main_ffprobe(argv: list[str] | None = None) -> int:
    try:
        return run_ffprobe(sys.argv[1:] if argv is None else argv)
    except SimError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"sim-ffprobe: {exc}", file=sys.stderr)
        return 1
