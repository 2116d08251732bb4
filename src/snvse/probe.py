"""Media metadata for one file: read in-process from an MP4's ``moov``, or
measured by ffprobe.

Two paths give the same ``MediaInfo``. ``read_mp4`` reads a non-fragmented
MP4 whose first video ``trak`` holds an ``avc1``/``avc3`` sample entry
from its boxes, as libavformat's mov demuxer reports it, and runs no tool.
``probe_media`` runs the configured prober with JSON output and reduces
the result to the fields the pipeline needs: the first video stream by
container order wins; frame rate comes from the declared average rate
with the real base rate as fallback; duration comes from the video
stream, then the container. ``media_info`` picks between them from the
file's bytes: whatever ``read_mp4`` does not read fully (another
container, a fragmented or truncated file, another codec) goes to
``probe_media``, so the reader adds no error of its own.
``scan_video_stream_bytes`` runs the same prober to sum video packet
sizes, and a failed scan raises ``ProberFailure`` like a failed probe.
The shared video and every trial encode go through ``media_info``, so the
two sides of the CRF search are measured alike (``snvse.bitrate``).
``x264_settings`` reads the option string x264 writes into the first video
sample of its output (``crf=`` among it), and runs no tool either. A
number that is not finite, or too large for a float, reads as absent; a
document of another shape raises ``ProberFailure``.
"""

from __future__ import annotations

import io
import json
import logging
import math
import os
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .config import RunConfig
from .errors import NoVideoStream, ProberFailure
from .runner import run_tool

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MediaInfo:
    """Facts about one video file, as ``media_info`` reads them."""

    path: Path
    width: int
    height: int
    frame_rate: Fraction
    codec_name: str
    pixel_format: str
    duration: float
    file_size: int
    stream_bitrate: float | None

    @property
    def resolution(self) -> tuple[int, int]:
        return (self.width, self.height)


def _parse_rate(text: str | None) -> Fraction | None:
    """Parse an ffprobe rate string like '30000/1001'; None when absent or 0."""
    if not text:
        return None
    try:
        rate = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
    return rate if rate > 0 else None


def _parse_positive_float(text) -> float | None:
    try:
        value = float(text)
    except (TypeError, ValueError, OverflowError):
        return None
    return value if 0 < value < math.inf else None


def _run_prober(options: list[str], path: Path, config: RunConfig) -> dict:
    """Run the prober with *options* on *path* and return its JSON object."""
    argv = config.ffprobe_argv() + ["-v", "error", "-print_format", "json", *options, str(path)]
    result = run_tool(argv)
    if result.returncode != 0:
        raise ProberFailure(
            f"prober exited {result.returncode} for {path}: {result.stderr.strip()}"
        )
    try:
        doc = json.loads(result.stdout)
    except (ValueError, RecursionError) as exc:
        raise ProberFailure(f"unparseable prober output for {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProberFailure(f"prober output for {path} is not a JSON object")
    return doc


def _file_size(path: Path) -> int:
    """The size of *path*; raises FileNotFoundError, or ProberFailure when it is empty."""
    if not path.exists():
        raise FileNotFoundError(str(path))
    file_size = os.stat(path).st_size
    if file_size <= 0:
        raise ProberFailure(f"{path} is empty")
    return file_size


def media_info(path: str | Path, config: RunConfig | None = None) -> MediaInfo:
    """MediaInfo for the first video stream of *path*: read from its ``moov``
    by ``read_mp4`` where that reads it fully, else probed by ``probe_media``.

    Raises FileNotFoundError, NoVideoStream, or ProberFailure, as ``probe_media`` does.
    """
    path = Path(path)
    _file_size(path)
    return read_mp4(path) or probe_media(path, config)


def probe_media(path: str | Path, config: RunConfig | None = None) -> MediaInfo:
    """Probe *path* and return MediaInfo for its first video stream.

    Raises FileNotFoundError, NoVideoStream, or ProberFailure (with the
    prober's diagnostics attached).
    """
    config = config or RunConfig()
    path = Path(path)
    file_size = _file_size(path)

    doc = _run_prober(["-show_format", "-show_streams"], path, config)

    streams, container = doc.get("streams", []), doc.get("format", {})
    if not (isinstance(streams, list) and all(isinstance(s, dict) for s in [container, *streams])):
        raise ProberFailure(f"prober output for {path} needs a list of stream objects "
                            "and a format object")
    video = next((s for s in streams if s.get("codec_type") == "video"), None)
    if video is None:
        raise NoVideoStream(f"no video stream in {path}")

    try:
        width = int(video["width"])
        height = int(video["height"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProberFailure(f"video stream of {path} lacks dimensions: {exc}") from exc
    if width < 1 or height < 1:
        raise ProberFailure(f"nonpositive dimensions {width}x{height} in {path}")

    rates = video.get("avg_frame_rate"), video.get("r_frame_rate")
    if not all(rate is None or isinstance(rate, str) for rate in rates):
        raise ProberFailure(f"frame rates of {path} are not strings: {rates}")
    avg, base = map(_parse_rate, rates)
    frame_rate = avg or base
    if frame_rate is None:
        raise ProberFailure(f"no usable frame rate reported for {path}")
    if avg is not None and base is not None and avg != base:
        logger.warning(
            "%s looks variable-frame-rate (avg %s vs base %s); using the average",
            path, avg, base,
        )

    duration = _parse_positive_float(video.get("duration"))
    if duration is None:
        duration = _parse_positive_float(container.get("duration"))
    if duration is None:
        raise ProberFailure(f"no usable duration reported for {path}")

    codec_name = video.get("codec_name", "")
    pixel_format = video.get("pix_fmt", "")
    stream_bitrate = _parse_positive_float(video.get("bit_rate"))

    return MediaInfo(
        path=path,
        width=width,
        height=height,
        frame_rate=frame_rate,
        codec_name=codec_name,
        pixel_format=pixel_format,
        duration=duration,
        file_size=file_size,
        stream_bitrate=stream_bitrate,
    )


def scan_video_stream_bytes(path: str | Path, config: RunConfig | None = None) -> int:
    """Sum the packet sizes of the first video stream, in bytes.

    Raises ProberFailure when the scan fails, or reports no video packets
    or a negative size.
    """
    doc = _run_prober(["-select_streams", "v:0", "-show_entries", "packet=size"],
                      path, config or RunConfig())
    try:
        sizes = [int(p["size"]) for p in doc.get("packets", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProberFailure(f"unparseable packet list for {path}: {exc}") from exc
    if not sizes:
        raise ProberFailure(f"no video packets reported for {path}")
    if min(sizes) < 0:
        raise ProberFailure(f"negative packet size {min(sizes)} reported for {path}")
    return sum(sizes)


def _boxes(fh, start: int, end: int, path: str | Path) -> list[tuple[bytes, int, int]]:
    """The (4CC, body start, body end) of each ISO-BMFF box in bytes [start, end) of *fh*.

    A 32-bit size of 1 means a 64-bit size follows, and 0 a box that runs to
    *end*. Raises ProberFailure on a box smaller than its header or past *end*.
    """
    boxes, offset = [], start
    while offset < end:
        fh.seek(offset)
        header = fh.read(min(16, end - offset))
        head = 16 if header[:4] == b"\0\0\0\1" else 8
        if len(header) < head:
            raise ProberFailure(f"the box header at byte {offset} of {path} is truncated")
        size, kind = struct.unpack_from(">I4s", header)
        if size == 1:
            size = struct.unpack_from(">Q", header, 8)[0]
        elif size == 0:
            size = end - offset
        if size < head:
            raise ProberFailure(f"box {kind!r} at byte {offset} of {path} is {size} bytes, "
                                f"below its {head}-byte header")
        if offset + size > end:
            raise ProberFailure(f"box {kind!r} at byte {offset} of {path} is truncated")
        boxes.append((kind, offset + head, offset + size))
        offset += size
    return boxes


def _span(fh, where: str, path: str | Path, start: int = 0,
          end: int | None = None) -> tuple[int, int]:
    """The (start, end) of the body of the one box at *where*, a path of 4CCs
    from bytes [start, end) of *fh*, by default the whole of it."""
    end = fh.seek(0, os.SEEK_END) if end is None else end
    for kind in where.split("/"):
        found = [(s, e) for k, s, e in _boxes(fh, start, end, path) if k == kind.encode()]
        if len(found) != 1:
            raise ProberFailure(f"{path} holds {len(found)} {kind} boxes where {where} reads one")
        [(start, end)] = found
    return start, end


def _body(fh, where: str, path: str | Path, start: int = 0, end: int | None = None) -> bytes:
    """The body of the one box at *where*, found as ``_span`` finds it."""
    start, end = _span(fh, where, path, start, end)
    fh.seek(start)
    return fh.read(end - start)


def _unpack(layout: str, body: bytes, kind: str, path: str | Path) -> tuple:
    try:
        return struct.unpack_from(layout, body)
    except struct.error as exc:
        raise ProberFailure(f"the {kind} box of {path} is truncated") from exc


def _media_header(mdhd: bytes, path: str | Path) -> tuple[int, int]:
    """The (time scale, duration) of an ``mdhd`` box of version 0 or 1, both nonzero."""
    if mdhd[:1] not in (b"\0", b"\1"):
        raise ProberFailure(f"the mdhd box of {path} is not of version 0 or 1")
    # After the version and flags: the creation and modification times.
    time_scale, duration = _unpack((">12xII", ">20xIQ")[mdhd[0]], mdhd, "mdhd", path)
    if not (duration and time_scale):
        raise ProberFailure(f"{path} has a duration of {duration} at a time scale of {time_scale}")
    return time_scale, duration


# The pixel format of an 8-bit stream by the avcC's chroma_format_idc.
_CHROMA_FORMATS = {1: "yuv420p", 2: "yuv422p", 3: "yuv444p"}
# H.264 profiles whose avcC has no chroma extension: Baseline, Main, Extended; all 4:2:0.
_PROFILES_420 = (66, 77, 88)
# An avc1/avc3 sample entry's fields before its child boxes (ISO/IEC 14496-12 VisualSampleEntry).
_VISUAL_ENTRY_BYTES = 78


def read_mp4(path: str | Path) -> MediaInfo | None:
    """MediaInfo for an MP4 file's first video stream, as ffprobe reports it,
    read from its ``moov`` without a tool run; None for a file this does not
    read fully.

    It reads a file that starts with ``ftyp``, is not fragmented (no
    ``moof``, no ``mvex`` in the ``moov``), and whose first ``trak`` with a
    ``vide`` handler holds an ``avc1``/``avc3`` sample entry, as
    libavformat's mov demuxer does: the size from that entry; the pixel
    format from its ``avcC`` (4:2:0 for profiles 66, 77 and 88, else the
    chroma format of the High-profile extension, at 8 bits only); the
    average frame rate, time scale × frames over the frame ticks in
    ``stts``; the ``mdhd`` duration; and the stream bitrate, the ``stsz``
    sample sizes in bits over that duration, rounded as ``av_rescale``
    rounds. Anything else, and a missing, truncated or malformed box, reads
    as None, so ``media_info`` falls back to the prober. Equality with real
    ffprobe (an edit list's shift, a full-range ``yuvj420p``, which only
    the SPS states) is unverified (ROADMAP item 10).
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            file_size = fh.seek(0, os.SEEK_END)
            top = [kind for kind, _, _ in _boxes(fh, 0, file_size, path)]
            if top[:1] != [b"ftyp"] or b"moof" in top:
                return None
            track = _video_track(fh, path)
        if track is None or b"mvex" in track[0]:
            return None
        return _read_track(track[1], path, file_size)
    except (OSError, ProberFailure):
        return None


def _video_track(fh, path: Path) -> tuple[list[bytes], dict[bytes, list[bytes]]] | None:
    """The 4CCs of the boxes in an open MP4's ``moov``, and the bodies of the
    boxes in ``mdia`` and ``mdia/minf/stbl`` of its first ``trak`` with a
    ``vide`` handler, by 4CC; None where no ``trak`` has one. Raises
    ProberFailure on a truncated box, or where a ``moov``, ``mdia``,
    ``hdlr``, ``minf`` or ``stbl`` on the way is not one box."""
    data = _body(fh, "moov", path)
    moov = io.BytesIO(data)
    boxes = _boxes(moov, 0, len(data), path)
    # hdlr: version and flags, a predefined field, then the handler type.
    trak = next(((start, end) for kind, start, end in boxes if kind == b"trak"
                 and _body(moov, "mdia/hdlr", path, start, end)[8:12] == b"vide"), None)
    if trak is None:
        return None
    found = {}
    for where in ("mdia", "mdia/minf/stbl"):
        for kind, start, end in _boxes(moov, *_span(moov, where, path, *trak), path):
            found.setdefault(kind, []).append(data[start:end])
    return [kind for kind, _, _ in boxes], found


def _one(boxes: dict[bytes, list[bytes]], kind: bytes, path: Path) -> bytes:
    """The body of the one *kind* box among *boxes*; ProberFailure unless there is one."""
    found = boxes.get(kind, [])
    if len(found) != 1:
        raise ProberFailure(f"{path} holds {len(found)} {kind.decode()} boxes where one is read")
    return found[0]


def _read_track(boxes: dict[bytes, list[bytes]], path: Path, file_size: int) -> MediaInfo | None:
    time_scale, duration = _media_header(_one(boxes, b"mdhd", path), path)
    stsd, stts, stsz = (_one(boxes, kind, path) for kind in (b"stsd", b"stts", b"stsz"))

    sample_entries = io.BytesIO(stsd)
    entries = _boxes(sample_entries, 8, len(stsd), path)  # after the version, flags and count
    if not entries or entries[0][0] not in (b"avc1", b"avc3"):
        return None
    _, start, end = entries[0]
    width, height = _unpack(">24xHH", stsd[start:end], "avc1", path)
    avcc = _body(sample_entries, "avcC", path, start + _VISUAL_ENTRY_BYTES, end)
    pixel_format = _avc_pixel_format(avcc, path)

    (count,) = _unpack(">4xI", stts, "stts", path)
    table = _unpack(f">8x{2 * count}I", stts, "stts", path)
    runs = list(zip(table[0::2], table[1::2]))  # (frames, ticks per frame)
    frames, ticks = sum(n for n, _ in runs), sum(n * delta for n, delta in runs)
    deltas = {delta for n, delta in runs if n}
    sample_size, samples = _unpack(">4xII", stsz, "stsz", path)
    data_size = sample_size * samples or sum(_unpack(f">12x{samples}I", stsz, "stsz", path))
    rate = (data_size * 8 * time_scale + duration // 2) // duration
    # mov.c reads a frame interval as a signed 32-bit number, and reduces
    # the average rate to 32-bit terms; leave either limit to the prober.
    if not (width and height and pixel_format and ticks and rate) or max(deltas) >= 2 ** 31:
        return None
    frame_rate = Fraction(time_scale * frames, ticks)
    if max(frame_rate.numerator, frame_rate.denominator) >= 2 ** 31:
        return None
    if len(deltas) > 1:
        logger.warning("%s looks variable-frame-rate (%d frame intervals in its stts); "
                       "using the average", path, len(deltas))
    return MediaInfo(
        path=path,
        width=width,
        height=height,
        frame_rate=frame_rate,
        codec_name="h264",
        pixel_format=pixel_format,
        duration=duration / time_scale,
        file_size=file_size,
        stream_bitrate=float(rate),
    )


def _avc_pixel_format(avcc: bytes, path: Path) -> str | None:
    """The pixel format an ``avcC`` box states, or None where it states none this reads."""
    version, profile = _unpack(">BB", avcc, "avcC", path)
    if version != 1:
        return None
    if profile in _PROFILES_420:
        return "yuv420p"
    # After the version, profile, compatibility, level and NAL length size:
    # the SPS count (its low 5 bits) and each SPS, the PPS count and each PPS,
    # then the High-profile extension.
    offset = 5
    for mask in (0x1F, 0xFF):
        (count,) = _unpack(f">{offset}xB", avcc, "avcC", path)
        offset += 1
        for _ in range(count & mask):
            offset += 2 + _unpack(f">{offset}xH", avcc, "avcC", path)[0]
    chroma, luma_bits, chroma_bits = _unpack(f">{offset}x3B", avcc, "avcC", path)
    if (luma_bits & 7) or (chroma_bits & 7):  # bit depth minus 8
        return None
    return _CHROMA_FORMATS.get(chroma & 3)


# x264's user-data-unregistered SEI: this UUID, then its version and option
# string, NUL-terminated (x264_sei_version_write in x264's encoder/set.c).
_X264_UUID = bytes.fromhex("dc45e9bde6d948b7962cd820d923eeef")
# How far into the first video sample x264_settings looks for that message.
_SEI_SCAN_BYTES = 64 * 1024


def x264_settings(path: str | Path) -> dict[str, str] | None:
    """The options x264 states in an MP4 file's first video sample, by key;
    None for a file that states none this reads.

    x264 writes its version and full option string (``... options: cabac=1
    ref=3 ... rc=crf mbtree=1 crf=23.0 ...``) into an SEI message in the
    first access unit, and ffmpeg's libx264 keeps it there. This finds the
    first sample of the first ``trak`` with a ``vide`` handler, its offset
    from ``stco`` or ``co64`` and its size from ``stsz``, looks for x264's
    UUID in that sample's first 64 KiB, and splits the ASCII text after
    ``options: `` up to its NUL into ``key=value`` tokens (a token with no
    ``=`` maps to ``""``). It runs no tool. A missing, truncated or
    malformed box, no UUID in range, no NUL after it, text that is not
    ASCII or has no ``options: `` all read as None, as they do in
    ``read_mp4``. A platform that re-encodes with another encoder, or
    strips the message, states nothing.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            track = _video_track(fh, path)
            if track is None:
                return None
            _, boxes = track
            offsets = [(kind, table) for kind in (b"stco", b"co64") for table in boxes.get(kind, [])]
            if len(offsets) != 1:
                return None
            [(kind, table)] = offsets
            count, first = _unpack(">4xII" if kind == b"stco" else ">4xIQ", table,
                                   kind.decode(), path)
            if not count:
                return None
            stsz = _one(boxes, b"stsz", path)
            # stsz: a fixed sample size, or 0 and then one size per sample.
            size = _unpack(">4xI", stsz, "stsz", path)[0] or _unpack(">12xI", stsz, "stsz", path)[0]
            fh.seek(first)
            prefix = fh.read(min(size, _SEI_SCAN_BYTES))
    except (OSError, ProberFailure):
        return None
    at = prefix.find(_X264_UUID)
    text, nul, _ = prefix[at + len(_X264_UUID):].partition(b"\0")
    if at < 0 or not nul or not text.isascii():
        return None
    _, found, options = text.decode("ascii").partition("options: ")
    return dict(token.partition("=")[::2] for token in options.split()) if found else None
