"""ffprobe wrapper: authoritative media metadata for one file.

Runs the configured prober with JSON output and reduces the result to the
fields the pipeline needs. The first video stream by container order wins;
frame rate comes from the declared average rate with the real base rate as
fallback; duration comes from the video stream, then the container.
``scan_video_stream_bytes`` runs the same prober to sum video packet
sizes, and a failed scan raises ``ProberFailure`` like a failed probe.
``mp4_stream_rate`` reads the stream bitrate of an MP4 file that holds one
stream, such as a trial encode, from its sample table, and runs no tool.
A number that is not finite, or too large for a float, reads as absent; a
document of another shape raises ``ProberFailure``.
"""

from __future__ import annotations

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
    """Facts about one video file: measured by ``probe_media``, or as the
    run of ``encoder.encode`` reports them, with no stream bitrate."""

    path: Path
    width: int
    height: int
    frame_rate: Fraction
    codec_name: str
    pixel_format: str
    duration: float
    file_size: int
    stream_bitrate: float | None = None

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


def probe_media(path: str | Path, config: RunConfig | None = None) -> MediaInfo:
    """Probe *path* and return MediaInfo for its first video stream.

    Raises FileNotFoundError, NoVideoStream, or ProberFailure (with the
    prober's diagnostics attached).
    """
    config = config or RunConfig()
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    file_size = os.stat(path).st_size
    if file_size <= 0:
        raise ProberFailure(f"{path} is empty")

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
    except (KeyError, TypeError, ValueError) as exc:
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


def _body(fh, where: str, path: str | Path) -> bytes:
    """The body of the one box at *where*, a path of 4CCs from the top of the file *fh*."""
    start, end = 0, os.fstat(fh.fileno()).st_size
    for kind in where.split("/"):
        found = [(s, e) for k, s, e in _boxes(fh, start, end, path) if k == kind.encode()]
        if len(found) != 1:
            raise ProberFailure(f"{path} holds {len(found)} {kind} boxes where {where} reads one")
        [(start, end)] = found
    fh.seek(start)
    return fh.read(end - start)


def _unpack(layout: str, body: bytes, kind: str, path: str | Path) -> tuple:
    try:
        return struct.unpack_from(layout, body)
    except struct.error as exc:
        raise ProberFailure(f"the {kind} box of {path} is truncated") from exc


def mp4_stream_rate(path: str | Path) -> int:
    """The bitrate of an MP4 file's one stream, in bit/s, as ffprobe reports it.

    libavformat's mov demuxer computes it from ``moov/trak/mdia``: the sizes
    in ``minf/stbl/stsz`` (a fixed one, or one per sample), in bits, over the
    duration in ``mdhd`` (version 0 or 1) in its time scale, rounded to the
    nearest bit/s as ``av_rescale`` rounds. This reads them without a tool
    run. Raises ProberFailure unless the file holds exactly one ``trak``,
    and on a missing or truncated box or a zero duration or time scale. An
    edit list (``elst``) may shift the duration ffprobe divides by, and
    equality with real ffprobe is unverified (ROADMAP item 10).
    """
    try:
        with open(path, "rb") as fh:
            mdhd = _body(fh, "moov/trak/mdia/mdhd", path)
            stsz = _body(fh, "moov/trak/mdia/minf/stbl/stsz", path)
    except OSError as exc:
        raise ProberFailure(f"cannot read {path}: {exc}") from exc
    if mdhd[:1] not in (b"\0", b"\1"):
        raise ProberFailure(f"the mdhd box of {path} is not of version 0 or 1")
    # After the version and flags: the creation and modification times.
    time_scale, duration = _unpack((">12xII", ">20xIQ")[mdhd[0]], mdhd, "mdhd", path)
    if not (duration and time_scale):
        raise ProberFailure(f"{path} has a duration of {duration} at a time scale of {time_scale}")
    sample_size, count = _unpack(">4xII", stsz, "stsz", path)
    data_size = (sample_size * count if sample_size
                 else sum(_unpack(f">12x{count}I", stsz, "stsz", path)))
    return (data_size * 8 * time_scale + duration // 2) // duration
