"""The bitrate measure used on both sides of the CRF search inequality.

One fixed definition everywhere: video-stream bits per second, audio
excluded. Prefers the reported stream bitrate; falls back to summing
video packet sizes over the stream duration, where a failed packet scan
raises ``ProberFailure``. ``probe.read_mp4`` always reports a positive
stream bitrate (else it leaves the file to the prober), so the scan is
reachable only through the ffprobe path, ``probe_media``. The shared
video and every trial encode are measured by it, each from what
``probe.media_info`` reads: the shared video's by the estimator, and a
trial's by ``encoder.encode``, which returns it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .config import RunConfig
from .errors import PreconditionViolation
from .probe import MediaInfo, scan_video_stream_bytes


class BitrateMethod(Enum):
    REPORTED_STREAM_BITRATE = "ReportedStreamBitrate"
    VIDEO_BYTES_OVER_DURATION = "VideoBytesOverDuration"


@dataclass(frozen=True)
class BitrateMeasurement:
    """A bits-per-second value plus the path that computed it."""

    value: float
    method: BitrateMethod


def measure_bitrate(info: MediaInfo, config: RunConfig | None = None) -> BitrateMeasurement:
    """Measure the video-stream bitrate of the file described by *info*.

    Raises PreconditionViolation when *info* carries no positive duration
    (``media_info`` never returns one) and ProberFailure when the fallback
    packet scan is unusable.
    """
    if info.duration is None or info.duration <= 0:
        raise PreconditionViolation(f"nonpositive duration for {info.path}")
    if info.stream_bitrate is not None:
        return BitrateMeasurement(info.stream_bitrate, BitrateMethod.REPORTED_STREAM_BITRATE)
    payload = scan_video_stream_bytes(info.path, config)
    return BitrateMeasurement(payload * 8.0 / info.duration, BitrateMethod.VIDEO_BYTES_OVER_DURATION)
