"""The re-encode operator: H.264 at a target resolution and CRF.

The invocation contract is fixed for every flow in this tool: libx264,
yuv420p, full-frame scale to the target dimensions (no crop, no padding),
an explicit output frame rate, audio dropped (``-an``), overwrite enabled.
The scaler is the encoder's default bicubic-class filter and color tags
pass through untouched. The preset is the run's (``RunConfig.preset``), so
an ``EncodeSpec`` holds only what varies per encode. Every encode also
asks for ffmpeg's machine-readable progress report on stdout
(``-progress pipe:1 -nostats``). The exact argument list is logged for
every run.

``encode`` is the one call site of the encoder. It runs it once and
verifies the encode without a probe: the exit code is 0, the progress
report ends with ``progress=end`` and counts at least one frame, and the
output file exists and is non-empty. It returns what the run reports,
not measured facts; callers that need those probe the output. Trial
encodes alone may be truncated (``max_seconds``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .config import RunConfig
from .errors import EncoderFailure, PreconditionViolation
from .probe import MediaInfo
from .runner import refuse_overwrite, run_tool

PIXEL_FORMAT = "yuv420p"
CRF_FLOOR = 0.0
CRF_CEIL = 51.0


def normalize_dimensions(width: int, height: int) -> tuple[int, int]:
    """Round odd dimensions down to even (4:2:0 subsampling requirement)."""
    if width < 2 or height < 2:
        raise PreconditionViolation(f"dimensions too small to normalize: {width}x{height}")
    return (width - width % 2, height - height % 2)


@dataclass(frozen=True)
class EncodeSpec:
    """The per-encode arguments of one re-encode."""

    target_width: int
    target_height: int
    crf: float
    frame_rate: Fraction

    def validate(self) -> None:
        if self.target_width < 2 or self.target_width % 2:
            raise PreconditionViolation(f"target width must be even and >= 2, got {self.target_width}")
        if self.target_height < 2 or self.target_height % 2:
            raise PreconditionViolation(f"target height must be even and >= 2, got {self.target_height}")
        if not CRF_FLOOR <= self.crf <= CRF_CEIL:
            raise PreconditionViolation(f"crf must be in [{CRF_FLOOR}, {CRF_CEIL}], got {self.crf}")
        if self.frame_rate <= 0:
            raise PreconditionViolation(f"frame rate must be positive, got {self.frame_rate}")


def _format_crf(crf: float) -> str:
    # Integer CRFs stay integers on the command line; fractional means pass through.
    return str(int(crf)) if float(crf).is_integer() else f"{crf:g}"


def build_encode_argv(
    input_path: Path,
    spec: EncodeSpec,
    output_path: Path,
    config: RunConfig,
    max_seconds: float | None = None,
) -> list[str]:
    """Construct the full encoder argument list for one run."""
    argv = config.ffmpeg_argv() + [
        "-hide_banner",
        "-loglevel", "error",
        "-nostats",
        "-progress", "pipe:1",
        "-y",
        "-i", str(input_path),
        "-map", "0:v:0",
        "-an",
        "-vf", f"scale={spec.target_width}:{spec.target_height}",
        "-c:v", "libx264",
        "-crf", _format_crf(spec.crf),
        "-preset", config.preset,
        "-pix_fmt", PIXEL_FORMAT,
        "-r", f"{spec.frame_rate.numerator}/{spec.frame_rate.denominator}",
    ]
    if max_seconds is not None:
        argv += ["-t", f"{max_seconds:g}"]
    argv.append(str(output_path))
    return argv


def _unfinished(report: dict[str, str], output_path: Path) -> str | None:
    """Why an encode that exited 0 did not finish its output, or None if it did."""
    if report.get("progress") != "end":
        return "progress report does not end with progress=end"
    frame = report.get("frame", "")
    if not (frame.isdigit() and int(frame) >= 1):
        return f"progress report counts no frames (frame={frame or 'absent'})"
    try:
        size = output_path.stat().st_size
    except OSError:
        return "no output file"
    return None if size else "output file is empty"


def encode(
    input_path: str | Path,
    spec: EncodeSpec,
    output_path: str | Path,
    config: RunConfig | None = None,
    max_seconds: float | None = None,
) -> MediaInfo:
    """Re-encode *input_path* per *spec* in one tool run and return what the run reports.

    *max_seconds*, when set, truncates the output to its first K seconds
    (trial encodes). The MediaInfo holds the spec's size, frame rate and
    codec, the progress report's frames over that rate as its duration,
    and the output's file size.
    An encode that exits nonzero, or exits 0 without a finished, non-empty
    output, raises EncoderFailure; partial outputs are removed on failure.
    An output that resolves to the input raises PreconditionViolation
    before the tool runs, so the input is neither overwritten nor removed.
    """
    spec.validate()
    input_path, output_path = Path(input_path), Path(output_path)
    if not input_path.exists():
        raise FileNotFoundError(str(input_path))
    refuse_overwrite([output_path], [input_path])

    argv = build_encode_argv(input_path, spec, output_path, config or RunConfig(), max_seconds)
    try:
        result = run_tool(argv)
        if result.returncode != 0:
            raise EncoderFailure(
                f"encoder exited {result.returncode} for {input_path} -> {output_path}: "
                f"{result.stderr.strip()}"
            )
        # The -progress report: blocks of key=value lines, so the last value
        # of a key is the final one.
        report = dict(map(str.strip, line.split("=", 1))
                      for line in result.stdout.splitlines() if "=" in line)
        problem = _unfinished(report, output_path)
        if problem is not None:
            raise EncoderFailure(f"encoder exited 0 for {input_path} -> {output_path}, but {problem}")
    except BaseException:
        output_path.unlink(missing_ok=True)
        raise
    return MediaInfo(
        path=output_path,
        width=spec.target_width,
        height=spec.target_height,
        frame_rate=spec.frame_rate,
        codec_name="h264",
        pixel_format=PIXEL_FORMAT,
        duration=float(int(report["frame"]) / spec.frame_rate),
        file_size=output_path.stat().st_size,
    )
