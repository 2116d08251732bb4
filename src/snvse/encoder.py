"""The re-encode operator: H.264 at a target resolution and CRF.

The invocation contract is fixed for every flow in this tool: libx264,
yuv420p, full-frame scale to the target dimensions (no crop, no padding),
an explicit output frame rate, audio dropped (``-an``), overwrite enabled,
and ffmpeg's stats line kept out of the captured stderr (``-nostats``).
The scaler is the encoder's default bicubic-class filter and color tags
pass through untouched. The preset is the run's (``RunConfig.preset``), so
an ``EncodeSpec`` holds only what varies per encode. The exact argument
list is logged for every run.

``encode`` is the one call site of the encoder. It runs it once, and
checks and describes the output by reading it with ``probe.media_info``,
as every other file is read: an MP4 from its ``moov``, with no tool run.
An encode that exits 0 but leaves no output that reads fails. Trial
encodes alone may be truncated (``max_seconds``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .config import RunConfig
from .errors import EncoderFailure, NoVideoStream, PreconditionViolation, ProberFailure
from .probe import MediaInfo, media_info
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


def encode(
    input_path: str | Path,
    spec: EncodeSpec,
    output_path: str | Path,
    config: RunConfig | None = None,
    max_seconds: float | None = None,
) -> MediaInfo:
    """Re-encode *input_path* per *spec* in one tool run and return
    ``media_info`` of the output.

    *max_seconds*, when set, truncates the output to its first K seconds
    (trial encodes). An encode that exits nonzero, or exits 0 with an
    output that does not read, raises EncoderFailure; partial outputs are
    removed on failure. An output that resolves to the input raises
    PreconditionViolation before the tool runs, so the input is neither
    overwritten nor removed.
    """
    spec.validate()
    input_path, output_path = Path(input_path), Path(output_path)
    if not input_path.exists():
        raise FileNotFoundError(str(input_path))
    config = config or RunConfig()
    refuse_overwrite([output_path], [input_path])

    argv = build_encode_argv(input_path, spec, output_path, config, max_seconds)
    try:
        result = run_tool(argv)
        if result.returncode != 0:
            raise EncoderFailure(
                f"encoder exited {result.returncode} for {input_path} -> {output_path}: "
                f"{result.stderr.strip()}"
            )
        try:
            return media_info(output_path, config)
        except (OSError, NoVideoStream, ProberFailure) as exc:
            problem = "it wrote no output" if isinstance(exc, FileNotFoundError) else exc
            raise EncoderFailure(
                f"encoder exited 0 for {input_path} -> {output_path}, but {problem}") from exc
    except BaseException:
        output_path.unlink(missing_ok=True)
        raise
