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

One run may write several outputs from one decode of the input: the
options before each output file apply to that output alone, so each is
the file its encode would write alone. The sibling rule: ``encode``
writes its *siblings* in its own run, and each is then taken by an
``encode`` call of its own with ``written=True``, which runs no tool and
checks and reads that file as a run's output is checked and read.
Nothing here remembers which files a run wrote; the caller says so. So
every output is still one ``encode`` call, and an output with its
siblings costs one tool run.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    *,
    siblings: Sequence[tuple[EncodeSpec, Path]] = (),
) -> list[str]:
    """Construct the full encoder argument list for one run: the input, then
    an output block per output, *output_path*'s and then each of *siblings*'."""
    argv = config.ffmpeg_argv() + [
        "-hide_banner",
        "-loglevel", "error",
        "-nostats",
        "-y",
        "-i", str(input_path),
    ]
    for out_spec, out_path in [(spec, output_path), *siblings]:
        argv += [
            "-map", "0:v:0",
            "-an",
            "-vf", f"scale={out_spec.target_width}:{out_spec.target_height}",
            "-c:v", "libx264",
            "-crf", _format_crf(out_spec.crf),
            "-preset", config.preset,
            "-pix_fmt", PIXEL_FORMAT,
            "-r", f"{out_spec.frame_rate.numerator}/{out_spec.frame_rate.denominator}",
        ]
        if max_seconds is not None:
            argv += ["-t", f"{max_seconds:g}"]
        argv.append(str(out_path))
    return argv


def encode(
    input_path: str | Path,
    spec: EncodeSpec,
    output_path: str | Path,
    config: RunConfig | None = None,
    max_seconds: float | None = None,
    *,
    siblings: Sequence[tuple[EncodeSpec, str | Path]] = (),
    written: bool = False,
) -> MediaInfo:
    """Re-encode *input_path* per *spec* in one tool run and return
    ``media_info`` of the output.

    *max_seconds*, when set, truncates the output to its first K seconds
    (trial encodes). *siblings*, (spec, output path) pairs, are written by
    the same run, with the same *max_seconds*. *written* says an earlier
    call wrote *output_path* as a sibling: no tool runs, and the output is
    checked and read as a run's is. An encode that exits nonzero, or exits
    0 without every output or with an output that does not read, raises
    EncoderFailure; every output of a failed call is removed. An output
    that resolves to the input, or to another output, raises
    PreconditionViolation before the tool runs, so the input is neither
    overwritten nor removed.
    """
    for each in [spec, *(sibling_spec for sibling_spec, _ in siblings)]:
        each.validate()
    input_path, output_path = Path(input_path), Path(output_path)
    siblings = [(sibling_spec, Path(path)) for sibling_spec, path in siblings]
    outputs = [output_path, *(path for _, path in siblings)]
    if written and siblings:
        raise PreconditionViolation("an output written by an earlier run has no siblings")
    if len({path.resolve() for path in outputs}) < len(outputs):
        raise PreconditionViolation(f"an output is given twice: {', '.join(map(str, outputs))}")
    if not input_path.exists():
        raise FileNotFoundError(str(input_path))
    config = config or RunConfig()
    refuse_overwrite(outputs, [input_path])

    try:
        if not written:
            result = run_tool(build_encode_argv(input_path, spec, output_path, config, max_seconds,
                                                siblings=siblings))
            if result.returncode != 0:
                raise EncoderFailure(
                    f"encoder exited {result.returncode} for {input_path} -> "
                    f"{', '.join(map(str, outputs))}: {result.stderr.strip()}"
                )
            for path in outputs[1:]:
                if not path.exists():
                    raise EncoderFailure(
                        f"encoder exited 0 for {input_path} -> {path}, but it wrote no output")
        try:
            return media_info(output_path, config)
        except (OSError, NoVideoStream, ProberFailure) as exc:
            problem = "it wrote no output" if isinstance(exc, FileNotFoundError) else exc
            raise EncoderFailure(
                f"encoder exited 0 for {input_path} -> {output_path}, but {problem}") from exc
    except BaseException:
        for path in outputs:
            path.unlink(missing_ok=True)
        raise
