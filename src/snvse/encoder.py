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

One run may read several inputs and write several outputs: each output
maps the video of one input, and the options before each output file
apply to that output alone, so each is the file its encode would write
alone. An input shared by several outputs is decoded once. The sibling
rule: ``encode`` writes its *siblings*, (input, spec, output) triples,
in its own run, and each is then taken by an ``encode`` call of its own
with ``written=True``, which runs no tool and checks and reads that file
as a run's output is checked and read. Nothing here remembers which
files a run wrote; the caller says so. So every output is still one
``encode`` call, and an output with its siblings costs one tool run.

``encode_batch`` applies the rule to a batch of inputs: it splits them,
in order, into ``run_sizes(n, workers)`` runs of at most
``MAX_INPUTS_PER_RUN`` inputs, so n inputs cost min(n, W·⌈n/4W⌉) tool
runs, at most W at once, and n ≤ W inputs one run each. A run that fails
encodes each of its inputs alone, so a bad input fails as it would alone.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .config import RunConfig
from .errors import EncoderFailure, NoVideoStream, PreconditionViolation, ProberFailure, SnvseError
from .probe import MediaInfo, media_info
from .runner import Outcome, attempt, refuse_overwrite, run_batch, run_tool

logger = logging.getLogger(__name__)

PIXEL_FORMAT = "yuv420p"
CRF_FLOOR = 0.0
CRF_CEIL = 51.0
# The most inputs encode_batch gives one tool run, and so one encoder process.
MAX_INPUTS_PER_RUN = 4


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
    siblings: Sequence[tuple[Path, EncodeSpec, Path]] = (),
) -> list[str]:
    """Construct the full encoder argument list for one run: an ``-i`` per
    distinct input, in first-seen order, then an output block per output,
    *output_path*'s and then each of *siblings*', each mapping its input's video."""
    jobs = [(input_path, spec, output_path), *siblings]
    inputs = list(dict.fromkeys(path for path, _, _ in jobs))
    argv = config.ffmpeg_argv() + ["-hide_banner", "-loglevel", "error", "-nostats", "-y"]
    for path in inputs:
        argv += ["-i", str(path)]
    for in_path, out_spec, out_path in jobs:
        argv += [
            "-map", f"{inputs.index(in_path)}:v:0",
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
    siblings: Sequence[tuple[str | Path, EncodeSpec, str | Path]] = (),
    written: bool = False,
) -> MediaInfo:
    """Re-encode *input_path* per *spec* in one tool run and return
    ``media_info`` of the output.

    *max_seconds*, when set, truncates the output to its first K seconds
    (trial encodes). *siblings*, (input path, spec, output path) triples,
    are written by the same run, with the same *max_seconds*. *written*
    says an earlier call wrote *output_path* as a sibling: no tool runs,
    and the output is checked and read as a run's is. An encode that exits
    nonzero, or exits 0 without every output or with an output that does
    not read, raises EncoderFailure; every output of a failed call is
    removed. An output that resolves to an input, or to another output,
    raises PreconditionViolation before the tool runs, so no input is
    overwritten or removed.
    """
    jobs = [(Path(path), each, Path(out)) for path, each, out in
            [(input_path, spec, output_path), *siblings]]
    for _, each, _ in jobs:
        each.validate()
    input_path, output_path = jobs[0][0], jobs[0][2]
    inputs = list(dict.fromkeys(path for path, _, _ in jobs))
    outputs = [out for _, _, out in jobs]
    if written and siblings:
        raise PreconditionViolation("an output written by an earlier run has no siblings")
    if len({path.resolve() for path in outputs}) < len(outputs):
        raise PreconditionViolation(f"an output is given twice: {', '.join(map(str, outputs))}")
    for path in inputs:
        if not path.exists():
            raise FileNotFoundError(str(path))
    config = config or RunConfig()
    refuse_overwrite(outputs, inputs)

    try:
        if not written:
            result = run_tool(build_encode_argv(input_path, spec, output_path, config, max_seconds,
                                                siblings=jobs[1:]))
            if result.returncode != 0:
                raise EncoderFailure(
                    f"encoder exited {result.returncode} for {', '.join(map(str, inputs))} -> "
                    f"{', '.join(map(str, outputs))}: {result.stderr.strip()}"
                )
            for path, _, out in jobs[1:]:
                if not out.exists():
                    raise EncoderFailure(
                        f"encoder exited 0 for {path} -> {out}, but it wrote no output")
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


def run_sizes(n: int, workers: int) -> list[int]:
    """The sizes of the runs ``encode_batch`` splits *n* inputs into, in order:
    min(n, W·⌈n / (4W)⌉) runs for W *workers*, whose sizes differ by at most
    1, larger first, so none holds more than ``MAX_INPUTS_PER_RUN``."""
    if n < 1:
        return []
    runs = min(n, workers * -(-n // (MAX_INPUTS_PER_RUN * workers)))
    size, larger = divmod(n, runs)
    return [size + 1] * larger + [size] * (runs - larger)


def encode_batch(
    jobs: Sequence[tuple[str | Path, EncodeSpec, str | Path]],
    config: RunConfig | None = None,
) -> list[Outcome]:
    """Encode each (input path, spec, output path) job, several inputs per
    tool run; one Outcome per job, in order, whose item is its input and
    whose result is ``media_info`` of its output.

    The jobs go, in order, into runs of ``run_sizes(len(jobs), config.workers)``
    inputs, at most ``config.workers`` runs at once through ``run_batch``,
    whose items are the first input of each run. A run is one ``encode`` of
    its first job with the others as siblings, each then taken with
    ``written=True``. A run that fails encodes each of its jobs alone, in
    the same worker, so each job's error and its ERROR line are those of its
    run alone; in an interrupted pool, ``run_tool`` starts none of them.
    Raises PreconditionViolation before any work if an input is given twice.
    """
    config = config or RunConfig()
    if len({Path(path) for path, _, _ in jobs}) < len(jobs):
        raise PreconditionViolation("an input is given twice")
    runs, start = {}, 0
    for size in run_sizes(len(jobs), config.workers):
        runs[jobs[start][0]] = jobs[start:start + size]
        start += size

    def run(first) -> list[Outcome]:
        head, *rest = runs[first]
        if rest:
            try:
                info = encode(*head, config, siblings=rest)
            except (SnvseError, OSError) as exc:
                logger.debug("the run of %d inputs from %s failed, so each is encoded alone: %s",
                             len(rest) + 1, first, exc)
            else:
                return [Outcome(head[0], result=info),
                        *(attempt(path, encode, path, *job, config, written=True)
                          for path, *job in rest)]
        return [attempt(path, encode, path, *job, config) for path, *job in (head, *rest)]

    # run records every job's error in its Outcome, so each slot holds a list.
    return [outcome for slot in run_batch(run, list(runs), config.workers)
            for outcome in slot.result]
