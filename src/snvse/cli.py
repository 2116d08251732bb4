"""Command-line interface tying the pipeline together.

Subcommands: ``estimate`` (build a platform profile from original/shared
pairs), ``emulate`` (apply a profile to new videos), ``analyze-stability``
(bootstrap study of CRF estimate spread vs sample count), ``db show``
(inspect a profile), and ``mock-platform`` (encode a corpus with fixed,
known parameters to serve as a ground-truth stand-in for real uploads).

Exit codes: 0 success (each failed item is logged once at ERROR, and the
batch goes on), 1 operational failure, 2 usage error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import io
import logging
import math
import os
import sys
from collections import Counter
from pathlib import Path

from . import __version__
from .analysis import DEFAULT_ITERATIONS, bootstrap_stability, recommend_sample_size, write_stability_csv
from .config import RunConfig
from .encoder import CRF_CEIL, CRF_FLOOR, EncodeSpec, encode
from .errors import AllItemsFailed, InvalidRange, IoFailure, PreconditionViolation, SnvseError
from .estimator import DEFAULT_STRATEGY, SearchStrategy, VideoPair, check_range, estimate_batch
from .planner import emulate_batch, supporting_entries
from .probe import media_info
from .profile_db import CRF_MAX, CRF_MIN, PlatformProfile, ProfileEntry, load_profile, save_profile
from .runner import by_stem, refuse_overwrite, run_batch

logger = logging.getLogger(__name__)

VIDEO_EXTENSIONS = {".mp4", ".m4v", ".mov", ".mkv", ".avi", ".webm", ".ts", ".mpg", ".mpeg"}
MIN_SAMPLES_PER_RESOLUTION = 30


def _resolution(text: str) -> tuple[int, int]:
    try:
        w, _, h = text.lower().partition("x")
        width, height = int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WIDTHxHEIGHT, got {text!r}")
    if width < 1 or height < 1:
        raise argparse.ArgumentTypeError(f"dimensions must be positive, got {text!r}")
    return width, height


def _even_resolution(text: str) -> tuple[int, int]:
    width, height = _resolution(text)
    if width % 2 or height % 2:
        raise argparse.ArgumentTypeError(f"must be even, got {text!r}")
    return width, height


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")


def _hidden_crf(text: str) -> float:
    value = _number(text)
    if not CRF_FLOOR <= value <= CRF_CEIL:
        raise argparse.ArgumentTypeError(f"must be in [{CRF_FLOOR:g}, {CRF_CEIL:g}], got {text}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _positive_seconds(text: str) -> float:
    value = _number(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _width(text: str) -> float:
    value = _number(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a non-negative finite number, got {text}")
    return abs(value)  # -0 reads as 0


def _platform_name(text: str) -> str:
    # emulate names its outputs <stem>.<platform>.mp4 inside its output dir
    if {"/", os.sep} & set(text):
        raise argparse.ArgumentTypeError(f"must not contain a path separator, got {text!r}")
    return text


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same options are accepted before and after the subcommand; the
    # subcommand copies use SUPPRESS so they never clobber root values.
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--ffmpeg-bin", default=default,
                        help="encoder command (default: $SNVSE_FFMPEG or ffmpeg)")
    parser.add_argument("--ffprobe-bin", default=default,
                        help="prober command (default: $SNVSE_FFPROBE or ffprobe)")
    parser.add_argument("--preset", default=default,
                        help="x264 preset; estimation and emulation must agree (default: medium)")
    parser.add_argument("--workers", type=_positive_int, default=default,
                        help="max concurrent encodes (default: cpu count)")
    parser.add_argument("--scratch-dir", type=Path, default=default,
                        help="directory for trial encodes (default: system temp)")
    parser.add_argument("--log-level", choices=["debug", "error", "info", "warn"],
                        default=argparse.SUPPRESS if suppress else "info")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snvse",
        description="Estimate social-network video re-encoding parameters and emulate them locally.",
    )
    parser.add_argument("--version", action="version", version=f"snvse {__version__}")
    _add_global_options(parser, suppress=False)

    shared = argparse.ArgumentParser(add_help=False)
    _add_global_options(shared, suppress=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", parents=[shared], help="estimate (resolution, CRF) parameters from original/shared pairs")
    p_est.add_argument("originals_dir", type=Path, nargs="?",
                       help="with shared_dir: pair the videos of the two dirs by file stem")
    p_est.add_argument("shared_dir", type=Path, nargs="?")
    p_est.add_argument("--platform", required=True, type=_platform_name,
                       help="platform name stored in the profile")
    p_est.add_argument("--out", required=True, type=Path, help="output profile JSON path")
    p_est.add_argument("--manifest", type=Path,
                       help="CSV of original,shared paths; given instead of the two dirs")
    p_est.add_argument("--c-min", type=int, default=CRF_MIN)
    p_est.add_argument("--c-max", type=int, default=CRF_MAX)
    p_est.add_argument("--strategy", choices=[s.value for s in SearchStrategy],
                       default=DEFAULT_STRATEGY.value,
                       help=f"CRF search (default: {DEFAULT_STRATEGY.value}); "
                            f"{SearchStrategy.LINEAR_SWEEP.value}, every CRF from --c-min up, "
                            "is the paper's reference and finds the same CRF on monotone rates")
    p_est.add_argument("--trial-seconds", type=_positive_seconds, default=None,
                       help="truncate trial encodes to the first K seconds")
    p_est.set_defaults(func=cmd_estimate)

    p_emu = sub.add_parser("emulate", parents=[shared], help="apply a profile to local videos")
    p_emu.add_argument("inputs", nargs="+", type=Path)
    p_emu.add_argument("--profile", required=True, type=Path)
    p_emu.add_argument("--out", required=True, type=Path, help="output directory")
    p_emu.add_argument("--include-saturated", action="store_true",
                       help="let saturated estimates join the CRF average")
    p_emu.set_defaults(func=cmd_emulate)

    p_sta = sub.add_parser("analyze-stability", parents=[shared], help="bootstrap CRF estimate spread vs sample count")
    p_sta.add_argument("--profile", required=True, type=Path)
    p_sta.add_argument("--resolution", required=True, type=_resolution, help="output resolution WxH to study")
    p_sta.add_argument("--iterations", type=_positive_int, default=DEFAULT_ITERATIONS)
    p_sta.add_argument("--seed", type=int, default=0)
    p_sta.add_argument("--out", required=True, type=Path, help="output CSV path")
    p_sta.add_argument("--n-min", type=_positive_int, default=1)
    p_sta.add_argument("--n-max", type=_positive_int, default=None,
                       help="largest subset size (default: min(50, population))")
    p_sta.add_argument("--include-saturated", action="store_true")
    p_sta.add_argument("--width-threshold", type=_width, default=None,
                       help="also report the smallest n' whose CRF range is within this width")
    p_sta.set_defaults(func=cmd_analyze_stability)

    p_db = sub.add_parser("db", parents=[shared], help="profile database inspection")
    db_sub = p_db.add_subparsers(dest="db_command", required=True)
    p_show = db_sub.add_parser("show", help="tabulate a profile")
    p_show.add_argument("profile", type=Path)
    p_show.set_defaults(func=cmd_db_show)

    p_mock = sub.add_parser("mock-platform", parents=[shared], help="encode a corpus with fixed hidden parameters")
    p_mock.add_argument("inputs_dir", type=Path)
    p_mock.add_argument("--out", required=True, type=Path, help="output directory")
    p_mock.add_argument("--resolution", required=True, type=_even_resolution,
                        help="hidden output resolution WxH, both even")
    p_mock.add_argument("--crf", required=True, type=_hidden_crf,
                        help=f"hidden CRF in [{CRF_FLOOR:g}, {CRF_CEIL:g}]")
    p_mock.set_defaults(func=cmd_mock_platform)

    return parser


def _config_from_args(args, preset: str | None) -> RunConfig:
    # An option left unset keeps RunConfig's default.
    options = {"ffmpeg": args.ffmpeg_bin, "ffprobe": args.ffprobe_bin, "preset": preset,
               "workers": args.workers, "scratch_dir": args.scratch_dir}
    config = RunConfig(**{name: value for name, value in options.items() if value is not None})
    config.check_tools()
    return config


def _list_videos(directory: Path) -> list[Path]:
    return sorted(
        p for p in directory.iterdir()
        if p.is_file() and p.suffix.lower() in VIDEO_EXTENSIONS
    )


def _pair_by_stem(originals_dir: Path, shared_dir: Path) -> list[VideoPair]:
    originals = by_stem(_list_videos(originals_dir))
    shared = by_stem(_list_videos(shared_dir))
    common = sorted(originals.keys() & shared.keys())
    for stem in sorted(originals.keys() ^ shared.keys()):
        logger.warning("unpaired stem %r skipped", stem)
    return [VideoPair(originals[s], shared[s], pair_id=s) for s in common]


def _pair_by_manifest(manifest: Path) -> list[VideoPair]:
    try:
        text = manifest.read_bytes().decode()
    except UnicodeDecodeError as exc:
        raise PreconditionViolation(f"manifest {manifest} is not UTF-8: {exc}") from exc
    pairs = []
    for row in csv.reader(io.StringIO(text, newline="")):
        if not row or row[0].strip().lower() == "original":
            continue
        if len(row) < 2:
            raise PreconditionViolation(f"manifest row needs 2 columns: {row!r}")
        original, shared = Path(row[0].strip()), Path(row[1].strip())
        pairs.append(VideoPair(original, shared, pair_id=original.stem))
    return pairs


def _prepare_out(out: Path, inputs: list[Path], what: str) -> None:
    # An unusable --out must fail before the work that fills it, not after.
    refuse_overwrite([out], inputs)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write {what} to {out}: {exc}") from exc
    if out.is_dir():
        raise IoFailure(f"cannot write {what} to {out}: it is a directory")


def cmd_estimate(args) -> int:
    # Usage errors are reported before the tool check.
    check_range(args.c_min, args.c_max)
    config = _config_from_args(args, preset=args.preset)
    if args.manifest is not None:
        pairs = _pair_by_manifest(args.manifest)
    else:
        pairs = _pair_by_stem(args.originals_dir, args.shared_dir)
    inputs = [path for pair in pairs for path in (pair.original_path, pair.shared_path)]
    if args.manifest is not None:
        inputs.append(args.manifest)
    _prepare_out(args.out, inputs, "profile")

    outcomes = estimate_batch(
        pairs,
        c_min=args.c_min,
        c_max=args.c_max,
        strategy=SearchStrategy(args.strategy),
        config=config,
        trial_seconds=args.trial_seconds,
    )

    entries = [o.result for o in outcomes if o.ok]
    profile = PlatformProfile(
        platform_name=args.platform,
        captured_at=dt.date.today(),
        preset=config.preset,
        entries=entries,
    )
    save_profile(profile, args.out)
    print(f"profile with {len(entries)} entries written to {args.out}")

    counts = Counter(entry.rho_out for entry in entries)
    for rho, count in sorted(counts.items()):
        line = f"  {rho[0]}x{rho[1]}: {count} entries"
        if count < MIN_SAMPLES_PER_RESOLUTION:
            line += f"  (warning: < {MIN_SAMPLES_PER_RESOLUTION} samples, estimate may be unstable)"
        print(line)

    failed = sum(not o.ok for o in outcomes)
    if failed:
        print(f"{failed} of {len(outcomes)} pairs failed", file=sys.stderr)
    return 0


def cmd_emulate(args) -> int:
    refuse_overwrite([args.out / "manifest.json"], [args.profile])
    profile = load_profile(args.profile)
    config = _config_from_args(args, preset=args.preset or profile.preset)
    outcomes = emulate_batch(
        args.inputs,
        profile,
        args.out,
        config=config,
        include_saturated=args.include_saturated,
    )
    ok = sum(o.ok for o in outcomes)
    print(f"{ok} of {len(outcomes)} inputs emulated into {args.out} (manifest.json written)")
    return 0


def cmd_analyze_stability(args) -> int:
    profile = load_profile(args.profile)
    _prepare_out(args.out, [args.profile], "CSV")
    rho = args.resolution
    entries = supporting_entries(rho, profile, args.include_saturated)
    n_max = args.n_max if args.n_max is not None else min(50, len(entries))
    report = bootstrap_stability([e.crf_hat for e in entries], (args.n_min, n_max),
                                 iterations=args.iterations, seed=args.seed)
    write_stability_csv(report, args.out)
    first, last = report.rows[0], report.rows[-1]
    print(f"stability of {rho[0]}x{rho[1]} over {len(entries)} estimates "
          f"({report.iterations} iterations, seed {report.seed}) -> {args.out}")
    print(f"  n'={first.n_prime}: range {first.range_width:.3f}   "
          f"n'={last.n_prime}: range {last.range_width:.3f}")
    if args.width_threshold is not None:
        n_prime = recommend_sample_size(report, args.width_threshold)
        if n_prime is not None:
            print(f"  smallest n' with CRF range <= {args.width_threshold:g}: {n_prime}")
        else:
            print(f"  no n' reaches range <= {args.width_threshold:g}; largest studied: {last.n_prime}")
    return 0


def cmd_db_show(args) -> int:
    profile = load_profile(args.profile)
    print(f"platform:     {profile.platform_name}")
    print(f"captured at:  {profile.captured_at.isoformat()}")
    print(f"preset:       {profile.preset}")
    print(f"tool version: {profile.tool_version}")
    print(f"entries:      {len(profile.entries)}")
    groups: dict[tuple, list[ProfileEntry]] = {}
    for entry in profile.entries:
        groups.setdefault((entry.rho_in, entry.rho_out), []).append(entry)
    for (rho_in, rho_out), group in sorted(groups.items()):
        crfs = [e.crf_hat for e in group]
        saturated = sum(e.saturated for e in group)
        line = (f"  {rho_in[0]}x{rho_in[1]} -> {rho_out[0]}x{rho_out[1]}: "
                f"{len(group)} entries, mean crf {sum(crfs) / len(crfs):.2f}")
        if saturated:
            line += f", {saturated} saturated"
        print(line)
    return 0


def cmd_mock_platform(args) -> int:
    width, height = args.resolution
    config = _config_from_args(args, preset=args.preset)
    inputs = _list_videos(args.inputs_dir)
    if not inputs:
        raise AllItemsFailed(f"no videos in {args.inputs_dir}")
    by_stem(inputs)  # outputs are named <stem>.mp4
    args.out.mkdir(parents=True, exist_ok=True)

    def work(path: Path) -> Path:
        info = media_info(path, config)
        spec = EncodeSpec(
            target_width=width,
            target_height=height,
            crf=args.crf,
            frame_rate=info.frame_rate,
        )
        return encode(path, spec, args.out / f"{path.stem}.mp4", config).path

    outcomes = run_batch(work, inputs, config.workers)
    ok = sum(o.ok for o in outcomes)
    if not ok:
        raise AllItemsFailed("every input failed; first error: " + outcomes[0].error)
    print(f"{ok} of {len(inputs)} videos mock-shared into {args.out} "
          f"(hidden: {width}x{height} @ crf {args.crf:g}, preset {config.preset})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "estimate":
        dirs = (args.originals_dir, args.shared_dir).count(None)
        if dirs != (2 if args.manifest else 0):
            parser.error("estimate takes ORIGINALS_DIR and SHARED_DIR, or --manifest FILE")
    if args.command == "analyze-stability" and args.n_max is not None and args.n_min > args.n_max:
        parser.error(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    logging.basicConfig(
        level=args.log_level.upper(),
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    try:
        return args.func(args)
    except InvalidRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SnvseError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted; running tools terminated", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
